"""The monomial jet basis of (n-1)-forms and the sweeps over it.

One ``JetBasis`` serves a whole ``check`` run: every verifier takes it,
and a scan that two checks share runs once per run, through
``JetBasis.once`` (the anchor-defect scan of FI, invariance, anchor,
sharp-d and Leibniz; on its hit, the invariance sweep of FI and
invariance and the anchor hit of anchor, sharp-d and Leibniz; the
exact-forms consistency scan of characterization and phi-morphism).

Sweeps run on ``c * lam`` (``JetBasis.swept``), c the lcm of the
coefficient denominators of lam, so their arithmetic stays on ``int``
coefficients; reports are computed on lam.  This is exact: every residual
is homogeneous in lam, ``R(c lam) = c^k R(lam)``, with k = 2 for the
fundamental-identity residual, the invariance and anchor defects, anchor, sharp-d,
Leibniz and the modular cocycle, and k = 1 for characterization's rules,
the exact-forms rule, phi-morphism and lsv (the modular multivector built
from the same n-vector).  So zero sets, hits, rescans and located tuples
are those of lam itself.

Tables.  A run keeps two kinds of table, each computed on first use and
then read.  The basis holds what is per run: the unit forms ``dx^I`` and
the shared scans, the anchor defects of the anchor-defect scan among them
(``structure``).  Each ``NambuStructure`` instance holds what depends on its
n-vector alone: the anchor ``sharp(dx^I)`` and the bracket
``lbracket(dx^I, dx^J)`` of unit forms (``NambuStructure.tabled``).  The
anchor and cocycle defects and the exact-forms scan read the anchors
through ``sharp``, and characterization's slot-1 rule reads the brackets
``lbracket(dx^I, dx^J0)`` through ``lbracket``; so lam and ``c * lam`` have
tables of their own.  Sharing a result among callers is exact: tensors are
immutable, and every operation builds a new one.

Every verifier certifies through the one scan-and-certify loop of
``structure``.  ``first_hit`` sweeps a grid in the pinned lexicographic
order (here slot by slot: coefficient monomial-major, then index set) and
stops at the first nonzero residual; ``certify`` reports a pass when there
is none.  Otherwise the hit may name a tuple other than the one to report:
a Leibniz pair is lifted to a triple through the factorization of its
residual (``algebroid``), a fundamental-identity f-tuple to its first
failing g-tuple, and an exact-forms consistency hit ``(x_I, g)`` to the
first failing pair of capped function tuples from ``x_I`` on, by
``locate``.  The residual of the reported tuple is recomputed by the direct
formula (for Leibniz, the nested brackets), and a zero one is refused.
``certify_forms`` is ``certify`` for points made of basis forms.

Capped rows.  A residual that is a differential operator of order <= k in
a function slot, the other slots fixed, vanishes identically once it
vanishes on the monomials of degree <= k (``JetBasis.capped(k)``), and the
monomials come in graded order, so those rows come first.  On a product
grid in the pinned order the first failure therefore lies on the capped
rows of every function slot: a row of higher degree would leave a capped
row, at an earlier point, failing too.  So every sweep scans only its
capped rows, which certify the configured degree and locate a failure.
Each residual below has its order for any n-vector (``algebroid`` and
``cohomology`` docstrings):

* Order <= 1, ``capped(1)``:
  - the anchor defect ``T(x^g dx^I)`` (``structure``), whose pass certifies
    FI, invariance, anchor, sharp-d and Leibniz;
  - anchor: the first ``dx^J`` on T's hit row, ``A = i(dx^J) T``;
  - sharp-d: the anchor hit's row of the pair grid, read off T;
  - Leibniz: the anchor hit, lifted to a triple through the factorization;
  - characterization's function-slot rules, on unit forms, each on the
    smallest grid its symbol allows (``algebroid``): slot-2 on no
    structure, as the Leibniz defect ``lie_form_defect`` of ``lie_form`` at
    ``X = d_k`` and ``b = dx^J``, C^oo-linear in X; slot-1 on lam at the
    first index set ``J0`` alone, its residual being a multiple of b; both
    from ``f = x_1``, their rows at ``f = 1`` being zero whatever the
    kernels compute.  A hit of the slot-2 sweep runs both rules on every
    unit pair instead.  Blind spots: a fault in the direct slot-2 residual
    alone, or in the direct slot-1 residual at one ``J != J0`` alone, is
    not evaluated;
  - modular cocycle: the cocycle defect ``U(x^g dx^I)`` of the modular
    cochain (``cohomology``), scanned as T is and read as ``<dx^J, U>`` on
    its hit row;
  - lsv: the basis forms ``x^g dx^I``, a prefix of ``JetBasis.elements``.
* Order <= 2, ``capped(2)``: the invariance defect ``L_{X_f} lam`` of FI
  and invariance, on a hit of the anchor-defect scan, and the exact-forms
  consistency form
  ``d(X_F(g) - {F, g})`` of characterization and phi-morphism in g; F
  runs on the coordinate f-tuples, by tensoriality (``algebroid``).

FI and invariance sweep combinations of f-tuples, which are no product: a
tuple with a cubic entry may precede a capped one, so a capped hit is
replaced by the first over all f-tuples (``structure.capped_first_hit``, a
rescan).  Characterization's function-slot rules keep that rescan too, so a
fault that breaks the order argument is still reported at the first failure
of the full grid.
"""

from __future__ import annotations

import functools
import itertools
from typing import Callable

from .exterior import Form, format_tensor
from .poly import Polynomial, jet_exponents
from .structure import CheckReport, NambuStructure, certify


class JetBasis:
    """Monomial jet basis of (n-1)-forms ``x^g dx^I`` with the tables of one run.

    A basis form is a pair ``(g, I)`` of a monomial index and an index set;
    monomial 0 is the constant.  A basis lives for one run: every verifier
    of a ``check`` reads the same basis and its tables, each built on first
    use (the unit forms ``dx^I`` and, through ``once``, each scan that two
    checks share).
    The anchors ``sharp(dx^I)`` are no table of the basis: ``sharp`` reads
    them from the table of the structure instance, which also holds the
    brackets of unit forms (module docstring).

    ``structure`` is the given n-vector lam, on which reports and direct
    formulas are computed; ``swept`` is its integral multiple ``c * lam``
    (``NambuStructure.integral_multiple``), on which every sweep and the
    anchors it reads are computed (module docstring).
    """

    def __init__(self, structure: NambuStructure, max_degree: int):
        require_jet_degree(max_degree)
        self.structure = structure
        self.swept = structure.integral_multiple()
        self.max_degree = max_degree
        self.exponents = jet_exponents(structure.m, max_degree)
        self.monomials = [Polynomial.monomial(e) for e in self.exponents]
        self.index_sets = list(
            itertools.combinations(range(1, structure.m + 1), structure.n - 1)
        )
        self._scans: dict[Callable, object] = {}

    @functools.cached_property
    def units(self) -> dict[tuple[int, ...], Form]:
        return {indices: Form.basis(self.structure.m, indices) for indices in self.index_sets}

    def once(self, scan: Callable[[JetBasis], object]):
        """``scan(self)``, computed on the first call of the run only."""
        if scan not in self._scans:
            self._scans[scan] = scan(self)
        return self._scans[scan]

    def elements(self):
        """Basis forms ``(g, I)`` in the pinned lexicographic order."""
        return itertools.product(range(len(self.monomials)), self.index_sets)

    def form(self, g: int, indices: tuple[int, ...]) -> Form:
        return self.units[indices] * self.monomials[g]

    def forms(self, point: tuple) -> list[Form]:
        """The basis forms of a flat ``(g, I, h, J, ..)`` point."""
        return [self.form(g, indices) for g, indices in zip(point[::2], point[1::2])]

    def size(self) -> int:
        return len(self.monomials) * len(self.index_sets)

    def capped(self, cap: int) -> list[int]:
        """Indices of the monomials of degree <= cap."""
        return [g for g, e in enumerate(self.exponents) if sum(e) <= cap]


def require_jet_degree(max_degree: int) -> None:
    """Refuse a jet degree below 2, which would certify no identity."""
    if max_degree < 2:
        raise ValueError("identity certification requires max_degree >= 2")


# -- certifying basis forms ----------------------------------------------------------


def certify_forms(
    basis: JetBasis, check: str, items: int, hit, direct: Callable, locate=None
) -> CheckReport:
    """``certify`` for points made of basis forms; ``direct`` takes the forms."""
    return certify(
        check,
        items,
        hit,
        lambda *point: direct(*basis.forms(point)),
        lambda *point: tuple(format_tensor(form) for form in basis.forms(point)),
        locate,
    )
