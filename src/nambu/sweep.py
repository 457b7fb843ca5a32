"""The monomial jet basis of (n-1)-forms and the sweeps over it.

Every verifier certifies through the one scan-and-certify loop of
``structure``.  ``first_hit`` sweeps a grid in the pinned lexicographic
order (here slot by slot: coefficient monomial-major, then index set)
through a fast residual, an exact decomposition that the test suite
cross-checks against the direct formula, and stops at the first nonzero one.
``certify`` reports a pass when there is none.  Otherwise the hit may name
a tuple other than the one to report: a Leibniz pair is lifted to a triple,
a fundamental-identity f-tuple to its first failing g-tuple, and an
exact-forms consistency hit ``(F, g)`` to the first failing pair of function
tuples from ``F`` on, by ``locate``.  The residual of the reported tuple is
recomputed by the direct formula, and a zero one is refused.  Residuals are
multidifferential operators of order <= 2 per slot, so grids capped at
coefficient degree 2 (``JetBasis.capped``) certify the full configured
degree; every sweep but lsv's is capped: the invariance defect, the slot-1
rule, sharp-d and its split, and the function-slot and exact-forms rules.
``certify_forms`` is ``certify`` for points made of basis forms; the volume
identity (``verify_lsv``) sweeps ``JetBasis.elements`` through it.

Locating on capped grids.  The first failing pair of the full pair grid is
the first of the capped pair grid ``pairs(capped())``, so sharp-d and the
pair that Leibniz lifts are located there without a rescan.  The monomials
come in graded order, so capped rows come first; with the other slots
fixed the residual is of order <= 2 in each function slot, so a first
failure with a cubic f would need every capped f row, and hence every row,
to vanish, and the same holds for g within the block of the failing f and
``I``.  The slot-1 sweep relies on the same argument.  Combination grids
are no products: a tuple with a cubic entry may precede a capped one, so
fundamental identity and invariance replace a capped hit by the first over
all f-tuples (``structure.capped_first_hit``, a rescan).  Characterization's
slot rules keep that rescan too, so a fault that breaks the order argument
is still reported at the first failure of the full grid.

The slot-1 rule.  A residual ``R`` that is linear over functions in its
second slot and moves a function out of its first slot through a linear map
``act`` as

    R(f a0, b0) = f R(a0, b0) - sharp(b0)(f) act(a0) + act(i_{sharp a0}(df ^ b0))

is determined on all jet-basis pairs by ``R(x^g dx^I, dx^J)``, and the first
failing pair has the constant monomial in its second slot.  It is
first-order in f, so capped monomials certify it, and as they come first in
the pinned order, a hit among them is the first of all pairs.  The anchor
residual obeys it with ``act = sharp``, the coboundary of a tensorial
1-cochain ``c`` with ``act = c``; both hold for any n-vector.
"""

from __future__ import annotations

import functools
import itertools
from typing import Callable, Sequence

from .exterior import (
    Form, Multivector, apply_vec, contract_vec, differential, format_tensor, wedge,
)
from .poly import Polynomial, jet_exponents
from .structure import CheckReport, NambuStructure, capped_first_hit, certify, first_hit, sharp


def sweep_cache(method: Callable) -> Callable:
    """Cache a method's values in a plain dict on its instance.

    The instance lives for one sweep; no reference cycle keeps it longer.
    """
    attr = f"_{method.__name__}_cache"

    @functools.wraps(method)
    def cached(self, *args):
        store = self.__dict__.setdefault(attr, {})
        value = store.get(args)
        if value is None:
            value = store[args] = method(self, *args)
        return value

    return cached


class JetBasis:
    """Monomial jet basis of (n-1)-forms ``x^g dx^I`` with per-sweep caches.

    A basis form is a pair ``(g, I)`` of a monomial index and an index set;
    monomial 0 is the constant.  A basis lives for one verifier call, and so
    do its caches.
    """

    def __init__(self, structure: NambuStructure, max_degree: int):
        structure.require_order_at_least(3)
        self.structure = structure
        self.exponents = jet_exponents(structure.m, max_degree)
        self.monomials = [Polynomial.monomial(e) for e in self.exponents]
        self.index_sets = list(
            itertools.combinations(range(1, structure.m + 1), structure.n - 1)
        )
        self.units = {indices: Form.basis(structure.m, indices) for indices in self.index_sets}

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

    def capped(self, cap: int = 2) -> list[int]:
        """Indices of the monomials of degree <= cap."""
        return [g for g, e in enumerate(self.exponents) if sum(e) <= cap]

    def capped_first_hit(self, grid: Callable, residual: Callable):
        """``structure.capped_first_hit`` over the monomial rows."""
        rows = range(len(self.monomials))
        return capped_first_hit(grid, residual, rows, lambda g: sum(self.exponents[g]))

    def pairs(self, rows: Sequence[int]):
        """Pairs ``(f, I, g, J)`` of basis forms with monomials from ``rows``."""
        return itertools.product(rows, self.index_sets, rows, self.index_sets)

    @sweep_cache
    def d(self, g: int) -> Form:
        """Differential of the jet monomial ``g``."""
        return differential(self.monomials[g])

    @sweep_cache
    def sharp0(self, indices: tuple[int, ...]) -> Multivector:
        """Anchor of the unit form ``dx^I``."""
        return sharp(self.structure, self.units[indices])


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


# -- the slot-1 rule ---------------------------------------------------------------


def slot1_pairs(basis: JetBasis, rows: Sequence[int]):
    """The family ``(x^g dx^I, dx^J)``, g in ``rows``, as points ``(g, I, 0, J)``."""
    return itertools.product(rows, basis.index_sets, (0,), basis.index_sets)


def slot1_residual(basis: JetBasis, act: Callable, direct: Callable) -> Callable:
    """Fast ``R(x^g dx^I, dx^J)`` at the points of ``slot1_pairs``.

    ``R`` obeys the slot-1 rule (module docstring) with the linear map
    ``act``; ``direct(a, b)`` evaluates it on forms and supplies the cores
    ``R(dx^I, dx^J)``.  The second monomial of a point is not read: the rule
    is linear over functions in that slot.
    """
    units = basis.units
    acted = {indices: act(unit) for indices, unit in units.items()}
    cores = {(left, right): direct(units[left], units[right]) for left in units for right in units}

    def residual(g: int, left: tuple[int, ...], _: int, right: tuple[int, ...]):
        f = basis.monomials[g]
        value = cores[(left, right)] * f
        grad = apply_vec(basis.sharp0(right), f)
        if not grad.is_zero():
            value = value - acted[left] * grad
        lifted = contract_vec(basis.sharp0(left), wedge(basis.d(g), units[right]))
        if not lifted.is_zero():
            value = value + act(lifted)
        return value

    return residual


def slot1_sweep(basis: JetBasis, check: str, act: Callable, direct: Callable) -> CheckReport:
    """Certify a slot-1 rule over all jet-basis pairs on the capped rows."""
    hit = first_hit(slot1_pairs(basis, basis.capped()), slot1_residual(basis, act, direct))
    return certify_forms(basis, check, basis.size() ** 2, hit, direct)
