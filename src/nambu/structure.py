"""Nambu-Poisson structures, the jet basis of a run, and the sweeps over it.

A structure is an n-vector on an m-dimensional chart together with the
bracket ``{f_1, .., f_n} = <df_1 ^ .. ^ df_n, lam>``.  Construction does not
presume the fundamental identity; ``check_fundamental_identity`` and
``check_invariance`` certify it explicitly over a finite monomial jet basis.
This module also holds the sweep engine that every verifier runs, here and
in ``algebroid`` and ``cohomology``.

The jet basis.  One ``JetBasis`` serves a whole ``check`` run: every
verifier takes it, and a scan that two checks share runs once per run,
through ``JetBasis.once`` (the anchor-defect scan of FI, invariance,
anchor, sharp-d and Leibniz; on its hit, the invariance sweep of FI and
invariance; the exact-forms consistency scan of characterization and
phi-morphism).  Tables are computed on first use and then read: the
basis holds the unit forms ``dx^I`` and the shared scans, and each
``NambuStructure`` instance the anchors ``sharp(dx^I)`` and brackets
``lbracket(dx^I, dx^J)`` of unit forms, which ``sharp`` and ``lbracket``
read (``NambuStructure.tabled``).  Sharing a result among callers is exact:
tensors are immutable, and every operation builds a new one.

The swept multiple.  Sweeps run on ``c * lam`` (``JetBasis.swept``), c the
lcm of the coefficient denominators of lam, so their arithmetic stays on
``int`` coefficients; reports are computed on lam, and each of the two
structures has its own table.  This is exact: every residual is homogeneous
in lam, ``R(c lam) = c^k R(lam)``, with k = 2 for the fundamental-identity
residual, the invariance and anchor defects, anchor, sharp-d, Leibniz and
the modular cocycle, and k = 1 for characterization's rules, the
exact-forms rule, phi-morphism and lsv (the modular multivector built from
the same n-vector).  So zero sets, hits, rescans and located tuples are
those of lam itself.

The scan-and-certify loop.  ``first_hit`` sweeps a grid in the pinned
lexicographic order (here slot by slot: coefficient monomial-major, then
index set) and stops at the first nonzero residual; ``certify`` reports a
pass when there is none.  Otherwise the hit may name a tuple other than the
one to report: a Leibniz pair is lifted to a triple through the
factorization of its residual (``algebroid``), a fundamental-identity
f-tuple to its first failing g-tuple, and an exact-forms consistency hit
``(x_I, g)`` to the first failing pair of capped function tuples from
``x_I`` on, by ``locate``.  The residual of the reported tuple is
recomputed by the direct formula (for Leibniz, the nested brackets), and a
zero one is refused.  ``certify_forms`` is ``certify`` for points made of
basis forms.

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
  - the anchor defect T and the cocycle defect U, through ``defect_scan``
    (below);
  - anchor, sharp-d and Leibniz, read off T's hit (``algebroid``);
  - characterization's function-slot rules, on unit forms, each on the
    smallest grid its symbol allows (``algebroid``);
  - lsv: the basis forms ``x^g dx^I``, a prefix of ``JetBasis.elements``.
* Order <= 2, ``capped(2)``: the invariance defect ``L_{X_f} lam`` of FI
  and invariance, on a hit of the anchor-defect scan, and the exact-forms
  consistency form ``d(X_F(g) - {F, g})`` of characterization and
  phi-morphism in g; F runs on the coordinate f-tuples, by tensoriality
  (``algebroid``).

FI and invariance sweep combinations of f-tuples, which are no product: a
tuple with a cubic entry may precede a capped one, so a capped hit is
replaced by the first over all f-tuples (``capped_first_hit``, a rescan).
Characterization's function-slot rules keep that rescan too, so a fault
that breaks the order argument is still reported at the first failure of
the full grid.

First-order defects.  For any n-vector and any (n-1)-form a, the
bracket's dual action on multivectors is

    D_a P = L_{sharp a} P - (-1)^n <d a, lam> P        (``dual_action``),

whose density term ``(-1)^n <d a, lam>`` (``bracket_scale``) is that of the
bracket of ``algebroid``.

Two defects are built on it: the anchor defect ``T(a) = D_a lam``
(``anchor_defect``) and the cocycle defect ``U(a) = D_a w - cobound0(<a,
w>)`` of ``cohomology``.  Each is a first-order operator in the function
slot: ``T(f a) = f T(a) + B(df, a)``, with B linear over functions in df,
so ``T(fh a) = f T(h a) + h T(f a) - fh T(a)``, and T vanishes on every
polynomial form once it vanishes on the basis forms ``x^g dx^I`` with
deg g <= 1 (g = 1 gives ``T(dx^I) = 0``, then g = x_j gives ``B(dx_j,
dx^I) = 0``).  ``defect_scan`` evaluates a defect there, each value once,
and returns its values and its hit.  The pair residual ``<b, D(a)>`` is
linear over functions in b, and every row before the first nonzero
``D(x^g dx^I)`` has D = 0, so the first failing pair of the capped pair
grid, in the pinned order, is ``(x^g dx^I, dx^J)`` for the first J with
``<dx^J, D(x^g dx^I)> != 0``; the hit is that point ``(g, I, 0, J)``, read
off the row's one value.

The anchor defect.  The contraction of T(a) by any (n-1)-form b is the
anchor residual of ``algebroid``: ``A(a, b) = [sharp a, sharp b] -
sharp(lbracket(a, b)) = i_b T(a)``, since ``[sharp a, sharp b] = L_{sharp
a}(i_b lam) = i_{L_{sharp a} b} lam + i_b L_{sharp a} lam``.
``anchor_defect_scan`` runs ``defect_scan`` on T once per run, and a pass
proves three things for every polynomial pair, at every degree and not
only up to the jet degree:

* ``A = 0``, since an n-vector killed by every ``i(dx^J)`` is zero: the
  anchor, sharp-d and Leibniz checks of ``algebroid`` pass;
* ``L_{X_F} lam = T(df_1^..^df_{n-1}) = 0`` for every f-tuple, since
  ``d(df_1^..^df_{n-1}) = 0``: invariance passes;
* hence FI passes, by the factorization below.

None of this uses the converse, the source paper's theorem that a
Nambu-Poisson n-vector makes the anchor a morphism of brackets.

The fundamental identity.  Its residual factors exactly through the
invariance defect:

    R(f_1..f_{n-1}; g_1..g_n) = <dg_1 ^ .. ^ dg_n, L_{X_f} lam>

(an identity of the implemented operations, certified by the test suite).
So on a hit of the anchor-defect scan FI and invariance are one capped
sweep of the f-tuples through ``invariance_defect``, which a run computes
once; on a coordinate f-tuple ``x_I`` the sweep reads the scan's value
``T(dx^I)`` instead.  FI reads its failing g-tuple off the defect ``L``
(``check_fundamental_identity``), and only that tuple is evaluated by the
direct nested-bracket formula.  The blind spot: when T vanishes, no
invariance defect, fundamental-identity residual or direct anchor residual
is evaluated, and on a coordinate f-tuple no invariance defect is, so a
fault in those functions alone is not seen there; the test suite checks
each identity above by the direct formulas.
"""

from __future__ import annotations

import enum
import functools
import itertools
import math
from collections.abc import Callable, Iterable, Sequence
from fractions import Fraction

from .errors import ArityError, ChartMismatchError, DegreeError, OrderError
from .exterior import (
    Form, Multivector, contract_form, differential, ext_d, format_tensor, lie_mv, pair, wedge,
    wedge_all,
)
from .poly import Polynomial, jet_exponents


class Record:
    """Base of the package's immutable value records.

    A record declares its fields, in order, as annotated class attributes,
    and a default as the attribute's value; ``_fields`` lists them.  The
    constructor takes the fields by position or keyword and then runs
    ``__post_init__``.  A record refuses assignment and deletion, equals a
    record of its own class with equal fields, and hashes and prints as its
    fields.  Copy and pickle restore its attributes without the constructor.
    """

    _fields: tuple[str, ...] = ()
    _defaults: dict[str, object] = {}

    def __init_subclass__(cls):
        cls._fields = tuple(cls.__annotations__)
        cls._defaults = {key: vars(cls)[key] for key in cls._fields if key in vars(cls)}

    def __init__(self, *args, **kwargs):
        fields = self._fields
        given = dict(zip(fields, args))
        values = {**self._defaults, **given, **kwargs}
        if len(args) > len(fields) or given.keys() & kwargs.keys() or values.keys() != set(fields):
            raise TypeError(f"{type(self).__name__}() takes the arguments {', '.join(fields)}")
        vars(self).update(values)
        self.__post_init__()

    def __post_init__(self):
        pass

    def _values(self) -> tuple:
        return tuple(vars(self)[key] for key in self._fields)

    def __setattr__(self, key, value):
        raise AttributeError(f"cannot assign to field {key!r}")

    def __delattr__(self, key):
        raise AttributeError(f"cannot delete field {key!r}")

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{key}={vars(self)[key]!r}" for key in self._fields)
        return f"{type(self).__qualname__}({fields})"


class NambuStructure(Record):
    """Chart dimension, order, and the defining n-vector.

    Each instance carries a private table of the values that ``tabled``
    serves on unit forms ``dx^I``: the anchor ``sharp(dx^I)`` and the
    bracket ``lbracket(dx^I, dx^J)``, each computed on first use.  The
    table is no record field, so equality, hashing, repr and the
    constructor ignore it, and a copy rebuilds through the constructor with
    an empty table of its own.
    """

    m: int
    n: int
    nvector: Multivector

    def __post_init__(self):
        if not 2 <= self.n <= self.m:
            raise OrderError(f"order must satisfy 2 <= n <= m, got n={self.n}, m={self.m}")
        if self.nvector.m != self.m:
            raise ChartMismatchError(
                f"n-vector lives on chart of dimension {self.nvector.m}, expected {self.m}"
            )
        if self.nvector.degree != self.n:
            raise DegreeError(
                f"n-vector has degree {self.nvector.degree}, expected {self.n}"
            )
        object.__setattr__(self, "_units", {})

    def __reduce__(self):
        return type(self), (self.m, self.n, self.nvector)

    def tabled(self, compute: Callable, *forms: Form):
        """``compute(self, *forms)``; read from this instance's table when
        every form is a unit form ``dx^I`` on its chart.

        The table keys a value by ``compute`` and the index sets, and holds
        the result of the first call.  The results are immutable tensors, so
        handing every caller the same object is exact.
        """
        key = [compute]
        for form in forms:
            indices = self._unit_indices(form)
            if indices is None:
                return compute(self, *forms)
            key.append(indices)
        key = tuple(key)
        value = self._units.get(key)
        if value is None:
            value = self._units[key] = compute(self, *forms)
        return value

    def _unit_indices(self, form: Form) -> tuple[int, ...] | None:
        """The index set I when ``form`` is ``dx^I`` on this chart, else None."""
        components = form.components
        if len(components) == 1 and type(form) is Form and form.m == self.m:
            for indices, coeff in components.items():
                if coeff.terms == {(0,) * self.m: 1}:
                    return indices
        return None

    def integral_multiple(self) -> NambuStructure:
        """The structure of ``c * lam``, c the lcm of the coefficient
        denominators of lam, with ``int`` coefficients; ``self`` when c = 1.

        Every check residual is homogeneous in lam, so ``c * lam`` has the
        same zero set as lam (module docstring).
        """
        c = math.lcm(*(
            value.denominator
            for coeff in self.nvector.components.values()
            for value in coeff.terms.values()
        ))
        if c == 1:
            return self
        components = {
            indices: Polynomial(self.m, {e: value * c for e, value in coeff.terms.items()})
            for indices, coeff in self.nvector.components.items()
        }
        return NambuStructure(self.m, self.n, Multivector(self.m, self.n, components))


class Counterexample(Record):
    """Failing inputs plus the nonzero residual, both in canonical text."""

    inputs: tuple[str, ...]
    residual: str


class CheckReport(Record):
    check: str
    passed: bool
    items_checked: int
    counterexample: Counterexample | None = None

    def __post_init__(self):
        if self.passed == (self.counterexample is not None):
            raise ValueError("fail verdicts carry a counterexample, pass verdicts do not")

    @property
    def verdict(self) -> str:
        return "pass" if self.passed else "fail"


class PluckerVerdict(enum.Enum):
    PASS = "pass"
    FAIL = "fail"
    NOT_APPLICABLE = "not-applicable"


# -- the jet basis and the scan-and-certify loop ---------------------------------


class JetBasis:
    """Monomial jet basis of (n-1)-forms ``x^g dx^I`` with the tables of one run.

    A basis form is a pair ``(g, I)`` of a monomial index and an index set;
    monomial 0 is the constant.  ``structure`` is the given n-vector lam, on
    which reports and direct formulas are computed; ``swept`` is its
    integral multiple ``c * lam`` (``NambuStructure.integral_multiple``), on
    which every sweep and the anchors it reads are computed.  The basis
    tables the unit forms ``dx^I`` and, through ``once``, each scan that two
    checks share; the anchors ``sharp(dx^I)`` are tabled by the structure
    instance (module docstring).
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




def first_hit(grid: Iterable[tuple], fast: Callable) -> tuple | None:
    """First point of ``grid`` whose fast residual is nonzero, or None."""
    for point in grid:
        if not fast(*point).is_zero():
            return point
    return None


def capped_first_hit(grid: Callable, fast: Callable, rows: Sequence, capped: Sequence):
    """First hit of ``fast`` over ``grid(rows)``: the ``capped`` rows, those
    of degree at most the residual's order, certify, and a hit there is
    replaced by the first over all rows (a rescan; no point is evaluated twice)."""
    hit = first_hit(grid(capped), fast)
    if hit is None or len(capped) == len(rows):
        return hit
    cleared = set(itertools.takewhile(hit.__ne__, grid(capped)))
    rescan = (point for point in grid(rows) if point not in cleared)
    return next(point for point in rescan if point == hit or not fast(*point).is_zero())


def certify(
    check: str,
    items: int,
    hit: tuple | None,
    direct: Callable,
    inputs: Callable[..., tuple[str, ...]],
    locate: Callable[[tuple], tuple | None] | None = None,
) -> CheckReport:
    """The report of a sweep that stopped at ``hit`` (None when it passed).

    ``locate`` maps the hit to the tuple to report; ``direct`` recomputes the
    residual there and ``inputs`` renders the tuple.
    """
    if hit is None:
        return CheckReport(check=check, passed=True, items_checked=items)
    point = hit if locate is None else locate(hit)
    value = None if point is None else direct(*point)
    if value is None or value.is_zero():  # pragma: no cover - decomposition guard
        raise AssertionError(
            f"{check}: the sweep flagged {hit}, but the direct formula finds no failure"
        )
    text = str(value) if isinstance(value, Polynomial) else format_tensor(value)
    return CheckReport(
        check=check,
        passed=False,
        items_checked=items,
        counterexample=Counterexample(inputs=inputs(*point), residual=text),
    )


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


# -- bracket operations -------------------------------------------------------


def nbracket(structure: NambuStructure, functions: Sequence[Polynomial]) -> Polynomial:
    """The n-bracket ``{f_1, .., f_n}``."""
    if len(functions) != structure.n:
        raise ArityError(f"bracket takes {structure.n} functions, got {len(functions)}")
    return pair(wedge_all([differential(f) for f in functions]), structure.nvector)


def sharp(structure: NambuStructure, alpha: Form) -> Multivector:
    """Anchor map: contraction of an (n-1)-form into the n-vector; the
    anchor of a unit form ``dx^I`` is read from the structure's table."""
    if alpha.degree != structure.n - 1:
        raise DegreeError(
            f"anchor takes forms of degree {structure.n - 1}, got {alpha.degree}"
        )
    return structure.tabled(_contract, alpha)


def _contract(structure: NambuStructure, alpha: Form) -> Multivector:
    return contract_form(alpha, structure.nvector)


def hamiltonian(structure: NambuStructure, functions: Sequence[Polynomial]) -> Multivector:
    """Hamiltonian vector field of n-1 functions."""
    if len(functions) != structure.n - 1:
        raise ArityError(
            f"hamiltonian takes {structure.n - 1} functions, got {len(functions)}"
        )
    return sharp(structure, wedge_all([differential(f) for f in functions]))


# -- direct residual evaluators ----------------------------------------------


def fi_residual(
    structure: NambuStructure,
    fs: Sequence[Polynomial],
    gs: Sequence[Polynomial],
) -> Polynomial:
    """Fundamental-identity residual by direct nested-bracket evaluation.

    ``{f_1..f_{n-1}, {g_1..g_n}} - sum_i {g_1, .., {f_1..f_{n-1}, g_i}, .., g_n}``
    """
    if len(fs) != structure.n - 1 or len(gs) != structure.n:
        raise ArityError(
            f"residual takes {structure.n - 1} + {structure.n} functions,"
            f" got {len(fs)} + {len(gs)}"
        )
    lhs = nbracket(structure, list(fs) + [nbracket(structure, list(gs))])
    for i in range(structure.n):
        inner = nbracket(structure, list(fs) + [gs[i]])
        replaced = list(gs)
        replaced[i] = inner
        lhs = lhs - nbracket(structure, replaced)
    return lhs


def invariance_defect(
    structure: NambuStructure, fs: Sequence[Polynomial]
) -> Multivector:
    """Lie derivative of the n-vector along the Hamiltonian field of ``fs``."""
    return lie_mv(hamiltonian(structure, fs), structure.nvector)


def bracket_scale(structure: NambuStructure, alpha: Form) -> Polynomial:
    """``(-1)^n <d a, lam>``, the density term of the bracket
    ``lbracket(a, b) = L_{sharp a} b + (-1)^n <d a, lam> b``."""
    scale = pair(ext_d(alpha), structure.nvector)
    return -scale if structure.n % 2 else scale


def dual_action(structure: NambuStructure, alpha: Form, tensor: Multivector) -> Multivector:
    """``D_a P = L_{sharp a} P - (-1)^n <d a, lam> P``, the bracket's dual
    action on a multivector P (module docstring)."""
    derivative = lie_mv(sharp(structure, alpha), tensor)
    scale = bracket_scale(structure, alpha)
    return derivative if scale.is_zero() else derivative - tensor * scale


def anchor_defect(structure: NambuStructure, alpha: Form) -> Multivector:
    """``T(a) = D_a lam``, whose contraction by an (n-1)-form b is the anchor
    residual ``A(a, b)`` (module docstring)."""
    return dual_action(structure, alpha, structure.nvector)


# -- verifiers ----------------------------------------------------------------


def defect_scan(
    basis: JetBasis, defect: Callable[[Form], Multivector]
) -> tuple[Callable, tuple | None]:
    """Scan a defect D that is first-order in the function slot: the values
    ``value(g, I) = D(x^g dx^I)``, each computed once, and the first failing
    pair ``(g, I, 0, J)`` of the capped pair grid, where ``i(dx^J) D(x^g
    dx^I)`` is nonzero, or None; a pass proves D zero on every polynomial
    form (module docstring)."""

    @functools.cache
    def value(g: int, indices: tuple[int, ...]) -> Multivector:
        return defect(basis.form(g, indices))

    def paired(g: int, left: tuple[int, ...], _: int, right: tuple[int, ...]) -> Multivector:
        return contract_form(basis.units[right], value(g, left))

    row = first_hit(itertools.product(basis.capped(1), basis.index_sets), value)
    if row is None:
        return value, None
    return value, first_hit((row + (0, right) for right in basis.index_sets), paired)


def anchor_defect_scan(basis: JetBasis) -> tuple[Callable, tuple | None]:
    """The ``defect_scan`` of the anchor defect T on ``basis.swept``; a run
    computes it once, through ``basis.once``."""
    return defect_scan(basis, functools.partial(anchor_defect, basis.swept))


def _invariance_sweep(basis: JetBasis):
    """The defect of an f-tuple of jet monomials on ``basis.swept`` and the
    first f-tuple whose defect is nonzero; a run computes it once, through
    ``basis.once``.  A pass of the anchor-defect scan proves every defect
    zero (module docstring), so the f-tuples are swept only on its hit.  The
    defect of a coordinate f-tuple ``x_I`` is the anchor defect ``T(dx^I)``,
    since ``d(dx^I) = 0``, and is read from the scan's values."""
    structure, monomials = basis.swept, basis.monomials
    grid = functools.partial(itertools.combinations, r=structure.n - 1)
    anchor, hit = basis.once(anchor_defect_scan)
    # monomials[i] is x_i
    coordinates = {tuple(monomials[i] for i in indices): indices for indices in basis.index_sets}

    def defect(*fs: Polynomial) -> Multivector:
        indices = coordinates.get(fs)
        return invariance_defect(structure, fs) if indices is None else anchor(0, indices)

    if hit is None:
        return defect, None
    capped = [monomials[g] for g in basis.capped(2)]
    return defect, capped_first_hit(grid, defect, monomials, capped)


def _texts(*functions: Polynomial) -> tuple[str, ...]:
    return tuple(map(str, functions))


def check_fundamental_identity(basis: JetBasis) -> CheckReport:
    """Certify the fundamental identity over the run's jet basis.

    The residual is alternating in the f-slots and in the g-slots, so
    strictly increasing tuples cover the full grid.  The f-tuples are swept
    through their invariance defect ``L`` (module docstring); the first
    failing g-tuple for the first nonzero defect is read off ``L``, and only
    its residual is recomputed by ``fi_residual``.

    The residual ``<dg_1^..^dg_n, L>`` is a derivation in each g-slot, so a
    constant entry gives 0, and it is alternating.  If a failing g-tuple had
    an entry of degree >= 2, swapping it for a coordinate ``x_j`` at which
    that slot's derivation has a nonzero coefficient keeps the tuple failing
    (``x_j`` is no other entry, or the pairing would vanish) and sorts it
    earlier, because the coordinates precede every monomial of degree >= 2.
    So the first failing g-tuple is the coordinate tuple ``x_I`` of the
    first index set ``I`` with ``L^I != 0``, where the pairing is ``L^I``;
    ``monomials[i]`` is ``x_i``, so coordinate tuples sort as their index sets.
    """
    structure, monomials = basis.structure, basis.monomials
    defect, hit = basis.once(_invariance_sweep)
    n = structure.n

    def locate(fs: tuple) -> tuple:
        return fs + tuple(monomials[i] for i in min(defect(*fs).components))

    return certify(
        "fundamental-identity",
        math.comb(len(monomials), n - 1) * math.comb(len(monomials), n),
        hit,
        lambda *point: fi_residual(structure, point[: n - 1], point[n - 1 :]),
        _texts,
        locate,
    )


def check_invariance(basis: JetBasis) -> CheckReport:
    """Certify that every jet-basis Hamiltonian field preserves the n-vector.

    ``items_checked`` counts the f-tuples swept, up to the first failure.
    """
    structure, monomials = basis.structure, basis.monomials
    _, hit = basis.once(_invariance_sweep)
    if hit is None:
        items = math.comb(len(monomials), structure.n - 1)
    else:
        f_tuples = itertools.combinations(monomials, structure.n - 1)
        items = sum(1 for _ in itertools.takewhile(hit.__ne__, f_tuples)) + 1
    return certify(
        "invariance", items, hit, lambda *fs: invariance_defect(structure, fs), _texts
    )


# -- pointwise decomposability -------------------------------------------------


def plucker_at(
    structure: NambuStructure, point: Sequence[int | Fraction]
) -> PluckerVerdict:
    """Check the Plucker relations of the n-vector evaluated at a point.

    The constant n-vector ``P`` at the point is decomposable exactly when
    ``i(dx^I)P ^ P = 0`` for every (n-1)-set ``I``; the J-component of that
    (n+1)-vector is ``sum_k (-1)^k P^{I j_k} P^{J - j_k}``.  The zero tensor
    counts as decomposable.  Only defined for n >= 3; order 2 reports
    NOT_APPLICABLE.
    """
    if len(point) != structure.m:
        raise ChartMismatchError(
            f"point has {len(point)} coordinates, chart has {structure.m}"
        )
    if structure.n < 3:
        return PluckerVerdict.NOT_APPLICABLE
    m = structure.m
    at_point = Multivector(m, structure.n, {
        indices: Polynomial.constant(m, coeff.evaluate(point))
        for indices, coeff in structure.nvector.components.items()
    })
    for indices in itertools.combinations(range(1, m + 1), structure.n - 1):
        if wedge(contract_form(Form.basis(m, indices), at_point), at_point):
            return PluckerVerdict.FAIL
    return PluckerVerdict.PASS
