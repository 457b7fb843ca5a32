"""Nambu-Poisson structures: n-bracket, anchor, Hamiltonian fields, checks.

A structure is an n-vector on an m-dimensional chart together with the
bracket ``{f_1, .., f_n} = <df_1 ^ .. ^ df_n, lam>``.  Construction does not
presume the fundamental identity; ``check_fundamental_identity`` and
``check_invariance`` certify it explicitly over a finite monomial jet basis.

This module also holds the one scan-and-certify loop that every verifier
runs: ``first_hit`` stops at the first point of a grid, in pinned
lexicographic order, whose fast residual is nonzero, and ``certify`` turns
that hit into a report, recomputing the residual of the reported tuple by
the direct formula and refusing a zero one.

Sweep strategy.  Both check residuals are multidifferential operators of
order <= 2 in each functional slot, so vanishing on all monomials of degree
<= 2 forces identical vanishing: capped f-tuples certify, and the configured
degree (default 3) only locates failures (``capped_first_hit``).  The
fundamental-identity residual factors exactly through the invariance defect:

    R(f_1..f_{n-1}; g_1..g_n) = <dg_1 ^ .. ^ dg_n, L_{X_f} lam>

(an identity of the implemented operations, certified by the test suite).
So both checks are one sweep of the f-tuples through ``invariance_defect``.
The fundamental identity lifts its hit to the first g-tuple whose pairing
with the defect is nonzero, the first failing tuple of the full grid, and
only that tuple is evaluated by the direct nested-bracket formula.
"""

from __future__ import annotations

import enum
import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Sequence

from .errors import ArityError, ChartMismatchError, DegreeError, OrderError
from .exterior import (
    Form, Multivector, apply_vec, contract_form, differential, format_tensor, lie_mv, pair,
    wedge_all,
)
from .poly import Polynomial, jet_monomials


@dataclass(frozen=True)
class NambuStructure:
    """Chart dimension, order, and the defining n-vector."""

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

    def require_order_at_least(self, n: int) -> None:
        if self.n < n:
            raise OrderError(f"operation requires order >= {n}, structure has n={self.n}")


@dataclass(frozen=True)
class JetBasisConfig:
    """Degree bound for the monomial jet basis used by all verifiers."""

    max_degree: int = 3

    def __post_init__(self):
        if self.max_degree < 2:
            raise ValueError("identity certification requires max_degree >= 2")


@dataclass(frozen=True)
class Counterexample:
    """Failing inputs plus the nonzero residual, both in canonical text."""

    inputs: tuple[str, ...]
    residual: str


@dataclass(frozen=True)
class CheckReport:
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


# -- the scan-and-certify loop ---------------------------------------------------


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


# -- bracket operations -------------------------------------------------------


def nbracket(structure: NambuStructure, functions: Sequence[Polynomial]) -> Polynomial:
    """The n-bracket ``{f_1, .., f_n}``."""
    if len(functions) != structure.n:
        raise ArityError(f"bracket takes {structure.n} functions, got {len(functions)}")
    return pair(wedge_all([differential(f) for f in functions]), structure.nvector)


def sharp(structure: NambuStructure, alpha: Form) -> Multivector:
    """Anchor map: contraction of an (n-1)-form into the n-vector."""
    if alpha.degree != structure.n - 1:
        raise DegreeError(
            f"anchor takes forms of degree {structure.n - 1}, got {alpha.degree}"
        )
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


# -- verifiers ----------------------------------------------------------------


def _invariance_sweep(structure: NambuStructure, config: JetBasisConfig):
    """The jet monomials, the defect of an f-tuple of them, and the first
    f-tuple whose defect is nonzero."""
    monomials = jet_monomials(structure.m, config.max_degree)
    grid = functools.partial(itertools.combinations, r=structure.n - 1)

    def defect(*fs: Polynomial) -> Multivector:
        return invariance_defect(structure, fs)

    capped = [g for g in monomials if g.total_degree() <= 2]
    hit = capped_first_hit(grid, defect, monomials, capped)
    return monomials, defect, hit


def _texts(*functions: Polynomial) -> tuple[str, ...]:
    return tuple(map(str, functions))


def check_fundamental_identity(
    structure: NambuStructure, config: JetBasisConfig = JetBasisConfig()
) -> CheckReport:
    """Certify the fundamental identity over the monomial jet basis.

    The residual is alternating in the f-slots and in the g-slots, so
    strictly increasing tuples cover the full grid.  The f-tuples are swept
    through their invariance defect (module docstring); the first nonzero
    defect is lifted to the first g-tuple whose pairing with it is nonzero,
    and that tuple's residual is recomputed by ``fi_residual``.  The pairing
    ``<dg_1^..^dg_n, L>`` is evaluated as ``dg_n(i(dg_1^..^dg_{n-1}) L)``,
    exact by ``contract_form``'s defining identity, with the contraction
    cached per head ``g_1..g_{n-1}``.  The g-tuples run over all jet
    monomials: their combination grid is no product (``sweep`` docstring).
    """
    monomials, defect, hit = _invariance_sweep(structure, config)
    n = structure.n

    def locate(fs: tuple) -> tuple | None:
        lie = defect(*fs)
        d = {g: differential(g) for g in monomials}
        heads: dict[tuple, Multivector] = {}

        def pairing(*gs: Polynomial) -> Polynomial:
            if gs[:-1] not in heads:
                heads[gs[:-1]] = contract_form(wedge_all([d[g] for g in gs[:-1]]), lie)
            return apply_vec(heads[gs[:-1]], gs[-1])

        gs = first_hit(itertools.combinations(monomials, n), pairing)
        return None if gs is None else fs + gs

    return certify(
        "fundamental-identity",
        math.comb(len(monomials), n - 1) * math.comb(len(monomials), n),
        hit,
        lambda *point: fi_residual(structure, point[: n - 1], point[n - 1 :]),
        _texts,
        locate,
    )


def check_invariance(
    structure: NambuStructure, config: JetBasisConfig = JetBasisConfig()
) -> CheckReport:
    """Certify that every jet-basis Hamiltonian field preserves the n-vector.

    ``items_checked`` counts the f-tuples swept, up to the first failure.
    """
    monomials, defect, hit = _invariance_sweep(structure, config)
    if hit is None:
        items = math.comb(len(monomials), structure.n - 1)
    else:
        f_tuples = itertools.combinations(monomials, structure.n - 1)
        items = sum(1 for _ in itertools.takewhile(hit.__ne__, f_tuples)) + 1
    return certify("invariance", items, hit, defect, _texts)


# -- pointwise decomposability -------------------------------------------------


def plucker_at(
    structure: NambuStructure, point: Sequence[int | Fraction]
) -> PluckerVerdict:
    """Check the Plucker relations of the n-vector evaluated at a point.

    The zero tensor counts as decomposable.  Only defined for n >= 3; order
    2 reports NOT_APPLICABLE.
    """
    if len(point) != structure.m:
        raise ChartMismatchError(
            f"point has {len(point)} coordinates, chart has {structure.m}"
        )
    if structure.n < 3:
        return PluckerVerdict.NOT_APPLICABLE
    values: dict[tuple[int, ...], Fraction] = {}
    for indices, coeff in structure.nvector.components.items():
        value = coeff.evaluate(point)
        if value:
            values[indices] = value
    if not values:
        return PluckerVerdict.PASS

    def component(indices: tuple[int, ...]) -> Fraction:
        # skew interpretation of an arbitrary index string
        if len(set(indices)) != len(indices):
            return Fraction(0)
        ordered = tuple(sorted(indices))
        inversions = sum(
            1
            for a in range(len(indices))
            for b in range(a + 1, len(indices))
            if indices[a] > indices[b]
        )
        value = values.get(ordered, Fraction(0))
        return -value if inversions % 2 else value

    n, m = structure.n, structure.m
    for i_tuple in itertools.combinations(range(1, m + 1), n - 1):
        for j_tuple in itertools.combinations(range(1, m + 1), n + 1):
            total = Fraction(0)
            for k in range(n + 1):
                left = component(i_tuple + (j_tuple[k],))
                if not left:
                    continue
                right = component(j_tuple[:k] + j_tuple[k + 1 :])
                if not right:
                    continue
                term = left * right
                total += -term if k % 2 else term
            if total:
                return PluckerVerdict.FAIL
    return PluckerVerdict.PASS
