"""Nambu-Poisson structures: n-bracket, anchor, Hamiltonian fields, checks.

A structure is an n-vector on an m-dimensional chart together with the
bracket ``{f_1, .., f_n} = <df_1 ^ .. ^ df_n, lam>``.  Construction does not
presume the fundamental identity; ``check_fundamental_identity`` and
``check_invariance`` certify it explicitly over a finite monomial jet basis.

Sweep strategy.  Both check residuals are multidifferential operators of
order <= 2 in each functional slot, so vanishing on all monomials of degree
<= 2 already forces identical vanishing; the configured degree (default 3)
only adds margin.  The fundamental-identity residual factors exactly through
the invariance defect:

    R(f_1..f_{n-1}; g_1..g_n) = <dg_1 ^ .. ^ dg_n, L_{X_f} lam>

(an identity of the implemented operations, certified by the test suite),
so the verifier evaluates one Lie derivative per Hamiltonian tuple instead
of enumerating the full tuple grid, and any reported counterexample is
re-evaluated through the direct nested-bracket formula before it is
returned.  Sweeps are pure and order-independent; the first counterexample
in lexicographic tuple order is reported regardless of evaluation order.
"""

from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import ArityError, ChartMismatchError, DegreeError, OrderError
from .exterior import (
    Form, Multivector, contract_form, differential, format_tensor, lie_mv, pair, wedge,
)
from .poly import Polynomial, jet_exponents


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


# -- bracket operations -------------------------------------------------------


def nbracket(structure: NambuStructure, functions: Sequence[Polynomial]) -> Polynomial:
    """The n-bracket ``{f_1, .., f_n}``."""
    if len(functions) != structure.n:
        raise ArityError(f"bracket takes {structure.n} functions, got {len(functions)}")
    omega = differential(functions[0])
    for f in functions[1:]:
        omega = wedge(omega, differential(f))
    return pair(omega, structure.nvector)


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
    if not functions:
        raise ArityError("hamiltonian requires at least one function")
    omega = differential(functions[0])
    for f in functions[1:]:
        omega = wedge(omega, differential(f))
    return sharp(structure, omega)


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


def check_fundamental_identity(
    structure: NambuStructure, config: JetBasisConfig = JetBasisConfig()
) -> CheckReport:
    """Certify the fundamental identity over the monomial jet basis.

    The residual is alternating in the f-slots and in the g-slots, so
    strictly increasing tuples cover the full grid.  Each Hamiltonian tuple
    is certified through its invariance defect (see module docstring); a
    nonzero defect is converted into the lexicographically first failing
    g-tuple, whose residual is recomputed with the direct nested-bracket
    formula.
    """
    exps = jet_exponents(structure.m, config.max_degree)
    monomials = [Polynomial.monomial(e) for e in exps]
    f_tuples = list(itertools.combinations(range(len(monomials)), structure.n - 1))
    g_count = math.comb(len(monomials), structure.n)
    items = len(f_tuples) * g_count
    for f_idx in f_tuples:
        fs = [monomials[i] for i in f_idx]
        defect = invariance_defect(structure, fs)
        if defect.is_zero():
            continue
        # Scan g-tuples in lexicographic order with the direct formula; a
        # coordinate tuple hitting a nonzero defect component guarantees one.
        for g_idx in itertools.combinations(range(len(monomials)), structure.n):
            gs = [monomials[i] for i in g_idx]
            residual = fi_residual(structure, fs, gs)
            if not residual.is_zero():
                inputs = tuple(str(monomials[i]) for i in f_idx) + tuple(
                    str(monomials[i]) for i in g_idx
                )
                return CheckReport(
                    check="fundamental-identity",
                    passed=False,
                    items_checked=items,
                    counterexample=Counterexample(inputs=inputs, residual=str(residual)),
                )
        raise AssertionError(
            "nonzero invariance defect without a bracket counterexample; "
            "the factorization identity is violated"
        )
    return CheckReport(check="fundamental-identity", passed=True, items_checked=items)


def check_invariance(
    structure: NambuStructure, config: JetBasisConfig = JetBasisConfig()
) -> CheckReport:
    """Certify that every jet-basis Hamiltonian field preserves the n-vector."""
    exps = jet_exponents(structure.m, config.max_degree)
    monomials = [Polynomial.monomial(e) for e in exps]
    f_tuples = itertools.combinations(range(len(monomials)), structure.n - 1)
    items = 0
    for f_idx in f_tuples:
        items += 1
        fs = [monomials[i] for i in f_idx]
        defect = invariance_defect(structure, fs)
        if not defect.is_zero():
            inputs = tuple(str(monomials[i]) for i in f_idx)
            return CheckReport(
                check="invariance",
                passed=False,
                items_checked=items,
                counterexample=Counterexample(
                    inputs=inputs, residual=format_tensor(defect)
                ),
            )
    return CheckReport(check="invariance", passed=True, items_checked=items)


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
