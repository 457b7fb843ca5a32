"""The bracket of (n-1)-forms, its anchor, and exact identity verifiers.

For a structure of order n >= 3 the bracket is

    lbracket(a, b) = lie_form(sharp(a), b) + (-1)^n * <d a, lam> * b

and ``sharp`` is the anchor.  The verifiers certify, over the monomial jet
basis of (n-1)-forms ``x^gamma dx^I``:

* anchor morphism:   [sharp a, sharp b] = sharp(lbracket(a, b));
* sharp-d identity:  <d lbracket(a,b), lam>
                         = sharp(a)<d b, lam> - sharp(b)<d a, lam>;
* Leibniz identity:  lbracket(a, lbracket(b, c)) = lbracket(lbracket(a,b), c)
                         + lbracket(b, lbracket(a, c));
* the characterizing rules for exact forms and for moving a function across
  either slot.

Sweep strategy.  Enumerating all tuples of jet-basis forms is quadratic or
cubic in a basis of several hundred elements, far beyond the runtime budget,
so each verifier evaluates an exact decomposition of its residual instead.
The decompositions follow from identities that hold for the implemented
operations with *any* n-vector (no integrability assumed), chiefly

    lbracket(a, g*b) = g*lbracket(a, b) + sharp(a)(g) * b          (slot-2)
    lbracket(f*a, b) = f*lbracket(a, b) - i_{sharp a}(df ^ b)      (slot-1)

and the factorization of the Leibniz residual through the anchor residual
``A`` and sharp-d residual ``S``:

    leibniz_residual(a, b, c) = lie_form(A(a,b), c) - (-1)^n * S(a,b) * c.

The exact-forms rule is swept over pairs of function tuples without a
decomposition: it evaluates the same operations as the direct residual, but
hoists every piece that depends on one slot out of the pair loop (the
wedges of differentials, their exterior derivatives, the anchor and bracket
scale of the left slot, and the brackets ``d{f.., g}``), so a pair costs
only the pieces that need both slots.  Differentials of jet monomials are
cached on the sweep basis, whose lifetime is one verifier call.

Every decomposition is cross-checked against the direct defining formulas
by the test suite on randomized inputs, and every reported counterexample is
re-evaluated through the direct formula before it is returned; the hoisted
exact-forms residual must moreover equal the direct one.  Residuals are
multidifferential operators of order <= 2 per slot, so grids capped at
coefficient degree 2 already certify the full configured degree; achievable
grids run at the full degree.  The lexicographically first failing tuple is
reported (basis order: coefficient monomial-major, then index set).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import ArityError, DegreeError
from .exterior import (
    Form,
    Multivector,
    apply_vec,
    contract_vec,
    differential,
    ext_d,
    lie_form,
    lie_mv,
    pair,
    wedge,
)
from .poly import Polynomial, jet_exponents
from .structure import (
    CheckReport,
    Counterexample,
    JetBasisConfig,
    NambuStructure,
    nbracket,
    sharp,
)
from .textio import format_tensor


def _sign_n(structure: NambuStructure) -> int:
    return -1 if structure.n % 2 else 1


def _check_section(structure: NambuStructure, form: Form, name: str) -> None:
    structure.require_order_at_least(3)
    if form.m != structure.m:
        raise DegreeError(f"{name} lives on a chart of dimension {form.m}, "
                          f"expected {structure.m}")
    if form.degree != structure.n - 1:
        raise DegreeError(
            f"{name} must have degree {structure.n - 1}, got {form.degree}"
        )


# -- the bracket ---------------------------------------------------------------


def lbracket(structure: NambuStructure, alpha: Form, beta: Form) -> Form:
    """Bracket of (n-1)-forms."""
    _check_section(structure, alpha, "alpha")
    _check_section(structure, beta, "beta")
    result = lie_form(sharp(structure, alpha), beta)
    scale = pair(ext_d(alpha), structure.nvector)
    if not scale.is_zero():
        correction = beta * scale
        if _sign_n(structure) < 0:
            correction = -correction
        result = result + correction
    return result


def skew_defect(structure: NambuStructure, alpha: Form, beta: Form) -> Form:
    """``lbracket(a, b) + lbracket(b, a)``; zero exactly in the Lie case."""
    return lbracket(structure, alpha, beta) + lbracket(structure, beta, alpha)


# -- direct residual evaluators -------------------------------------------------


def anchor_residual(structure: NambuStructure, alpha: Form, beta: Form) -> Multivector:
    """``[sharp a, sharp b] - sharp(lbracket(a, b))`` by direct evaluation."""
    lhs = lie_mv(sharp(structure, alpha), sharp(structure, beta))
    return lhs - sharp(structure, lbracket(structure, alpha, beta))


def sharp_d_residual(structure: NambuStructure, alpha: Form, beta: Form) -> Polynomial:
    """Residual of the sharp-d identity by direct evaluation."""
    lam = structure.nvector
    lhs = pair(ext_d(lbracket(structure, alpha, beta)), lam)
    lhs = lhs - apply_vec(sharp(structure, alpha), pair(ext_d(beta), lam))
    return lhs + apply_vec(sharp(structure, beta), pair(ext_d(alpha), lam))


def leibniz_residual(
    structure: NambuStructure, alpha: Form, beta: Form, gamma: Form
) -> Form:
    """Leibniz-identity residual by direct nested evaluation."""
    return (
        lbracket(structure, alpha, lbracket(structure, beta, gamma))
        - lbracket(structure, lbracket(structure, alpha, beta), gamma)
        - lbracket(structure, beta, lbracket(structure, alpha, gamma))
    )


# -- jet basis of (n-1)-forms ----------------------------------------------------


class _SweepBasis:
    """Monomial jet basis of (n-1)-forms with the caches every sweep needs."""

    def __init__(self, structure: NambuStructure, max_degree: int):
        structure.require_order_at_least(3)
        self.structure = structure
        self.m = structure.m
        self.exponents = jet_exponents(structure.m, max_degree)
        self.monomials = [Polynomial.monomial(e) for e in self.exponents]
        self.index_sets = list(
            itertools.combinations(range(1, structure.m + 1), structure.n - 1)
        )
        self._d: dict[int, Form] = {}
        self._sharp0: dict[tuple[int, ...], Multivector] = {}
        self._bracket0: dict[tuple[tuple[int, ...], tuple[int, ...]], Form] = {}

    def elements(self):
        """Basis forms in the pinned lexicographic order."""
        for g, monomial in enumerate(self.monomials):
            for indices in self.index_sets:
                yield g, indices

    def form(self, g: int, indices: tuple[int, ...]) -> Form:
        return Form.basis(self.m, indices) * self.monomials[g]

    def size(self) -> int:
        return len(self.monomials) * len(self.index_sets)

    def d(self, g: int) -> Form:
        """Differential of the jet monomial ``g``, computed once per basis."""
        cached = self._d.get(g)
        if cached is None:
            cached = differential(self.monomials[g])
            self._d[g] = cached
        return cached

    def sharp0(self, indices: tuple[int, ...]) -> Multivector:
        cached = self._sharp0.get(indices)
        if cached is None:
            cached = sharp(self.structure, Form.basis(self.m, indices))
            self._sharp0[indices] = cached
        return cached

    def bracket0(self, left: tuple[int, ...], right: tuple[int, ...]) -> Form:
        key = (left, right)
        cached = self._bracket0.get(key)
        if cached is None:
            cached = lbracket(
                self.structure, Form.basis(self.m, left), Form.basis(self.m, right)
            )
            self._bracket0[key] = cached
        return cached


# -- anchor morphism -------------------------------------------------------------


def _anchor_pair_residual(
    basis: _SweepBasis, g: int, left: tuple[int, ...], right: tuple[int, ...],
    core: Multivector,
) -> Multivector:
    """Exact value of the anchor residual on ``(x^gamma dx^I, dx^J)``.

    Uses ``A(f a0, b0) = f A(a0, b0) - sharp(b0)(f) sharp(a0)
                         + sharp(i_{sharp a0}(df ^ b0))``.
    """
    structure = basis.structure
    f = basis.monomials[g]
    residual = core * f
    grad = apply_vec(basis.sharp0(right), f)
    if not grad.is_zero():
        residual = residual - basis.sharp0(left) * grad
    lifted = contract_vec(basis.sharp0(left), wedge(basis.d(g), Form.basis(basis.m, right)))
    if not lifted.is_zero():
        residual = residual + sharp(structure, lifted)
    return residual


def verify_anchor_morphism(
    structure: NambuStructure, config: JetBasisConfig = JetBasisConfig()
) -> CheckReport:
    """Certify the anchor identity over all jet-basis pairs.

    The residual is linear over functions in its second slot, so the whole
    grid reduces to the family ``A(x^gamma dx^I, dx^J)``, evaluated here in
    decomposed form (see module docstring) at the full configured degree.
    """
    basis = _SweepBasis(structure, config.max_degree)
    items = basis.size() ** 2
    cores = {
        (left, right): anchor_residual(
            structure, Form.basis(basis.m, left), Form.basis(basis.m, right)
        )
        for left in basis.index_sets
        for right in basis.index_sets
    }
    failing: dict[tuple[int, tuple[int, ...], tuple[int, ...]], Multivector] = {}
    for g in range(len(basis.monomials)):
        for left in basis.index_sets:
            for right in basis.index_sets:
                residual = _anchor_pair_residual(basis, g, left, right, cores[(left, right)])
                if not residual.is_zero():
                    failing[(g, left, right)] = residual
    if not failing:
        return CheckReport(check="anchor", passed=True, items_checked=items)
    # Lexicographically first failing ordered pair: the second slot's monomial
    # never rescues a failure, so it is the constant.
    for g, left in basis.elements():
        for right in basis.index_sets:
            if (g, left, right) in failing:
                alpha = basis.form(g, left)
                beta = Form.basis(basis.m, right)
                direct = anchor_residual(structure, alpha, beta)
                if direct.is_zero():  # pragma: no cover - decomposition guard
                    raise AssertionError("anchor decomposition disagrees with direct value")
                return CheckReport(
                    check="anchor",
                    passed=False,
                    items_checked=items,
                    counterexample=Counterexample(
                        inputs=(format_tensor(alpha), format_tensor(beta)),
                        residual=format_tensor(direct),
                    ),
                )
    raise AssertionError("unreachable")  # pragma: no cover


# -- sharp-d identity ------------------------------------------------------------


class _SharpDSweep:
    """Decomposed evaluation of the sharp-d residual on basis pairs.

    With ``a = f dx^I`` and ``b = g dx^J`` (f, g monomials) the residual
    splits into pieces depending on (f,I,J), (g,I,J) and one genuine cross
    term; every piece is assembled from small cached tensors.
    """

    def __init__(self, basis: _SweepBasis):
        self.basis = basis
        self.structure = basis.structure
        self.lam = basis.structure.nvector
        self.sign = _sign_n(basis.structure)
        self._u: dict = {}       # (g, J) -> <dg ^ dx^J, lam>
        self._w: dict = {}       # (g, I) -> sharp0(I)(g)
        self._T: dict = {}       # (f, I, J) -> i_{sharp0 I}(df ^ dx^J)
        self._V: dict = {}       # (f, I, J) -> single-f piece
        self._U: dict = {}       # (g, I, J) -> single-g piece

    def u(self, g: int, right: tuple[int, ...]) -> Polynomial:
        key = (g, right)
        value = self._u.get(key)
        if value is None:
            value = pair(wedge(self.basis.d(g), Form.basis(self.basis.m, right)), self.lam)
            self._u[key] = value
        return value

    def w(self, g: int, left: tuple[int, ...]) -> Polynomial:
        key = (g, left)
        value = self._w.get(key)
        if value is None:
            value = apply_vec(self.basis.sharp0(left), self.basis.monomials[g])
            self._w[key] = value
        return value

    def T(self, f: int, left: tuple[int, ...], right: tuple[int, ...]) -> Form:
        key = (f, left, right)
        value = self._T.get(key)
        if value is None:
            value = contract_vec(
                self.basis.sharp0(left), wedge(self.basis.d(f), Form.basis(self.basis.m, right))
            )
            self._T[key] = value
        return value

    def single_f(self, f: int, left: tuple[int, ...], right: tuple[int, ...]) -> Polynomial:
        """Coefficient of ``g`` in the residual: pieces linear in the f-slot."""
        key = (f, left, right)
        value = self._V.get(key)
        if value is None:
            df = self.basis.d(f)
            core = self.basis.bracket0(left, right)
            value = pair(wedge(df, core), self.lam)
            value = value - pair(ext_d(self.T(f, left, right)), self.lam)
            value = value + apply_vec(
                self.basis.sharp0(right),
                pair(wedge(df, Form.basis(self.basis.m, left)), self.lam),
            )
            self._V[key] = value
        return value

    def single_g(self, g: int, left: tuple[int, ...], right: tuple[int, ...]) -> Polynomial:
        """Coefficient of ``f`` in the residual: pieces linear in the g-slot."""
        key = (g, left, right)
        value = self._U.get(key)
        if value is None:
            dg = self.basis.d(g)
            core = self.basis.bracket0(left, right)
            value = pair(wedge(dg, core), self.lam)
            w = self.w(g, left)
            value = value + pair(
                wedge(differential(w), Form.basis(self.basis.m, right)), self.lam
            )
            value = value - apply_vec(self.basis.sharp0(left), self.u(g, right))
            self._U[key] = value
        return value

    def residual(
        self, f: int, left: tuple[int, ...], g: int, right: tuple[int, ...]
    ) -> Polynomial:
        mono_f = self.basis.monomials[f]
        mono_g = self.basis.monomials[g]
        value = mono_f * self.single_g(g, left, right)
        value = value + mono_g * self.single_f(f, left, right)
        cross = self.w(g, left) * self.u(f, right)
        cross = cross - pair(wedge(self.basis.d(g), self.T(f, left, right)), self.lam)
        return value + cross


def _sweep_pairs_capped(basis: _SweepBasis, cap: int):
    """Pairs of (monomial, index-set) with coefficient degree capped.

    Degree-2 coefficients are a complete test set for residuals of
    differential order <= 2 per slot; higher configured degrees add only
    redundant rows, so they are certified without being enumerated.
    """
    limit = [g for g, e in enumerate(basis.exponents) if sum(e) <= cap]
    for f in limit:
        for left in basis.index_sets:
            for g in limit:
                for right in basis.index_sets:
                    yield f, left, g, right


def verify_sharp_d_identity(
    structure: NambuStructure, config: JetBasisConfig = JetBasisConfig()
) -> CheckReport:
    """Certify the sharp-d identity over all jet-basis pairs."""
    basis = _SweepBasis(structure, config.max_degree)
    sweep = _SharpDSweep(basis)
    items = basis.size() ** 2
    cap = min(config.max_degree, 2)
    first_bad: tuple | None = None
    for f, left, g, right in _sweep_pairs_capped(basis, cap):
        if not sweep.residual(f, left, g, right).is_zero():
            first_bad = (f, left, g, right)
            break
    if first_bad is None:
        return CheckReport(check="sharp-d", passed=True, items_checked=items)
    # Recover the lexicographically first failing pair at the full degree by
    # scanning with the cheap decomposed evaluation, then certify directly.
    for f, left in basis.elements():
        for g, right in basis.elements():
            if sweep.residual(f, left, g, right).is_zero():
                continue
            alpha = basis.form(f, left)
            beta = basis.form(g, right)
            direct = sharp_d_residual(structure, alpha, beta)
            if direct.is_zero():  # pragma: no cover - decomposition guard
                raise AssertionError("sharp-d decomposition disagrees with direct value")
            return CheckReport(
                check="sharp-d",
                passed=False,
                items_checked=items,
                counterexample=Counterexample(
                    inputs=(format_tensor(alpha), format_tensor(beta)),
                    residual=str(direct),
                ),
            )
    raise AssertionError("unreachable")  # pragma: no cover


# -- Leibniz identity ------------------------------------------------------------


def verify_leibniz_identity(
    structure: NambuStructure, config: JetBasisConfig = JetBasisConfig()
) -> CheckReport:
    """Certify the Leibniz identity over all jet-basis triples.

    The residual factors exactly through the anchor and sharp-d residuals
    (module docstring), so the triple grid is certified by the two pair
    sweeps; a failing pair is lifted to the first failing triple by scanning
    the third slot with the direct nested evaluation.
    """
    basis = _SweepBasis(structure, config.max_degree)
    items = basis.size() ** 3
    anchor_report = verify_anchor_morphism(structure, config)
    sharp_d_report = verify_sharp_d_identity(structure, config)
    if anchor_report.passed and sharp_d_report.passed:
        return CheckReport(check="leibniz", passed=True, items_checked=items)
    sweep = _SharpDSweep(basis)
    cores = {
        (left, right): anchor_residual(
            structure, Form.basis(basis.m, left), Form.basis(basis.m, right)
        )
        for left in basis.index_sets
        for right in basis.index_sets
    }
    for f, left in basis.elements():
        for g, right in basis.elements():
            anchor_val = _anchor_pair_residual(basis, f, left, right, cores[(left, right)])
            anchor_val = anchor_val * basis.monomials[g]
            if anchor_val.is_zero() and sweep.residual(f, left, g, right).is_zero():
                continue
            alpha = basis.form(f, left)
            beta = basis.form(g, right)
            for h, third in basis.elements():
                gamma = basis.form(h, third)
                direct = leibniz_residual(structure, alpha, beta, gamma)
                if not direct.is_zero():
                    return CheckReport(
                        check="leibniz",
                        passed=False,
                        items_checked=items,
                        counterexample=Counterexample(
                            inputs=(
                                format_tensor(alpha),
                                format_tensor(beta),
                                format_tensor(gamma),
                            ),
                            residual=format_tensor(direct),
                        ),
                    )
            raise AssertionError(  # pragma: no cover - factorization guard
                "failing pair residuals without a failing triple"
            )
    raise AssertionError("unreachable")  # pragma: no cover


# -- characterization ------------------------------------------------------------


def exact_forms_residual(
    structure: NambuStructure, fs: Sequence[Polynomial], gs: Sequence[Polynomial]
) -> Form:
    """Residual of the exact-forms rule by direct evaluation.

    ``lbracket(df_1^..^df_{n-1}, dg_1^..^dg_{n-1})
      - sum_i dg_1 ^ .. ^ d{f_1..f_{n-1}, g_i} ^ .. ^ dg_{n-1}``
    """
    n = structure.n
    if len(fs) != n - 1 or len(gs) != n - 1:
        raise ArityError(f"exact-forms rule takes {n - 1} + {n - 1} functions")
    alpha = _wedge_of_differentials(fs)
    beta = _wedge_of_differentials(gs)
    residual = lbracket(structure, alpha, beta)
    for i in range(n - 1):
        replaced = [differential(g) for g in gs]
        replaced[i] = differential(nbracket(structure, list(fs) + [gs[i]]))
        residual = residual - _wedge_all(replaced)
    return residual


def _wedge_all(factors: Sequence[Form]) -> Form:
    omega = factors[0]
    for factor in factors[1:]:
        omega = wedge(omega, factor)
    return omega


def _wedge_of_differentials(functions: Sequence[Polynomial]) -> Form:
    return _wedge_all([differential(f) for f in functions])


def _first_exact_forms_failure(
    basis: _SweepBasis, capped: Sequence[int]
) -> tuple[list[Polynomial], list[Polynomial], Form] | None:
    """First failing pair of the exact-forms rule in direct-scan order, or None.

    Per pair only ``i_X d beta + d i_X beta``, the scale term and the n-1
    replaced wedges are evaluated; the rest is computed once per tuple.  A
    failure is returned with its residual recomputed by ``exact_forms_residual``.
    """
    structure = basis.structure
    lam = structure.nvector
    sign = _sign_n(structure)
    tuples = list(itertools.combinations(capped, structure.n - 1))
    g_side = []
    for g_idx in tuples:
        dgs = [basis.d(g) for g in g_idx]
        beta = _wedge_all(dgs)
        g_side.append((g_idx, dgs, beta, ext_d(beta)))
    for f_idx in tuples:
        fs = [basis.monomials[i] for i in f_idx]
        alpha = _wedge_all([basis.d(f) for f in f_idx])
        anchor = sharp(structure, alpha)
        scale = pair(ext_d(alpha), lam) * sign
        d_bracket = {
            g: differential(nbracket(structure, fs + [basis.monomials[g]])) for g in capped
        }
        for g_idx, dgs, beta, d_beta in g_side:
            residual = contract_vec(anchor, d_beta) + ext_d(contract_vec(anchor, beta))
            if not scale.is_zero():
                residual = residual + beta * scale
            for i, g in enumerate(g_idx):
                replaced = list(dgs)
                replaced[i] = d_bracket[g]
                residual = residual - _wedge_all(replaced)
            if residual.is_zero():
                continue
            gs = [basis.monomials[i] for i in g_idx]
            direct = exact_forms_residual(structure, fs, gs)
            if direct != residual:  # pragma: no cover - hoisting guard
                raise AssertionError("hoisted exact-forms residual disagrees with direct value")
            return fs, gs, direct
    return None


def function_slot2_residual(
    structure: NambuStructure, alpha: Form, f: Polynomial, beta: Form
) -> Form:
    """``lbracket(a, f b) - f lbracket(a, b) - sharp(a)(f) b`` directly."""
    residual = lbracket(structure, alpha, beta * f)
    residual = residual - lbracket(structure, alpha, beta) * f
    return residual - beta * apply_vec(sharp(structure, alpha), f)


def function_slot1_residual(
    structure: NambuStructure, f: Polynomial, alpha: Form, beta: Form
) -> Form:
    """``lbracket(f a, b) - f lbracket(a, b) + i_{sharp a}(df ^ b)`` directly."""
    residual = lbracket(structure, alpha * f, beta)
    residual = residual - lbracket(structure, alpha, beta) * f
    return residual + contract_vec(sharp(structure, alpha), wedge(differential(f), beta))


def verify_characterization(
    structure: NambuStructure, config: JetBasisConfig = JetBasisConfig()
) -> CheckReport:
    """Certify the three characterizing rules of the bracket.

    The two function-slot rules are exactly linear in the coefficients of
    both form slots (slot lemmas in the module docstring), so constant basis
    forms with a full-degree function slot cover the whole grid.  The
    exact-forms rule is swept over pairs of increasing function tuples with
    slot degrees capped at 2 (complete for an order-<=2 residual), in the
    order of a direct scan: per pair only the pieces of the residual that
    need both slots are evaluated, the rest is computed once per tuple.  The
    first nonzero residual is recomputed by ``exact_forms_residual``, which
    must agree, and the direct value is reported.
    """
    basis = _SweepBasis(structure, config.max_degree)
    n, m = structure.n, structure.m
    count_forms = basis.size()
    count_funcs = len(basis.monomials)
    cap = min(config.max_degree, 2)
    capped = [g for g, e in enumerate(basis.exponents) if sum(e) <= cap]
    items = (
        math.comb(count_funcs, n - 1) ** 2          # exact-forms rule
        + count_forms * count_funcs * count_forms   # slot-2 rule
        + count_funcs * count_forms * count_forms   # slot-1 rule
    )

    failure = _first_exact_forms_failure(basis, capped)
    if failure is not None:
        fs, gs, residual = failure
        inputs = ("exact-forms",) + tuple(str(p) for p in fs) + tuple(str(p) for p in gs)
        return CheckReport(
            check="characterization",
            passed=False,
            items_checked=items,
            counterexample=Counterexample(inputs=inputs, residual=format_tensor(residual)),
        )

    for rule, evaluator in (
        ("slot-2", lambda a, f, b: function_slot2_residual(structure, a, f, b)),
        ("slot-1", lambda a, f, b: function_slot1_residual(structure, f, a, b)),
    ):
        for left in basis.index_sets:
            alpha = Form.basis(m, left)
            for monomial in basis.monomials:
                for right in basis.index_sets:
                    beta = Form.basis(m, right)
                    residual = evaluator(alpha, monomial, beta)
                    if not residual.is_zero():
                        return CheckReport(
                            check="characterization",
                            passed=False,
                            items_checked=items,
                            counterexample=Counterexample(
                                inputs=(
                                    rule,
                                    format_tensor(alpha),
                                    str(monomial),
                                    format_tensor(beta),
                                ),
                                residual=format_tensor(residual),
                            ),
                        )
    return CheckReport(check="characterization", passed=True, items_checked=items)


# -- formal wedges of functions --------------------------------------------------


@dataclass(frozen=True)
class FormalWedge:
    """Finite rational combination of formal wedges of n-1 functions.

    No normalization beyond bilinearity is performed: factors are kept in
    the order given, and equality is only meaningful after mapping into
    forms (``phi``) or through the module action.
    """

    m: int
    arity: int
    terms: tuple[tuple[Fraction, tuple[Polynomial, ...]], ...]

    def __post_init__(self):
        for coeff, factors in self.terms:
            if len(factors) != self.arity:
                raise ArityError(
                    f"wedge term has {len(factors)} factors, expected {self.arity}"
                )
            for factor in factors:
                if factor.num_vars != self.m:
                    raise ArityError(
                        f"factor on {factor.num_vars} variables, chart has {self.m}"
                    )

    @classmethod
    def single(cls, functions: Sequence[Polynomial], coeff: int | Fraction = 1) -> FormalWedge:
        functions = tuple(functions)
        if not functions:
            raise ArityError("a formal wedge needs at least one factor")
        return cls(functions[0].num_vars, len(functions), ((Fraction(coeff), functions),))

    @classmethod
    def zero(cls, m: int, arity: int) -> FormalWedge:
        return cls(m, arity, ())

    def __add__(self, other: FormalWedge) -> FormalWedge:
        if self.m != other.m or self.arity != other.arity:
            raise ArityError("formal wedges must share chart and arity")
        return FormalWedge(self.m, self.arity, self.terms + other.terms)


def phi(wedge_elt: FormalWedge) -> Form:
    """Linear map sending ``f_1 ^ .. ^ f_{n-1}`` to ``df_1 ^ .. ^ df_{n-1}``."""
    result = Form.zero(wedge_elt.m, wedge_elt.arity)
    for coeff, factors in wedge_elt.terms:
        term = _wedge_of_differentials(factors)
        result = result + term * coeff
    return result


def fbracket_prime(
    structure: NambuStructure, left: FormalWedge, right: FormalWedge
) -> FormalWedge:
    """Bracket on formal wedges, extended bilinearly.

    On decomposables it replaces one right factor at a time with the full
    n-bracket against all left factors.
    """
    structure.require_order_at_least(3)
    arity = structure.n - 1
    if left.arity != arity or right.arity != arity:
        raise ArityError(f"formal wedges must have arity {arity}")
    terms: list[tuple[Fraction, tuple[Polynomial, ...]]] = []
    for cl, fs in left.terms:
        for cr, gs in right.terms:
            coeff = cl * cr
            for i in range(arity):
                bracket = nbracket(structure, list(fs) + [gs[i]])
                replaced = list(gs)
                replaced[i] = bracket
                terms.append((coeff, tuple(replaced)))
    return FormalWedge(structure.m, arity, tuple(terms))


def verify_phi_morphism(
    structure: NambuStructure, config: JetBasisConfig = JetBasisConfig()
) -> CheckReport:
    """Certify ``phi({F, G}') = lbracket(phi F, phi G)`` over jet wedges.

    The two sides follow genuinely different code paths (nested n-brackets
    versus the form bracket).  Function slots are swept at degree cap 2,
    complete for the order-<=2 residual; increasing tuples suffice since
    both sides are alternating within each wedge.
    """
    basis = _SweepBasis(structure, config.max_degree)
    arity = structure.n - 1
    cap = min(config.max_degree, 2)
    capped = [g for g, e in enumerate(basis.exponents) if sum(e) <= cap]
    items = math.comb(len(basis.monomials), arity) ** 2
    for f_idx in itertools.combinations(capped, arity):
        left = FormalWedge.single([basis.monomials[i] for i in f_idx])
        phi_left = phi(left)
        for g_idx in itertools.combinations(capped, arity):
            right = FormalWedge.single([basis.monomials[i] for i in g_idx])
            residual = phi(fbracket_prime(structure, left, right)) - lbracket(
                structure, phi_left, phi(right)
            )
            if not residual.is_zero():
                inputs = tuple(str(basis.monomials[i]) for i in f_idx) + tuple(
                    str(basis.monomials[i]) for i in g_idx
                )
                return CheckReport(
                    check="phi-morphism",
                    passed=False,
                    items_checked=items,
                    counterexample=Counterexample(
                        inputs=inputs, residual=format_tensor(residual)
                    ),
                )
    return CheckReport(check="phi-morphism", passed=True, items_checked=items)
