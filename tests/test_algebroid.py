"""Bracket of (n-1)-forms: golden values, slot rules, verifier sweeps.

The sweep verifiers evaluate decomposed residuals; every decomposition rule
used there is re-derived here against the direct defining formulas on
randomized inputs, so a drift between the fast path and the definitions
cannot pass the suite.
"""

from __future__ import annotations

import copy
import dataclasses
import itertools
from fractions import Fraction
from functools import partial
from pathlib import Path

import pytest

from nambu.algebroid import (
    FormalWedge,
    anchor_residual,
    exact_forms_residual,
    fbracket_prime,
    function_slot1_residual,
    function_slot2_residual,
    lbracket,
    leibniz_residual,
    phi,
    reduced_sharp_d,
    sharp_d_residual,
    skew_defect,
    verify_anchor_morphism,
    verify_characterization,
    verify_leibniz_identity,
    verify_phi_morphism,
    verify_sharp_d_identity,
)
from nambu.cohomology import VolumeForm, lsv_residual, modular_multivector, verify_lsv
from nambu.errors import ArityError, DegreeError
from nambu.exterior import (
    Form,
    Multivector,
    apply_vec,
    contract_form,
    contract_vec,
    format_tensor,
    differential,
    ext_d,
    lie_form,
    lie_mv,
    pair,
    wedge,
    wedge_all,
)
from nambu.poly import Polynomial, jet_exponents
from nambu.structure import (
    JetBasis,
    NambuStructure,
    anchor_defect,
    anchor_defect_scan,
    check_fundamental_identity,
    check_invariance,
    first_hit,
    hamiltonian,
    invariance_defect,
    nbracket,
    sharp,
)
from nambu.textio import load_structure_file

from conftest import dd, denominator_lcm, dx, random_form, random_multivector, random_polynomial, x

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def phi_morphism_residual(structure, fs, gs):
    left, right = FormalWedge.single(fs), FormalWedge.single(gs)
    return phi(fbracket_prime(structure, left, right)) - lbracket(structure, phi(left), phi(right))


def first_tuple_pair_failure(structure, residual, max_degree=2):
    """The first pair ``(fs, gs)`` of increasing capped tuples, in grid
    order, whose direct residual is nonzero, with that residual; or None."""
    capped = [Polynomial.monomial(e) for e in jet_exponents(structure.m, max_degree) if sum(e) <= 2]
    tuples = list(itertools.combinations(capped, structure.n - 1))
    for fs in tuples:
        for gs in tuples:
            value = residual(structure, fs, gs)
            if not value.is_zero():
                return fs, gs, value
    return None


def assert_reports_first_direct_failure(structure, max_degree=2):
    """Both exact-forms reports equal the brute-force scan of the full capped grid."""
    verdicts = []
    for verify, residual, label in (
        (verify_characterization, exact_forms_residual, ("exact-forms",)),
        (verify_phi_morphism, phi_morphism_residual, ()),
    ):
        report = verify(JetBasis(structure, max_degree))
        expected = first_tuple_pair_failure(structure, residual, max_degree)
        if expected is None:
            assert report.passed
        else:
            fs, gs, value = expected
            assert not report.passed
            assert report.counterexample.inputs == label + tuple(map(str, fs + gs))
            assert report.counterexample.residual == format_tensor(value)
        verdicts.append(report.passed)
    return verdicts


class TestBracketValues:
    def test_golden_scaled_r3(self, scaled_r3):
        # frozen by direct expansion: d alpha = 0 and the Lie term rescales
        assert lbracket(scaled_r3, dx(3, 1, 2), dx(3, 2, 3)) == dx(3, 2, 3)

    def test_constant_closed_inputs_vanish(self, volume_r3):
        assert lbracket(volume_r3, dx(3, 1, 2), dx(3, 2, 3)).is_zero()

    def test_skew_counterexample_pair(self, normal_r4):
        alpha = dx(4, 3, 4)
        beta = x(4, 1) * dx(4, 1, 2)
        assert lbracket(normal_r4, alpha, beta).is_zero()
        assert lbracket(normal_r4, beta, alpha) == dx(4, 1, 4)
        assert skew_defect(normal_r4, alpha, beta) == dx(4, 1, 4)

    def test_skew_defect_doubles_on_diagonal(self, rng, scaled_r3):
        alpha = random_form(rng, 3, 2)
        assert skew_defect(scaled_r3, alpha, alpha) == lbracket(
            scaled_r3, alpha, alpha
        ) * Fraction(2)

    def test_skew_defect_sweeps_to_zero_when_order_is_top(self, rng, volume_r3, scaled_r3):
        # order n = m: the bracket is skew; includes nonconstant tensors
        for structure in (volume_r3, scaled_r3):
            for _ in range(6):
                alpha = random_form(rng, 3, 2)
                beta = random_form(rng, 3, 2)
                assert skew_defect(structure, alpha, beta).is_zero()

    def test_bilinearity(self, rng, normal_r4):
        a1 = random_form(rng, 4, 2)
        a2 = random_form(rng, 4, 2)
        b = random_form(rng, 4, 2)
        scale = Fraction(3, 2)
        lhs = lbracket(normal_r4, a1 + a2 * scale, b)
        rhs = lbracket(normal_r4, a1, b) + lbracket(normal_r4, a2, b) * scale
        assert lhs == rhs
        lhs = lbracket(normal_r4, b, a1 + a2 * scale)
        rhs = lbracket(normal_r4, b, a1) + lbracket(normal_r4, b, a2) * scale
        assert lhs == rhs

    def test_order_two_bracket_is_not_skew(self):
        # At n = 2 the bracket of 1-forms is L_{#a} b + <da, pi> b, a Leibniz
        # bracket that is not skew even for a Poisson bivector: on su(2)*
        # its symmetric part is nonzero.
        su2 = NambuStructure(
            3, 2, x(3, 3) * dd(3, 1, 2) - x(3, 2) * dd(3, 1, 3) + x(3, 1) * dd(3, 2, 3)
        )
        alpha = dx(3, 2) * x(3, 1)
        beta = dx(3, 3) * x(3, 3) + dx(3, 1)
        expected = (
            dx(3, 1) * (x(3, 1) * x(3, 3))
            + dx(3, 2) * (x(3, 2) * x(3, 3))
            + dx(3, 3) * (x(3, 3) * x(3, 3))
        )
        assert skew_defect(su2, alpha, beta) == expected

    def test_order_two_bracket_is_koszul_on_exact_forms(self, rng):
        # On exact 1-forms both this bracket and the Koszul bracket
        # L_{#a} b - L_{#b} a - d pi(a, b) give d{f, g}, for any bivector.
        su2 = NambuStructure(
            3, 2, x(3, 3) * dd(3, 1, 2) - x(3, 2) * dd(3, 1, 3) + x(3, 1) * dd(3, 2, 3)
        )
        for structure in (su2, NambuStructure(3, 2, random_multivector(rng, 3, 2, 1.0))):
            for _ in range(4):
                f, g = random_polynomial(rng, 3), random_polynomial(rng, 3)
                bracket = lbracket(structure, differential(f), differential(g))
                assert bracket == differential(nbracket(structure, [f, g]))

    def test_degree_guard(self, scaled_r3):
        with pytest.raises(DegreeError):
            lbracket(scaled_r3, dx(3, 1), dx(3, 1, 2))


def seeded_structures(rng):
    """A seeded n-vector for every m = 3..6 and n = 2..m; the 1/7 keeps a
    denominator that the seeded ones (1, 2, 3) cannot cancel."""
    return [
        NambuStructure(
            m, n, random_multivector(rng, m, n, 0.5) + dd(m, *range(1, n + 1)) * Fraction(1, 7)
        )
        for m in range(3, 7)
        for n in range(2, m + 1)
    ]


def cartan_bracket(structure, alpha, beta):
    """``L_{sharp a} b + (-1)^n <d a, lam> b`` by the exterior kernels alone."""
    lam = structure.nvector
    value = lie_form(contract_form(alpha, lam), beta)
    return value + beta * pair(ext_d(alpha), lam) * (-1) ** structure.n


def typed_terms(tensor):
    """Every coefficient of a tensor with its position and its type."""
    return sorted(
        (indices, exps, value, type(value).__name__)
        for indices, coeff in tensor.components.items()
        for exps, value in coeff.terms.items()
    )


class TestUnitTables:
    """``sharp`` and ``lbracket`` serve unit forms ``dx^I`` from a table on
    the structure instance; every other input is computed each call."""

    def test_tabled_values_equal_the_direct_formulas(self, rng):
        for structure in seeded_structures(rng):
            m, lam = structure.m, structure.nvector
            units = [dx(m, *I) for I in itertools.combinations(range(1, m + 1), structure.n - 1)]
            for unit in units:
                anchor = sharp(structure, unit)
                assert typed_terms(anchor) == typed_terms(contract_form(unit, lam))
                assert sharp(structure, unit * Polynomial.one(m)) is anchor
            for left, right in itertools.product(units, repeat=2):
                bracket = lbracket(structure, left, right)
                # d(dx^I) = d(dx^J) = 0 leaves the d i_X term of Cartan's formula
                direct = ext_d(contract_vec(contract_form(left, lam), right))
                assert typed_terms(bracket) == typed_terms(direct)
                assert lbracket(structure, left, right) is bracket

    def test_other_forms_bypass_the_table(self, rng):
        structure = NambuStructure(4, 3, random_multivector(rng, 4, 3, 1.0))
        unit, other = dx(4, 1, 2), dx(4, 2, 4)
        for form in (unit * 2, unit * x(4, 1), unit + other):
            value = sharp(structure, form)
            assert value == contract_form(form, structure.nvector)
            assert sharp(structure, form) is not value
            for left, right in ((form, other), (other, form)):
                value = lbracket(structure, left, right)
                assert value == cartan_bracket(structure, left, right)
                assert lbracket(structure, left, right) is not value
        # none of them left an entry under the unit's key
        assert sharp(structure, unit) == contract_form(unit, structure.nvector)
        assert lbracket(structure, unit, other) == cartan_bracket(structure, unit, other)

    def test_lam_and_its_integral_multiple_keep_apart(self, rng):
        for structure in seeded_structures(rng):
            basis = JetBasis(structure, 2)
            swept, c = basis.swept, denominator_lcm(structure.nvector)
            assert c > 1 and swept.nvector == structure.nvector * c
            units = list(basis.units.values())
            # the swept instance first, as a check run fills it
            for left, right in itertools.product(units, repeat=2):
                scaled, value = lbracket(swept, left, right), lbracket(structure, left, right)
                assert value == cartan_bracket(structure, left, right)
                assert scaled == value * c and scaled is not value
            for unit in units:
                scaled, value = sharp(swept, unit), sharp(structure, unit)
                assert value == contract_form(unit, structure.nvector)
                assert scaled == value * c and scaled is not value

    def test_table_is_no_field(self, normal_r4):
        twin = NambuStructure(4, 3, dd(4, 1, 2, 3))
        anchor = sharp(normal_r4, dx(4, 1, 2))
        assert twin == normal_r4 and hash(twin) == hash(normal_r4)
        assert repr(twin) == repr(normal_r4)
        assert [field.name for field in dataclasses.fields(normal_r4)] == ["m", "n", "nvector"]
        # an equal instance, or a copy, has a table of its own
        for other in (twin, copy.copy(normal_r4), copy.deepcopy(normal_r4)):
            assert sharp(other, dx(4, 1, 2)) == anchor
            assert sharp(other, dx(4, 1, 2)) is not anchor


class TestSlotRules:
    """The two function-slot rules hold for any n-vector, exactly."""

    def test_slot2_rule_random(self, rng, scaled_r3, sum_r6):
        for structure in (scaled_r3, sum_r6):
            m = structure.m
            for _ in range(6):
                alpha = random_form(rng, m, 2)
                beta = random_form(rng, m, 2)
                f = random_polynomial(rng, m)
                assert function_slot2_residual(structure, alpha, f, beta).is_zero()

    def test_slot1_rule_random(self, rng, scaled_r3, sum_r6):
        for structure in (scaled_r3, sum_r6):
            m = structure.m
            for _ in range(6):
                alpha = random_form(rng, m, 2)
                beta = random_form(rng, m, 2)
                f = random_polynomial(rng, m)
                assert function_slot1_residual(structure, f, alpha, beta).is_zero()

    @pytest.mark.parametrize("m, n", [(3, 2), (4, 3), (5, 4)])
    def test_slot1_residual_is_a_multiple_of_its_second_slot(self, monkeypatch, rng, m, n):
        # R1(f, a, b) = (X_a(f) + (-1)^n <df ^ a, lam>) b for any n-vector
        # and any anchor X that is linear over functions, by sharp(f a) =
        # f sharp(a), L_{fX} = f L_X + df ^ i_X, d(f a) = df ^ a + f da and
        # i_X(df ^ b) = X(f) b - df ^ i_X b; characterization therefore
        # sweeps slot-1 at one dx^J.  With the anchor of lam the factor is
        # zero by contract_form's defining identity, so the anchor is
        # perturbed by a tensorial term here, which makes it nonzero.
        from nambu import algebroid

        lam = random_multivector(rng, m, n)
        mu = random_multivector(rng, m, n)
        structure = NambuStructure(m, n, lam)
        monkeypatch.setattr(
            algebroid, "sharp", lambda s, alpha: sharp(s, alpha) + contract_form(alpha, mu)
        )
        factors = []
        for _ in range(3):
            f = random_polynomial(rng, m) + x(m, 1) * x(m, m)
            alpha, beta = random_form(rng, m, n - 1), random_form(rng, m, n - 1)
            lifted = pair(wedge(differential(f), alpha), lam)
            factor = apply_vec(algebroid.sharp(structure, alpha), f) + lifted * (-1) ** n
            assert function_slot1_residual(structure, f, alpha, beta) == beta * factor
            factors.append(factor)
        assert not all(factor.is_zero() for factor in factors)

    def test_constant_function_slot2(self, rng, scaled_r3):
        alpha = random_form(rng, 3, 2)
        beta = random_form(rng, 3, 2)
        c = Polynomial.constant(3, 5)
        assert lbracket(scaled_r3, alpha, beta * c) == lbracket(scaled_r3, alpha, beta) * c

    def test_slot1_frozen_example(self, volume_r3):
        # [[x1 a, b]] with a = dx2^dx3, b = dx1^dx2: both routes give zero
        alpha = dx(3, 2, 3)
        beta = dx(3, 1, 2)
        assert lbracket(volume_r3, alpha * x(3, 1), beta).is_zero()
        direct = lbracket(volume_r3, alpha, beta) * x(3, 1) - contract_vec(
            sharp(volume_r3, alpha), wedge(differential(x(3, 1)), beta)
        )
        assert direct.is_zero()


class TestDecompositionsAgainstDirect:
    """Each fast-path evaluation must equal the direct defining formula."""

    def test_anchor_second_slot_linearity(self, rng, scaled_r3, sum_r6):
        for structure in (scaled_r3, sum_r6):
            m = structure.m
            for _ in range(5):
                alpha = random_form(rng, m, 2)
                beta = random_form(rng, m, 2)
                g = random_polynomial(rng, m)
                assert anchor_residual(structure, alpha, beta * g) == anchor_residual(
                    structure, alpha, beta
                ) * g

    def test_residuals_are_first_order_in_each_function_slot(self, rng, sum_r6):
        # D(f h) = f D(h) + h D(f) - f h D(1) holds exactly for operators of
        # order <= 1: the sweeps of anchor, sharp-d, Leibniz and lsv on the
        # rows of degree <= 1 rest on it.  It must hold for any n-vector, so
        # none of these is Nambu-Poisson.
        structures = [
            NambuStructure(4, 3, random_multivector(rng, 4, 3)),
            NambuStructure(5, 4, random_multivector(rng, 5, 4, 0.4)),
            sum_r6,
        ]
        nonzero = 0
        for structure in structures:
            m, n = structure.m, structure.n
            one = Polynomial.one(m)
            # lsv vanishes for any n-vector, so give it a modular multivector
            # off by a polynomial on every component
            volume = VolumeForm(Fraction(2), x(m, 1) * x(m, 2))
            off = x(m, 1) * x(m, 3) + one
            wrong = modular_multivector(structure, volume) + Multivector(
                m, n - 1, {I: off for I in itertools.combinations(range(1, m + 1), n - 1)}
            )
            for _ in range(4):
                a, b = (random_form(rng, m, n - 1, 0.4) for _ in range(2))
                f, h = (random_polynomial(rng, m, 2, 3) for _ in range(2))
                operators = (
                    lambda u: sharp_d_residual(structure, a * u, b),
                    lambda u: sharp_d_residual(structure, a, b * u),
                    lambda u: anchor_residual(structure, a * u, b),
                    lambda u: anchor_residual(structure, a, b * u),
                    lambda u: lsv_residual(structure, volume, a * u, wrong),
                )
                for D in operators:
                    value = D(f * h)
                    assert value == D(h) * f + D(f) * h - D(one) * (f * h)
                    nonzero += not value.is_zero()
        assert nonzero >= 24

    @pytest.mark.parametrize("m, n", [(3, 2), (4, 3), (5, 4), (6, 5)])
    def test_anchor_residual_is_a_contraction_of_the_anchor_defect(self, rng, m, n):
        # For any n-vector, A(a, b) = i_b T(a) with the anchor defect
        # T(a) = L_{sharp a} lam - (-1)^n <d a, lam> lam; T is first-order
        # in the function slot, T(f h a) = f T(h a) + h T(f a) - f h T(a);
        # and T(df_1^..^df_{n-1}) is the invariance defect of the f-tuple,
        # since d(df_1^..^df_{n-1}) = 0.  The anchor-defect scan rests on
        # these three (structure docstring).  Checked by the direct
        # formulas alone on seeded n-vectors that are not Nambu-Poisson,
        # with non-unit forms a and b.
        structure = NambuStructure(m, n, random_multivector(rng, m, n, 1.0))
        nonzero = 0
        for _ in range(4):
            a, b = (random_form(rng, m, n - 1, 0.5) for _ in range(2))
            while len(a.components) < 2:
                a = random_form(rng, m, n - 1, 0.5)
            defect = anchor_defect(structure, a)
            assert anchor_residual(structure, a, b) == contract_form(b, defect)
            f, h = (random_polynomial(rng, m, 2, 3) for _ in range(2))
            first_order = (
                anchor_defect(structure, a * h) * f
                + anchor_defect(structure, a * f) * h
                - defect * (f * h)
            )
            assert anchor_defect(structure, a * (f * h)) == first_order
            fs = [
                random_polynomial(rng, m, 2, 3) + x(m, i) * x(m, rng.randint(1, m))
                for i in range(1, n)
            ]
            exact = wedge_all([differential(g) for g in fs])
            invariance = invariance_defect(structure, fs)
            assert anchor_defect(structure, exact) == invariance
            nonzero += not defect.is_zero() and not invariance.is_zero()
        assert nonzero >= 3

    def test_reduced_sharp_d_equals_direct_residual(self, rng, sum_r6):
        # reduced_sharp_d reads S off the anchor defect on the swept
        # n-vector c*lam, and the sharp-d scan and the Leibniz lift evaluate
        # it; it must equal c^2 times the direct residual on lam as a
        # polynomial for any n-vector, so none of these is Nambu-Poisson.
        # The three capped(2) pair grids hold 228,600 pairs; a seeded sample
        # of each keeps the test short.
        structures = [
            NambuStructure(4, 3, random_multivector(rng, 4, 3)),
            NambuStructure(5, 4, random_multivector(rng, 5, 4, 0.4)),
            sum_r6,
        ]
        nonzero = 0
        for structure in structures:
            basis = JetBasis(structure, 2)
            c = denominator_lcm(structure.nvector)
            for point in rng.sample(list(pairs(basis, basis.capped(2))), 1500):
                value = reduced_sharp_d(basis, *point)
                assert value == c**2 * sharp_d_residual(structure, *basis.forms(point))
                nonzero += not value.is_zero()
        assert nonzero >= 100

    def test_sharp_d_is_read_off_the_anchor(self, rng):
        # S(a, dx^J) = 0 and S(a, g dx^J) = (-1)^n A(a, dx^J)(g) for any
        # n-vector (algebroid docstring): the sharp-d scan reads S off the
        # anchor residuals of the anchor defect.  Checked here by the direct formulas
        # alone, on seeded n-vectors at n = 2, 3 and 4 with random
        # non-monomial a and g.  Each n-vector has a case with A != 0, so
        # none of them is Nambu-Poisson.
        def term_count(tensor):
            if isinstance(tensor, Polynomial):
                return len(tensor.terms)
            return sum(len(coeff.terms) for coeff in tensor.components.values())

        def non_monomial(draw):
            value = draw()
            while term_count(value) < 2:
                value = draw()
            return value

        nonzero = 0
        for m, n in ((3, 2), (4, 2), (5, 2), (4, 3), (5, 3), (6, 3), (5, 4), (6, 4)):
            structure = NambuStructure(m, n, random_multivector(rng, m, n, 1.0))
            sign = -1 if n % 2 else 1
            failing = 0
            for _ in range(6):
                a = non_monomial(lambda: random_form(rng, m, n - 1, 0.4))
                g = non_monomial(lambda: random_polynomial(rng, m, 2, 3))
                unit = dx(m, *rng.choice(list(itertools.combinations(range(1, m + 1), n - 1))))
                anchor = anchor_residual(structure, a, unit)
                assert sharp_d_residual(structure, a, unit).is_zero()
                assert sharp_d_residual(structure, a, unit * g) == apply_vec(anchor, g) * sign
                failing += not anchor.is_zero()
            assert failing
            nonzero += failing
        # A is nonzero on 42 of the 48 seeded cases
        assert nonzero >= 40

    def test_leibniz_factorization(self, rng, scaled_r3, sum_r6, normal_r4):
        # residual(a,b,c) = lie_form(A(a,b), c) - (-1)^n S(a,b) c, any tensor;
        # the seeded bivector and the m = 6 pair of 4-blades give even n
        bivector = NambuStructure(3, 2, random_multivector(rng, 3, 2, 1.0))
        blades = NambuStructure(6, 4, dd(6, 1, 2, 3, 4) + dd(6, 3, 4, 5, 6) * x(6, 1))
        for structure in (scaled_r3, sum_r6, normal_r4, bivector, blades):
            m, n = structure.m, structure.n
            sign = -1 if n % 2 else 1
            for _ in range(5):
                alpha = random_form(rng, m, n - 1)
                beta = random_form(rng, m, n - 1)
                gamma = random_form(rng, m, n - 1)
                anchor = anchor_residual(structure, alpha, beta)
                scalar = sharp_d_residual(structure, alpha, beta)
                predicted = lie_form(anchor, gamma) - (gamma * scalar) * sign
                assert leibniz_residual(structure, alpha, beta, gamma) == predicted


def cross_only_r5():
    """d1^d2^d3 + d3^d4^d5: not integrable.  As on sum_r6, sharp-d holds on
    every pair with a constant coefficient in either slot."""
    return NambuStructure(5, 3, dd(5, 1, 2, 3) + dd(5, 3, 4, 5))


def cross_r4():
    """x2*d1^d2^d4 + x3*d2^d3^d4: not integrable; the anchor first fails at
    (dx1^dx4, dx2^dx3)."""
    return NambuStructure(4, 3, x(4, 2) * dd(4, 1, 2, 4) + x(4, 3) * dd(4, 2, 3, 4))


def pairs(basis, rows):
    """Pairs ``(f, I, g, J)`` of basis forms with monomials from ``rows``, in
    the pinned order."""
    return itertools.product(rows, basis.index_sets, rows, basis.index_sets)


def full_pairs(basis):
    """All jet-basis pairs, in the pinned order."""
    return pairs(basis, range(len(basis.monomials)))


def first_direct_failure(basis, grid, direct):
    """Rendered inputs and residual of the first grid point failing ``direct``."""
    for point in grid:
        forms = basis.forms(point)
        value = direct(*forms)
        if not value.is_zero():
            text = str(value) if isinstance(value, Polynomial) else format_tensor(value)
            return tuple(map(format_tensor, forms)), text
    return None


def first_slot_rule_failure(basis):
    """Rendered inputs and residual of the first failure of the direct
    function-slot residuals on ``basis.structure``, over the full unit grid
    in the pinned order, slot-2 first; or None.  The residuals are looked up
    on ``algebroid`` at each point, so a planted one is seen."""
    from nambu import algebroid

    grid = itertools.product(
        ("slot-2", "slot-1"), basis.index_sets, basis.monomials, basis.index_sets
    )
    for rule, left, f, right in grid:
        alpha, beta = basis.units[left], basis.units[right]
        if rule == "slot-2":
            value = algebroid.function_slot2_residual(basis.structure, alpha, f, beta)
        else:
            value = algebroid.function_slot1_residual(basis.structure, f, alpha, beta)
        if not value.is_zero():
            return (rule, format_tensor(alpha), str(f), format_tensor(beta)), format_tensor(value)
    return None


class TestVerifiers:
    def test_anchor_passes_on_nambu_fixtures(self, scaled_r3, volume_r3, normal_r4):
        for structure in (scaled_r3, volume_r3, normal_r4):
            report = verify_anchor_morphism(JetBasis(structure, 3))
            assert report.passed

    def test_anchor_fails_on_r6(self, sum_r6):
        report = verify_anchor_morphism(JetBasis(sum_r6, 2))
        assert not report.passed
        from nambu.textio import parse_form

        alpha = parse_form(report.counterexample.inputs[0], 6, 2)
        beta = parse_form(report.counterexample.inputs[1], 6, 2)
        assert not anchor_residual(sum_r6, alpha, beta).is_zero()

    def test_sharp_d_passes_on_nambu_fixtures(self, scaled_r3, volume_r3, normal_r4):
        for structure in (scaled_r3, volume_r3, normal_r4):
            assert verify_sharp_d_identity(JetBasis(structure, 3)).passed

    def test_sharp_d_fails_on_r6(self, sum_r6):
        report = verify_sharp_d_identity(JetBasis(sum_r6, 2))
        assert not report.passed

    def test_leibniz_passes_on_nambu_fixtures(self, scaled_r3, volume_r3, normal_r4):
        for structure in (scaled_r3, volume_r3, normal_r4):
            assert verify_leibniz_identity(JetBasis(structure, 3)).passed

    def test_leibniz_fails_on_r6_with_certified_triple(self, sum_r6):
        report = verify_leibniz_identity(JetBasis(sum_r6, 2))
        assert not report.passed
        from nambu.textio import parse_form

        forms = [parse_form(t, 6, 2) for t in report.counterexample.inputs]
        assert not leibniz_residual(sum_r6, *forms).is_zero()

    def test_characterization_passes(self, scaled_r3, volume_r3, normal_r4):
        for structure in (scaled_r3, volume_r3, normal_r4):
            assert verify_characterization(JetBasis(structure, 3)).passed

    def test_cross_only_failure_is_first_of_direct_scan(self):
        structure = cross_only_r5()
        basis = JetBasis(structure, 2)
        expected = first_direct_failure(
            basis, full_pairs(basis), lambda a, b: sharp_d_residual(structure, a, b)
        )
        report = verify_sharp_d_identity(JetBasis(structure, 2))
        assert not report.passed
        assert (report.counterexample.inputs, report.counterexample.residual) == expected

        # Leibniz: every triple of a pair with zero anchor and sharp-d
        # residuals vanishes (test_leibniz_factorization), so the direct
        # triple scan skips those pairs instead of evaluating them.
        def vanishing_pair(point):
            a, b = basis.forms(point)
            return anchor_residual(structure, a, b).is_zero() and sharp_d_residual(
                structure, a, b
            ).is_zero()

        triples = (
            pair_point + third
            for pair_point in full_pairs(basis)
            if not vanishing_pair(pair_point)
            for third in basis.elements()
        )
        expected = first_direct_failure(
            basis, triples, lambda a, b, c: leibniz_residual(structure, a, b, c)
        )
        report = verify_leibniz_identity(JetBasis(structure, 2))
        assert not report.passed
        assert (report.counterexample.inputs, report.counterexample.residual) == expected

    def test_sharp_d_hit_follows_the_anchor_hit(self, rng):
        # S(a, g dx^J) = (-1)^n A(a, dx^J)(g) and S(a, dx^J) = 0
        # (test_sharp_d_is_read_off_the_anchor), and a vector field is zero
        # exactly when it kills every x_j.  So the sharp-d hit is None
        # exactly when the anchor hit is; otherwise it shares the anchor
        # hit's (f, I) and has g >= 1, and the first natural Leibniz pair
        # is the anchor hit.  The sharp-d scan reads only that row, so its
        # hit is compared with a scan of the whole capped pair grid.
        # Checked on the fixtures, on cross_only_r5 and on seeded n-vectors
        # that are not Nambu-Poisson.
        from nambu import algebroid

        structures = [
            load_structure_file(path).structure() for path in sorted(FIXTURES.glob("*.json"))
        ]
        structures.append(cross_only_r5())
        structures += [
            NambuStructure(m, n, random_multivector(rng, m, n, 1.0))
            for m, n in ((3, 2), (4, 2), (4, 3), (5, 3), (5, 4))
        ]
        failing = 0
        for structure in structures:
            basis = JetBasis(structure, 2)
            _, anchor = basis.once(anchor_defect_scan)
            sharp_d = basis.once(algebroid._sharp_d_hit)
            grid = pairs(basis, basis.capped(1))
            assert sharp_d == first_hit(grid, partial(reduced_sharp_d, basis))
            assert (anchor is None) == (sharp_d is None)
            if anchor is None:
                assert verify_leibniz_identity(basis).passed
                continue
            failing += 1
            assert sharp_d[:2] == anchor[:2] and sharp_d[2] >= 1
            anchor_report = verify_anchor_morphism(basis)
            leibniz_report = verify_leibniz_identity(basis)
            assert leibniz_report.counterexample.inputs[:2] == anchor_report.counterexample.inputs
        # r6_nonexample, r6_rational, cross_only_r5 and the five seeded
        # n-vectors fail
        assert failing == 8

    @pytest.mark.parametrize(
        "structure,sharp_d_inputs,leibniz_inputs",
        [
            # the first failure is in the constant-f row
            (
                cross_r4(),
                ("dx1^dx4", "x2*dx3^dx4"),
                ("dx1^dx4", "dx2^dx3", "dx1^dx4"),
            ),
            # every constant-coefficient pair passes: a later row
            (
                cross_only_r5(),
                ("x1*dx2^dx3", "x3*dx4^dx5"),
                ("x1*dx2^dx3", "dx3^dx4", "x5*dx1^dx2"),
            ),
        ],
        ids=["constant-f-row", "later-row"],
    )
    def test_located_failure_is_first_of_direct_scan_at_jet_degree_3(
        self, structure, sharp_d_inputs, leibniz_inputs
    ):
        # At jet degree 3 the capped pair grid that locates a failure is a
        # proper part of the full grid; both reports must be the first
        # failure of a direct full-grid scan.
        basis = JetBasis(structure, 3)
        expected = first_direct_failure(
            basis, full_pairs(basis), lambda a, b: sharp_d_residual(structure, a, b)
        )
        assert expected[0] == sharp_d_inputs
        report = verify_sharp_d_identity(JetBasis(structure, 3))
        assert (report.counterexample.inputs, report.counterexample.residual) == expected

        # pairs with zero anchor and sharp-d residuals are skipped, as in
        # test_cross_only_failure_is_first_of_direct_scan
        def failing_pair(point):
            a, b = basis.forms(point)
            return not (
                anchor_residual(structure, a, b).is_zero()
                and sharp_d_residual(structure, a, b).is_zero()
            )

        triples = (
            pair_point + third
            for pair_point in filter(failing_pair, full_pairs(basis))
            for third in basis.elements()
        )
        expected = first_direct_failure(
            basis, triples, lambda a, b, c: leibniz_residual(structure, a, b, c)
        )
        assert expected[0] == leibniz_inputs
        report = verify_leibniz_identity(JetBasis(structure, 3))
        assert (report.counterexample.inputs, report.counterexample.residual) == expected

    @pytest.mark.parametrize(
        "structure,index,planted,leibniz_pair",
        [
            # T(a) gains a_I x4 d1^d2^d4 on a row before the natural anchor
            # hit (dx1^dx4, dx2^dx3)
            (cross_r4(), (1, 3), dd(4, 1, 2, 4) * x(4, 4), ("dx1^dx3", "dx1^dx2")),
            # Z = -T(dx1^dx4) cancels the natural anchor hit's whole row at
            # f = 0, so the hits move later
            (
                cross_r4(),
                (1, 4),
                -anchor_defect(cross_r4(), dx(4, 1, 4)),
                ("dx2^dx4", "dx1^dx3"),
            ),
            # a Nambu-Poisson n-vector: the plant is the only failure
            (
                NambuStructure(4, 3, dd(4, 1, 2, 3)),
                (1, 3),
                dd(4, 1, 2, 4) * x(4, 4),
                ("dx1^dx3", "dx1^dx2"),
            ),
        ],
        ids=["before-anchor-hit", "cancels-anchor-hit", "anchor-passes"],
    )
    def test_planted_anchor_fault_is_first_of_direct_scan(
        self, monkeypatch, structure, index, planted, leibniz_pair
    ):
        # The anchor, sharp-d and Leibniz hits are read off the anchor
        # defect T (test_anchor_residual_is_a_contraction_of_the_anchor_defect),
        # so plant the fault there: T(a) + a_I Z for a fixed n-vector Z is
        # tensorial in a, so T stays first-order in the function slot, and
        # it adds P(a, b) = a_I i_b Z = a_I sum_J b_J V_J, V_J = i(dx^J) Z, to
        # the anchor residual.  Through S(a, g dx^J) = (-1)^n A(a, dx^J)(g)
        # (test_sharp_d_is_read_off_the_anchor) it adds
        # (-1)^n a_I sum_J V_J(b_J) to S, and through the factorization
        # (test_leibniz_factorization) lie_form(P, c) - a_I sum_J V_J(b_J) c
        # to the Leibniz residual.  Each report must be the first failure of
        # its direct full-grid scan, with the matching term planted there.
        from nambu import algebroid, structure as structure_module

        m = structure.m
        zero = Polynomial.zero(m)
        sign = -1 if structure.n % 2 else 1
        fields = {
            indices: contract_form(dx(m, *indices), planted)
            for indices in itertools.combinations(range(1, m + 1), structure.n - 1)
        }

        def derivation(b):
            """sum_J V_J(b_J)"""
            total = zero
            for indices, coeff in b.components.items():
                total = total + apply_vec(fields[indices], coeff)
            return total

        def planted_defect(structure, a):
            return anchor_defect(structure, a) + planted * a.components.get(index, zero)

        def planted_anchor(structure, a, b):
            a_i = a.components.get(index, zero)
            return anchor_residual(structure, a, b) + contract_form(b, planted) * a_i

        def planted_sharp_d(structure, a, b):
            a_i = a.components.get(index, zero)
            return sharp_d_residual(structure, a, b) + derivation(b) * a_i * sign

        def planted_leibniz(structure, a, b, c):
            a_i = a.components.get(index, zero)
            value = leibniz_residual(structure, a, b, c)
            value = value + lie_form(contract_form(b, planted) * a_i, c)
            return value - c * (derivation(b) * a_i)

        monkeypatch.setattr(structure_module, "anchor_defect", planted_defect)
        monkeypatch.setattr(algebroid, "anchor_residual", planted_anchor)
        monkeypatch.setattr(algebroid, "sharp_d_residual", planted_sharp_d)
        monkeypatch.setattr(algebroid, "leibniz_residual", planted_leibniz)
        basis = JetBasis(structure, 2)
        for verify, direct in (
            (verify_anchor_morphism, planted_anchor),
            (verify_sharp_d_identity, planted_sharp_d),
        ):
            expected = first_direct_failure(basis, full_pairs(basis), partial(direct, structure))
            report = verify(JetBasis(structure, 2))
            assert (report.counterexample.inputs, report.counterexample.residual) == expected

        def failing_pair(point):
            a, b = basis.forms(point)
            return not (
                planted_anchor(structure, a, b).is_zero()
                and planted_sharp_d(structure, a, b).is_zero()
            )

        triples = (
            pair_point + third
            for pair_point in filter(failing_pair, full_pairs(basis))
            for third in basis.elements()
        )
        expected = first_direct_failure(basis, triples, partial(planted_leibniz, structure))
        assert expected[0][:2] == leibniz_pair
        report = verify_leibniz_identity(JetBasis(structure, 2))
        assert (report.counterexample.inputs, report.counterexample.residual) == expected

    def test_fault_outside_a_vanishing_anchor_defect_goes_unseen(self, monkeypatch, normal_r4):
        # The blind spot of the anchor-defect scan: on a structure with
        # T = 0 its pass certifies FI, invariance, anchor, sharp-d and
        # Leibniz, so none of them evaluates a residual of its own, and a
        # fault planted in the invariance defect or in the direct anchor
        # residual is not reported.  A planted fault is seen only through
        # the anchor defect (test_planted_anchor_fault_is_first_of_direct_scan).
        from nambu import algebroid, structure as structure_module

        bump = dd(4, 1, 2, 3)
        invariance_defect = structure_module.invariance_defect
        monkeypatch.setattr(
            structure_module, "invariance_defect", lambda *args: invariance_defect(*args) + bump
        )
        monkeypatch.setattr(
            algebroid, "anchor_residual", lambda *args: anchor_residual(*args) + dd(4, 1)
        )
        fs = (x(4, 1), x(4, 2))
        assert not structure_module.invariance_defect(normal_r4, fs).is_zero()
        assert not algebroid.anchor_residual(normal_r4, dx(4, 1, 2), dx(4, 1, 3)).is_zero()
        basis = JetBasis(normal_r4, 2)
        for verify in (
            check_fundamental_identity,
            check_invariance,
            verify_anchor_morphism,
            verify_sharp_d_identity,
            verify_leibniz_identity,
        ):
            assert verify(basis).passed

    @pytest.mark.parametrize(
        "n, build",
        [
            # a bivector that breaks the Jacobi identity
            (2, lambda a, b, c: dd(3, 1, 2) * a + dd(3, 2, 3) * (x(3, 1) * b)
             + dd(3, 1, 3) * (x(3, 2) * x(3, 3) * c)),
            # two 3-blades on R^5 that share one direction
            (3, lambda a, b, c: dd(5, 1, 2, 3) * a + dd(5, 3, 4, 5) * (b + x(5, 2) * c)),
            (4, lambda a, b, _: dd(6, 1, 2, 3, 4) * a + dd(6, 3, 4, 5, 6) * (x(6, 1) * b)),
        ],
        ids=["n2", "n3", "n4"],
    )
    def test_lift_is_first_direct_failure_of_third_slot(self, rng, n, build):
        # The lift scans the third slot through the factorization on the
        # swept n-vector; the report must be the first failure of a direct
        # leibniz_residual scan of the third slot from the hit pair, at odd
        # and even n (where (-1)^n flips) and with non-integral coefficients
        # (the first is never integral).  A natural hit pair is the anchor
        # hit, where S is zero (test_sharp_d_hit_follows_the_anchor_hit),
        # so the sign cannot move the triple; the planted test below pins
        # it.
        def value(denominators):
            return Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.choice(denominators))

        for _ in range(3):
            lam = build(value((2, 3)), value((1, 2, 3)), value((1, 2, 3)))
            structure = NambuStructure(lam.m, n, lam)
            assert denominator_lcm(lam) > 1
            basis = JetBasis(structure, 3)
            report = verify_leibniz_identity(basis)
            assert not report.passed
            elements = {format_tensor(basis.form(*e)): e for e in basis.elements()}
            hit = sum((elements[text] for text in report.counterexample.inputs[:2]), ())
            triples = (hit + third for third in basis.elements())
            expected = first_direct_failure(
                basis, triples, lambda a, b, c: leibniz_residual(structure, a, b, c)
            )
            assert (report.counterexample.inputs, report.counterexample.residual) == expected

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_leibniz_lift_premises_hold_at_the_anchor_hit(self, rng, n):
        # The Leibniz lift reads A at the anchor hit (f, I, 0, J) off the
        # anchor defect, and it drops the (-1)^n S c term of the
        # factorization, since S(a, dx^J) = 0 (algebroid docstring).  Both
        # premises are checked at the anchor hit by the direct formulas on
        # the swept n-vector: on the fixtures of order n that fail,
        # cross_only_r5 at n = 3, and two seeded n-vectors of order n.
        structures = [
            structure
            for structure in (
                load_structure_file(path).structure() for path in sorted(FIXTURES.glob("*.json"))
            )
            if structure.n == n
        ]
        if n == 3:
            structures.append(cross_only_r5())
        structures += [
            NambuStructure(m, n, random_multivector(rng, m, n, 1.0)) for m in (n + 1, n + 2)
        ]
        failing = 0
        for structure in structures:
            basis = JetBasis(structure, 2)
            family, hit = basis.once(anchor_defect_scan)
            if hit is None:
                continue
            failing += 1
            assert hit[2] == 0 and basis.monomials[0] == Polynomial.constant(structure.m, 1)
            forms = basis.forms(hit)
            assert sharp_d_residual(basis.swept, *forms).is_zero()
            anchor = family(*hit)
            assert not anchor.is_zero()
            assert anchor_residual(basis.swept, *forms) == anchor
        # the two seeded n-vectors fail, and at n = 3 so do r6_nonexample,
        # r6_rational and cross_only_r5
        assert failing == (5 if n == 3 else 2)

    def test_characterization_slot_failure_is_first_of_full_grid(self, monkeypatch, scaled_r3):
        # The perturbed slot-1 residual fails at x2 on the last index set
        # and at every cubic on the first.  The capped sweep hits the former;
        # the report must be the first failure of the direct full-grid scan.
        from nambu import algebroid
        from nambu.exterior import format_tensor

        basis = JetBasis(scaled_r3, 3)
        first, last = (dx(3, *basis.index_sets[i]) for i in (0, -1))

        def perturbed(structure, f, alpha, beta):
            value = function_slot1_residual(structure, f, alpha, beta)
            if (alpha == first and f.total_degree() == 3) or (alpha == last and f == x(3, 2)):
                value = value + beta * x(3, 1)
            return value

        monkeypatch.setattr(algebroid, "function_slot1_residual", perturbed)
        expected = None
        for rule, left, f, right in itertools.product(
            ("slot-2", "slot-1"), basis.index_sets, basis.monomials, basis.index_sets
        ):
            alpha, beta = dx(3, *left), dx(3, *right)
            if rule == "slot-2":
                value = function_slot2_residual(scaled_r3, alpha, f, beta)
            else:
                value = perturbed(scaled_r3, f, alpha, beta)
            if not value.is_zero():
                expected = (rule, format_tensor(alpha), str(f), format_tensor(beta)), value
                break
        assert expected is not None
        inputs, value = expected
        assert inputs[:3] == ("slot-1", "dx1^dx2", "x1^3")

        report = verify_characterization(JetBasis(scaled_r3, 3))
        assert not report.passed
        assert report.counterexample.inputs == inputs
        assert report.counterexample.residual == format_tensor(value)

    @pytest.mark.parametrize(
        "lam",
        [
            dd(3, 1, 2) * x(3, 3) + dd(3, 2, 3) * Fraction(1, 2),
            dd(4, 1, 2, 3) * (x(4, 4) * Fraction(2, 3)) + dd(4, 2, 3, 4),
            dd(5, 1, 2, 3, 4) * Fraction(1, 3) + dd(5, 2, 3, 4, 5) * x(5, 1),
        ],
        ids=["n2", "n3", "n4"],
    )
    def test_planted_lie_form_fault_is_first_of_full_grid(self, monkeypatch, lam):
        # A lie_form that breaks its Leibniz rule on the one form x1 dx^J,
        # J the last index set, breaks the slot-2 rule, which characterization
        # sweeps structure-free as lie_form_defect(d_k, f, dx^J).  That sweep
        # must hit, and the report must be the first failure of the direct
        # full-grid scan on lam, both rules in the pinned order (lam has a
        # non-integral coefficient, so the sweeps run on a multiple of it).
        from nambu import algebroid

        structure = NambuStructure(lam.m, lam.degree, lam)
        m = structure.m
        basis = JetBasis(structure, 3)
        unit = basis.units[basis.index_sets[-1]]
        faulty = unit * x(m, 1)

        def planted(field, omega):
            value = lie_form(field, omega)
            return value + omega * apply_vec(field, x(m, m)) if omega == faulty else value

        monkeypatch.setattr(algebroid, "lie_form", planted)
        # a point of the structure-free grid: X = d_m, f = x1, b = dx^J
        assert not algebroid.lie_form_defect(dd(m, m), x(m, 1), unit).is_zero()
        expected = first_slot_rule_failure(basis)
        assert expected is not None and expected[0][0] == "slot-2"
        report = verify_characterization(JetBasis(structure, 3))
        assert (report.counterexample.inputs, report.counterexample.residual) == expected
        # the route's identity at the reported point: the slot-2 residual is
        # lie_form_defect at X = sharp(a), whatever lie_form computes
        alpha = next(form for form in basis.units.values() if format_tensor(form) == expected[0][1])
        assert function_slot2_residual(structure, alpha, x(m, 1), unit) == (
            algebroid.lie_form_defect(sharp(structure, alpha), x(m, 1), unit)
        )

    def test_slot_faults_off_the_swept_grid_go_unseen(self, monkeypatch, scaled_r3):
        # The blind spots of characterization's function-slot sweeps.  Slot-2
        # is certified structure-free through lie_form_defect, so a fault
        # planted in function_slot2_residual alone is not evaluated.  Slot-1
        # is swept at the first index set J0 alone, since its residual is a
        # multiple of b, so a fault planted in function_slot1_residual at one
        # J != J0 alone is not evaluated.  Each fault is seen by the direct
        # full-grid scan, and neither is reported.  A fault is seen only
        # through the kernels (test_planted_lie_form_fault_is_first_of_full_grid,
        # test_characterization_slot_failure_is_first_of_full_grid).
        from nambu import algebroid

        basis = JetBasis(scaled_r3, 3)
        last = basis.units[basis.index_sets[-1]]

        def slot2(structure, alpha, f, beta):
            return function_slot2_residual(structure, alpha, f, beta) + beta

        def slot1(structure, f, alpha, beta):
            value = function_slot1_residual(structure, f, alpha, beta)
            return value + beta if beta == last else value

        for name, rule, planted in (
            ("function_slot2_residual", "slot-2", slot2),
            ("function_slot1_residual", "slot-1", slot1),
        ):
            with monkeypatch.context() as patch:
                patch.setattr(algebroid, name, planted)
                expected = first_slot_rule_failure(basis)
                assert expected is not None and expected[0][0] == rule
                assert verify_characterization(JetBasis(scaled_r3, 3)).passed

    def test_anchor_spot_instance(self, scaled_r3):
        # [x3 d3, x3 d1] = x3 d1 = sharp of [[dx1^dx2, dx2^dx3]]
        a = dx(3, 1, 2)
        b = dx(3, 2, 3)
        lhs = lie_mv(sharp(scaled_r3, a), sharp(scaled_r3, b))
        assert lhs == x(3, 3) * dd(3, 1)
        assert lhs == sharp(scaled_r3, lbracket(scaled_r3, a, b))

    def test_auxiliary_invariance_identity_on_jets(self, scaled_r3, volume_r3):
        # L_{sharp a} lam = (-1)^n <d a, lam> lam over the jet basis
        for structure in (scaled_r3, volume_r3):
            sign = -1 if structure.n % 2 else 1
            basis = JetBasis(structure, 2)
            for g, indices in basis.elements():
                alpha = basis.form(g, indices)
                lhs = lie_mv(sharp(structure, alpha), structure.nvector)
                rhs = structure.nvector * pair(ext_d(alpha), structure.nvector)
                assert lhs == rhs * sign


class TestExactFormsRule:
    def test_residual_vanishes_on_random_functions(self, rng, scaled_r3, sum_r6):
        # holds for any n-vector: both sides reduce to the same expansion
        for structure in (scaled_r3, sum_r6):
            m = structure.m
            for _ in range(5):
                fs = [random_polynomial(rng, m, 2, 3) for _ in range(2)]
                gs = [random_polynomial(rng, m, 2, 3) for _ in range(2)]
                assert exact_forms_residual(structure, fs, gs).is_zero()

    def test_characterization_reports_first_direct_failure(self, monkeypatch, scaled_r3):
        # The rule holds for every n-vector, so perturb the bracket it uses:
        # {x1, x3, x1*x2} gains x3^2.  The sweep must report the first pair of
        # the direct scan in tuple order, with the direct residual.
        from nambu import algebroid
        from nambu.structure import nbracket
        from nambu.textio import format_tensor

        m = 3
        target = [x(m, 1), x(m, 3), x(m, 1) * x(m, 2)]

        def perturbed(structure, functions):
            value = nbracket(structure, functions)
            return value + x(m, 3) ** 2 if list(functions) == target else value

        monkeypatch.setattr(algebroid, "nbracket", perturbed)
        basis = JetBasis(scaled_r3, 3)
        capped = [basis.monomials[g] for g, e in enumerate(basis.exponents) if sum(e) <= 2]
        expected = None
        for fs in itertools.combinations(capped, 2):
            for gs in itertools.combinations(capped, 2):
                direct = exact_forms_residual(scaled_r3, fs, gs)
                if not direct.is_zero():
                    expected = fs, gs, direct
                    break
            if expected is not None:
                break
        assert expected is not None
        fs, gs, direct = expected
        assert [str(p) for p in fs] == ["x1", "x3"]
        assert [str(p) for p in gs] == ["x1", "x1*x2"]

        report = verify_characterization(JetBasis(scaled_r3, 3))
        assert not report.passed
        assert report.counterexample.inputs == (
            ("exact-forms",) + tuple(str(p) for p in fs) + tuple(str(p) for p in gs)
        )
        assert report.counterexample.residual == format_tensor(direct)

    def test_phi_morphism_reports_first_direct_failure(self, monkeypatch, scaled_r3):
        # Same perturbed bracket as above: the report must be the first pair
        # of the direct phi/lbracket scan over capped increasing tuples.
        from nambu import algebroid
        from nambu.poly import jet_exponents
        from nambu.structure import nbracket
        from nambu.textio import format_tensor

        m = 3
        target = [x(m, 1), x(m, 3), x(m, 1) * x(m, 2)]

        def perturbed(structure, functions):
            value = nbracket(structure, functions)
            return value + x(m, 3) ** 2 if list(functions) == target else value

        monkeypatch.setattr(algebroid, "nbracket", perturbed)
        capped = [Polynomial.monomial(e) for e in jet_exponents(m, 3) if sum(e) <= 2]
        expected = None
        for fs in itertools.combinations(capped, 2):
            left = FormalWedge.single(fs)
            for gs in itertools.combinations(capped, 2):
                right = FormalWedge.single(gs)
                residual = phi(fbracket_prime(scaled_r3, left, right)) - lbracket(
                    scaled_r3, phi(left), phi(right)
                )
                if not residual.is_zero():
                    expected = fs, gs, residual
                    break
            if expected is not None:
                break
        assert expected is not None
        fs, gs, residual = expected
        assert [str(p) for p in fs] == ["x1", "x3"]
        assert [str(p) for p in gs] == ["x1", "x1*x2"]

        report = verify_phi_morphism(JetBasis(scaled_r3, 3))
        assert not report.passed
        assert report.counterexample.inputs == tuple(str(p) for p in fs + gs)
        assert report.counterexample.residual == format_tensor(residual)

    def test_residual_splits_into_consistency_defects(self, monkeypatch, rng, scaled_r3, sum_r6):
        # For closed alpha = dF the residual is
        #   sum_i dg_1 ^ .. ^ d(X_F(g_i) - {F, g_i}) ^ .. ^ dg_{n-1},
        # for any n-vector; a perturbed bracket makes the defects nonzero.
        from nambu import algebroid
        from nambu.exterior import apply_vec, wedge_all
        from nambu.structure import hamiltonian, nbracket

        extra: dict[tuple[Polynomial, ...], Polynomial] = {}

        def perturbed(structure, functions):
            value = nbracket(structure, functions)
            return value + extra.get(tuple(functions), Polynomial.zero(structure.m))

        def split(structure, fs, gs):
            field = hamiltonian(structure, fs)
            dgs = [differential(g) for g in gs]
            total = Form.zero(structure.m, structure.n - 1)
            for i, g in enumerate(gs):
                defect = apply_vec(field, g) - algebroid.nbracket(structure, [*fs, g])
                total = total + wedge_all(dgs[:i] + [differential(defect)] + dgs[i + 1 :])
            return total

        monkeypatch.setattr(algebroid, "nbracket", perturbed)
        m = 3
        extra[(x(m, 1), x(m, 3), x(m, 1) * x(m, 2))] = x(m, 3) ** 2
        extra[(x(m, 2), x(m, 1) ** 2, x(m, 3))] = x(m, 1) * x(m, 2) - x(m, 3)
        extra[(Polynomial.one(m), x(m, 2) * x(m, 3), x(m, 2))] = x(m, 2) ** 2 * 3
        capped = [Polynomial.monomial(e) for e in JetBasis(scaled_r3, 2).exponents]
        tuples = list(itertools.combinations(capped, 2))
        cases = [(scaled_r3, fs, gs) for fs in tuples for gs in tuples]
        for _ in range(6):
            fs = [random_polynomial(rng, 6, 2, 3) for _ in range(2)]
            gs = [random_polynomial(rng, 6, 2, 3) for _ in range(2)]
            extra[(*fs, gs[rng.randrange(2)])] = random_polynomial(rng, 6, 2, 3) * x(6, 4)
            cases.append((sum_r6, fs, gs))
        nonzero = 0
        for structure, fs, gs in cases:
            residual = exact_forms_residual(structure, fs, gs)
            assert residual == split(structure, fs, gs)
            nonzero += not residual.is_zero()
        assert nonzero

    def test_constant_bracket_perturbation_is_invisible(self, monkeypatch, scaled_r3):
        # d kills a constant, so both rules still hold: the sweep must test
        # the differential of the consistency defect, not the defect itself.
        from nambu import algebroid
        from nambu.structure import nbracket

        m = 3
        target = [x(m, 1), x(m, 3), x(m, 1) * x(m, 2)]

        def perturbed(structure, functions):
            value = nbracket(structure, functions)
            return value + 5 if list(functions) == target else value

        monkeypatch.setattr(algebroid, "nbracket", perturbed)
        assert verify_characterization(JetBasis(scaled_r3, 3)).passed
        assert verify_phi_morphism(JetBasis(scaled_r3, 3)).passed

    @pytest.mark.parametrize("m, n", [(4, 3), (4, 4), (5, 3), (5, 4)])
    def test_consistency_defect_is_tensorial_in_dF(self, rng, m, n):
        # The exact-forms sweep evaluates D(F, g) = X_F(g) - {F, g} at
        # coordinate f-tuples x_I only.  That is exact because both kernels
        # read F through dF = sum_I J_I(F) dx^I, linearly over polynomials,
        # so each term, and D, is the J_I(F)-combination of its values at
        # x_I; and each term is a derivation in g.
        structure = NambuStructure(m, n, random_multivector(rng, m, n))

        def terms(fs, g):
            return apply_vec(hamiltonian(structure, fs), g), nbracket(structure, [*fs, g])

        cases = nonzero = 0
        while cases < 4:
            fs = [random_polynomial(rng, m, 3, 4) for _ in range(n - 1)]
            df = wedge_all([differential(f) for f in fs])
            if len(df.components) < 2:
                continue
            cases += 1
            g, h = random_polynomial(rng, m, 2, 3), random_polynomial(rng, m, 2, 3)
            field, bracket = terms(fs, g)
            nonzero += not field.is_zero()
            combined = [Polynomial.zero(m), Polynomial.zero(m)]
            for indices, jacobian in df.components.items():
                coordinates = [x(m, i) for i in indices]
                for k, value in enumerate(terms(coordinates, g)):
                    combined[k] = combined[k] + jacobian * value
                for product, left, right in zip(
                    terms(coordinates, g * h), terms(coordinates, g), terms(coordinates, h)
                ):
                    assert product == h * left + g * right
            assert [field, bracket] == combined
            assert field - bracket == combined[0] - combined[1]
        assert nonzero

    @pytest.mark.parametrize(
        "m, n, density",
        [(3, 3, 0.0), (3, 3, 1.0), (4, 3, 0.3), (5, 3, 0.3)],
    )
    def test_tensorial_perturbation_reports_first_direct_failure(
        self, monkeypatch, rng, m, n, density
    ):
        # {f_1..f_n} gains <df_1^..^df_n, mu>: D stays tensorial in dF and a
        # derivation in g, so the coordinate f-tuples certify and locate it.
        # Both reports must equal the first failure of the full capped grid
        # of tuple pairs; density 0 gives mu = 0 and a pass.
        from nambu import algebroid

        structure = NambuStructure(m, n, random_multivector(rng, m, n))
        mu = random_multivector(rng, m, n, density)

        def perturbed(structure, functions):
            extra = pair(wedge_all([differential(f) for f in functions]), mu)
            return nbracket(structure, functions) + extra

        monkeypatch.setattr(algebroid, "nbracket", perturbed)
        verdicts = assert_reports_first_direct_failure(structure)
        assert verdicts == [mu.is_zero()] * 2

    def test_fault_at_the_last_coordinate_tuple_is_reported(self, monkeypatch, normal_r4):
        # The only failing f-tuple is the last coordinate tuple (x3, x4), so
        # a sweep that skipped any coordinate tuple would pass here.
        from nambu import algebroid

        m = 4
        target = [x(m, 3), x(m, 4), x(m, 1) * x(m, 2)]

        def perturbed(structure, functions):
            value = nbracket(structure, functions)
            return value + x(m, 1) if list(functions) == target else value

        monkeypatch.setattr(algebroid, "nbracket", perturbed)
        assert assert_reports_first_direct_failure(normal_r4) == [False, False]
        report = verify_phi_morphism(JetBasis(normal_r4, 2))
        assert report.counterexample.inputs == ("x3", "x4", "x2", "x1*x2")

    def test_characterization_and_phi_morphism_ignore_integrability(self, rng):
        # These checks certify identities of the definitions, which hold for
        # every n-vector (module docstrings of ``algebroid`` and
        # ``cohomology``): they pass on seeded n-vectors that are not
        # Nambu-Poisson.
        for m, n, density in ((4, 3, 0.6), (5, 3, 0.4), (5, 4, 0.4)):
            structure = NambuStructure(m, n, random_multivector(rng, m, n, density))
            assert not check_fundamental_identity(JetBasis(structure, 2)).passed
            assert verify_characterization(JetBasis(structure, 2)).passed
            assert verify_phi_morphism(JetBasis(structure, 2)).passed
            volume = VolumeForm(Fraction(2), x(m, 1) * x(m, 2))
            assert verify_lsv(JetBasis(structure, 2), volume).passed

    def test_frozen_instance(self, scaled_r3):
        # [[d(x1)^d(x2), d(x2)^d(x3)]] = d{x1,x2,x2}^dx3 + dx2^d{x1,x2,x3}
        #                              = dx2 ^ d(x3) rescaled by the bracket
        lhs = lbracket(scaled_r3, dx(3, 1, 2), dx(3, 2, 3))
        rhs = wedge(differential(Polynomial.zero(3)), dx(3, 3)) + wedge(
            dx(3, 2), differential(x(3, 3))
        )
        assert lhs == rhs


class TestFormalWedges:
    def test_phi_basic(self):
        elt = FormalWedge.single([x(3, 1), x(3, 2)])
        assert phi(elt) == dx(3, 1, 2)

    def test_phi_repeated_factor(self):
        elt = FormalWedge.single([x(3, 1), x(3, 1)])
        assert phi(elt).is_zero()

    def test_phi_product_rule(self):
        elt = FormalWedge.single([x(3, 1) * x(3, 2), x(3, 3)])
        expected = wedge(
            x(3, 2) * dx(3, 1) + x(3, 1) * dx(3, 2), dx(3, 3)
        )
        assert phi(elt) == expected

    def test_no_normalization_of_terms(self):
        a = FormalWedge.single([x(3, 1), x(3, 2)])
        b = FormalWedge.single([x(3, 2), x(3, 1)])
        # stored terms differ even though phi/evaluation identify them
        assert (a + b).terms != (b + a).terms or a.terms != b.terms
        assert phi(a) == -phi(b)

    def test_fbracket_repeated_inputs_vanish_under_phi(self, scaled_r3):
        elt = FormalWedge.single([x(3, 1), x(3, 2)])
        result = fbracket_prime(scaled_r3, elt, elt)
        # {x1,x2,x1} = 0 and {x1,x2,x2} = 0 termwise
        assert phi(result).is_zero()
        for _, factors in result.terms:
            assert any(f.is_zero() for f in factors)

    def test_fbracket_constant_entries(self, scaled_r3):
        elt = FormalWedge.single([Polynomial.one(3), Polynomial.constant(3, 2)])
        result = fbracket_prime(scaled_r3, elt, elt)
        assert phi(result).is_zero()

    def test_phi_intertwines_brackets_random(self, rng, scaled_r3, normal_r4):
        for structure in (scaled_r3, normal_r4):
            m = structure.m
            for _ in range(5):
                left = FormalWedge.single(
                    [random_polynomial(rng, m, 2, 3) for _ in range(2)]
                )
                right = FormalWedge.single(
                    [random_polynomial(rng, m, 2, 3) for _ in range(2)]
                )
                lhs = phi(fbracket_prime(structure, left, right))
                rhs = lbracket(structure, phi(left), phi(right))
                assert lhs == rhs

    def test_phi_morphism_sweeps(self, scaled_r3, volume_r3):
        for structure in (scaled_r3, volume_r3):
            assert verify_phi_morphism(JetBasis(structure, 2)).passed

    def test_arity_guard(self, scaled_r3):
        with pytest.raises(ArityError):
            fbracket_prime(
                scaled_r3,
                FormalWedge.single([x(3, 1)]),
                FormalWedge.single([x(3, 1)]),
            )
