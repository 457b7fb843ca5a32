"""Modular multivector, coboundaries, volume independence, witness search."""

from __future__ import annotations

import itertools
import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from nambu import cohomology
from nambu.algebroid import anchor_residual
from nambu.cohomology import (
    TensorCochain1,
    VolumeForm,
    WitnessReport,
    cobound0,
    cobound1_eval,
    cocycle_defect,
    divergence,
    verify_cocycle,
    exactness_witness,
    lsv_residual,
    modular_multivector,
    verify_lsv,
    verify_modular_cocycle,
    verify_volume_change,
    volume_structure,
)
from nambu.cli import CHECKS, DEFAULT_CHECKS, main
from nambu.errors import ChartMismatchError
from nambu.exterior import (
    Form, Multivector, apply_vec, differential, format_tensor, pair, wedge, wedge_all,
)
from nambu.poly import Polynomial, jet_exponents, jet_monomials
from nambu.structure import (
    JetBasis,
    NambuStructure,
    check_fundamental_identity,
    hamiltonian,
    sharp,
)
from nambu.textio import load_structure_file

from conftest import dd, denominator_lcm, dx, random_form, random_multivector, random_polynomial, x

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


@pytest.fixture
def nu3() -> VolumeForm:
    return VolumeForm.standard(3)


# Lie algebras g by the brackets [e_i, e_j] = sum_k c_ij^k e_k, i < j, and
# the modular character sum_k tr(ad e_k) d_k of each.
LIE_ALGEBRAS = {
    "aff1": (2, {(1, 2): {2: 1}}, "d1"),
    "su2": (3, {(1, 2): {3: 1}, (1, 3): {2: -1}, (2, 3): {1: 1}}, "0"),
    "sl2": (3, {(1, 2): {2: 2}, (1, 3): {3: -2}, (2, 3): {1: 1}}, "0"),
    "heisenberg": (3, {(1, 2): {3: 1}}, "0"),
    # [e3, e1] = e1, [e3, e2] = e2
    "bianchi5": (3, {(1, 3): {1: -1}, (2, 3): {2: -1}}, "2*d3"),
    # [e3, e1] = e1, [e3, e2] = 3 e2
    "bianchi6": (3, {(1, 3): {1: -1}, (2, 3): {2: -3}}, "4*d3"),
}


def linear_poisson(dim: int, brackets: dict) -> NambuStructure:
    """The Lie-Poisson bivector on g*: ``{x_i, x_j} = sum_k c_ij^k x_k``."""
    bivector = Multivector.zero(dim, 2)
    for (i, j), image in brackets.items():
        for k, c in image.items():
            bivector = bivector + dd(dim, i, j) * (x(dim, k) * c)
    return NambuStructure(dim, 2, bivector)


def modular_character(dim: int, brackets: dict) -> Multivector:
    """``sum_k tr(ad e_k) d_k``, from the structure constants alone."""

    def c(i, j, k):
        if i > j:
            return -c(j, i, k)
        return brackets.get((i, j), {}).get(k, 0)

    character = Multivector.zero(dim, 1)
    for k in range(1, dim + 1):
        trace = sum(c(k, j, j) for j in range(1, dim + 1))
        character = character + dd(dim, k) * Polynomial.constant(dim, trace)
    return character


class TestVolumeForm:
    def test_nonzero_constant_required(self):
        with pytest.raises(ValueError):
            VolumeForm(Fraction(0), Polynomial.zero(3))

    def test_inexact_constant_rejected(self):
        with pytest.raises(ValueError, match="not an int or a Fraction"):
            VolumeForm(c=0.1, p=Polynomial.zero(3))

    def test_rescaling_adds_exponents(self, nu3):
        scaled = nu3.rescaled(x(3, 1))
        assert scaled.p == x(3, 1)
        assert scaled.rescaled(x(3, 2)).p == x(3, 1) + x(3, 2)

    def test_volume_structure_inverts_constant(self):
        structure = volume_structure(VolumeForm(Fraction(2), Polynomial.zero(3)), 3)
        assert structure.nvector == dd(3, 1, 2, 3) * Fraction(1, 2)
        # its bracket is the Jacobian determinant divided by the constant
        from nambu.structure import nbracket

        assert nbracket(structure, [x(3, 1), x(3, 2), x(3, 3)]) == Polynomial.constant(
            3, Fraction(1, 2)
        )

    def test_volume_structure_rejects_nonconstant_exponent(self):
        with pytest.raises(ValueError):
            volume_structure(VolumeForm(Fraction(1), x(3, 1)), 3)


class TestModularMultivector:
    def test_golden_value(self, scaled_r3, nu3):
        assert modular_multivector(scaled_r3, nu3) == dd(3, 1, 2)

    def test_volume_structure_is_modular_free(self, volume_r3, nu3):
        assert modular_multivector(volume_r3, nu3).is_zero()

    def test_normal_r5_is_modular_free(self, normal_r5):
        assert modular_multivector(normal_r5, VolumeForm.standard(5)).is_zero()

    def test_exponential_volume(self, scaled_r3, nu3):
        # frozen by the divergence formula with p = x1, cross-checked below
        # against the coboundary shift
        expected = dd(3, 1, 2) + x(3, 3) * dd(3, 2, 3)
        assert modular_multivector(scaled_r3, nu3.rescaled(x(3, 1))) == expected
        shift = cobound0(scaled_r3, x(3, 1)).w
        assert modular_multivector(scaled_r3, nu3) + shift == expected

    def test_tensoriality_on_jets(self, scaled_r3, nu3, rng):
        # operator route (divergence on arbitrary functions) agrees with the
        # component-built multivector through the pairing
        modular = modular_multivector(scaled_r3, nu3)
        monomials = jet_monomials(3, 2)
        for fs in itertools.combinations(monomials, 2):
            field = hamiltonian(scaled_r3, list(fs))
            operator_value = divergence(field) + apply_vec(field, nu3.p)
            paired = pair(wedge(differential(fs[0]), differential(fs[1])), modular)
            assert operator_value == paired
        for _ in range(5):
            fs = [random_polynomial(rng, 3) for _ in range(2)]
            field = hamiltonian(scaled_r3, fs)
            operator_value = divergence(field) + apply_vec(field, nu3.p)
            paired = pair(wedge(differential(fs[0]), differential(fs[1])), modular)
            assert operator_value == paired

    @staticmethod
    def _hamiltonian_formula(structure, volume):
        """``sum_I (div(X_I) + X_I(p)) d^I`` with ``X_I`` the Hamiltonian
        field of the coordinates x_I, on a fresh instance of the structure,
        so that no anchor comes from the table ``modular_multivector`` reads,
        and ``X_I(p) = <dp, X_I>``."""
        m, n = structure.m, structure.n
        fresh = NambuStructure(m, n, structure.nvector)
        dp = differential(volume.p)
        expected = Multivector.zero(m, n - 1)
        for indices in itertools.combinations(range(1, m + 1), n - 1):
            field = hamiltonian(fresh, [x(m, i) for i in indices])
            value = sum(
                (field.component((j,)).diff(j) for j in range(1, m + 1)),
                Polynomial.zero(m),
            )
            expected = expected + dd(m, *indices) * (value + pair(dp, field))
        return expected

    @pytest.mark.parametrize("fixture", sorted(FIXTURES.glob("*.json")), ids=lambda p: p.stem)
    def test_fixtures_match_the_hamiltonian_formula(self, fixture):
        loaded = load_structure_file(fixture)
        structure, volume = loaded.structure(), loaded.volume()
        m = structure.m
        for nu in (volume, volume.rescaled(x(m, 1)), volume.rescaled(x(m, 1) * x(m, m) + 2)):
            expected = self._hamiltonian_formula(structure, nu)
            assert modular_multivector(structure, nu) == expected

    def test_seeded_structures_match_the_hamiltonian_formula(self, rng):
        for n in range(2, 6):
            for m in range(n, 6):
                structure = NambuStructure(m, n, random_multivector(rng, m, n, 0.7))
                exponent = random_polynomial(rng, m, max_degree=2)
                while exponent.is_constant():
                    exponent = random_polynomial(rng, m, max_degree=2)
                volume = VolumeForm(Fraction(rng.randint(1, 5), 3), exponent)
                expected = self._hamiltonian_formula(structure, volume)
                assert modular_multivector(structure, volume) == expected

    @pytest.mark.parametrize("name", LIE_ALGEBRAS)
    def test_order_two_is_the_modular_character(self, name):
        # At n = 2 the modular multivector is Weinstein's modular vector
        # field (Weinstein 1997; Evens-Lu-Weinstein 1999); on g* with the
        # standard volume that is the modular character of g.
        dim, brackets, text = LIE_ALGEBRAS[name]
        modular = modular_multivector(linear_poisson(dim, brackets), VolumeForm.standard(dim))
        assert modular == modular_character(dim, brackets)
        assert format_tensor(modular) == text


class TestCobound0:
    def test_golden_value(self, scaled_r3):
        assert cobound0(scaled_r3, x(3, 1)).w == x(3, 3) * dd(3, 2, 3)

    def test_constant_maps_to_zero(self, scaled_r3):
        assert cobound0(scaled_r3, Polynomial.constant(3, 4)).w.is_zero()

    def test_pairing_realizes_anchor_action(self, rng, scaled_r3, normal_r4):
        # pair(a, w_f) = sharp(a)(f) for every form: the defining property
        for structure in (scaled_r3, normal_r4):
            m = structure.m
            for _ in range(6):
                f = random_polynomial(rng, m)
                cochain = cobound0(structure, f)
                alpha = random_form(rng, m, structure.n - 1)
                assert cochain(alpha) == apply_vec(sharp(structure, alpha), f)

    def test_spot_value(self, scaled_r3):
        cochain = cobound0(scaled_r3, x(3, 3))
        assert cochain(dx(3, 1, 2)) == x(3, 3)


class TestCobound1:
    def test_coboundary_of_coboundary_vanishes_on_jets(self, scaled_r3, volume_r3):
        # requires the anchor identity, hence restricted to integrable fixtures
        for structure in (scaled_r3, volume_r3):
            cochain = cobound0(structure, x(3, 1) * x(3, 2))
            basis = JetBasis(structure, 2)
            for g, left in basis.elements():
                alpha = basis.form(g, left)
                for right in basis.index_sets:
                    beta = Form.basis(3, right)
                    assert cobound1_eval(structure, cochain, alpha, beta).is_zero()

    def test_coboundary_of_coboundary_is_anchor_residual_action(
        self, rng, scaled_r3, sum_r6
    ):
        # d1(d0 f)(a, b) = (anchor residual applied to f): ties the two modules
        for structure in (scaled_r3, sum_r6):
            m = structure.m
            for _ in range(5):
                f = random_polynomial(rng, m)
                alpha = random_form(rng, m, 2)
                beta = random_form(rng, m, 2)
                value = cobound1_eval(structure, cobound0(structure, f), alpha, beta)
                assert value == apply_vec(anchor_residual(structure, alpha, beta), f)

    def test_generic_cochain_not_closed_on_r6(self, sum_r6):
        # frozen from a jet sweep: with W = d1^d2 the first nonzero value
        # appears at (x1 dx4^dx5, dx2^dx6) and equals 1
        cochain = TensorCochain1(dd(6, 1, 2))
        value = cobound1_eval(
            sum_r6, cochain, x(6, 1) * Form.basis(6, (4, 5)), Form.basis(6, (2, 6))
        )
        assert value == Polynomial.one(6)
        hits = [
            (left, g, right)
            for left in itertools.combinations(range(1, 7), 2)
            for g in range(1, 7)
            for right in itertools.combinations(range(1, 7), 2)
            if not cobound1_eval(
                sum_r6,
                cochain,
                x(6, g) * Form.basis(6, left),
                Form.basis(6, right),
            ).is_zero()
        ]
        assert hits


class TestLsv:
    def test_spot_value(self, scaled_r3, nu3):
        # div(x3 d3) = 1 matches pairing with the modular bivector
        field = sharp(scaled_r3, dx(3, 1, 2))
        assert divergence(field) == Polynomial.one(3)
        assert pair(dx(3, 1, 2), modular_multivector(scaled_r3, nu3)) == Polynomial.one(3)

    def test_sweeps(self, scaled_r3, volume_r3, normal_r4, nu3):
        assert verify_lsv(JetBasis(scaled_r3, 3), nu3).passed
        assert verify_lsv(JetBasis(scaled_r3, 3), nu3.rescaled(x(3, 1))).passed
        assert verify_lsv(JetBasis(volume_r3, 3), nu3).passed
        assert verify_lsv(JetBasis(normal_r4, 3), VolumeForm.standard(4)).passed

    def test_forced_failure_matches_direct_scan(self, monkeypatch, scaled_r3, nu3):
        # A modular multivector off by x1*d2^d3 breaks the identity on every
        # form with a dx2^dx3 part; the report must be the first failure of
        # the direct scan, with the running item count.
        wrong = modular_multivector(scaled_r3, nu3) + x(3, 1) * dd(3, 2, 3)
        monkeypatch.setattr(cohomology, "modular_multivector", lambda *_: wrong)
        expected = None
        grid = itertools.product(jet_monomials(3, 3), itertools.combinations((1, 2, 3), 2))
        for items, (g, indices) in enumerate(grid, start=1):
            alpha = dx(3, *indices) * g
            residual = lsv_residual(scaled_r3, nu3, alpha, wrong)
            if not residual.is_zero():
                expected = (format_tensor(alpha),), str(residual), items
                break
        assert expected is not None and expected[2] > 1

        report = verify_lsv(JetBasis(scaled_r3, 3), nu3)
        assert not report.passed
        found = report.counterexample
        assert (found.inputs, found.residual, report.items_checked) == expected

    def test_planted_fault_on_a_linear_row_is_first_of_direct_scan(
        self, monkeypatch, scaled_r3, nu3
    ):
        # The sweep scans only the rows of degree <= 1; a fault planted at
        # x2*dx1^dx3, past the constant row, must be reported with the item
        # count of the direct scan over the full basis.
        planted = dx(3, 1, 3) * x(3, 2)

        def residual(structure, volume, alpha, modular=None):
            value = lsv_residual(structure, volume, alpha, modular)
            return value + x(3, 1) if alpha == planted else value

        monkeypatch.setattr(cohomology, "lsv_residual", residual)
        grid = itertools.product(jet_monomials(3, 3), itertools.combinations((1, 2, 3), 2))
        items = next(i for i, (g, I) in enumerate(grid, start=1) if dx(3, *I) * g == planted)
        report = verify_lsv(JetBasis(scaled_r3, 3), nu3)
        found = report.counterexample
        assert (found.inputs, found.residual, report.items_checked) == (
            ("x2*dx1^dx3",), "x1", items
        )


class TestModularCocycle:
    def test_sweeps_pass(self, scaled_r3, volume_r3, normal_r5, nu3):
        assert verify_modular_cocycle(JetBasis(scaled_r3, 3), nu3).passed
        assert verify_modular_cocycle(JetBasis(volume_r3, 3), nu3).passed
        assert verify_modular_cocycle(JetBasis(normal_r5, 2), VolumeForm.standard(5)).passed

    def test_volume_independent(self, scaled_r3, nu3):
        assert verify_modular_cocycle(JetBasis(scaled_r3, 3), nu3.rescaled(x(3, 1))).passed

    def test_lsv_pass_implies_cocycle_pass(
        self, scaled_r3, volume_r3, normal_r4, nu3
    ):
        cases = [
            (scaled_r3, nu3),
            (scaled_r3, nu3.rescaled(x(3, 1))),
            (volume_r3, nu3),
            (normal_r4, VolumeForm.standard(4)),
        ]
        for structure, volume in cases:
            if verify_lsv(JetBasis(structure, 3), volume).passed:
                assert verify_modular_cocycle(JetBasis(structure, 3), volume).passed

    def test_failing_cochain_reports_first_direct_failure(self, sum_r6):
        # d1^d2 is not a cocycle on r6; the report must be the first pair of
        # the direct scan over (x^g dx^I, dx^J) in basis x index-set order.
        from nambu.poly import jet_exponents
        from nambu.textio import format_tensor

        m, n = sum_r6.m, sum_r6.n
        cochain = TensorCochain1(dd(m, 1, 2))
        index_sets = list(itertools.combinations(range(1, m + 1), n - 1))
        expected = None
        for exps in jet_exponents(m, 2):
            for left in index_sets:
                alpha = Form.basis(m, left) * Polynomial.monomial(exps)
                for right in index_sets:
                    beta = Form.basis(m, right)
                    direct = cobound1_eval(sum_r6, cochain, alpha, beta)
                    if not direct.is_zero():
                        expected = alpha, beta, direct
                        break
                if expected is not None:
                    break
            if expected is not None:
                break
        assert expected is not None
        alpha, beta, direct = expected

        report = verify_cocycle(JetBasis(sum_r6, 2), cochain)
        assert not report.passed
        assert report.check == "cocycle"
        assert report.counterexample.inputs == (format_tensor(alpha), format_tensor(beta))
        assert report.counterexample.residual == str(direct)

    def test_seeded_non_cocycles_report_first_direct_failure(self, rng, scaled_r3, normal_r4):
        # Cochains with polynomial coefficients of degree 2-3 and the default
        # jet degree 3: the capped rows certify, and the report must be the
        # first failure of the direct scan over every pair (x^g dx^I, dx^J).
        # On the constant blades normal_r4 and d1^d2^d3^d4 on R^5,
        # coefficients in x_m alone pass every constant pair (the anchors of
        # constant forms are among d1, .., d_{m-1}), so failures sit in later
        # rows, where <d a, lam> can be nonzero.  The bivector (n = 2) and
        # the 4-blade (n = 4) check the even sign of (-1)^n in the cocycle
        # defect, the others the odd one.  On the 4-blade the cochain has a
        # d2^d3^d4 term and no index set with 1, so its first nonzero row is
        # x1 dx^{234}, where <d a, lam> = 1 and that sign decides whether
        # the d2^d3^d4 terms of U cancel.
        bivector = NambuStructure(3, 2, dd(3, 1, 2) * x(3, 3) + dd(3, 2, 3))
        four = NambuStructure(5, 4, dd(5, 1, 2, 3, 4))
        later_rows = 0
        for structure in (scaled_r3, normal_r4) * 3 + (bivector, four):
            m, n = structure.m, structure.n
            basis = JetBasis(structure, 3)
            w = Multivector.zero(m, n - 1)
            if structure is four:
                index_sets = [(2, 3, 4), rng.choice([(2, 3, 5), (2, 4, 5), (3, 4, 5)])]
            else:
                index_sets = rng.sample(basis.index_sets, 2)
            for indices in index_sets:
                if structure in (normal_r4, four):
                    degree = rng.choice((2, 3))
                    coefficient = sum(
                        (x(m, m) ** k * rng.randint(1, 5) for k in range(1, degree + 1)),
                        Polynomial.zero(m),
                    )
                else:
                    coefficient = random_polynomial(rng, m, rng.choice((2, 3)), 3)
                w = w + dd(m, *indices) * coefficient
            cochain = TensorCochain1(w)
            expected = None
            grid = itertools.product(
                range(len(basis.monomials)), basis.index_sets, basis.index_sets
            )
            for g, left, right in grid:
                alpha, beta = basis.form(g, left), basis.units[right]
                direct = cobound1_eval(structure, cochain, alpha, beta)
                if not direct.is_zero():
                    expected = (format_tensor(alpha), format_tensor(beta)), str(direct)
                    assert g > 0 or structure not in (normal_r4, four)
                    later_rows += g > 0
                    break
            report = verify_cocycle(JetBasis(structure, 3), cochain)
            assert report.passed == (expected is None)
            if expected is not None:
                found = report.counterexample
                assert (found.inputs, found.residual) == expected
                assert report.items_checked == basis.size() ** 2
        assert later_rows

    @pytest.mark.parametrize("m, n", [(3, 2), (4, 3), (5, 4), (6, 5)])
    def test_cobound1_is_a_contraction_of_the_cocycle_defect(self, rng, m, n):
        # For a tensorial cochain c = <., w> and any n-vector,
        # cobound1(c)(a, b) = <b, U(a)> with the cocycle defect
        # U(a) = L_{sharp a} w - (-1)^n <d a, lam> w - cobound0(<a, w>).w,
        # and U is first-order in the function slot,
        # U(f h a) = f U(h a) + h U(f a) - f h U(a).  The cocycle scan rests
        # on both (cohomology docstring).  Checked by the direct formulas
        # alone on seeded n-vectors that are not Nambu-Poisson, a polynomial
        # w and non-unit forms a and b.
        structure = NambuStructure(m, n, random_multivector(rng, m, n, 1.0))
        nonzero = failing = 0
        for _ in range(3):
            w = random_multivector(rng, m, n - 1, 0.6)
            a, b = (random_form(rng, m, n - 1, 0.5) for _ in range(2))
            while len(a.components) < 2:
                a = random_form(rng, m, n - 1, 0.5)
            defect = cocycle_defect(structure, w, a)
            cochain = TensorCochain1(w)
            assert cobound1_eval(structure, cochain, a, b) == pair(b, defect)
            f, h = (random_polynomial(rng, m, 2, 3) for _ in range(2))
            first_order = (
                cocycle_defect(structure, w, a * h) * f
                + cocycle_defect(structure, w, a * f) * h
                - defect * (f * h)
            )
            assert cocycle_defect(structure, w, a * (f * h)) == first_order
            nonzero += not pair(b, defect).is_zero()
            failing += not anchor_residual(structure, a, b).is_zero()
        assert nonzero >= 2 and failing


class TestVolumeChange:
    def test_golden_shift(self, scaled_r3, nu3):
        assert verify_volume_change(scaled_r3, nu3, x(3, 1)).passed

    def test_constant_exponent_shift_is_zero(self, scaled_r3, nu3):
        assert verify_volume_change(scaled_r3, nu3, Polynomial.constant(3, 7)).passed

    def test_direction_outside_span(self, normal_r5):
        # contraction of dx4 into d1^d2^d3 vanishes: zero correction
        nu = VolumeForm.standard(5)
        assert cobound0(normal_r5, x(5, 4)).w.is_zero()
        assert verify_volume_change(normal_r5, nu, x(5, 4)).passed

    def test_random_exponents(self, rng, scaled_r3, normal_r4, nu3):
        for structure, volume in ((scaled_r3, nu3), (normal_r4, VolumeForm.standard(4))):
            for _ in range(5):
                q = random_polynomial(rng, structure.m)
                assert verify_volume_change(structure, volume, q).passed


class TestExactnessWitness:
    def test_scaled_r3_obstructed_at_every_degree(self, scaled_r3, nu3):
        for degree in range(0, 9):
            report = exactness_witness(scaled_r3, nu3, degree)
            assert not report.feasible
            assert report.degree_uniform
            assert report.smooth_obstruction
            assert report.obstruction == "x3*df/dx3 = 1"

    def test_volume_structure_witnessed_by_zero(self, volume_r3, nu3):
        report = exactness_witness(volume_r3, nu3, 2)
        assert report.feasible
        assert report.witness == Polynomial.zero(3)

    def test_planted_witness_recovered(self, volume_r3, nu3):
        planted = x(3, 1) * x(3, 2)
        report = exactness_witness(volume_r3, nu3.rescaled(planted), 3)
        assert report.feasible
        assert cobound0(volume_r3, report.witness).w == modular_multivector(
            volume_r3, nu3.rescaled(planted)
        )

    def test_planted_witness_on_r4(self, normal_r4):
        nu = VolumeForm.standard(4)
        planted = x(4, 1) + x(4, 2) * x(4, 3)
        report = exactness_witness(normal_r4, nu.rescaled(planted), 2)
        assert report.feasible
        # the witness can differ from the planted function by a constant or
        # by directions outside the span; the coboundary must match exactly
        assert cobound0(normal_r4, report.witness).w == cobound0(normal_r4, planted).w

    def test_degree_too_low_is_infeasible_without_uniform_flag(self, normal_r4):
        nu = VolumeForm.standard(4)
        planted = x(4, 1) ** 3
        report = exactness_witness(normal_r4, nu.rescaled(planted), 1)
        assert not report.feasible
        assert not report.degree_uniform
        recovered = exactness_witness(normal_r4, nu.rescaled(planted), 3)
        assert recovered.feasible

    @pytest.mark.parametrize("name", LIE_ALGEBRAS)
    def test_order_two_witness_is_zero_exactly_when_unimodular(
        self, capsys, tmp_path, name
    ):
        dim, brackets, text = LIE_ALGEBRAS[name]
        lam = [
            {"index": list(indices), "coeff": str(coeff)}
            for indices, coeff in linear_poisson(dim, brackets).nvector.components.items()
        ]
        doc = {"schema": "nambu-structure/1", "dimension": dim, "order": 2, "lambda": lam}
        target = tmp_path / f"{name}.json"
        target.write_text(json.dumps(doc))
        code = main(["witness", str(target), "--max-degree=4"])
        out = capsys.readouterr().out
        assert code == 0
        if text == "0":
            assert out == "feasible: witness = 0\n"
        else:
            assert out.startswith("infeasible at max degree 4\n")

    def test_feasible_reports_carry_witness(self):
        with pytest.raises(ValueError):
            WitnessReport(feasible=True, witness=None, search_degree=2)

    def test_volume_chart_guard(self, scaled_r3):
        with pytest.raises(ChartMismatchError):
            exactness_witness(scaled_r3, VolumeForm.standard(4), 2)


def dufour_zung_type_two(m: int, n: int, b: list[list[int]]) -> NambuStructure:
    """``d1^..^d_{n-1} ^ Y`` with ``Y = sum_ij B_ij x_j d_i`` over i, j in
    n..m (``b[0][0]`` is ``B_nn``): the linear Nambu structures of type II of
    Dufour & Zung (Compositio Math. 117, 1999)."""
    span = range(n, m + 1)
    field = Multivector(m, 1, {
        (i,): sum((x(m, j) * b[r][c] for c, j in enumerate(span)), Polynomial.zero(m))
        for r, i in enumerate(span)
    })
    return NambuStructure(m, n, wedge_all([dd(m, *range(1, n)), field]))


def seeded_matrices(rng: random.Random, size: int) -> list[list[list[int]]]:
    """Seeded integer matrices; the last has trace 0, the one before a
    nonzero trace."""
    matrices = [[[rng.randint(-3, 3) for _ in range(size)] for _ in range(size)]
                for _ in range(4)]
    if not sum(matrices[-2][k][k] for k in range(size)):
        matrices[-2][0][0] += 1
    matrices[-1][-1][-1] -= sum(matrices[-1][k][k] for k in range(size))
    return matrices


@pytest.mark.parametrize("m, n", [(4, 3), (5, 3), (5, 4), (6, 4), (6, 3)])
class TestDufourZungTypeTwo:
    """A modular-class oracle at n >= 3 from outside the code: on type II
    the modular multivector is ``tr(B) d1^..^d_{n-1}``, so the class is
    nonzero when tr B != 0 (Y preserves degree, so no coboundary
    ``cobound0(f) = +-Y(f) d1^..^d_{n-1}`` has a constant term)."""

    def test_modular_multivector_is_the_trace_times_the_blade(self, rng, m, n):
        for b in seeded_matrices(rng, m - n + 1):
            trace = sum(b[k][k] for k in range(len(b)))
            structure = dufour_zung_type_two(m, n, b)
            expected = dd(m, *range(1, n)) * trace
            assert modular_multivector(structure, VolumeForm.standard(m)) == expected

    def test_default_checks_pass(self, rng, m, n):
        volume = VolumeForm.standard(m)
        for b in seeded_matrices(rng, m - n + 1)[-2:]:
            basis = JetBasis(dufour_zung_type_two(m, n, b), 2)
            for name in DEFAULT_CHECKS:
                assert CHECKS[name](basis, volume).passed, name

    def test_witness_is_infeasible_exactly_when_the_trace_is_nonzero(self, rng, m, n):
        for b in seeded_matrices(rng, m - n + 1):
            trace = sum(b[k][k] for k in range(len(b)))
            report = exactness_witness(
                dufour_zung_type_two(m, n, b), VolumeForm.standard(m), 2
            )
            assert report.feasible == (trace == 0)


def test_fundamental_identity_fails_when_y_depends_on_x1():
    # the failing control: d1^d2^(x1*d3 + x3*d4), decomposable but not involutive
    nvector = wedge_all([dd(4, 1), dd(4, 2), x(4, 1) * dd(4, 3) + x(4, 3) * dd(4, 4)])
    report = check_fundamental_identity(JetBasis(NambuStructure(4, 3, nvector), 2))
    assert not report.passed


def _rows_of_columns(columns):
    """The solver's rows read off per-column multivectors ``{e: mv}``."""
    rows = {}
    for e, mv in columns.items():
        for indices, poly in mv.components.items():
            for exps, value in poly.terms.items():
                rows.setdefault((indices, exps), {})[e] = value
    return rows


def _direct_rows(structure, degree):
    """The rows of ``cobound0(x^e).w`` over the jet monomials of degree <= D."""
    return _rows_of_columns({
        e: cobound0(structure, Polynomial.monomial(e)).w
        for e in jet_exponents(structure.m, degree)
    })


def _assert_component(structure, target, degree):
    """Every target row is returned; each returned row is the direct row,
    with the same values of the same types (an empty one is a row whose
    entries cancel); every direct row that meets an explored column is
    returned.  So the walk's rows and columns are closed in the full system
    of ``jet_exponents(m, D)``: a union of its components."""
    m = structure.m
    coordinate = [cobound0(structure, x(m, j)).w for j in range(1, m + 1)]
    rows, explored = cohomology._component(coordinate, target, degree)
    direct, reached = _direct_rows(structure, degree), set(explored)
    assert explored == [e for e in jet_exponents(m, degree) if e in reached]
    assert {(indices, exps) for indices, exps, _ in cohomology._terms(target)} <= rows.keys()

    def types(row):
        return {c: type(v) for c, v in row.items()}

    for key, row in rows.items():
        assert row == direct.get(key, {})
        assert types(row) == types(direct.get(key, {}))
    for key, row in direct.items():
        if row.keys() & reached:
            assert key in rows
    return rows, explored


class TestAssembly:
    """``_component`` assembles the rows of ``cobound0(x^e).w`` from the m
    coordinate columns ``cobound0(x_j).w`` as its walk reaches each column.
    The targets here are planted coboundaries, so the walk reaches the
    columns of their monomials and beyond."""

    @pytest.mark.parametrize("fixture", sorted(FIXTURES.glob("*.json")), ids=lambda p: p.stem)
    def test_fixtures(self, fixture):
        structure = load_structure_file(fixture).structure()
        m = structure.m
        for degree in range(7):
            planted = sum(jet_monomials(m, degree), Polynomial.zero(m))
            _assert_component(structure, cobound0(structure, planted).w, degree)

    def test_seeded_rational_structures(self, rng):
        for m in (4, 5, 6):
            for n in range(3, m + 1):
                nvector = random_multivector(rng, m, n, 0.5)
                while denominator_lcm(nvector) == 1:
                    nvector = random_multivector(rng, m, n, 0.5)
                structure = NambuStructure(m, n, nvector)
                target = cobound0(structure, random_polynomial(rng, m, max_degree=3)).w
                _assert_component(structure, target, 3)

    @pytest.mark.parametrize("shared", [False, True], ids=["row-empties", "row-kept"])
    def test_cancelling_contributions_are_dropped(self, shared):
        # x1*x2 reaches ((3, 4), x1*x2) through W_1 and W_2 with opposite
        # values; with ``shared``, x1^2 also reaches it through W_1.  The
        # walk starts from that row, and the row stays even when it empties
        f = x(4, 1) + x(4, 2) if shared else x(4, 1)
        nvector = f * dd(4, 1, 3, 4) - x(4, 2) * dd(4, 2, 3, 4)
        structure = NambuStructure(4, 3, nvector)
        w_1, w_2 = (cobound0(structure, x(4, j)).w.component((3, 4)) for j in (1, 2))
        through_1, through_2 = w_1.terms[(1, 0, 0, 0)], w_2.terms[(0, 1, 0, 0)]
        assert through_1 and through_1 + through_2 == 0
        target = Multivector(4, 2, {(3, 4): x(4, 1) * x(4, 2)})
        rows, explored = _assert_component(structure, target, 2)
        assert (1, 1, 0, 0) in explored
        assert rows[((3, 4), (1, 1, 0, 0))] == ({(2, 0, 0, 0): 2} if shared else {})


def _full_solve(structure, volume, degree):
    """The witness search on the full system: every column of
    ``jet_exponents(m, degree)``, read off ``cobound0(x^e)`` directly, and
    solved with no divisibility pre-check.  Returns the feasible flag and
    the witness."""
    target = modular_multivector(structure, volume)
    rhs = {(indices, exps): value for indices, exps, value in cohomology._terms(target)}
    rows = _direct_rows(structure, degree)
    solution = cohomology._solve_linear(rows, jet_exponents(structure.m, degree), rhs)
    if solution is None:
        return False, None
    return True, Polynomial(structure.m, solution)


def _seeded_witness_inputs(rng, count):
    """Random n-vectors with random volume exponents.  Constant n-vectors
    have zero modular multivector on the standard volume, so their planted
    exponents are exact at a high enough degree; polynomial ones mostly are
    not."""
    for _ in range(count):
        m = rng.randint(3, 5)
        n = rng.randint(2, m)
        nvector = random_multivector(rng, m, n, 0.5)
        if rng.random() < 0.5:
            nvector = Multivector(m, n, {
                indices: Polynomial.constant(m, rng.randint(1, 3))
                for indices in nvector.components
            })
        exponent = random_polynomial(rng, m, max_degree=3)
        yield NambuStructure(m, n, nvector), VolumeForm(1, exponent), rng.randint(0, 4)


def _planted_top_volume(rng, m, degree):
    """``e^p`` with p of degree exactly ``degree``, through x1."""
    top = x(m, 1) * x(m, rng.randint(1, m)) ** (degree - 1)
    return VolumeForm(1, random_polynomial(rng, m, max_degree=degree) + top)


class TestComponentSolve:
    """``exactness_witness`` solves only the target's component, and gives
    the same answer as the full system of ``jet_exponents(m, D)``."""

    @staticmethod
    def _assert_same_as_full(structure, volume, degree):
        report = exactness_witness(structure, volume, degree)
        assert (report.feasible, report.witness) == _full_solve(structure, volume, degree)
        return report.feasible

    @pytest.mark.parametrize("fixture", sorted(FIXTURES.glob("*.json")), ids=lambda p: p.stem)
    def test_fixtures_match_full_solve(self, fixture):
        loaded = load_structure_file(fixture)
        for degree in range(9):
            self._assert_same_as_full(loaded.structure(), loaded.volume(), degree)

    @pytest.mark.parametrize("name", ["r6_rational", "r6_nonexample"])
    def test_degree_twelve_matches_full_solve(self, name):
        loaded = load_structure_file(FIXTURES / f"{name}.json")
        assert self._assert_same_as_full(loaded.structure(), loaded.volume(), 12)

    def test_seeded_structures_match_full_solve(self, rng):
        outcomes = [
            self._assert_same_as_full(structure, volume, degree)
            for structure, volume, degree in _seeded_witness_inputs(rng, 40)
        ]
        assert True in outcomes and False in outcomes

    @pytest.mark.parametrize("m", [4, 5])
    def test_planted_top_volumes_match_full_solve(self, rng, m):
        # d1^d2^d3 has zero modular multivector on the standard volume, so
        # e^p is exact through f = p: within reach at deg p = D - 1, out of
        # reach at deg p = D + 1, since the top term of p is seen by df/dx1
        structure = NambuStructure(m, 3, dd(m, 1, 2, 3))
        for degree in (1, 2, 3, 4):
            for planted, feasible in ((degree - 1, True), (degree + 1, False)):
                if planted == 0:
                    continue
                volume = _planted_top_volume(rng, m, planted)
                assert self._assert_same_as_full(structure, volume, degree) is feasible

    @pytest.mark.parametrize("fixture", sorted(FIXTURES.glob("*.json")), ids=lambda p: p.stem)
    def test_component_is_closed_on_fixtures(self, fixture):
        loaded = load_structure_file(fixture)
        target = modular_multivector(loaded.structure(), loaded.volume())
        for degree in range(7):
            _assert_component(loaded.structure(), target, degree)

    def test_component_is_closed_on_seeded_structures(self, rng):
        for structure, volume, degree in _seeded_witness_inputs(rng, 40):
            _assert_component(structure, modular_multivector(structure, volume), degree)

    @pytest.mark.parametrize(
        "name, degree, count", [("r5_normal_form", 8, 0), ("r6_rational", 12, 1)]
    )
    def test_solver_sees_only_the_component(self, monkeypatch, name, degree, count):
        # r5_normal_form has a zero target, so its component is empty; the
        # target of r6_rational is one row that one column meets
        solve, counts = cohomology._solve_linear, []

        def recording(rows, columns, target):
            counts.append(len(columns))
            return solve(rows, columns, target)

        monkeypatch.setattr(cohomology, "_solve_linear", recording)
        loaded = load_structure_file(FIXTURES / f"{name}.json")
        report = exactness_witness(loaded.structure(), loaded.volume(), degree)
        assert report.feasible
        assert counts == [count]

    def test_tampered_solver_trips_the_cobound0_check(self, monkeypatch):
        solve = cohomology._solve_linear

        def tampered(rows, columns, target):
            return {e: value + 1 for e, value in solve(rows, columns, target).items()}

        monkeypatch.setattr(cohomology, "_solve_linear", tampered)
        loaded = load_structure_file(FIXTURES / "r6_rational.json")
        with pytest.raises(AssertionError, match="non-solution"):
            exactness_witness(loaded.structure(), loaded.volume(), 2)


class TestSolveLinearOracle:
    """``_solve_linear`` against sympy's reduced row echelon form."""

    KEYS = [((i,), e) for i in (1, 2, 3) for e in jet_exponents(3, 2)]

    @staticmethod
    def _system(rng, kind):
        rows, cols = rng.randint(1, 8), rng.randint(1, 8)
        keys = rng.sample(TestSolveLinearOracle.KEYS, rows)

        def entry(density):
            if rng.random() >= density:
                return Fraction(0)
            return Fraction(rng.choice([-3, -2, -1, 1, 2, 5]), rng.randint(1, 4))

        matrix = [[entry(0.35) for _ in range(cols)] for _ in range(rows)]
        if kind == "rank-deficient" and cols >= 3:
            # one column repeats a combination of two others, one is zero
            a, b, c = rng.sample(range(cols), 3)
            for row in matrix:
                row[c] = 2 * row[a] - Fraction(1, 3) * row[b]
            zero = rng.randrange(cols)
            if zero not in (a, b):
                for row in matrix:
                    row[zero] = Fraction(0)
        if kind in ("consistent", "rank-deficient"):
            u = [entry(0.6) for _ in range(cols)]
            rhs = [sum(r * v for r, v in zip(row, u)) for row in matrix]
        else:
            rhs = [entry(0.7) for _ in range(rows)]
        if kind == "untouched":
            row = rng.randrange(rows)
            matrix[row] = [Fraction(0)] * cols
            rhs[row] = Fraction(rng.randint(1, 7), rng.randint(1, 3))
        return matrix, rhs, keys

    @staticmethod
    def _sparse(matrix, rhs, keys):
        """The solver's input: nonzero entries by key, no empty row."""
        rows = {
            key: {c: value for c, value in enumerate(row) if value}
            for key, row in zip(keys, matrix) if any(row)
        }
        return rows, {key: value for key, value in zip(keys, rhs) if value}

    @pytest.mark.parametrize("kind", ["consistent", "rank-deficient", "inconsistent", "untouched"])
    def test_matches_sympy_rref(self, kind):
        sympy = pytest.importorskip("sympy")
        rng = random.Random(f"solve-linear:{kind}")
        outcomes = set()
        for _ in range(60):
            matrix, rhs, keys = self._system(rng, kind)
            cols = len(matrix[0])
            augmented = sympy.Matrix(
                [[sympy.Rational(v.numerator, v.denominator) for v in [*row, b]]
                 for row, b in zip(matrix, rhs)]
            )
            reduced, pivots = augmented.rref()
            rows, target = self._sparse(matrix, rhs, keys)
            solution = cohomology._solve_linear(rows, list(range(cols)), target)
            outcomes.add(solution is not None)
            if cols in pivots:
                assert solution is None
                continue
            # the pivot columns carry the solution, the free ones are zero
            expected = {}
            for row, col in enumerate(pivots):
                value = reduced[row, cols]
                expected[col] = Fraction(int(value.p), int(value.q))
            assert solution == expected
            assert all(type(value) is Fraction for value in solution.values())
        assert outcomes == {
            "consistent": {True}, "rank-deficient": {True},
            "inconsistent": {False, True}, "untouched": {False},
        }[kind]
