"""Nambu structures: bracket laws, verifiers, decomposability."""

from __future__ import annotations

import copy
import functools
import itertools
import math
import tracemalloc
from fractions import Fraction

import pytest

from nambu.errors import ArityError, ChartMismatchError, DegreeError, OrderError
from nambu.exterior import Form, Multivector, apply_vec, differential, pair, wedge, wedge_all
from nambu.poly import Polynomial, jet_monomials
from nambu.structure import (
    CheckReport,
    Counterexample,
    JetBasis,
    NambuStructure,
    PluckerVerdict,
    capped_first_hit,
    check_fundamental_identity,
    check_invariance,
    fi_residual,
    hamiltonian,
    invariance_defect,
    nbracket,
    plucker_at,
    sharp,
)

from nambu.algebroid import (
    verify_anchor_morphism, verify_leibniz_identity, verify_phi_morphism, verify_sharp_d_identity,
)
from nambu.cli import CHECKS, DEFAULT_CHECKS
from nambu.cohomology import VolumeForm, exactness_witness, modular_multivector

from conftest import jacobian_nvector, poisson_r3, random_multivector, random_polynomial, x
from oracles import oracle_nambu_poisson, oracle_nbracket, oracle_plucker_fail, oracle_wedge


def seeded_coefficient(rng, m):
    """A nonzero seeded polynomial on an m-chart."""
    while True:
        f = random_polynomial(rng, m, 2, 3)
        if not f.is_zero():
            return f


def seeded_points(rng, m, count=4):
    return [
        [Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(m)]
        for _ in range(count)
    ]


def two_blades_r5(rng):
    """c1 * d1^d2^d3 + c2 * d3^d4^d5 with seeded coefficients: not integrable."""
    first = seeded_coefficient(rng, 5) * Multivector.basis(5, (1, 2, 3))
    second = seeded_coefficient(rng, 5) * Multivector.basis(5, (3, 4, 5))
    return NambuStructure(5, 3, first + second)


def direct_fi_scan(structure, max_degree):
    """First fundamental-identity failure by nested brackets, with the item count.

    Every f-tuple with a nonzero invariance defect is scanned over all
    g-tuples in lexicographic order through ``fi_residual``.
    """
    monomials = jet_monomials(structure.m, max_degree)
    f_tuples = list(itertools.combinations(monomials, structure.n - 1))
    items = len(f_tuples) * math.comb(len(monomials), structure.n)
    for fs in f_tuples:
        if invariance_defect(structure, list(fs)).is_zero():
            continue
        for gs in itertools.combinations(monomials, structure.n):
            residual = fi_residual(structure, list(fs), list(gs))
            if not residual.is_zero():
                return tuple(str(p) for p in fs + gs), str(residual), items
    return None


class TestConstruction:
    def test_validation(self):
        with pytest.raises(OrderError):
            NambuStructure(3, 1, Multivector.basis(3, (1,)))
        with pytest.raises(OrderError):
            NambuStructure(2, 3, Multivector.basis(2, (1, 2)))
        with pytest.raises(DegreeError):
            NambuStructure(3, 3, Multivector.basis(3, (1, 2)))

    def test_deep_copy(self, scaled_r3):
        clone = copy.deepcopy(scaled_r3)
        assert clone == scaled_r3 and clone.nvector is not scaled_r3.nvector

    def test_no_integrability_assumed(self, sum_r6):
        # the failing fixture constructs fine; verification is explicit
        assert sum_r6.n == 3

    def test_jet_config_floor(self, scaled_r3):
        with pytest.raises(ValueError):
            JetBasis(scaled_r3, 1)

    def test_report_consistency(self):
        with pytest.raises(ValueError):
            CheckReport(check="x", passed=True, items_checked=1,
                        counterexample=Counterexample(("a",), "b"))
        with pytest.raises(ValueError):
            CheckReport(check="x", passed=False, items_checked=1)


class TestBracket:
    def test_golden_coordinates(self, scaled_r3):
        fs = [x(3, 1), x(3, 2), x(3, 3)]
        assert nbracket(scaled_r3, fs) == x(3, 3)

    def test_matches_jacobian_oracle(self, rng, scaled_r3, sum_r6):
        for structure in (scaled_r3, sum_r6):
            m = structure.m
            for _ in range(8):
                fs = [random_polynomial(rng, m, 2, 3) for _ in range(structure.n)]
                assert nbracket(structure, fs) == oracle_nbracket(structure, fs)

    def test_repeated_argument_vanishes(self, rng, scaled_r3):
        f = random_polynomial(rng, 3)
        g = random_polynomial(rng, 3)
        assert nbracket(scaled_r3, [f, f, g]).is_zero()

    def test_skew_symmetry(self, rng, scaled_r3):
        fs = [random_polynomial(rng, 3) for _ in range(3)]
        base = nbracket(scaled_r3, fs)
        swapped = nbracket(scaled_r3, [fs[1], fs[0], fs[2]])
        assert swapped == -base
        cycled = nbracket(scaled_r3, [fs[2], fs[0], fs[1]])
        assert cycled == base

    def test_leibniz_rule(self, rng, scaled_r3):
        f1, g1, f2, f3 = (random_polynomial(rng, 3) for _ in range(4))
        lhs = nbracket(scaled_r3, [f1 * g1, f2, f3])
        rhs = f1 * nbracket(scaled_r3, [g1, f2, f3]) + g1 * nbracket(
            scaled_r3, [f1, f2, f3]
        )
        assert lhs == rhs

    def test_arity(self, scaled_r3):
        with pytest.raises(ArityError):
            nbracket(scaled_r3, [x(3, 1), x(3, 2)])

    def test_order_two_is_supported(self):
        poisson = NambuStructure(2, 2, Multivector.basis(2, (1, 2)))
        assert nbracket(poisson, [x(2, 1), x(2, 2)]) == Polynomial.one(2)


class TestSharpAndHamiltonian:
    def test_golden_fields(self, scaled_r3):
        assert sharp(scaled_r3, Form.basis(3, (1, 2))) == x(3, 3) * Multivector.basis(3, (3,))
        assert sharp(scaled_r3, Form.basis(3, (1, 3))) == -(
            x(3, 3) * Multivector.basis(3, (2,))
        )
        assert hamiltonian(scaled_r3, [x(3, 2), x(3, 3)]) == x(3, 3) * Multivector.basis(
            3, (1,)
        )

    def test_sharp_of_zero(self, scaled_r3):
        assert sharp(scaled_r3, Form.zero(3, 2)).is_zero()

    def test_repeated_function_gives_zero_field(self, rng, scaled_r3):
        f = random_polynomial(rng, 3)
        assert hamiltonian(scaled_r3, [f, f]).is_zero()

    def test_hamiltonian_generates_bracket(self, rng, scaled_r3, sum_r6):
        # X_{f1..f_{n-1}}(g) = {f1, .., f_{n-1}, g}, both sides independent
        for structure in (scaled_r3, sum_r6):
            m = structure.m
            for _ in range(8):
                fs = [random_polynomial(rng, m, 2, 3) for _ in range(structure.n - 1)]
                g = random_polynomial(rng, m, 2, 3)
                lhs = apply_vec(hamiltonian(structure, fs), g)
                assert lhs == nbracket(structure, list(fs) + [g])

    def test_hamiltonian_generates_bracket_on_jet_basis(self, scaled_r3):
        monomials = jet_monomials(3, 2)
        for fs in itertools.combinations(monomials, 2):
            field = hamiltonian(scaled_r3, list(fs))
            for g in monomials:
                assert apply_vec(field, g) == nbracket(scaled_r3, list(fs) + [g])

    def test_leibniz_rule_on_jet_triples(self, scaled_r3):
        monomials = jet_monomials(3, 1)
        for f1 in monomials:
            for g1 in monomials:
                for f2, f3 in itertools.combinations(monomials, 2):
                    lhs = nbracket(scaled_r3, [f1 * g1, f2, f3])
                    rhs = f1 * nbracket(scaled_r3, [g1, f2, f3]) + g1 * nbracket(
                        scaled_r3, [f1, f2, f3]
                    )
                    assert lhs == rhs

    def test_degree_guard(self, scaled_r3):
        with pytest.raises(DegreeError):
            sharp(scaled_r3, Form.basis(3, (1,)))


class TestFundamentalIdentity:
    def test_passes_on_scaled_r3(self, scaled_r3):
        report = check_fundamental_identity(JetBasis(scaled_r3, 3))
        assert report.passed

    def test_passes_on_normal_r5(self, normal_r5):
        report = check_fundamental_identity(JetBasis(normal_r5, 2))
        assert report.passed

    def test_fails_on_r6_with_certified_counterexample(self, sum_r6):
        report = check_fundamental_identity(JetBasis(sum_r6, 2))
        assert not report.passed
        assert report.counterexample is not None
        # re-derive the counterexample through the direct nested brackets
        texts = report.counterexample.inputs
        from nambu.poly import parse_polynomial

        fs = [parse_polynomial(t, 6) for t in texts[:2]]
        gs = [parse_polynomial(t, 6) for t in texts[2:]]
        residual = fi_residual(sum_r6, fs, gs)
        assert not residual.is_zero()
        assert str(residual) == report.counterexample.residual

    def test_direct_exhaustive_sweep_on_pass_fixture(self, scaled_r3):
        # independent oracle: every degree-<=2 tuple, nested brackets only
        monomials = jet_monomials(3, 2)
        for fs in itertools.combinations(monomials, 2):
            for gs in itertools.combinations(monomials, 3):
                assert fi_residual(scaled_r3, list(fs), list(gs)).is_zero()

    def test_direct_search_finds_r6_counterexample(self, sum_r6):
        # independent oracle: direct nested-bracket search over all
        # degree-<=2 Hamiltonian pairs against coordinate arguments
        monomials = jet_monomials(6, 2)
        coordinates = [x(6, i) for i in range(1, 7)]
        hits = []
        for fs in itertools.combinations(monomials, 2):
            for gs in itertools.combinations(coordinates, 3):
                if not fi_residual(sum_r6, list(fs), list(gs)).is_zero():
                    hits.append((fs, gs))
                    break
            if hits:
                break
        assert hits

    def test_counterexample_matches_direct_scan(self, rng, sum_r6):
        cases = [(s, 2) for s in (sum_r6, two_blades_r5(rng), two_blades_r5(rng))]
        # dense random n-vectors: the first failing defect has several
        # components, so the reported g-tuple is the first of several
        cases += [
            (NambuStructure(m, n, random_multivector(rng, m, n)), degree)
            for m, n, degree in ((4, 2, 2), (5, 4, 2), (5, 3, 3))
        ]
        for structure, degree in cases:
            report = check_fundamental_identity(JetBasis(structure, degree))
            assert not report.passed
            expected = direct_fi_scan(structure, degree)
            assert expected is not None
            found = report.counterexample
            assert (found.inputs, found.residual, report.items_checked) == expected

    def test_order_two_verdict_is_jacobi(self, rng):
        # At n = 2 the fundamental identity is the Jacobi identity: the
        # verdict agrees with the Jacobiator of seeded random polynomials,
        # bracketed through the determinant oracle.
        structures = [NambuStructure(2, 2, random_multivector(rng, 2, 2, 1.0))]
        structures += [NambuStructure(3, 2, poisson_r3(rng)) for _ in range(2)]
        structures += [NambuStructure(3, 2, random_multivector(rng, 3, 2, 1.0)) for _ in range(3)]
        verdicts = []
        for structure in structures:
            def bracket(f, g, structure=structure):
                return oracle_nbracket(structure, [f, g])

            jacobi = True
            for _ in range(3):
                f, g, h = (random_polynomial(rng, structure.m) for _ in range(3))
                jacobiator = (
                    bracket(f, bracket(g, h))
                    + bracket(g, bracket(h, f))
                    + bracket(h, bracket(f, g))
                )
                jacobi = jacobi and jacobiator.is_zero()
            verdicts.append(check_fundamental_identity(JetBasis(structure, 2)).passed)
            assert verdicts[-1] == jacobi
        assert verdicts == [True] * 3 + [False] * 3

    def test_factorization_identity(self, rng, scaled_r3, sum_r6):
        # residual == <dg1 ^ .. ^ dgn, invariance defect>, exactly
        for structure in (scaled_r3, sum_r6):
            m = structure.m
            for _ in range(6):
                fs = [random_polynomial(rng, m, 2, 3) for _ in range(structure.n - 1)]
                gs = [random_polynomial(rng, m, 2, 3) for _ in range(structure.n)]
                omega = differential(gs[0])
                for g in gs[1:]:
                    omega = wedge(omega, differential(g))
                predicted = pair(omega, invariance_defect(structure, fs))
                assert fi_residual(structure, fs, gs) == predicted


class TestInvariance:
    def test_passes_on_nambu_fixtures(self, scaled_r3, volume_r3, normal_r4):
        for structure in (scaled_r3, volume_r3, normal_r4):
            assert check_invariance(JetBasis(structure, 3)).passed

    def test_items_are_counted_without_building_the_grid(self):
        # 210 jet monomials of degree <= 6 on R^4: C(210, 3) = 1,521,520
        # f-tuples, about 110 MB as a list of tuples
        top = NambuStructure(4, 4, x(4, 1) * Multivector.basis(4, (1, 2, 3, 4)))
        tracemalloc.start()
        try:
            invariance = check_invariance(JetBasis(top, 6))
            fi = check_fundamental_identity(JetBasis(top, 6))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert invariance.passed and fi.passed
        assert invariance.items_checked == math.comb(210, 3)
        assert fi.items_checked == math.comb(210, 3) * math.comb(210, 4)
        assert peak < 10_000_000

    def test_fails_on_r6(self, sum_r6):
        report = check_invariance(JetBasis(sum_r6, 2))
        assert not report.passed
        assert report.counterexample is not None

    def test_order_two_checks_supported(self):
        # ordinary Poisson case: the residual reduces to the Jacobi identity.
        # test_order_two_basis_serves_every_check covers this verdict too (its
        # "poisson" case runs FI and invariance on x3 d1^d2); this one keeps
        # the plain constant bivector on R^2 with a basis per check.
        poisson = NambuStructure(2, 2, Multivector.basis(2, (1, 2)))
        assert check_fundamental_identity(JetBasis(poisson, 2)).passed
        assert check_invariance(JetBasis(poisson, 2)).passed

    @pytest.mark.parametrize(
        "lam, failing",
        [
            (x(3, 3) * Multivector.basis(3, (1, 2)), set()),
            # {x1, {x2, x3}} + {x2, {x3, x1}} + {x3, {x1, x2}} = -1
            (
                x(3, 2) * Multivector.basis(3, (1, 2)) + Multivector.basis(3, (2, 3)),
                {"fundamental-identity", "invariance", "anchor", "sharp-d", "leibniz",
                 "modular-cocycle"},
            ),
        ],
        ids=["poisson", "not-jacobi"],
    )
    def test_order_two_basis_serves_every_check(self, lam, failing):
        # One order-2 basis runs all nine checks, and no report depends on
        # which check ran a shared scan first.  characterization,
        # phi-morphism and lsv pass for every n-vector.
        poisson = NambuStructure(3, 2, lam)
        volume = VolumeForm.standard(3)
        runs = []
        for names in (list(CHECKS), list(reversed(CHECKS))):
            basis = JetBasis(poisson, 2)
            runs.append({name: CHECKS[name](basis, volume) for name in names})
        assert runs[0] == runs[1]
        assert {name for name, report in runs[0].items() if not report.passed} == failing

    @pytest.mark.parametrize("order", [3, 2])
    def test_capped_hit_is_located_on_the_full_grid(self, monkeypatch, scaled_r3, order):
        # A planted defect of order 3 is nonzero at the last capped f-tuple
        # and at the first f-tuple holding a cubic.  The capped sweep hits
        # the former; the report must be the first nonzero defect of a
        # direct scan over all f-tuples, with its running item count.  At
        # order 2 the f-tuples are single monomials and every cubic comes
        # after every capped one.  Both structures are Nambu-Poisson, so
        # their anchor defect vanishes and would certify invariance without
        # a sweep; a bump planted in the anchor defect too makes its scan
        # hit, so the capped sweep and the rescan run.  The bump spares the
        # unit forms dx^I, whose anchor defect the sweep reads as the defect
        # of the coordinate tuple x_I.
        from nambu import structure as module
        from nambu.exterior import format_tensor

        if order == 3:
            nambu = scaled_r3
        else:
            nambu = NambuStructure(3, 2, x(3, 3) * Multivector.basis(3, (1, 2)))
        f_tuples = list(itertools.combinations(jet_monomials(3, 3), order - 1))
        capped = [fs for fs in f_tuples if max(f.total_degree() for f in fs) <= 2]
        cubic = next(fs for fs in f_tuples if fs not in capped)
        planted, bump = {capped[-1], cubic}, Multivector.basis(3, (1, 2, 3)[:order])

        def planted_defect(structure, fs):
            defect = invariance_defect(structure, fs)
            return defect + bump if tuple(fs) in planted else defect

        monkeypatch.setattr(module, "invariance_defect", planted_defect)
        anchor_defect = module.anchor_defect

        def planted_anchor(structure, alpha):
            defect = anchor_defect(structure, alpha)
            unit = all(coeff.total_degree() == 0 for coeff in alpha.components.values())
            return defect if unit else defect + bump

        monkeypatch.setattr(module, "anchor_defect", planted_anchor)
        position = next(
            i for i, fs in enumerate(f_tuples) if not planted_defect(nambu, fs).is_zero()
        )
        assert f_tuples[position] == (cubic if order == 3 else capped[-1])

        report = check_invariance(JetBasis(nambu, 3))
        assert not report.passed
        assert report.counterexample.inputs == tuple(map(str, f_tuples[position]))
        assert report.counterexample.residual == format_tensor(
            planted_defect(nambu, f_tuples[position])
        )
        assert report.items_checked == position + 1

    @pytest.mark.parametrize(
        "failing,expected",
        [({(0, 4), (1, 2)}, (0, 4)), ({(1, 2)}, (1, 2)), ({(3, 4)}, None)],
        ids=["later-row-first", "capped-hit-first", "capped-rows-pass"],
    )
    def test_capped_first_hit_evaluates_each_point_once(self, failing, expected):
        # rows 0..5, rows 0..2 capped, over pairs: the capped sweep stops at
        # (1, 2) when it fails; the rescan skips the capped points found
        # zero and returns the hit without evaluating it again.
        evaluated = []

        def fast(a, b):
            evaluated.append((a, b))
            return Polynomial.constant(1, int((a, b) in failing))

        grid = functools.partial(itertools.combinations, r=2)
        assert capped_first_hit(grid, fast, range(6), range(3)) == expected
        assert len(evaluated) == len(set(evaluated))

    def test_fi_implies_invariance_on_fixtures(
        self, scaled_r3, volume_r3, normal_r4, normal_r5, sum_r6
    ):
        for structure in (scaled_r3, volume_r3, normal_r4, normal_r5, sum_r6):
            fi = check_fundamental_identity(JetBasis(structure, 2))
            inv = check_invariance(JetBasis(structure, 2))
            if fi.passed:
                assert inv.passed


class TestJacobianStructures:
    """Jacobian n-vectors are Nambu-Poisson for any F and divergence-free:
    a curved positive control built without the bracket."""

    @pytest.mark.parametrize("m, n", [(4, 3), (5, 3), (5, 4)])
    def test_every_default_check_passes_and_the_modular_class_vanishes(self, rng, m, n):
        nvector, _ = jacobian_nvector(rng, m, n)
        assert any(coeff.total_degree() > 0 for coeff in nvector.components.values())
        structure = NambuStructure(m, n, nvector)
        volume = VolumeForm(Fraction(1), Polynomial.zero(m))
        for name in DEFAULT_CHECKS:
            assert CHECKS[name](JetBasis(structure, 2), volume).passed, name
        assert verify_phi_morphism(JetBasis(structure, 2)).passed
        assert modular_multivector(structure, volume).is_zero()

    def test_witness_minus_the_volume_exponent_is_a_casimir(self, rng):
        # Hamiltonian fields of a Jacobian n-vector are divergence-free, so
        # for the volume e^p the modular class is the coboundary of p: a
        # witness exists at degree deg p, and w - p is a Casimir, which for
        # this n-vector means d(w - p) ^ dF_1 ^ .. ^ dF_{m-n} = 0.  With
        # 2*F_1 planted in p, some w - p is a nonconstant Casimir.
        nonconstant = 0
        for m, n in ((4, 3), (5, 3), (5, 4), (6, 4)):
            nvector, functions = jacobian_nvector(rng, m, n)
            structure = NambuStructure(m, n, nvector)
            p = random_polynomial(rng, m, 2, 3) + functions[0] * 2
            report = exactness_witness(structure, VolumeForm(Fraction(1), p), p.total_degree())
            assert report.feasible
            casimir = report.witness - p
            assert wedge_all([differential(f) for f in (casimir, *functions)]).is_zero()
            nonconstant += casimir.total_degree() > 0
        assert nonconstant

    @pytest.mark.parametrize("m, n", [(5, 3), (6, 3), (6, 4)])
    def test_sum_failing_plucker_fails_the_fundamental_identity(self, rng, m, n):
        # Each summand is Nambu-Poisson; where their sum is not decomposable
        # it is not (Gautheron 1996), so FI must find a counterexample.
        nvector = jacobian_nvector(rng, m, n)[0] + jacobian_nvector(rng, m, n)[0]
        structure = NambuStructure(m, n, nvector)
        verdicts = [plucker_at(structure, point) for point in seeded_points(rng, m)]
        assert PluckerVerdict.FAIL in verdicts
        assert not check_fundamental_identity(JetBasis(structure, 2)).passed


class TestDecomposabilityOracle:
    """For n >= 3 a Nambu-Poisson tensor is decomposable wherever it is
    nonzero (Gautheron 1996), a test independent of the bracket formulas."""

    @pytest.mark.parametrize("m, n", [(3, 3), (4, 3), (5, 3), (5, 4)])
    def test_scaled_coordinate_blade_passes_both(self, rng, m, n):
        for _ in range(2):
            blade = tuple(sorted(rng.sample(range(1, m + 1), n)))
            nvector = seeded_coefficient(rng, m) * Multivector.basis(m, blade)
            structure = NambuStructure(m, n, nvector)
            assert check_fundamental_identity(JetBasis(structure, 2)).passed
            for point in seeded_points(rng, m):
                assert plucker_at(structure, point) is PluckerVerdict.PASS

    def test_sum_of_disjoint_blades_fails_both(self, rng):
        for _ in range(2):
            first = tuple(sorted(rng.sample(range(1, 7), 3)))
            second = tuple(i for i in range(1, 7) if i not in first)
            f, g = seeded_coefficient(rng, 6), seeded_coefficient(rng, 6)
            nvector = f * Multivector.basis(6, first) + g * Multivector.basis(6, second)
            structure = NambuStructure(6, 3, nvector)
            assert not check_fundamental_identity(JetBasis(structure, 2)).passed
            # where one blade vanishes the tensor is decomposable
            points = [p for p in seeded_points(rng, 6) if f.evaluate(p) and g.evaluate(p)]
            assert points
            for point in points:
                assert plucker_at(structure, point) is PluckerVerdict.FAIL


def affine_field(rng, m):
    """A seeded vector field with affine coefficients on an m-chart."""
    return Multivector(m, 1, {
        (k,): random_polynomial(rng, m, 1, 2) for k in range(1, m + 1) if rng.random() < 0.7
    })


def integrability_oracle_inputs(rng, n):
    """Seeded n-vectors of the oracle's three kinds at order n: products of
    affine vector fields on R^{n+1}, ``f * coordinate blade`` on R^{n+1}, and
    sums of two coordinate blades with seeded coefficients on R^{n+2}, which
    share n-1 directions in the first draw and n-2 in the second.  Two of
    each kind."""
    inputs = []
    for share in (n - 1, n - 2):
        fields = [affine_field(rng, n + 1) for _ in range(n)]
        inputs.append(functools.reduce(oracle_wedge, fields))
        blade = tuple(sorted(rng.sample(range(1, n + 2), n)))
        inputs.append(seeded_coefficient(rng, n + 1) * Multivector.basis(n + 1, blade))
        m = n + 2
        first = tuple(sorted(rng.sample(range(1, m + 1), n)))
        shared = rng.sample(first, share)
        rest = [i for i in range(1, m + 1) if i not in first]
        second = tuple(sorted(shared + rng.sample(rest, n - len(shared))))
        coefficients = [
            seeded_coefficient(rng, m) if rng.random() < 0.5 else Polynomial.constant(m, 2)
            for _ in range(2)
        ]
        inputs.append(
            coefficients[0] * Multivector.basis(m, first)
            + coefficients[1] * Multivector.basis(m, second)
        )
    return inputs


class TestIntegrabilityOracle:
    """For n >= 3, lam is Nambu-Poisson exactly when (P) Plucker and (F)
    involutivity hold (``oracles.oracle_nambu_poisson``), which is computed
    on dense tensors without the library's wedge, contraction or Lie
    derivative.  Every integrability verdict must equal it, both ways."""

    CHECKS = (
        check_fundamental_identity,
        check_invariance,
        verify_anchor_morphism,
        verify_sharp_d_identity,
        verify_leibniz_identity,
    )

    def test_decomposable_but_not_involutive(self):
        # d1^d2^(x1*d3 + x3*d4): (P) holds everywhere, but
        # [d1, x1*d3 + x3*d4] = d3 leaves the image distribution
        m = 4
        lam = Multivector.basis(m, (1, 2, 3)) * x(m, 1)
        lam = lam + Multivector.basis(m, (1, 2, 4)) * x(m, 3)
        assert oracle_nambu_poisson(lam) == (True, False)
        basis = JetBasis(NambuStructure(m, 3, lam), 2)
        assert not any(check(basis).passed for check in self.CHECKS)

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_verdicts_equal_the_oracle(self, rng, n):
        kinds = set()
        for lam in integrability_oracle_inputs(rng, n):
            plucker, involutive = oracle_nambu_poisson(lam)
            kinds.add((plucker, involutive))
            basis = JetBasis(NambuStructure(lam.m, n, lam), 2)
            for check in self.CHECKS:
                assert check(basis).passed == (plucker and involutive), check.__name__
        # a pass, a (P) failure and an (F)-only failure at every order
        assert {(True, True), (True, False)} <= kinds
        assert any(not plucker for plucker, _ in kinds)


class TestPlucker:
    def test_single_component_always_passes(self, scaled_r3):
        assert plucker_at(scaled_r3, [0, 0, 5]) is PluckerVerdict.PASS

    def test_zero_point_passes(self, scaled_r3):
        assert plucker_at(scaled_r3, [1, 1, 0]) is PluckerVerdict.PASS

    def test_r6_fails_at_origin(self, sum_r6):
        assert plucker_at(sum_r6, [0] * 6) is PluckerVerdict.FAIL
        values = {
            i: c.evaluate([0] * 6) for i, c in sum_r6.nvector.components.items()
        }
        assert oracle_plucker_fail(values, 6, 3)

    def test_decomposable_sum_passes(self):
        # d1^d2^d3 + d2^d3^d4 = (d1 + d4)^d2^d3 wedges out, so it passes
        structure = NambuStructure(
            4, 3, Multivector.basis(4, (1, 2, 3)) + Multivector.basis(4, (2, 3, 4))
        )
        point = [Fraction(1), Fraction(2), Fraction(-1), Fraction(3)]
        assert plucker_at(structure, point) is PluckerVerdict.PASS
        values = {
            i: c.evaluate(point) for i, c in structure.nvector.components.items()
        }
        assert not oracle_plucker_fail(values, 4, 3)

    def test_fi_fixtures_pass_at_sample_points(self, scaled_r3, normal_r4, normal_r5):
        points = {
            3: ([0, 0, 0], [1, -2, Fraction(1, 2)]),
            4: ([0, 0, 0, 0], [1, 2, 3, 4]),
            5: ([0] * 5, [1, -1, 2, -2, 3]),
        }
        for structure in (scaled_r3, normal_r4, normal_r5):
            for point in points[structure.m]:
                assert plucker_at(structure, point) is PluckerVerdict.PASS

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_matches_oracle_on_seeded_points(self, rng, n):
        # a third of the n-vectors are wedges of vectors, so both verdicts occur
        verdicts = set()
        for trial in range(30):
            m = rng.randint(n, 7)
            if trial % 3 == 0:
                vectors = [
                    Multivector(m, 1, {(j,): random_polynomial(rng, m, 1, 2) for j in range(1, m + 1)})
                    for _ in range(n)
                ]
                nvector = wedge_all(vectors)
            else:
                nvector = random_multivector(rng, m, n, density=0.4)
            structure = NambuStructure(m, n, nvector)
            for point in seeded_points(rng, m, count=2):
                values = {i: c.evaluate(point) for i, c in nvector.components.items()}
                verdict = plucker_at(structure, point)
                fails = oracle_plucker_fail(values, m, n)
                assert verdict is (PluckerVerdict.FAIL if fails else PluckerVerdict.PASS)
                verdicts.add(verdict)
        assert verdicts == {PluckerVerdict.PASS, PluckerVerdict.FAIL}

    def test_order_two_not_applicable(self):
        poisson = NambuStructure(3, 2, Multivector.basis(3, (1, 2)))
        assert plucker_at(poisson, [0, 0, 0]) is PluckerVerdict.NOT_APPLICABLE

    def test_dimension_mismatch(self, scaled_r3):
        with pytest.raises(ChartMismatchError):
            plucker_at(scaled_r3, [0, 0])
