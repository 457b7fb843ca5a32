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
from nambu.exterior import Form, Multivector, apply_vec, differential, pair, wedge
from nambu.poly import Polynomial, jet_monomials
from nambu.structure import (
    CheckReport,
    Counterexample,
    JetBasisConfig,
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

from conftest import random_polynomial
from oracles import oracle_nbracket, oracle_plucker_fail


def x(m, i):
    return Polynomial.variable(m, i)


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

    def test_jet_config_floor(self):
        with pytest.raises(ValueError):
            JetBasisConfig(max_degree=1)

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
        report = check_fundamental_identity(scaled_r3)
        assert report.passed

    def test_passes_on_normal_r5(self, normal_r5):
        report = check_fundamental_identity(normal_r5, JetBasisConfig(max_degree=2))
        assert report.passed

    def test_fails_on_r6_with_certified_counterexample(self, sum_r6):
        report = check_fundamental_identity(sum_r6, JetBasisConfig(max_degree=2))
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
        config = JetBasisConfig(max_degree=2)
        for structure in (sum_r6, two_blades_r5(rng), two_blades_r5(rng)):
            report = check_fundamental_identity(structure, config)
            assert not report.passed
            expected = direct_fi_scan(structure, 2)
            assert expected is not None
            found = report.counterexample
            assert (found.inputs, found.residual, report.items_checked) == expected

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
            assert check_invariance(structure).passed

    def test_items_are_counted_without_building_the_grid(self):
        # 210 jet monomials of degree <= 6 on R^4: C(210, 3) = 1,521,520
        # f-tuples, about 110 MB as a list of tuples
        top = NambuStructure(4, 4, x(4, 1) * Multivector.basis(4, (1, 2, 3, 4)))
        config = JetBasisConfig(max_degree=6)
        tracemalloc.start()
        try:
            invariance = check_invariance(top, config)
            fi = check_fundamental_identity(top, config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert invariance.passed and fi.passed
        assert invariance.items_checked == math.comb(210, 3)
        assert fi.items_checked == math.comb(210, 3) * math.comb(210, 4)
        assert peak < 10_000_000

    def test_fails_on_r6(self, sum_r6):
        report = check_invariance(sum_r6, JetBasisConfig(max_degree=2))
        assert not report.passed
        assert report.counterexample is not None

    def test_order_two_checks_supported(self):
        # ordinary Poisson case: the residual reduces to the Jacobi identity
        poisson = NambuStructure(2, 2, Multivector.basis(2, (1, 2)))
        config = JetBasisConfig(max_degree=2)
        assert check_fundamental_identity(poisson, config).passed
        assert check_invariance(poisson, config).passed

    @pytest.mark.parametrize("order", [3, 2])
    def test_capped_hit_is_located_on_the_full_grid(self, monkeypatch, scaled_r3, order):
        # A planted defect of order 3 is nonzero at the last capped f-tuple
        # and at the first f-tuple holding a cubic.  The capped sweep hits
        # the former; the report must be the first nonzero defect of a
        # direct scan over all f-tuples, with its running item count.  At
        # order 2 the f-tuples are single monomials and every cubic comes
        # after every capped one.
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
        position = next(
            i for i, fs in enumerate(f_tuples) if not planted_defect(nambu, fs).is_zero()
        )
        assert f_tuples[position] == (cubic if order == 3 else capped[-1])

        report = check_invariance(nambu, JetBasisConfig(max_degree=3))
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
        config = JetBasisConfig(max_degree=2)
        for structure in (scaled_r3, volume_r3, normal_r4, normal_r5, sum_r6):
            fi = check_fundamental_identity(structure, config)
            inv = check_invariance(structure, config)
            if fi.passed:
                assert inv.passed


class TestDecomposabilityOracle:
    """For n >= 3 a Nambu-Poisson tensor is decomposable wherever it is
    nonzero (Gautheron 1996), a test independent of the bracket formulas."""

    @pytest.mark.parametrize("m, n", [(3, 3), (4, 3), (5, 3), (5, 4)])
    def test_scaled_coordinate_blade_passes_both(self, rng, m, n):
        config = JetBasisConfig(max_degree=2)
        for _ in range(2):
            blade = tuple(sorted(rng.sample(range(1, m + 1), n)))
            nvector = seeded_coefficient(rng, m) * Multivector.basis(m, blade)
            structure = NambuStructure(m, n, nvector)
            assert check_fundamental_identity(structure, config).passed
            for point in seeded_points(rng, m):
                assert plucker_at(structure, point) is PluckerVerdict.PASS

    def test_sum_of_disjoint_blades_fails_both(self, rng):
        config = JetBasisConfig(max_degree=2)
        for _ in range(2):
            first = tuple(sorted(rng.sample(range(1, 7), 3)))
            second = tuple(i for i in range(1, 7) if i not in first)
            f, g = seeded_coefficient(rng, 6), seeded_coefficient(rng, 6)
            nvector = f * Multivector.basis(6, first) + g * Multivector.basis(6, second)
            structure = NambuStructure(6, 3, nvector)
            assert not check_fundamental_identity(structure, config).passed
            # where one blade vanishes the tensor is decomposable
            points = [p for p in seeded_points(rng, 6) if f.evaluate(p) and g.evaluate(p)]
            assert points
            for point in points:
                assert plucker_at(structure, point) is PluckerVerdict.FAIL


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

    def test_order_two_not_applicable(self):
        poisson = NambuStructure(3, 2, Multivector.basis(3, (1, 2)))
        assert plucker_at(poisson, [0, 0, 0]) is PluckerVerdict.NOT_APPLICABLE

    def test_dimension_mismatch(self, scaled_r3):
        with pytest.raises(ChartMismatchError):
            plucker_at(scaled_r3, [0, 0])
