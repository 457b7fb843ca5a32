"""Exterior calculus: conventions, frozen examples, oracle cross-checks.

Derived expected values are frozen from the independent dense-tensor
oracles in ``oracles.py`` and asserted against both routes.
"""

from __future__ import annotations

import copy
import itertools
import pickle

import pytest

from nambu.errors import ChartMismatchError, DegreeError
from nambu.exterior import (
    Form,
    Multivector,
    apply_vec,
    contract_form,
    contract_vec,
    differential,
    ext_d,
    lie_form,
    lie_mv,
    pair,
    wedge,
    wedge_all,
)
from nambu.poly import Polynomial

from conftest import random_form, random_multivector, random_polynomial
from oracles import (
    oracle_contract_form,
    oracle_contract_vec,
    oracle_ext_d,
    oracle_pair,
    oracle_wedge,
)


def x(m, i):
    return Polynomial.variable(m, i)


def dx(m, *indices):
    return Form.basis(m, indices)


def dd(m, *indices):
    return Multivector.basis(m, indices)


class TestWedge:
    def test_basis_product(self):
        assert wedge(dx(3, 1), dx(3, 2)) == dx(3, 1, 2)

    def test_transposition_sign(self):
        assert wedge(dx(3, 2), dx(3, 1)) == -dx(3, 1, 2)

    def test_nilpotence(self):
        assert wedge(dx(3, 1), dx(3, 1)).is_zero()

    def test_kind_mismatch(self):
        with pytest.raises(DegreeError):
            wedge(dx(3, 1), dd(3, 2))

    def test_degree_overflow_is_exact_zero(self):
        overflow = wedge(dx(2, 1, 2), dx(2, 1))
        assert overflow.is_zero()
        assert overflow.degree == 3

    def test_graded_commutativity_random(self, rng):
        m = 4
        for deg_a, deg_b in [(1, 1), (1, 2), (2, 2), (2, 1), (3, 1)]:
            for _ in range(8):
                a = random_form(rng, m, deg_a)
                b = random_form(rng, m, deg_b)
                sign = (-1) ** (deg_a * deg_b)
                assert wedge(a, b) == wedge(b, a) * sign

    def test_matches_shuffle_oracle(self, rng):
        m = 4
        for deg_a, deg_b in [(1, 1), (1, 2), (2, 2)]:
            for _ in range(6):
                a = random_form(rng, m, deg_a)
                b = random_form(rng, m, deg_b)
                assert wedge(a, b) == oracle_wedge(a, b)


class TestPairing:
    def test_dual_basis(self):
        assert pair(dx(3, 1, 2), dd(3, 1, 2)) == Polynomial.one(3)

    def test_disjoint_index(self):
        assert pair(dx(3, 1, 2), dd(3, 1, 3)).is_zero()

    def test_full_pairing_with_coefficient(self):
        # frozen from the dense-tensor oracle
        mv = x(3, 3) * dd(3, 1, 2, 3)
        omega = dx(3, 1, 2, 3)
        expected = x(3, 3)
        assert oracle_pair(omega, mv) == expected
        assert pair(omega, mv) == expected

    def test_matches_oracle_random(self, rng):
        m = 4
        for degree in (1, 2, 3):
            for _ in range(6):
                omega = random_form(rng, m, degree)
                mv = random_multivector(rng, m, degree)
                assert pair(omega, mv) == oracle_pair(omega, mv)

    def test_degree_mismatch(self):
        with pytest.raises(DegreeError):
            pair(dx(3, 1), dd(3, 1, 2))


class TestContractForm:
    def test_even_permutation(self):
        assert contract_form(dx(3, 2, 3), dd(3, 1, 2, 3)) == dd(3, 1)

    def test_with_coefficient(self):
        # frozen from the dense-tensor oracle
        mv = x(3, 3) * dd(3, 1, 2, 3)
        expected = x(3, 3) * dd(3, 2, 3)
        assert oracle_contract_form(dx(3, 1), mv) == expected
        assert contract_form(dx(3, 1), mv) == expected

    def test_full_degree_is_pairing(self):
        mv = x(3, 3) * dd(3, 1, 2, 3)
        omega = dx(3, 1, 2, 3)
        result = contract_form(omega, mv)
        assert result.degree == 0
        assert result.scalar() == pair(omega, mv)

    def test_adjunction_on_full_basis(self):
        # the defining adjunction, checked against the permutation oracle
        m, j, k = 4, 2, 3
        for a_idx in itertools.combinations(range(1, m + 1), j):
            alpha = Form.basis(m, a_idx)
            for p_idx in itertools.combinations(range(1, m + 1), k):
                mv = Multivector.basis(m, p_idx)
                contracted = contract_form(alpha, mv)
                assert contracted == oracle_contract_form(alpha, mv)
                for g_idx in itertools.combinations(range(1, m + 1), k - j):
                    gamma = Form.basis(m, g_idx)
                    assert pair(gamma, contracted) == pair(wedge(alpha, gamma), mv)

    def test_adjunction_random(self, rng):
        m = 4
        for j, k in [(1, 2), (1, 3), (2, 3), (3, 3)]:
            for _ in range(5):
                alpha = random_form(rng, m, j)
                mv = random_multivector(rng, m, k)
                contracted = contract_form(alpha, mv)
                assert contracted == oracle_contract_form(alpha, mv)
                gamma = random_form(rng, m, k - j)
                assert pair(gamma, contracted) == pair(wedge(alpha, gamma), mv)

    @pytest.mark.parametrize("n", [3, 4])
    def test_head_contraction_evaluates_the_bracket_pairing(self, rng, n):
        # <dg_1^..^dg_n, P> = dg_n(i(dg_1^..^dg_{n-1}) P), as the
        # fundamental-identity locator evaluates it with a cached head
        m = 5
        for _ in range(5):
            mv = random_multivector(rng, m, n)
            gs = [random_polynomial(rng, m) for _ in range(n)]
            dg = [differential(g) for g in gs]
            head = contract_form(wedge_all(dg[:-1]), mv)
            assert apply_vec(head, gs[-1]) == pair(wedge_all(dg), mv)

    def test_degree_underflow(self):
        with pytest.raises(DegreeError):
            contract_form(dx(3, 1, 2), dd(3, 1))


class TestContractVec:
    def test_first_slot(self):
        assert contract_vec(dd(3, 1), dx(3, 1, 2)) == dx(3, 2)

    def test_missing_index(self):
        assert contract_vec(dd(3, 3), dx(3, 1, 2)).is_zero()

    def test_with_coefficient(self):
        # frozen from the dense-tensor oracle
        field = x(4, 3) * dd(4, 3)
        expected = x(4, 3) * dx(4, 4)
        assert oracle_contract_vec(field, dx(4, 3, 4)) == expected
        assert contract_vec(field, dx(4, 3, 4)) == expected

    def test_matches_oracle_random(self, rng):
        m = 4
        for degree in (1, 2, 3):
            for _ in range(6):
                field = random_multivector(rng, m, 1)
                omega = random_form(rng, m, degree)
                assert contract_vec(field, omega) == oracle_contract_vec(field, omega)

    def test_antiderivation_rule(self, rng):
        # i_X(a ^ b) = (i_X a) ^ b + (-1)^deg(a) a ^ (i_X b)
        m = 4
        for deg_a, deg_b in [(1, 1), (1, 2), (2, 1), (2, 2)]:
            for _ in range(5):
                field = random_multivector(rng, m, 1)
                a = random_form(rng, m, deg_a)
                b = random_form(rng, m, deg_b)
                lhs = contract_vec(field, wedge(a, b))
                rhs = wedge(contract_vec(field, a), b)
                term = wedge(a, contract_vec(field, b))
                rhs = rhs + (term if deg_a % 2 == 0 else -term)
                assert lhs == rhs


class TestExteriorDerivative:
    def test_basic(self):
        assert ext_d(x(3, 1) * dx(3, 2)) == dx(3, 1, 2)

    def test_constant_coefficients(self):
        assert ext_d(dx(3, 1, 2)).is_zero()

    def test_shared_index_collapses(self):
        # d(x1 dx1^dx2) = dx1^dx1^dx2 = 0
        assert ext_d(x(3, 1) * dx(3, 1, 2)).is_zero()

    def test_top_degree(self):
        omega = x(3, 1) * dx(3, 1, 2, 3)
        assert ext_d(omega).is_zero()
        assert ext_d(omega).degree == 4

    def test_d_squared_zero_random(self, rng):
        m = 4
        for degree in (0, 1, 2, 3):
            for _ in range(6):
                omega = random_form(rng, m, degree)
                assert ext_d(ext_d(omega)).is_zero()

    def test_matches_oracle_random(self, rng):
        m = 4
        for degree in (1, 2, 3):
            for _ in range(6):
                omega = random_form(rng, m, degree)
                assert ext_d(omega) == oracle_ext_d(omega)

    def test_leibniz_for_scalar_multiples(self, rng):
        m = 3
        for _ in range(8):
            f = random_polynomial(rng, m)
            omega = random_form(rng, m, 1)
            assert ext_d(omega * f) == wedge(differential(f), omega) + ext_d(omega) * f


class TestLieDerivatives:
    def test_lie_form_scaling_field(self):
        # frozen via Cartan expansion: L_{x3 d3}(dx2^dx3) = dx2^dx3
        field = x(3, 3) * dd(3, 3)
        assert lie_form(field, dx(3, 2, 3)) == dx(3, 2, 3)

    def test_lie_form_cross_term(self):
        # frozen via Cartan expansion: L_{x1 d3}(dx3^dx4) = dx1^dx4
        field = x(4, 1) * dd(4, 3)
        assert lie_form(field, dx(4, 3, 4)) == dx(4, 1, 4)

    def test_lie_form_constant_inputs(self):
        assert lie_form(dd(3, 1), dx(3, 2, 3)).is_zero()

    def test_cartan_naturality(self, rng):
        m = 4
        for degree in (0, 1, 2):
            for _ in range(6):
                field = random_multivector(rng, m, 1)
                omega = random_form(rng, m, degree)
                assert lie_form(field, ext_d(omega)) == ext_d(lie_form(field, omega))

    def test_lie_mv_kills_invariant_tensor(self):
        field = x(3, 3) * dd(3, 3)
        mv = x(3, 3) * dd(3, 1, 2, 3)
        assert lie_mv(field, mv).is_zero()

    def test_lie_mv_translation_generator(self, rng):
        m = 3
        for degree in (1, 2, 3):
            mv = random_multivector(rng, m, degree)
            shifted = lie_mv(dd(m, 1), mv)
            expected = Multivector(
                m, degree, {i: c.diff(1) for i, c in mv.components.items()}
            )
            assert shifted == expected

    def test_lie_mv_degree_one_is_bracket(self):
        field = x(3, 1) * dd(3, 1)
        assert lie_mv(field, dd(3, 1)) == -dd(3, 1)

    def test_lie_mv_on_decomposables(self, rng):
        # second route: L_X(Y1 ^ .. ^ Yk) = sum_s Y1 ^ .. ^ [X, Ys] ^ .. ^ Yk
        m = 4
        for k in (2, 3):
            for _ in range(6):
                field = random_multivector(rng, m, 1)
                factors = [random_multivector(rng, m, 1) for _ in range(k)]
                product = factors[0]
                for factor in factors[1:]:
                    product = wedge(product, factor)
                expected = Multivector.zero(m, k)
                for s in range(k):
                    replaced = list(factors)
                    replaced[s] = lie_mv(field, factors[s])
                    term = replaced[0]
                    for factor in replaced[1:]:
                        term = wedge(term, factor)
                    expected = expected + term
                assert lie_mv(field, product) == expected

    def test_lie_mv_derivation_law(self, rng):
        m = 3
        for _ in range(8):
            field = random_multivector(rng, m, 1)
            f = random_polynomial(rng, m)
            mv = random_multivector(rng, m, 2)
            lhs = lie_mv(field, mv * f)
            rhs = mv * apply_vec(field, f) + lie_mv(field, mv) * f
            assert lhs == rhs

    def test_lie_mv_commutator_identity(self, rng):
        # [L_X, L_Y] = L_[X,Y] on multivectors
        m = 3
        for _ in range(5):
            a = random_multivector(rng, m, 1)
            b = random_multivector(rng, m, 1)
            mv = random_multivector(rng, m, 2)
            lhs = lie_mv(a, lie_mv(b, mv)) - lie_mv(b, lie_mv(a, mv))
            assert lhs == lie_mv(lie_mv(a, b), mv)

    def test_lie_form_commutator_identity(self, rng):
        # [L_X, L_Y] = L_[X,Y] on forms: backs the bracket factorizations
        m = 3
        for _ in range(5):
            a = random_multivector(rng, m, 1)
            b = random_multivector(rng, m, 1)
            omega = random_form(rng, m, 2)
            lhs = lie_form(a, lie_form(b, omega)) - lie_form(b, lie_form(a, omega))
            assert lhs == lie_form(lie_mv(a, b), omega)

    def test_lie_form_function_multiple_rules(self, rng):
        # L_{fX} w = f L_X w + df ^ i_X w   and   L_X(f w) = X(f) w + f L_X w
        m = 3
        for _ in range(6):
            field = random_multivector(rng, m, 1)
            f = random_polynomial(rng, m)
            omega = random_form(rng, m, 2)
            assert lie_form(field * f, omega) == lie_form(field, omega) * f + wedge(
                differential(f), contract_vec(field, omega)
            )
            assert lie_form(field, omega * f) == omega * apply_vec(
                field, f
            ) + lie_form(field, omega) * f


class TestTrustedResults:
    """Operation results skip validation, so they must already be canonical."""

    @staticmethod
    def assert_canonical(tensor):
        assert all(not coeff.is_zero() for coeff in tensor.components.values())
        assert type(tensor)(tensor.m, tensor.degree, dict(tensor.components)) == tensor

    def test_results_equal_validated_rebuild(self, rng):
        m = 4
        for _ in range(8):
            one_form = random_form(rng, m, 1)
            field = random_multivector(rng, m, 1)
            results = [
                wedge(one_form, random_form(rng, m, 2)),
                wedge(one_form, one_form),  # every component cancels
                wedge(random_form(rng, m, 3), random_form(rng, m, 2)),  # degree 5 > m
                wedge(random_multivector(rng, m, 2), random_multivector(rng, m, 2)),
                contract_form(one_form, random_multivector(rng, m, 3)),
                contract_form(random_form(rng, m, 2), random_multivector(rng, m, 2)),
                contract_vec(field, random_form(rng, m, 2)),
                differential(random_polynomial(rng, m)),
                ext_d(random_form(rng, m, 2)),
                ext_d(random_form(rng, m, m)),  # degree m + 1
                lie_mv(field, random_multivector(rng, m, 2)),
                lie_mv(field, random_multivector(rng, m, 0)),
                lie_mv(field, field),
                # an accumulated sum cancels at a key
                one_form + (-one_form),
                field - field,
                ext_d(differential(random_polynomial(rng, m))),
                contract_vec(dd(m, 1) + dd(m, 2), dx(m, 1, 3) - dx(m, 2, 3)),
                contract_form(dx(m, 1) + dx(m, 2), dd(m, 1, 3) - dd(m, 2, 3)),
                lie_mv(field, Multivector.from_scalar(Polynomial.constant(m, 5))),
            ]
            for result in results:
                self.assert_canonical(result)

    def test_overflow_wedge_is_exact_zero(self, rng):
        overflow = wedge(random_form(rng, 3, 2), random_form(rng, 3, 2))
        self.assert_canonical(overflow)
        assert overflow.is_zero() and overflow.degree == 4

    def test_differential_drops_zero_partials(self):
        d = differential(x(4, 1) * x(4, 3))
        assert set(d.components) == {(1,), (3,)}
        self.assert_canonical(d)
        assert differential(Polynomial.constant(4, 5)).components == {}


class TestCopies:
    def test_copies_round_trip(self, rng):
        for tensor in (random_form(rng, 4, 2), random_multivector(rng, 4, 3), dd(4, 1)):
            for clone in (
                copy.copy(tensor), copy.deepcopy(tensor), pickle.loads(pickle.dumps(tensor))
            ):
                assert type(clone) is type(tensor)
                assert clone == tensor and hash(clone) == hash(tensor)


class TestApplyVec:
    def test_scaling_field(self):
        assert apply_vec(x(3, 3) * dd(3, 3), x(3, 3)) == x(3, 3)

    def test_constant(self):
        assert apply_vec(dd(3, 1) + dd(3, 2), Polynomial.constant(3, 9)).is_zero()

    def test_sum_field(self):
        field = dd(3, 1) + dd(3, 2)
        assert apply_vec(field, x(3, 1) * x(3, 2)) == x(3, 1) + x(3, 2)

    def test_chart_mismatch(self):
        with pytest.raises(ChartMismatchError):
            apply_vec(dd(3, 1), Polynomial.one(2))
