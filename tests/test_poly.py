"""Polynomial kernel: ring laws, calculus, grammar."""

from __future__ import annotations

import copy
import pickle
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from nambu.errors import ChartMismatchError, ParseError
from nambu.poly import (
    Polynomial,
    Rational,
    format_polynomial,
    jet_exponents,
    parse_polynomial,
)

M = 3


def poly_strategy(m: int = M, max_degree: int = 3):
    exponent = st.tuples(*[st.integers(0, max_degree) for _ in range(m)])
    coeff = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))
    return st.dictionaries(exponent, coeff, max_size=5).map(lambda t: Polynomial(m, t))


def x(i: int, m: int = M) -> Polynomial:
    return Polynomial.variable(m, i)


# ints (bools among them) and Fractions, integral or not
scalar_strategy = st.one_of(
    st.integers(-6, 6),
    st.booleans(),
    st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4)),
)


def mixed_poly_strategy(m: int = M, max_degree: int = 3):
    exponent = st.tuples(*[st.integers(0, max_degree) for _ in range(m)])
    return st.dictionaries(exponent, scalar_strategy, max_size=5).map(lambda t: Polynomial(m, t))


def exact_types(p: Polynomial) -> bool:
    """Every coefficient is an int or a Fraction: no float, no bool."""
    return all(type(c) in (int, Fraction) for c in p.terms.values())


class TestConstruction:
    def test_zero_coefficients_pruned(self):
        p = Polynomial(2, {(1, 0): Fraction(0), (0, 1): Fraction(2)})
        assert (1, 0) not in p.terms
        assert p.terms == {(0, 1): Fraction(2)}

    def test_rational_contract(self):
        # the stdlib rational already satisfies the required invariants
        q = Rational(6, -4)
        assert q.denominator > 0
        assert q == Fraction(-3, 2)
        assert Rational(0, 7) == Rational(0, 1)

    def test_wrong_exponent_length_rejected(self):
        with pytest.raises(ChartMismatchError):
            Polynomial(2, {(1, 0, 0): Fraction(1)})

    def test_immutable(self):
        p = Polynomial.one(2)
        with pytest.raises(AttributeError):
            p.num_vars = 5

    def test_copies_round_trip(self):
        p = Fraction(1, 2) * x(1) ** 2 * x(3) - 4
        p.diff(1)  # a filled memo is not part of the value
        for clone in (copy.copy(p), copy.deepcopy(p), pickle.loads(pickle.dumps(p))):
            assert type(clone) is Polynomial
            assert clone == p and hash(clone) == hash(p)
            assert clone.diff(1) == p.diff(1)

    @pytest.mark.parametrize(
        "build",
        [
            lambda: Polynomial(1, {(1,): 0.1}),
            lambda: Polynomial.constant(1, 0.1),
            lambda: Polynomial.monomial((1,), 0.1),
            lambda: Polynomial.constant(1, "1/2"),
        ],
    )
    def test_inexact_scalars_rejected(self, build):
        with pytest.raises(ValueError, match="not an int or a Fraction"):
            build()


class TestArithmetic:
    def test_additive_inverse(self):
        assert (x(1) + 1) + (-x(1)) == Polynomial.one(M)

    def test_additive_identity(self):
        p = x(1) * x(2) - 3
        assert p + Polynomial.zero(M) == p

    def test_like_terms_merge(self):
        p = x(1) * x(2)
        assert p + p == 2 * p

    def test_difference_of_squares(self):
        assert (x(1) + x(2)) * (x(1) - x(2)) == x(1) ** 2 - x(2) ** 2

    def test_multiplicative_identity(self):
        p = x(1) ** 2 - Fraction(1, 2) * x(3)
        assert p * Polynomial.one(M) == p

    def test_absorbing_zero(self):
        p = x(1) ** 2 + 7
        assert (p * Polynomial.zero(M)).is_zero()

    def test_chart_mismatch_raises(self):
        with pytest.raises(ChartMismatchError):
            Polynomial.one(2) + Polynomial.one(3)

    @given(poly_strategy(), poly_strategy(), poly_strategy())
    def test_ring_laws(self, a, b, c):
        assert a + b == b + a
        assert (a + b) + c == a + (b + c)
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c

    @given(poly_strategy(), poly_strategy())
    def test_normalization_is_canonical(self, a, b):
        # equal polynomials have identical stored representations
        if a == b:
            assert a.terms == b.terms
        assert ((a + b) - b).terms == a.terms


class TestCalculus:
    def test_derivative_of_variable(self):
        assert x(3).diff(3) == Polynomial.one(M)

    def test_derivative_power_rule(self):
        assert (x(1) ** 2 * x(2)).diff(1) == 2 * x(1) * x(2)

    def test_derivative_of_absent_variable(self):
        assert x(1).diff(2).is_zero()

    def test_index_out_of_range(self):
        with pytest.raises(ChartMismatchError):
            x(1).diff(4)

    @given(poly_strategy(), poly_strategy(), st.integers(1, M))
    def test_leibniz_rule(self, a, b, i):
        assert (a * b).diff(i) == a * b.diff(i) + b * a.diff(i)

    @given(poly_strategy(), st.integers(1, M), st.integers(1, M))
    def test_mixed_partials_commute(self, a, i, j):
        assert a.diff(i).diff(j) == a.diff(j).diff(i)

    def test_evaluation(self):
        assert x(3).evaluate([0, 0, 5]) == 5
        assert Polynomial.constant(M, 7).evaluate([1, 2, 3]) == 7
        assert (x(1) * x(2)).evaluate([2, 3, 0]) == 6

    def test_evaluation_dimension_mismatch(self):
        with pytest.raises(ChartMismatchError):
            x(1).evaluate([1, 2])

    @given(poly_strategy(), poly_strategy())
    def test_evaluation_is_a_homomorphism(self, a, b):
        point = [Fraction(1, 2), Fraction(-2), Fraction(3)]
        assert (a * b).evaluate(point) == a.evaluate(point) * b.evaluate(point)
        assert (a + b).evaluate(point) == a.evaluate(point) + b.evaluate(point)


class TestGrammar:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("0", Polynomial.zero(M)),
            ("x1", x(1)),
            ("3/4", Polynomial.constant(M, Fraction(3, 4))),
            ("x1^2*x2 - x3", x(1) ** 2 * x(2) - x(3)),
            ("-x1 + 2", 2 - x(1)),
            ("(x1+1)*(x1-1)", x(1) ** 2 - 1),
            ("(x1+1)/2", Fraction(1, 2) * (x(1) + 1)),
            ("2*x1^10", 2 * x(1) ** 10),
        ],
    )
    def test_parse(self, text, expected):
        assert parse_polynomial(text, M) == expected

    @given(poly_strategy())
    def test_print_parse_roundtrip(self, p):
        assert parse_polynomial(format_polynomial(p), M) == p

    def test_canonical_order_is_graded_lexicographic(self):
        p = 1 + x(1) + x(2) ** 2 + x(1) * x(3)
        assert format_polynomial(p) == "x1*x3 + x2^2 + x1 + 1"

    @pytest.mark.parametrize(
        "text",
        ["", "x0", "x4", "x1 +", "1/0", "(x1", "x1^-2", "x1/x2", "y1", "1..2"],
    )
    def test_parse_errors(self, text):
        with pytest.raises(ParseError):
            parse_polynomial(text, M)

    def test_parse_error_carries_location(self):
        with pytest.raises(ParseError) as info:
            parse_polynomial("x1 + x9", M)
        assert "column" in str(info.value)

    def test_deep_nesting_is_a_parse_error(self):
        text = "(" * 5000 + "x1" + ")" * 5000
        with pytest.raises(ParseError) as info:
            parse_polynomial(text, M)
        assert info.value.location == "column 101"

    def test_nesting_within_bound_parses(self):
        assert parse_polynomial("(" * 100 + "x1" + ")" * 100, M) == x(1)

    @pytest.mark.parametrize(
        ("text", "column"),
        [
            ("3^99999999", "column 2"),  # exponent bound
            ("(x1+x2+x3+1)^20", "column 13"),  # C(23, 20) = 1771 terms
            ("(x1+x2+x3+1)^30", "column 13"),
            ("(x1+x2+x3+1)^9*(x1+x2+x3+1)^9", "column 15"),  # 220 * 220 terms
            ("((3^100)^100)^100", "column 14"),  # 1.6 million coefficient bits
        ],
    )
    def test_oversized_power_or_product_is_a_parse_error(self, text, column):
        with pytest.raises(ParseError) as info:
            parse_polynomial(text, M)
        assert info.value.location == column

    def test_powers_within_bounds_parse(self):
        assert len(parse_polynomial("(x1+x2+x3+1)^15", M).terms) == 816
        assert parse_polynomial("x1^100", M) == x(1) ** 100
        assert parse_polynomial("(3^100)^100", M) == Polynomial.constant(M, 3**10000)
        assert parse_polynomial("(x1+1)^0*0^0", M) == Polynomial.one(M)

    def test_integer_literals_are_bounded_in_digits(self):
        assert parse_polynomial("9" * 600, M) == Polynomial.constant(M, 10**600 - 1)
        for text, column in (("2*" + "7" * 601, "column 3"), ("x" + "1" * 5000, "column 2")):
            with pytest.raises(ParseError) as info:
                parse_polynomial(text, M)
            assert info.value.location == column

    def test_coefficients_print_exactly_beyond_the_int_str_limit(self):
        # 3^9000 / 7^6000 has 4,295 + 5,071 digits; printing a coefficient
        # must not depend on the interpreter's int-to-str limit
        coeff = Fraction(3**9000, 7**6000)
        text = format_polynomial(Polynomial.constant(M, coeff) * Polynomial.variable(M, 1))
        numerator, denominator = text.removesuffix("*x1").split("/")
        assert (numerator[:6], len(numerator), len(denominator)) == ("123393", 4295, 5071)
        assert Fraction(_int(numerator), _int(denominator)) == coeff

    def test_long_sign_chain_parses(self):
        assert parse_polynomial("-" * 5001 + "x1", M) == -x(1)


class TestExactCoefficients:
    @given(mixed_poly_strategy())
    def test_integral_coefficients_are_stored_as_int(self, p):
        assert exact_types(p)
        assert all(type(c) is int for c in p.terms.values() if c.denominator == 1)

    @given(
        mixed_poly_strategy(),
        mixed_poly_strategy(),
        scalar_strategy,
        st.integers(0, 3),
        st.integers(1, M),
    )
    def test_operations_keep_coefficients_exact(self, a, b, s, k, i):
        results = [
            a + b, a - b, -a, a * b, a * s, s * a, a + s, s + a, a - s, s - a,
            a**k, a.diff(i), (a * b).diff(i),
        ]
        for p in results:
            assert exact_types(p)

    @pytest.mark.parametrize(
        ("text", "expected"),
        [
            ("x1/2", Fraction(1, 2) * x(1)),
            ("(x1+1)/2", Fraction(1, 2) * (x(1) + 1)),
            ("3/(4/2)", Polynomial.constant(M, Fraction(3, 2))),
            ("6/3*x2", 2 * x(2)),
            ("(x1/3)*3 - 1/(1/x3^0)", x(1) - 1),
            ("-(x1^2 - 4)/2", 2 - Fraction(1, 2) * x(1) ** 2),
        ],
    )
    def test_parsed_coefficients_are_exact(self, text, expected):
        p = parse_polynomial(text, M)
        assert exact_types(p)
        assert p == expected

    @given(poly_strategy())
    def test_parsed_canonical_text_is_exact(self, p):
        assert exact_types(parse_polynomial(format_polynomial(p), M))

    def test_int_and_integral_fraction_coefficients_agree(self):
        # an operation may leave an integral Fraction; it must not matter
        via_fraction = Polynomial.constant(M, Fraction(3, 2)) * x(1) * 2
        via_int = 3 * x(1)
        [stored] = via_fraction.terms.values()
        assert type(stored) is Fraction and type(via_int.terms[(1, 0, 0)]) is int
        assert via_fraction == via_int
        assert hash(via_fraction) == hash(via_int)
        assert len({via_fraction, via_int}) == 1
        assert format_polynomial(via_fraction) == format_polynomial(via_int) == "3*x1"

    @given(mixed_poly_strategy(), st.lists(st.integers(1, M), min_size=1, max_size=6))
    def test_memoised_diff_equals_a_fresh_computation(self, p, indices):
        for i in indices:
            fresh = Polynomial(
                M,
                {
                    e[: i - 1] + (e[i - 1] - 1,) + e[i:]: c * e[i - 1]
                    for e, c in p.terms.items()
                    if e[i - 1]
                },
            )
            first = p.diff(i)
            assert first == fresh
            assert p.diff(i) is first
            assert first.diff(i) == fresh.diff(i)

    def test_memo_leaves_the_polynomial_immutable(self):
        p = x(1) ** 2 * x(2)
        assert p.diff(1) == 2 * x(1) * x(2)
        for name in ("num_vars", "terms", "_hash", "_partials"):
            with pytest.raises(AttributeError):
                setattr(p, name, None)
        assert p.diff(1) == 2 * x(1) * x(2)
        assert p.diff(2) == x(1) ** 2


class TestJetBasis:
    def test_order_is_pinned(self):
        assert jet_exponents(2, 2) == [
            (0, 0),
            (1, 0),
            (0, 1),
            (2, 0),
            (1, 1),
            (0, 2),
        ]

    def test_counts(self):
        # degree <= 3 in 5 variables: C(8, 3) monomials of each degree summed
        assert len(jet_exponents(5, 3)) == 56
        assert len(jet_exponents(3, 3)) == 20


def _int(digits: str) -> int:
    """Exact int of a decimal string of any length, read 500 digits at a time."""
    value = 0
    for start in range(0, len(digits), 500):
        chunk = digits[start : start + 500]
        value = value * 10 ** len(chunk) + int(chunk)
    return value
