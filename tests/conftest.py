"""Shared fixtures and seeded random generators.

SEED is the single source of randomness for every randomized suite; the
acceptance module prints it so any run can be reproduced exactly.
"""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import settings

from nambu.exterior import Form, Multivector, contract_form, differential, wedge_all
from nambu.poly import Polynomial
from nambu.structure import NambuStructure

SEED = 20260810

settings.register_profile("suite", derandomize=True, max_examples=60)
settings.load_profile("suite")


@pytest.fixture
def rng() -> random.Random:
    return random.Random(SEED)


def random_polynomial(
    rng: random.Random, m: int, max_degree: int = 3, max_terms: int = 4
) -> Polynomial:
    terms: dict[tuple[int, ...], Fraction] = {}
    for _ in range(rng.randint(1, max_terms)):
        exps = [0] * m
        for _ in range(rng.randint(0, max_degree)):
            exps[rng.randrange(m)] += 1
        coeff = Fraction(rng.randint(-4, 4), rng.choice([1, 1, 1, 2, 3]))
        key = tuple(exps)
        terms[key] = terms.get(key, Fraction(0)) + coeff
    return Polynomial(m, terms)


def random_form(rng: random.Random, m: int, degree: int, density: float = 0.6) -> Form:
    components = {}
    for indices in itertools.combinations(range(1, m + 1), degree):
        if rng.random() < density:
            components[indices] = random_polynomial(rng, m)
    return Form(m, degree, components)


def random_multivector(
    rng: random.Random, m: int, degree: int, density: float = 0.6
) -> Multivector:
    components = {}
    for indices in itertools.combinations(range(1, m + 1), degree):
        if rng.random() < density:
            components[indices] = random_polynomial(rng, m)
    return Multivector(m, degree, components)


def jacobian_nvector(
    rng: random.Random, m: int, n: int
) -> tuple[Multivector, list[Polynomial]]:
    """``i(dF_1 ^ .. ^ dF_{m-n}) d1^..^dm`` for seeded F_k, built without the
    bracket, and the F_k.

    Its bracket is the Jacobian ``{g_1..g_n} = +-det d(F, g)/d(x)``, Nambu-Poisson
    for any F (Takhtajan 1994; Gautheron 1996), and each F_k is a Casimir.
    Each F_k gets a quadratic term, so the n-vector is not constant.
    """
    functions = [
        random_polynomial(rng, m, 3, 3) + x(m, rng.randint(1, m)) * x(m, k)
        for k in range(1, m - n + 1)
    ]
    volume = Multivector.basis(m, tuple(range(1, m + 1)))
    return contract_form(wedge_all([differential(f) for f in functions]), volume), functions


def poisson_r3(rng: random.Random) -> Multivector:
    """``g * i(dF) d1^d2^d3`` for seeded g and F: a Poisson bivector on R^3.

    Its vector field ``v = g grad F`` has ``v . curl v = g grad F . (grad g x
    grad F) = 0``, which is the Jacobi identity on R^3.
    """
    g = random_polynomial(rng, 3, 1, 2)
    f = random_polynomial(rng, 3, 2, 3) + x(3, 1) * x(3, rng.randint(1, 3))
    volume = Multivector.basis(3, (1, 2, 3))
    return contract_form(differential(f), volume) * g


def denominator_lcm(tensor: Multivector) -> int:
    """The lcm of the denominators of a tensor's coefficients."""
    return math.lcm(*(
        Fraction(value).denominator
        for coeff in tensor.components.values()
        for value in coeff.terms.values()
    ))


def x(m: int, i: int) -> Polynomial:
    return Polynomial.variable(m, i)


def dx(m: int, *indices: int) -> Form:
    return Form.basis(m, indices)


def dd(m: int, *indices: int) -> Multivector:
    return Multivector.basis(m, indices)


@pytest.fixture
def scaled_r3() -> NambuStructure:
    """x3 * d1^d2^d3 on a 3-chart: order 3, vanishing on the x3 = 0 plane."""
    return NambuStructure(3, 3, x(3, 3) * Multivector.basis(3, (1, 2, 3)))


@pytest.fixture
def volume_r3() -> NambuStructure:
    """Constant top multivector on a 3-chart (n = m)."""
    return NambuStructure(3, 3, Multivector.basis(3, (1, 2, 3)))


@pytest.fixture
def normal_r4() -> NambuStructure:
    return NambuStructure(4, 3, Multivector.basis(4, (1, 2, 3)))


@pytest.fixture
def normal_r5() -> NambuStructure:
    return NambuStructure(5, 3, Multivector.basis(5, (1, 2, 3)))


@pytest.fixture
def sum_r6() -> NambuStructure:
    """d1^d2^d3 + d4^d5^d6: not integrable, used as the failing fixture."""
    return NambuStructure(
        6, 3, Multivector.basis(6, (1, 2, 3)) + Multivector.basis(6, (4, 5, 6))
    )
