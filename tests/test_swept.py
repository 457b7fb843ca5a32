"""Sweeps on the integral multiple ``c * lam`` of the n-vector.

Every scan runs on ``JetBasis.swept``, the structure of ``c * lam`` with c
the lcm of the coefficient denominators, and every report is computed on
lam.  That is exact because each residual is homogeneous in lam:
``R(c lam) = c^k R(lam)``.  These tests pin the homogeneity of every direct
residual, and that the reports do not depend on which multiple is swept.
"""

from __future__ import annotations

from fractions import Fraction

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
    sharp_d_residual,
)
from nambu.cli import CHECKS
from nambu.cohomology import (
    VolumeForm, cobound1_eval, cocycle_defect, lsv_residual, modular_multivector,
)
from nambu.exterior import Multivector
from nambu.structure import (
    JetBasis, NambuStructure, fi_residual, hamiltonian, invariance_defect, nbracket, sharp,
)

from conftest import denominator_lcm, random_form, random_multivector, random_polynomial, x


def rational_structure(rng, m: int, n: int) -> NambuStructure:
    """A seeded n-vector with at least one non-integral coefficient."""
    while True:
        nvector = random_multivector(rng, m, n, 0.5)
        if denominator_lcm(nvector) > 1:
            return NambuStructure(m, n, nvector)


def phi_residual(structure, fs, gs):
    left, right = FormalWedge.single(fs), FormalWedge.single(gs)
    value = phi(fbracket_prime(structure, left, right))
    return value - lbracket(structure, phi(left), phi(right))


def modular_cobound1(structure, volume, alpha, beta):
    return cobound1_eval(structure, modular_multivector(structure, volume), alpha, beta)


def modular_cocycle_defect(structure, volume, alpha):
    return cocycle_defect(structure, modular_multivector(structure, volume), alpha)


def nonzero_form(rng, m, degree):
    form = random_form(rng, m, degree, 0.4)
    return form if form.components else random_form(rng, m, degree, 1.0)


@pytest.mark.parametrize("m,n", [(4, 3), (5, 3), (5, 4)])
def test_direct_residuals_are_homogeneous_in_lam(rng, m, n):
    # k = 2 for the integrability residuals and the modular cocycle, k = 1
    # for characterization's rules, exact forms, phi-morphism and lsv.  The
    # k = 1 residuals vanish for every n-vector, so the operations they are
    # built from, each of degree 1, are checked as well.
    volume = VolumeForm(Fraction(3, 2), random_polynomial(rng, m))
    nonzero = set()
    for _ in range(3):
        structure = rational_structure(rng, m, n)
        swept = structure.integral_multiple()
        c = denominator_lcm(structure.nvector)
        assert c > 1 and swept.nvector == structure.nvector * c
        # a coordinate in each entry keeps the Hamiltonian field nonzero
        fs = [random_polynomial(rng, m) + x(m, i) for i in range(1, n)]
        gs = [random_polynomial(rng, m) + x(m, i) for i in range(2, n + 2)]
        a, b, e = (nonzero_form(rng, m, n - 1) for _ in range(3))
        f = random_polynomial(rng, m)
        cases = [
            (2, fi_residual, (fs, gs)),
            (2, invariance_defect, (fs,)),
            (2, anchor_residual, (a, b)),
            (2, sharp_d_residual, (a, b)),
            (2, leibniz_residual, (a, b, e)),
            (2, modular_cobound1, (volume, a, b)),
            (2, modular_cocycle_defect, (volume, a)),
            (1, exact_forms_residual, (fs, gs[1:])),
            (1, function_slot1_residual, (f, a, b)),
            (1, function_slot2_residual, (a, f, b)),
            (1, phi_residual, (fs, gs[1:])),
            (1, lsv_residual, (volume, a)),
            (1, nbracket, (gs,)),
            (1, hamiltonian, (fs,)),
            (1, sharp, (a,)),
            (1, lbracket, (a, b)),
            (1, modular_multivector, (volume,)),
        ]
        for k, residual, args in cases:
            value = residual(structure, *args)
            assert residual(swept, *args) == value * c**k, residual.__name__
            if not value.is_zero():
                nonzero.add(residual.__name__)
    assert nonzero == {
        "fi_residual", "invariance_defect", "anchor_residual", "sharp_d_residual",
        "leibniz_residual", "modular_cobound1", "modular_cocycle_defect", "nbracket",
        "hamiltonian", "sharp", "lbracket", "modular_multivector",
    }


def test_integral_structure_is_swept_as_itself(normal_r4, scaled_r3):
    for structure in (normal_r4, scaled_r3):
        assert JetBasis(structure, 2).swept is structure


def _all_reports(structure, volume):
    basis = JetBasis(structure, 2)
    return basis, [CHECKS[name](basis, volume) for name in CHECKS]


def _structures(rng):
    # f * blade is Nambu-Poisson for every f, so every check passes; the
    # sum of two blades and the random n-vectors fail
    m = 4
    blade = Multivector.basis(m, (1, 2, 4))
    yield NambuStructure(m, 3, blade * (Fraction(1, 2) - Fraction(2, 3) * x(m, 1) * x(m, 3)))
    yield NambuStructure(5, 3, Multivector.basis(5, (2, 3, 5)) * Fraction(-7, 4))
    yield NambuStructure(
        5, 3,
        Multivector.basis(5, (1, 2, 3)) * Fraction(1, 3)
        + Multivector.basis(5, (3, 4, 5)) * (x(5, 2) * Fraction(3, 2) + 1),
    )
    for m, n in ((4, 3), (5, 3), (5, 4)):
        yield rational_structure(rng, m, n)


def test_reports_equal_those_of_sweeping_lam_itself(monkeypatch, rng):
    verdicts = set()
    for structure in _structures(rng):
        volume = VolumeForm(Fraction(3, 2), x(structure.m, 2) * Fraction(1, 3))
        basis, reports = _all_reports(structure, volume)
        assert basis.swept is not structure
        for coeff in basis.swept.nvector.components.values():
            assert all(type(value) is int for value in coeff.terms.values())
        with monkeypatch.context() as patch:
            patch.setattr(NambuStructure, "integral_multiple", lambda self: self)
            assert _all_reports(structure, volume)[1] == reports
        verdicts.update(report.passed for report in reports)
    assert verdicts == {True, False}
