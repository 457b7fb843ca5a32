"""Acceptance gate: one test per criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines;
every tolerance is exact equality in the polynomial ring.  Randomized suites
use the fixed seed recorded in ``conftest.SEED`` and printed below.
"""

from __future__ import annotations

import random
import time

from nambu.algebroid import (
    lbracket,
    skew_defect,
    verify_anchor_morphism,
    verify_characterization,
    verify_leibniz_identity,
    verify_phi_morphism,
)
from nambu.cohomology import (
    VolumeForm,
    cobound0,
    cobound1_eval,
    exactness_witness,
    modular_multivector,
    verify_lsv,
    verify_modular_cocycle,
    verify_volume_change,
)
from nambu.exterior import (
    Form,
    Multivector,
    ext_d,
    lie_form,
    lie_mv,
    wedge,
)
from nambu.poly import Polynomial
from nambu.structure import (
    JetBasis,
    NambuStructure,
    check_fundamental_identity,
    fi_residual,
    hamiltonian,
    nbracket,
)
from nambu.textio import format_tensor

from conftest import SEED, random_form, random_multivector, random_polynomial, x


def _verdict(number: int, passed: bool, description: str) -> None:
    print(f"ACCEPTANCE {number}: {'PASS' if passed else 'FAIL'} - {description}")
    assert passed


def test_criterion_1_golden_values(scaled_r3):
    nu = VolumeForm.standard(3)
    ok = (
        format_tensor(hamiltonian(scaled_r3, [x(3, 1), x(3, 2)])) == "x3*d3"
        and format_tensor(hamiltonian(scaled_r3, [x(3, 1), x(3, 3)])) == "-x3*d2"
        and format_tensor(hamiltonian(scaled_r3, [x(3, 2), x(3, 3)])) == "x3*d1"
        and format_tensor(modular_multivector(scaled_r3, nu)) == "d1^d2"
    )
    _verdict(1, ok, "Hamiltonian fields and modular bivector, byte-exact")


def test_criterion_2_fundamental_identity(scaled_r3, normal_r5, sum_r6):
    ok = True
    for structure, expected in ((scaled_r3, True), (normal_r5, True)):
        start = time.monotonic()
        report = check_fundamental_identity(JetBasis(structure, 3))
        elapsed = time.monotonic() - start
        ok = ok and report.passed is expected and elapsed < 10.0
    start = time.monotonic()
    failing = check_fundamental_identity(JetBasis(sum_r6, 3))
    elapsed = time.monotonic() - start
    ok = ok and not failing.passed and elapsed < 10.0
    ok = ok and failing.counterexample is not None
    if ok:
        # the printed tuple must reproduce its residual through the direct
        # nested-bracket evaluation
        from nambu.poly import parse_polynomial

        inputs = [parse_polynomial(t, 6) for t in failing.counterexample.inputs]
        residual = fi_residual(sum_r6, inputs[:2], inputs[2:])
        ok = str(residual) == failing.counterexample.residual and not residual.is_zero()
    _verdict(2, ok, "fundamental identity verifier at jet degree 3, < 10 s each")


def test_criterion_3_algebroid_sweeps(scaled_r3, volume_r3, normal_r4, normal_r5):
    fixtures = (scaled_r3, volume_r3, normal_r4, normal_r5)
    ok = all(verify_anchor_morphism(JetBasis(s, 3)).passed for s in fixtures)
    ok = ok and all(verify_leibniz_identity(JetBasis(s, 3)).passed for s in fixtures)
    # coboundary-squared sweep: d1(d0 f) = 0 over jet pairs on each fixture
    for structure in fixtures:
        basis = JetBasis(structure, 2)
        cochain = cobound0(structure, x(structure.m, 1) * x(structure.m, 2))
        for g, left in basis.elements():
            alpha = basis.form(g, left)
            for right in basis.index_sets:
                value = cobound1_eval(
                    structure, cochain, alpha, Form.basis(structure.m, right)
                )
                ok = ok and value.is_zero()
    _verdict(3, ok, "anchor morphism, Leibniz identity, and d1(d0) = 0 sweeps")


def test_criterion_4_skew_dichotomy(normal_r4, volume_r3):
    alpha = Form.basis(4, (3, 4))
    beta = x(4, 1) * Form.basis(4, (1, 2))
    ok = lbracket(normal_r4, alpha, beta).is_zero()
    ok = ok and lbracket(normal_r4, beta, alpha) == Form.basis(4, (1, 4))
    # top-order case: the defect sweeps to zero over unordered jet pairs
    basis = JetBasis(volume_r3, 3)
    elements = list(basis.elements())
    for i, (g1, left) in enumerate(elements):
        for g2, right in elements[i:]:
            defect = skew_defect(
                volume_r3, basis.form(g1, left), basis.form(g2, right)
            )
            ok = ok and defect.is_zero()
    _verdict(4, ok, "bracket asymmetry on the 4-chart, skew sweep at top order")


def test_criterion_5_volume_identities(scaled_r3):
    nu = VolumeForm.standard(3)
    ok = verify_lsv(JetBasis(scaled_r3, 3), nu).passed
    ok = ok and verify_modular_cocycle(JetBasis(scaled_r3, 3), nu).passed
    ok = ok and verify_volume_change(scaled_r3, nu, x(3, 1)).passed
    shifted = modular_multivector(scaled_r3, nu.rescaled(x(3, 1)))
    expected = Multivector.basis(3, (1, 2)) + x(3, 3) * Multivector.basis(3, (2, 3))
    ok = ok and shifted == expected
    ok = ok and modular_multivector(scaled_r3, nu) + cobound0(scaled_r3, x(3, 1)).w == expected
    _verdict(5, ok, "volume identity, modular cocycle, and volume-change shift")


def test_criterion_6_modular_class(volume_r3, scaled_r3):
    nu = VolumeForm.standard(3)
    ok = modular_multivector(volume_r3, nu).is_zero()
    report = exactness_witness(volume_r3, nu, 2)
    ok = ok and report.feasible and report.witness == Polynomial.zero(3)
    for degree in range(0, 9):
        obstructed = exactness_witness(scaled_r3, nu, degree)
        ok = (
            ok
            and not obstructed.feasible
            and obstructed.degree_uniform
            and obstructed.obstruction == "x3*df/dx3 = 1"
        )
    _verdict(6, ok, "volume structure is exact with witness 0; scaled structure "
                    "obstructed by x3*df/dx3 = 1 up to degree 8")


def test_criterion_7_property_suites(scaled_r3):
    print(f"randomized suites seed = {SEED}")
    rng = random.Random(SEED)
    ok = True
    # polynomial ring laws
    for _ in range(40):
        a = random_polynomial(rng, 3)
        b = random_polynomial(rng, 3)
        c = random_polynomial(rng, 3)
        ok = ok and a + b == b + a and (a + b) + c == a + (b + c)
        ok = ok and a * b == b * a and (a * b) * c == a * (b * c)
        ok = ok and a * (b + c) == a * b + a * c
        i = rng.randint(1, 3)
        ok = ok and (a * b).diff(i) == a * b.diff(i) + b * a.diff(i)
    # exterior-algebra laws
    for _ in range(30):
        m = 4
        deg_a, deg_b = rng.choice([(1, 1), (1, 2), (2, 2)])
        fa = random_form(rng, m, deg_a)
        fb = random_form(rng, m, deg_b)
        ok = ok and wedge(fa, fb) == wedge(fb, fa) * ((-1) ** (deg_a * deg_b))
        omega = random_form(rng, m, rng.choice([0, 1, 2]))
        ok = ok and ext_d(ext_d(omega)).is_zero()
        field = random_multivector(rng, m, 1)
        ok = ok and lie_form(field, ext_d(omega)) == ext_d(lie_form(field, omega))
        factors = [random_multivector(rng, m, 1) for _ in range(2)]
        product = wedge(factors[0], factors[1])
        expected = wedge(lie_mv(field, factors[0]), factors[1]) + wedge(
            factors[0], lie_mv(field, factors[1])
        )
        ok = ok and lie_mv(field, product) == expected
    # bracket skew-symmetry and Leibniz rule
    for _ in range(30):
        fs = [random_polynomial(rng, 3) for _ in range(3)]
        g = random_polynomial(rng, 3)
        base = nbracket(scaled_r3, fs)
        ok = ok and nbracket(scaled_r3, [fs[1], fs[0], fs[2]]) == -base
        ok = ok and nbracket(scaled_r3, [fs[0], fs[1], fs[1]]).is_zero()
        lhs = nbracket(scaled_r3, [fs[0] * g, fs[1], fs[2]])
        rhs = fs[0] * nbracket(scaled_r3, [g, fs[1], fs[2]]) + g * base
        ok = ok and lhs == rhs
    _verdict(7, ok, "randomized exterior, ring, and bracket law suites, seed recorded")


def test_criterion_8_exact_forms_rule_at_top_degree():
    # x1 * d1^..^d5: order m = n = 5 at the default jet degree, where the
    # exact-forms sweep has C(21, 4) capped f-tuples and 5 coordinate ones.
    structure = NambuStructure(5, 5, x(5, 1) * Multivector.basis(5, (1, 2, 3, 4, 5)))
    ok = True
    for verify in (verify_characterization, verify_phi_morphism):
        start = time.monotonic()
        report = verify(JetBasis(structure, 3))
        ok = ok and report.passed and time.monotonic() - start < 10.0
    _verdict(8, ok, "characterization and phi-morphism at m = n = 5, < 10 s each")
