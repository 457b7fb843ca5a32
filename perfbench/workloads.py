"""Seeded inputs for the three benchmark workloads, each with its known answer.

Every structure is generated here as exact data (exponent vector -> Fraction
maps), written to a structure file, and labelled by the benchmark's own
mathematics, never by the program under test:

* For order n >= 3 a Nambu-Poisson tensor is decomposable wherever it is
  nonzero (Gautheron 1996).  ``decomposable_at`` evaluates the n-vector at a
  seeded rational point and tests decomposability through the dimension of
  its divisor space {v : v ^ P = 0}, which equals n exactly when P != 0 is
  decomposable (equivalent to the Plucker relations).  A structure that is
  not decomposable at the point cannot satisfy the fundamental identity, so
  ``fundamental-identity`` and ``invariance`` must fail; ``f * coordinate
  blade`` is Nambu-Poisson for every f, so every check must pass.
* A constant coordinate blade d1^d2^d3 with volume ``e^p`` has modular
  multivector ``cobound0(p)``, so ``p`` is a witness, unique up to a function
  of x4..xm.  No witness of degree <= D exists when the top-degree part of p
  involves x1..x3 and has degree D + 1.

Default seed 20260810 is the seed of the repository's randomized tests.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

DEFAULT_SEED = 20260810
JET = "--jet-degree=3"
WITNESS_DEGREES = (4, 6, 8)
DEFAULT_CHECKS = (
    "fundamental-identity",
    "invariance",
    "anchor",
    "leibniz",
    "characterization",
    "lsv",
    "modular-cocycle",
)
FAIL_CHECKS = ("fundamental-identity", "invariance", "anchor", "sharp-d", "leibniz")
WORKLOADS = ("check-pass", "check-fail", "witness")

# poly: exponent vector -> nonzero Fraction
Poly = dict


@dataclass
class Structure:
    name: str
    m: int
    n: int
    components: dict  # increasing index tuple -> Poly
    exponent: Poly | None = None  # volume e^p; None omits the volume entry

    def document(self) -> dict:
        doc = {
            "schema": "nambu-structure/1",
            "dimension": self.m,
            "order": self.n,
            "lambda": [
                {"index": list(index), "coeff": poly_text(coeff)}
                for index, coeff in sorted(self.components.items())
            ],
        }
        if self.exponent is not None:
            doc["volume"] = {"constant": "1", "exponent": poly_text(self.exponent)}
        return doc


@dataclass
class Job:
    """One CLI invocation; ``FILE`` in ``argv`` stands for the structure path."""

    id: str
    structure: str
    argv: list
    expect: dict = field(default_factory=dict)


# -- exact polynomial data ------------------------------------------------------


def poly_text(poly: Poly) -> str:
    """Text in the program's polynomial grammar (any term order parses)."""
    text = ""
    for exps, coeff in sorted(poly.items(), reverse=True):
        factors = [f"x{i}^{e}" if e > 1 else f"x{i}" for i, e in enumerate(exps, 1) if e]
        magnitude = abs(coeff)
        body = "*".join(factors if factors and magnitude == 1 else [str(magnitude)] + factors)
        sign = "-" if coeff < 0 else "+"
        text = (f"{text} {sign} {body}" if text else f"-{body}" if coeff < 0 else body)
    return text or "0"


def evaluate(poly: Poly, point) -> Fraction:
    total = Fraction(0)
    for exps, coeff in poly.items():
        term = coeff
        for value, e in zip(point, exps):
            term *= value**e
        total += term
    return total


def _constant(m: int) -> Poly:
    return {(0,) * m: Fraction(1)}


def _variable(m: int, i: int) -> Poly:
    return {tuple(int(j == i) for j in range(1, m + 1)): Fraction(1)}


def _rational(rng: random.Random) -> Fraction:
    value = Fraction(rng.randint(1, 9), rng.choice((1, 1, 2, 3, 4)))
    return -value if rng.random() < 0.4 else value


def monomial(text: str, m: int) -> tuple:
    """Exponent vector of a monomial written like ``x1^2*x3`` (``1`` for none)."""
    exps = [0] * m
    for factor in text.split("*"):
        if factor != "1":
            var, _, power = factor.partition("^")
            exps[int(var[1:]) - 1] += int(power or 1)
    return tuple(exps)


def seeded_poly(rng: random.Random, m: int, support: str) -> Poly:
    """Seeded nonzero rational values on a fixed support such as ``"x1*x2 + 1"``.

    Costs of the sweeps and searches depend on where residuals vanish, that is
    on the supports; keeping supports fixed and seeding the values makes every
    seed cost the same while changing every number the program computes.
    """
    return {monomial(term.strip(), m): _rational(rng) for term in support.split("+")}


# -- decomposability oracle -----------------------------------------------------


def _rank(rows: list) -> int:
    rows = [list(r) for r in rows if any(r)]
    rank, col = 0, 0
    width = len(rows[0]) if rows else 0
    while rank < len(rows) and col < width:
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            col += 1
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for r in range(rank + 1, len(rows)):
            if rows[r][col]:
                factor = rows[r][col] / rows[rank][col]
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
        col += 1
    return rank


def decomposable_at(structure: Structure, point) -> bool:
    """Is the n-vector, evaluated at ``point``, a wedge of n vectors?"""
    m, n = structure.m, structure.n
    values = {i: evaluate(c, point) for i, c in structure.components.items()}
    values = {i: v for i, v in values.items() if v}
    if not values:
        return True
    # Matrix of v -> v ^ P: rows are (n+1)-subsets S, columns basis vectors j.
    rows = []
    for subset in itertools.combinations(range(1, m + 1), n + 1):
        row = []
        for j in range(1, m + 1):
            if j not in subset:
                row.append(Fraction(0))
                continue
            position = subset.index(j)  # e_j ^ e_rest = (-1)^position e_S
            value = values.get(tuple(i for i in subset if i != j), Fraction(0))
            row.append(-value if position % 2 else value)
        rows.append(row)
    return m - _rank(rows) == n


def _point(rng: random.Random, m: int) -> list:
    return [Fraction(rng.randint(1, 7), rng.randint(1, 5)) * rng.choice((1, -1))
            for _ in range(m)]


def label_fi(structure: Structure, rng: random.Random, intended: str) -> str:
    """Expected fundamental-identity verdict from the decomposability oracle.

    One seeded point where the n-vector is not decomposable proves a failure;
    a structure decomposable at all eight points is labelled pass.  The label
    must agree with the class the generator intended.
    """
    points = [_point(rng, structure.m) for _ in range(8)]
    verdict = "pass" if all(decomposable_at(structure, p) for p in points) else "fail"
    if verdict != intended:
        raise ValueError(f"{structure.name}: oracle labels it {verdict}, "
                         f"generated as {intended}")
    return verdict


# -- shipped fixtures (copies of fixtures/*.json) ----------------------------------


def _fixtures() -> dict:
    return {
        "r3_scaled": Structure("r3_scaled", 3, 3, {(1, 2, 3): _variable(3, 3)}, {}),
        "r4_normal_form": Structure("r4_normal_form", 4, 3, {(1, 2, 3): _constant(4)}),
        "r5_normal_form": Structure("r5_normal_form", 5, 3, {(1, 2, 3): _constant(5)}),
        "r6_nonexample": Structure(
            "r6_nonexample", 6, 3, {(1, 2, 3): _constant(6), (4, 5, 6): _constant(6)}
        ),
    }


# -- workloads ------------------------------------------------------------------


def _scaled_blade(rng: random.Random, name: str, m: int, blade, support: str) -> Structure:
    return Structure(name, m, 3, {blade: seeded_poly(rng, m, support)})


def _two_blades(rng: random.Random, name: str) -> Structure:
    """c1 * d1^d2^d3 + c2 * d3^d4^d5: two blades sharing one index."""
    return Structure(name, 5, 3, {
        (1, 2, 3): seeded_poly(rng, 5, "x2*x5 + x4 + 1"),
        (3, 4, 5): seeded_poly(rng, 5, "x3^2 + x1 + 1"),
    })


def _planted(rng: random.Random, name: str, m: int, degree: int) -> Structure:
    """Constant d1^d2^d3 with volume exponent p of exact ``degree``.

    The top term of p involves x1..x3, so no witness of lower degree exists;
    the x4 and x_m terms lie in the kernel and may be dropped by the solver.
    """
    support = f"x1^{degree - 2}*x2*x3 + x1*x{m} + x2^2 + x3 + x4 + 1"
    return Structure(name, m, 3, {(1, 2, 3): _constant(m)},
                     seeded_poly(rng, m, support))


def _check_jobs(structures, checks, rng, intended: str) -> list:
    argv_tail = [JET] if checks is None else [JET, "--checks=" + ",".join(checks)]
    names = checks or DEFAULT_CHECKS
    jobs = []
    for s in structures:
        fi = label_fi(s, rng, intended)
        if fi == "pass":
            verdicts = {check: "pass" for check in names}
        else:
            verdicts = {"fundamental-identity": "fail", "invariance": "fail"}
        jobs.append(Job(
            id=s.name, structure=s.name, argv=["check", "FILE", *argv_tail],
            expect={"kind": "check", "exit": 0 if fi == "pass" else 2,
                    "checks": list(names), "verdicts": verdicts},
        ))
    return jobs


def build(workload: str, seed: int, tiny: bool = False):
    """Structures and jobs of one workload.  ``tiny`` keeps the cheapest jobs."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}:{seed}")
    fixtures = _fixtures()
    if workload == "check-pass":
        structures = [
            _scaled_blade(rng, "seeded-m3-a", 3, (1, 2, 3), "x1^2*x2 + x1*x3 + x2 + 1"),
            _scaled_blade(rng, "seeded-m3-b", 3, (1, 2, 3), "x1*x2*x3 + x3^2 + x1"),
            _scaled_blade(rng, "seeded-m4", 4, (1, 3, 4), "x1*x3*x4 + x2^2 + x4 + 1"),
        ]
        structures = structures[:1] if tiny else [
            fixtures["r3_scaled"], fixtures["r4_normal_form"], *structures]
        return structures, _check_jobs(structures, None, rng, "pass")
    if workload == "check-fail":
        structures = [_two_blades(rng, "seeded-m5-a"), _two_blades(rng, "seeded-m5-b")]
        structures = structures[:1] if tiny else [fixtures["r6_nonexample"], *structures]
        return structures, _check_jobs(structures, FAIL_CHECKS, rng, "fail")
    structures, jobs = [fixtures["r3_scaled"], fixtures["r5_normal_form"]], []
    degrees = WITNESS_DEGREES[:1] if tiny else WITNESS_DEGREES
    for degree in degrees:
        argv = ["witness", "FILE", f"--max-degree={degree}"]
        jobs.append(Job(f"r3_scaled@{degree}", "r3_scaled", argv,
                        {"kind": "witness", "feasible": False, "obstruction": True}))
        jobs.append(Job(f"r5_normal_form@{degree}", "r5_normal_form", argv,
                        {"kind": "witness", "feasible": True, "planted": "0", "m": 5}))
        for m in (4, 5):
            if m == 5 and degree == 8:
                continue  # one m=5, D=8 solve (r5_normal_form) is enough
            for feasible, deg_p in ((True, degree - 1), (False, degree + 1)):
                s = _planted(rng, f"planted-m{m}-d{deg_p}-at{degree}", m, deg_p)
                structures.append(s)
                expect = {"kind": "witness", "feasible": feasible, "obstruction": False}
                if feasible:
                    expect.update(planted=poly_text(s.exponent), m=m)
                jobs.append(Job(s.name, s.name, argv, expect))
    return structures, jobs


def write(structures, directory: Path) -> dict:
    """Write structure files; returns name -> path."""
    paths = {}
    for s in structures:
        path = directory / f"{s.name}.json"
        path.write_text(json.dumps(s.document(), indent=2) + "\n", encoding="utf-8")
        paths[s.name] = str(path)
    return paths
