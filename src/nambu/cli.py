"""Batch front-end: load a structure file, run verifiers, print reports.

Exit codes: 0 when every requested computation/check succeeds, 1 on input
errors (bad usage, unreadable file, schema violation, bad expression, an
empty check list, a request above a size budget), 2 when a requested check
fails.  Output is deterministic: no timestamps, fixed ordering, canonical
text for every tensor.  ``main`` builds its parser once per process, on its
first call, and reuses it on every later call.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from typing import Callable, Sequence

from .algebroid import (
    lbracket,
    verify_anchor_morphism,
    verify_characterization,
    verify_leibniz_identity,
    verify_phi_morphism,
    verify_sharp_d_identity,
)
from .cohomology import (
    VolumeForm,
    exactness_witness,
    modular_multivector,
    verify_lsv,
    verify_modular_cocycle,
)
from .errors import NambuError, ParseError
from .structure import (
    CheckReport,
    JetBasis,
    check_fundamental_identity,
    check_invariance,
    hamiltonian,
    require_jet_degree,
    sharp,
)
from .textio import (
    format_tensor,
    load_structure_file,
    parse_form,
)
from .poly import parse_polynomial

REPORT_SCHEMA = "nambu-report/1"

_CheckRunner = Callable[[JetBasis, VolumeForm], CheckReport]

CHECKS: dict[str, _CheckRunner] = {
    "fundamental-identity": lambda b, v: check_fundamental_identity(b),
    "invariance": lambda b, v: check_invariance(b),
    "anchor": lambda b, v: verify_anchor_morphism(b),
    "leibniz": lambda b, v: verify_leibniz_identity(b),
    "characterization": lambda b, v: verify_characterization(b),
    "sharp-d": lambda b, v: verify_sharp_d_identity(b),
    "phi-morphism": lambda b, v: verify_phi_morphism(b),
    "lsv": lambda b, v: verify_lsv(b, v),
    "modular-cocycle": lambda b, v: verify_modular_cocycle(b, v),
}

DEFAULT_CHECKS = (
    "fundamental-identity",
    "invariance",
    "anchor",
    "leibniz",
    "characterization",
    "lsv",
    "modular-cocycle",
)

DEFAULT_JET_DEGREE = 3

# The default checks of an order-2 structure: the bracket-level ones.
ORDER2_DEFAULT_CHECKS = ("fundamental-identity", "invariance")

# Size budgets, compared with an estimate before anything is built: the
# jet-basis forms C(m+D, D) * C(m, n-1) of a check and the capped function
# tuples C(C(m+2, 2), n-1) that the fundamental-identity and invariance
# sweeps run over and the exact-forms rule locates a failure on, and the
# monomial columns C(m+D, D) of a witness search.  All admit every shipped
# fixture at jet degree 3 and witness degree 8 with room to spare.
MAX_JET_FORMS = 20_000
MAX_F_TUPLES = 20_000
MAX_WITNESS_COLUMNS = 20_000


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage errors are input errors: exit 1."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(1, f"error: {message}\n")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of ``main``, built on the first call and then reused:
    argparse reads the output streams and the terminal width when it
    prints, not when it is built, so reuse leaves every message the same."""
    parser = _Parser(
        prog="nambu",
        description="Exact verification and computation for Nambu-Poisson "
        "structures given as polynomial structure files.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("file", help="structure file (schema nambu-structure/1)")
        p.add_argument("--json", action="store_true", help="machine-readable output")
        p.add_argument("--quiet", action="store_true", help="suppress stdout")

    p_check = sub.add_parser("check", help="run identity verifiers")
    common(p_check)
    p_check.add_argument(
        "--checks",
        help="comma-separated list of checks "
        f"(available: {', '.join(sorted(CHECKS))}; default: {', '.join(DEFAULT_CHECKS)})",
    )
    p_check.add_argument(
        "--jet-degree", type=int, default=None, help="jet basis degree (>= 2, default 3)"
    )

    p_compute = sub.add_parser("compute", help="evaluate one object exactly")
    common(p_compute)
    p_compute.add_argument(
        "what", choices=("modular", "bracket", "hamiltonian", "sharp")
    )
    p_compute.add_argument(
        "args", nargs="*",
        help="expression arguments; write -- before them when one begins with '-'"
        " (options go before --)",
    )

    p_witness = sub.add_parser(
        "witness", help="search for an exactness witness of the modular class"
    )
    common(p_witness)
    p_witness.add_argument(
        "--max-degree", type=int, default=4, help="witness degree bound (default 4)"
    )
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    options = build_parser().parse_args(argv)
    emit = _Emitter(quiet=options.quiet)
    try:
        loaded = load_structure_file(options.file)
        structure = loaded.structure()
        volume = loaded.volume()
        if options.command == "check":
            return _cmd_check(options, loaded, structure, volume, emit)
        if options.command == "compute":
            return _cmd_compute(options, structure, volume, emit)
        return _cmd_witness(options, structure, volume, emit)
    except (NambuError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


class _Emitter:
    def __init__(self, quiet: bool):
        self.quiet = quiet

    def line(self, text: str = "") -> None:
        if not self.quiet:
            print(text)

    def json(self, payload: dict) -> None:
        if not self.quiet:
            print(json.dumps(payload, indent=2))


def _resolve_degree(options, loaded, structure) -> int:
    degree, source = options.jet_degree, "--jet-degree"
    if degree is None:
        degree, source = loaded.jet_degree, "$.jet_degree"
    if degree is None:
        degree, source = DEFAULT_JET_DEGREE, "default jet degree"
    try:
        require_jet_degree(degree)
    except ValueError as exc:
        raise ParseError(f"{source} {degree}: {exc}") from None
    m, n = structure.m, structure.n
    forms = math.comb(m + degree, degree) * math.comb(m, n - 1)
    _check_budget(source, degree, forms, MAX_JET_FORMS, "jet-basis forms")
    f_tuples = math.comb(math.comb(m + 2, 2), n - 1)
    _check_budget("$.order", n, f_tuples, MAX_F_TUPLES, "capped function tuples")
    return degree


def _check_budget(source: str, value: int, estimate: int, budget: int, what: str) -> None:
    if estimate > budget:
        raise ParseError(
            f"{source} {value} needs {estimate:,} {what}, above the budget of {budget:,}"
        )


def _resolve_checks(options, loaded, structure) -> list[str]:
    """The checks to run; an unknown name is refused with its source."""
    if getattr(options, "checks", None) is not None:
        names = [name.strip() for name in options.checks.split(",") if name.strip()]
        if not names:
            raise ParseError("--checks names no check")
        sources = ["--checks"] * len(names)
    elif loaded.checks is not None:
        names = list(loaded.checks)
        sources = [f"$.checks[{i}]" for i in range(len(names))]
    else:
        return list(DEFAULT_CHECKS if structure.n >= 3 else ORDER2_DEFAULT_CHECKS)
    for name, source in zip(names, sources):
        if name not in CHECKS:
            raise ParseError(
                f"unknown check {name!r} (available: {', '.join(sorted(CHECKS))})", source
            )
    return names


def _cmd_check(options, loaded, structure, volume, emit: _Emitter) -> int:
    degree = _resolve_degree(options, loaded, structure)
    names = _resolve_checks(options, loaded, structure)
    basis = JetBasis(structure, degree)
    reports = [CHECKS[name](basis, volume) for name in names]
    failed = [r for r in reports if not r.passed]
    exit_code = 2 if failed else 0
    if options.json:
        emit.json(
            {
                "schema": REPORT_SCHEMA,
                "command": "check",
                "jet_degree": basis.max_degree,
                "results": [_report_dict(r) for r in reports],
                "exit": exit_code,
            }
        )
        return exit_code
    for report in reports:
        if report.passed:
            emit.line(f"{report.check}: pass (tuples certified: {report.items_checked})")
        else:
            emit.line(f"{report.check}: FAIL")
            emit.line(f"  inputs: {' | '.join(report.counterexample.inputs)}")
            emit.line(f"  residual: {report.counterexample.residual}")
    emit.line(f"result: {'fail' if failed else 'pass'}")
    return exit_code


def _report_dict(report: CheckReport) -> dict:
    counterexample = None
    if report.counterexample is not None:
        counterexample = {
            "inputs": list(report.counterexample.inputs),
            "residual": report.counterexample.residual,
        }
    return {
        "check": report.check,
        "verdict": report.verdict,
        "items_checked": report.items_checked,
        "counterexample": counterexample,
    }


def _cmd_compute(options, structure, volume, emit: _Emitter) -> int:
    what = options.what
    args = options.args
    m, n = structure.m, structure.n
    if what == "modular":
        _expect_args(what, args, 0)
        result = format_tensor(modular_multivector(structure, volume))
    elif what == "sharp":
        _expect_args(what, args, 1)
        alpha = parse_form(args[0], m, n - 1)
        result = format_tensor(sharp(structure, alpha))
    elif what == "bracket":
        _expect_args(what, args, 2)
        alpha = parse_form(args[0], m, n - 1)
        beta = parse_form(args[1], m, n - 1)
        result = format_tensor(lbracket(structure, alpha, beta))
    else:  # hamiltonian
        _expect_args(what, args, n - 1)
        functions = [parse_polynomial(text, m) for text in args]
        result = format_tensor(hamiltonian(structure, functions))
    if options.json:
        emit.json(
            {
                "schema": REPORT_SCHEMA,
                "command": "compute",
                "what": what,
                "args": list(args),
                "result": result,
                "exit": 0,
            }
        )
    else:
        emit.line(result)
    return 0


def _expect_args(what: str, args: Sequence[str], count: int) -> None:
    if len(args) != count:
        raise ParseError(f"compute {what} takes exactly {count} argument(s), got {len(args)}")


def _cmd_witness(options, structure, volume, emit: _Emitter) -> int:
    if options.max_degree < 0:
        raise ParseError("--max-degree must be non-negative")
    degree = options.max_degree
    columns = math.comb(structure.m + degree, degree)
    _check_budget("--max-degree", degree, columns, MAX_WITNESS_COLUMNS, "witness columns")
    report = exactness_witness(structure, volume, degree)
    if options.json:
        emit.json(
            {
                "schema": REPORT_SCHEMA,
                "command": "witness",
                "max_degree": report.search_degree,
                "feasible": report.feasible,
                "witness": str(report.witness) if report.witness is not None else None,
                "obstruction": report.obstruction,
                "degree_uniform": report.degree_uniform,
                "smooth_obstruction": report.smooth_obstruction,
                "exit": 0,
            }
        )
        return 0
    if report.feasible:
        emit.line(f"feasible: witness = {report.witness}")
    else:
        emit.line(f"infeasible at max degree {report.search_degree}")
        if report.obstruction is not None:
            emit.line(f"obstruction: {report.obstruction}")
        if report.degree_uniform:
            emit.line(
                "the obstruction is degree-uniform: no polynomial f of any "
                "degree satisfies the displayed equation"
            )
        if report.smooth_obstruction:
            emit.line(
                "no smooth f satisfies it either: the left side vanishes "
                "where an obstructing variable is zero, the right side does not"
            )
    return 0


if __name__ == "__main__":
    sys.exit(main())
