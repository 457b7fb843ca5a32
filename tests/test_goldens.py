"""Byte-for-byte goldens of ``nambu check`` and ``nambu witness`` on the
committed fixtures.

The goldens in ``tests/goldens/check.json`` and
``tests/goldens/witness.json`` were recorded with
``tests/goldens/record.py``; any change to a verdict, a counterexample,
``items_checked``, a witness or the output format shows up here as a diff.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest

GOLDENS = Path(__file__).with_name("goldens")
sys.path.insert(0, str(GOLDENS))
from record import GOLDEN, WITNESS_GOLDEN, run_check, run_witness  # noqa: E402

CASES = json.loads(GOLDEN.read_text(encoding="utf-8"))
WITNESS_CASES = json.loads(WITNESS_GOLDEN.read_text(encoding="utf-8"))


def _case_id(case: dict) -> str:
    checks = case["args"][-1].removeprefix("--checks=")
    return f"{case['fixture']}-{checks}-{'json' if '--json' in case['args'] else 'text'}"


@pytest.mark.parametrize("case", CASES, ids=[_case_id(c) for c in CASES])
def test_check_output_matches_golden(case):
    code, stdout = run_check(case["fixture"], case["args"])
    assert stdout == case["stdout"]
    assert code == case["exit"]


def _witness_case_id(case: dict) -> str:
    planted = "-planted" if case["exponent"] is not None else ""
    degree = case["args"][-1].removeprefix("--max-degree=")
    return f"{case['fixture']}{planted}-D{degree}-{'json' if '--json' in case['args'] else 'text'}"


@pytest.mark.parametrize(
    "case", WITNESS_CASES, ids=[_witness_case_id(c) for c in WITNESS_CASES]
)
def test_witness_output_matches_golden(case):
    code, stdout = run_witness(case["fixture"], case["exponent"], case["args"])
    assert stdout == case["stdout"]
    assert code == case["exit"]


def test_witness_solutions_are_fractions(monkeypatch):
    # Integral coefficients are ints, and int / int is a float: the solver
    # must still return exact Fractions on every golden witness system.
    from nambu import cohomology

    solve = cohomology._solve_linear
    solutions = []

    def recording(rows, columns, target):
        solution = solve(rows, columns, target)
        solutions.append(solution)
        return solution

    monkeypatch.setattr(cohomology, "_solve_linear", recording)
    for case in WITNESS_CASES:
        if "--json" not in case["args"]:
            result = run_witness(case["fixture"], case["exponent"], case["args"])
            assert result == (case["exit"], case["stdout"])
    values = [
        value for solution in solutions if solution is not None for value in solution.values()
    ]
    assert any(values)
    assert all(type(value) is Fraction for value in values)
