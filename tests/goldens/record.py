"""Record the goldens compared by ``tests/test_goldens.py``.

Run from anywhere:

    PYTHONPATH=src python tests/goldens/record.py

Each case runs ``nambu check`` or ``nambu witness`` in-process and stores
the fixture, the arguments, the exit code and the exact stdout:
``nambu check`` at jet degree 2 in ``tests/goldens/check.json``, and
``nambu witness`` over a range of ``--max-degree`` in
``tests/goldens/witness.json``.  A witness case may plant a volume
exponent into its fixture, so that the witness is nonzero.  Re-record only
when an output change is intended, and say in the change log which commit
the goldens come from.
"""

from __future__ import annotations

import contextlib
import io
import json
import tempfile
from pathlib import Path

from nambu.cli import CHECKS, main

ROOT = Path(__file__).resolve().parents[2]
GOLDEN = Path(__file__).with_name("check.json")
WITNESS_GOLDEN = Path(__file__).with_name("witness.json")
# The order-2 (Poisson) fixtures: r2_affine is the dual of [e1, e2] = e2,
# r3_su2_dual that of su(2).  Each also runs the default checks, which for
# order 2 are fundamental-identity and invariance only.
ORDER2_FIXTURES = ("r2_affine", "r3_su2_dual")
# Every check runs on every fixture.  characterization and phi-morphism pass
# on r6_nonexample and r6_rational too: they certify rules that hold for any
# n-vector.  r6_rational is the one fixture with non-integral coefficients.
FIXTURES = (
    "r3_scaled", "r3_volume", "r4_normal_form", "r6_nonexample", "r6_rational",
    *ORDER2_FIXTURES,
)
TEXT_CASES = (
    ("r6_nonexample", "fundamental-identity,invariance,anchor,sharp-d,leibniz"),
)
# r6_rational's witness, 1/3*x2, is the one nonzero witness without a
# planted exponent, and its n-vector has non-integral coefficients.
WITNESS_DEGREE8_FIXTURES = (
    "r3_scaled", "r3_volume", "r4_normal_form", "r5_normal_form", "r6_nonexample",
    "r6_rational",
)
WITNESS_FIXTURES = (*WITNESS_DEGREE8_FIXTURES, *ORDER2_FIXTURES)
# With volume e^p the modular class of a constant blade is cobound0(p), so
# these variants have a nonzero witness.
PLANTED_EXPONENT = "x1*x2 + x3^2"
PLANTED_FIXTURES = ("r4_normal_form", "r5_normal_form")


def cases() -> list[tuple[str, list[str]]]:
    found = []
    for fixture in FIXTURES:
        for check in sorted(CHECKS):
            found.append((fixture, ["--json", "--jet-degree=2", f"--checks={check}"]))
    for fixture in ORDER2_FIXTURES:
        found.append((fixture, ["--jet-degree=2"]))
    for fixture, checks in TEXT_CASES:
        found.append((fixture, ["--jet-degree=2", f"--checks={checks}"]))
    return found


def witness_cases() -> list[tuple[str, str | None, list[str]]]:
    """(fixture, planted volume exponent or None, arguments) per case."""
    found = []
    for fixture in WITNESS_FIXTURES:
        for degree in range(7):
            for style in ([], ["--json"]):
                found.append((fixture, None, [*style, f"--max-degree={degree}"]))
    for fixture in WITNESS_DEGREE8_FIXTURES:
        found.append((fixture, None, ["--max-degree=8"]))
    for fixture in PLANTED_FIXTURES:
        for degree in (1, 4):
            for style in ([], ["--json"]):
                found.append((fixture, PLANTED_EXPONENT, [*style, f"--max-degree={degree}"]))
    return found


def _run(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


def run_check(fixture: str, args: list[str]) -> tuple[int, str]:
    """Exit code and stdout of ``nambu check`` on one fixture."""
    path = ROOT / "fixtures" / f"{fixture}.json"
    return _run(["check", str(path), *args])


def run_witness(fixture: str, exponent: str | None, args: list[str]) -> tuple[int, str]:
    """Exit code and stdout of ``nambu witness`` on one fixture, with the
    volume ``e^exponent`` planted into it when an exponent is given."""
    path = ROOT / "fixtures" / f"{fixture}.json"
    if exponent is None:
        return _run(["witness", str(path), *args])
    document = json.loads(path.read_text(encoding="utf-8"))
    document["volume"] = {"constant": "1", "exponent": exponent}
    with tempfile.TemporaryDirectory() as tmp:
        planted = Path(tmp) / path.name
        planted.write_text(json.dumps(document), encoding="utf-8")
        return _run(["witness", str(planted), *args])


def record() -> None:
    entries = []
    for fixture, args in cases():
        code, stdout = run_check(fixture, args)
        entries.append({"fixture": fixture, "args": args, "exit": code, "stdout": stdout})
    GOLDEN.write_text(json.dumps(entries, indent=1) + "\n", encoding="utf-8")
    print(f"recorded {len(entries)} cases in {GOLDEN}")
    entries = []
    for fixture, exponent, args in witness_cases():
        code, stdout = run_witness(fixture, exponent, args)
        entries.append({
            "fixture": fixture, "exponent": exponent, "args": args,
            "exit": code, "stdout": stdout,
        })
    WITNESS_GOLDEN.write_text(json.dumps(entries, indent=1) + "\n", encoding="utf-8")
    print(f"recorded {len(entries)} cases in {WITNESS_GOLDEN}")


if __name__ == "__main__":
    record()
