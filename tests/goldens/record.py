"""Record the ``nambu check`` goldens compared by ``tests/test_goldens.py``.

Run from anywhere:

    PYTHONPATH=src python tests/goldens/record.py

Each case runs ``nambu check`` in-process at jet degree 2 and stores the
fixture, the arguments, the exit code and the exact stdout in
``tests/goldens/check.json``.  Re-record only when an output change is
intended, and say in the change log which commit the goldens come from.
"""

from __future__ import annotations

import contextlib
import io
import json
from pathlib import Path

from nambu.cli import CHECKS, main

ROOT = Path(__file__).resolve().parents[2]
GOLDEN = Path(__file__).with_name("check.json")
# Every check runs on every fixture.  characterization and phi-morphism pass
# on r6_nonexample too: they certify rules that hold for any n-vector.
FIXTURES = ("r3_scaled", "r3_volume", "r4_normal_form", "r6_nonexample")
TEXT_CASES = (
    ("r6_nonexample", "fundamental-identity,invariance,anchor,sharp-d,leibniz"),
)


def cases() -> list[tuple[str, list[str]]]:
    found = []
    for fixture in FIXTURES:
        for check in sorted(CHECKS):
            found.append((fixture, ["--json", "--jet-degree=2", f"--checks={check}"]))
    for fixture, checks in TEXT_CASES:
        found.append((fixture, ["--jet-degree=2", f"--checks={checks}"]))
    return found


def run_check(fixture: str, args: list[str]) -> tuple[int, str]:
    """Exit code and stdout of ``nambu check`` on one fixture."""
    path = ROOT / "fixtures" / f"{fixture}.json"
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["check", str(path), *args])
    return code, out.getvalue()


def record() -> None:
    entries = []
    for fixture, args in cases():
        code, stdout = run_check(fixture, args)
        entries.append({"fixture": fixture, "args": args, "exit": code, "stdout": stdout})
    GOLDEN.write_text(json.dumps(entries, indent=1) + "\n", encoding="utf-8")
    print(f"recorded {len(entries)} cases in {GOLDEN}")


if __name__ == "__main__":
    record()
