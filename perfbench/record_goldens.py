"""Record the default seed's stdout goldens from the current program.

    python3 perfbench/record_goldens.py

Run it only on a commit whose output is trusted: a workload is recorded
only when every job agrees with its known answer.
"""

from __future__ import annotations

import json
import sys

import run
import workloads


def main() -> int:
    for workload in workloads.WORKLOADS:
        record = run.measure(workload, workloads.DEFAULT_SEED, 0, False, use_goldens=False)
        if record["failed"]:
            print(f"{workload}: {record['failures']}", file=sys.stderr)
            return 1
        goldens = {o["id"]: {"exit": o["exit"], "stdout": o["stdout"]}
                   for o in record["outcomes"]}
        path = run.HERE / "goldens" / f"{workload}.json"
        path.parent.mkdir(exist_ok=True)
        path.write_text(json.dumps(goldens, indent=1, sort_keys=True) + "\n", encoding="utf-8")
        print(f"{workload}: {len(goldens)} goldens -> {path.relative_to(run.ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
