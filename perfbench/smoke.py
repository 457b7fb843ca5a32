"""Smoke test of the benchmark itself.

    python3 perfbench/smoke.py

Runs each workload at a tiny size (its cheapest jobs, one pass), untraced
and traced, and asserts that every metric BENCHMARK.json names is emitted
with its unit, that no job failed, and that the traced counts repeat exactly
between two traced runs.  Then it gives jobs deliberately wrong known answers
and asserts that each counts as a failed job, so the correctness gate can
fail.  Takes about a minute.
"""

from __future__ import annotations

import sys

import run
import workloads

SEED = workloads.DEFAULT_SEED


def emitted(workload: str, trace: bool, tamper=None) -> dict:
    line = run.result_line(run.measure(workload, SEED, 0, trace, tiny=True, tamper=tamper))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}, line
    assert line["attempted"] >= 1, line
    declared = run.spec()["per_layer" if trace else "end_to_end"]
    assert list(line["metrics"]) == [m["name"] for m in declared], line["metrics"]
    for metric in declared:
        value = line["metrics"][metric["name"]]
        assert value["unit"] == metric["unit"], (metric, value)
        assert isinstance(value["value"], (int, float)), (metric, value)
    return line


def wrong_verdict(jobs) -> None:
    jobs[0].expect["verdicts"]["fundamental-identity"] = "fail"


def wrong_witness(jobs) -> None:
    job = next(j for j in jobs if j.expect.get("planted") not in (None, "0"))
    job.expect["planted"] += " + x1"


def main() -> int:
    for workload in workloads.WORKLOADS:
        line = emitted(workload, trace=False)
        assert line["correct"] and line["failed"] == 0, line
        assert line["metrics"]["ok_ratio"]["value"] == 1.0, line
        counts = []
        for _ in range(2):
            line = emitted(workload, trace=True)
            assert line["correct"] and line["failed"] == 0, line
            counts.append({name: v["value"] for name, v in line["metrics"].items()
                           if name.endswith(".calls")})
        assert counts[0] == counts[1], "traced counts differ between runs"
        print(f"{workload}: metrics emitted, no failed job, counts repeat")
    for workload, tamper in (("check-pass", wrong_verdict), ("witness", wrong_witness)):
        line = emitted(workload, trace=False, tamper=tamper)
        assert not line["correct"] and line["failed"] == 1, line
        assert line["metrics"]["ok_ratio"]["value"] < 1.0, line
        print(f"{workload}: a wrong known answer counts as a failed job")
    print("smoke: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
