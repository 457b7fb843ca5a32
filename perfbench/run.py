"""Benchmark of the nambu verifier: time to verdict, set-up, memory, layers.

    python3 perfbench/run.py --workload check-pass --seed 20260810 --seconds 35 --trace 0

Run from the repository root.  Workloads (see README.md beside this file):
``check-pass``, ``check-fail`` and ``witness``.  One client in a closed loop:
each job starts when the previous one returns, and one pass of the workload's
jobs runs in a fresh process.  Passes repeat while another fits in
``--seconds``; the figures are medians over passes.  Times are reported at
reference speed: each raw time is scaled by the host speed that a reference
kernel, timed while the program runs, gives (``reference.py``), so that the
drift of a shared host's core speed does not read as a change of the program.

Every job's exit code and verdicts are checked against answers known from
the benchmark's own mathematics (``workloads.py``), feasible witnesses are
checked with sympy, and for the default seed stdout must equal the goldens
in ``goldens/``.  With ``--trace 0`` the end-to-end metrics of BENCHMARK.json
are printed; with ``--trace 1`` one more pass runs under the layer tracer
and the per-layer metrics are printed.  The last stdout line is the result
object; the full record, with provenance, goes to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
SCRATCH = ROOT / ".perfbench_tmp"
SETUP_REPEATS = 11  # fresh processes timed per run, after one warm-up
CHILD_TIMEOUT_S = 170
VERDICT = re.compile(r"^(?!result:)([a-z-]+): (pass|FAIL)\b")


def spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def child(mode: str, payload: dict, tmp: Path, out: Path) -> dict:
    """Run the worker in a fresh interpreter and return what it wrote."""
    request = tmp / f"{mode}-request.json"
    request.write_text(json.dumps(payload), encoding="utf-8")
    env = dict(os.environ, PYTHONHASHSEED="0")
    done = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), mode, str(request), str(out)],
        cwd=ROOT, env=env, timeout=CHILD_TIMEOUT_S,
    )
    if done.returncode != 0:
        raise RuntimeError(f"worker {mode} exited with {done.returncode}")
    return json.loads(out.read_text(encoding="utf-8"))


# -- correctness oracle ------------------------------------------------------------


def witness_matches(witness: str, planted: str, m: int) -> bool:
    """Does ``witness - planted`` involve only x4..xm?  Checked with sympy."""
    import sympy

    symbols = sympy.symbols(f"x1:{m + 1}")
    names = {str(s): s for s in symbols}
    difference = sympy.expand(
        sympy.sympify(witness.replace("^", "**"), locals=names)
        - sympy.sympify(planted.replace("^", "**"), locals=names)
    )
    return difference.free_symbols <= set(symbols[3:])


def problems(job: workloads.Job, outcome: dict, golden: dict | None) -> list[str]:
    """Why a job's outcome differs from its known answer (empty when it does not)."""
    expect, stdout = job.expect, outcome["stdout"]
    found = []
    if outcome["error"]:
        found.append(f"raised {outcome['error']}")
    if outcome["exit"] != expect.get("exit", 0):
        found.append(f"exit {outcome['exit']}, expected {expect.get('exit', 0)}")
    lines = stdout.splitlines()
    if expect["kind"] == "check":
        verdicts = dict(VERDICT.match(line).groups() for line in lines if VERDICT.match(line))
        verdicts = {check: v.lower() for check, v in verdicts.items()}
        if list(verdicts) != expect["checks"]:
            found.append(f"reported checks {list(verdicts)}, expected {expect['checks']}")
        for check, verdict in expect["verdicts"].items():
            if verdicts.get(check) != verdict:
                found.append(f"{check}: {verdicts.get(check)}, expected {verdict}")
    else:
        feasible = bool(lines) and lines[0].startswith("feasible: witness = ")
        if feasible != expect["feasible"]:
            found.append(f"feasible={feasible}, expected {expect['feasible']}")
        elif feasible and "planted" in expect:
            witness = lines[0].removeprefix("feasible: witness = ")
            if not witness_matches(witness, expect["planted"], expect["m"]):
                found.append(f"witness {witness} is not {expect['planted']} + f(x4..)")
        elif not feasible:
            obstruction = any(line.startswith("obstruction: ") for line in lines)
            if obstruction != expect["obstruction"]:
                found.append(f"obstruction={obstruction}, expected {expect['obstruction']}")
    if golden is not None and (stdout, outcome["exit"]) != (golden["stdout"], golden["exit"]):
        found.append("stdout or exit differs from the golden")
    return found


def load_goldens(workload: str, seed: int) -> dict | None:
    if seed != workloads.DEFAULT_SEED:
        return None
    return json.loads((HERE / "goldens" / f"{workload}.json").read_text(encoding="utf-8"))


# -- measurement ---------------------------------------------------------------------


def measure(workload: str, seed: int, seconds: float, trace: bool,
            tiny: bool = False, tamper=None, use_goldens: bool = True) -> dict:
    """Run one benchmark measurement and return its full record.

    ``tiny`` keeps the cheapest jobs of the workload and ``tamper`` may edit
    the generated jobs' known answers, both for the smoke test;
    ``use_goldens=False`` serves recording the goldens.
    """
    structures, jobs = workloads.build(workload, seed, tiny=tiny)
    if tamper is not None:
        tamper(jobs)
    goldens = load_goldens(workload, seed) if use_goldens else None
    SCRATCH.mkdir(exist_ok=True)
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=SCRATCH) as tmp_name:
        tmp = Path(tmp_name)
        paths = workloads.write(structures, tmp)
        pass_spec = {"jobs": [
            {"id": job.id, "argv": [paths[job.structure] if a == "FILE" else a for a in job.argv]}
            for job in jobs
        ]}
        setups = [child("setup", {"files": list(paths.values())}, tmp, tmp / "setup.json")
                  for _ in range(SETUP_REPEATS + 1)][1:]
        passes = []
        begin = time.perf_counter()
        while True:
            passes.append(child("pass", pass_spec, tmp, tmp / "pass.json"))
            elapsed = time.perf_counter() - begin
            if elapsed * (len(passes) + 1) / len(passes) > seconds:
                break
        traced = None
        if trace:
            spans = OUT / f"{workload}.spans"
            shutil.rmtree(spans, ignore_errors=True)
            traced = child("trace", pass_spec | {"spans": str(spans)}, tmp, tmp / "trace.json")

    failures = []
    attempted = 0
    for run in passes + ([traced] if traced else []):
        for job, outcome in zip(jobs, run["jobs"], strict=True):
            attempted += 1
            golden = goldens.get(job.id) if goldens is not None else None
            if goldens is not None and golden is None:
                found = ["no golden recorded"]
            else:
                found = problems(job, outcome, golden)
            if found:
                failures.append({"job": job.id, "problems": found})

    wall = statistics.median(p["wall_s"] * p["speed"] for p in passes)
    raw_wall = statistics.median(p["wall_s"] for p in passes)
    figures = {
        "wall_s": wall,
        "setup_s": (statistics.median(s["setup_s"] for s in setups)
                    * statistics.median(s["speed"] for s in setups)),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
        "ok_ratio": (attempted - len(failures)) / attempted,
    }
    if traced is not None:
        figures.update(traced["layers"])
        figures["process.cpu_s"] = statistics.median(p["cpu_s"] for p in passes)
        figures["trace.overhead_ratio"] = traced["wall_s"] / raw_wall
    return {
        "workload": workload,
        "trace": trace,
        "provenance": provenance(seed),
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures,
        "figures": figures,
        "raw_wall_s": raw_wall,
        "passes": [{k: p[k] for k in ("wall_s", "speed", "samples", "peak_rss_mb", "cpu_s")} | {
            "job_seconds": {o["id"]: o["seconds"] for o in p["jobs"]}} for p in passes],
        "setup_s": [{k: s[k] for k in ("setup_s", "speed")} for s in setups],
        "traced_wall_s": traced["wall_s"] if traced else None,
        "outcomes": passes[-1]["jobs"],
    }


def provenance(seed: int) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        try:
            done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, timeout=30,
                                  capture_output=True, text=True)
            commit = done.stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            commit = None
    src_lines = sum(len(p.read_text(encoding="utf-8").splitlines())
                    for p in (ROOT / "src").rglob("*.py"))
    return {
        "commit": commit,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
        "src_lines": src_lines,
    }


def result_line(record: dict) -> dict:
    """The result object of the last stdout line: the metrics of the chosen mode."""
    declared = spec()["per_layer" if record["trace"] else "end_to_end"]
    return {
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {
            m["name"]: {"value": record["figures"][m["name"]], "unit": m["unit"]}
            for m in declared
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=spec()["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "nambu" / "__init__.py").is_file():
        print(f"error: no nambu sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    record = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record, indent=1), encoding="utf-8")
    for failure in record["failures"]:
        print(f"failed job {failure['job']}: {'; '.join(failure['problems'])}", file=sys.stderr)
    print(json.dumps(result_line(record)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
