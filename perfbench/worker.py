"""Fresh-process side of the benchmark.

    python3 perfbench/worker.py setup SPEC OUT
    python3 perfbench/worker.py pass SPEC OUT
    python3 perfbench/worker.py trace SPEC OUT

``setup`` times importing ``nambu`` and loading every structure file of the
workload, then times the reference kernel (``reference.py``) to give the
host's speed at that moment.  ``pass`` runs the workload's jobs in sequence
through ``nambu.cli.main`` with the reference sampler installed and records
each exit code and stdout, the wall time from the first job's start to the
last verdict (the sum of the job times, as the jobs run back to back, less
the time spent in the sampler), the host speed the samples give, and the
peak resident memory.  ``trace`` runs the jobs with the layer tracer
installed instead of the sampler and writes its spans to the directory SPEC
names.  SPEC and OUT are JSON files.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import statistics
import sys
import time
from pathlib import Path

import reference

ROOT = Path(__file__).resolve().parent.parent


def _import_nambu():
    sys.path.insert(0, str(ROOT / "src"))
    import nambu.cli

    if not Path(nambu.__file__).resolve().is_relative_to(ROOT / "src"):
        raise ImportError(f"nambu imported from {nambu.__file__}, not from src/")
    return nambu


def setup(spec: dict) -> dict:
    start = time.perf_counter()
    nambu = _import_nambu()
    for path in spec["files"]:
        loaded = nambu.textio.load_structure_file(path)
        loaded.structure()
        loaded.volume()
    seconds = time.perf_counter() - start
    reference.kernel()
    samples = [reference.timed_kernel() for _ in range(3)]
    return {"setup_s": seconds,
            "speed": statistics.mean(reference.REFERENCE_S / r for r in samples)}


def run_pass(spec: dict, tracer=None) -> dict:
    nambu = _import_nambu()
    if tracer is not None:
        tracer.install()
    sampler = reference.Sampler() if tracer is None else None
    with sampler or contextlib.nullcontext():
        outcomes = [_run_job(nambu, index, job, tracer, sampler)
                    for index, job in enumerate(spec["jobs"])]
    usage = resource.getrusage(resource.RUSAGE_SELF)
    result = {
        "wall_s": sum(o["seconds"] for o in outcomes),
        "speed": sampler.speed() if sampler else None,
        "samples": len(sampler.samples) if sampler else 0,
        "peak_rss_mb": usage.ru_maxrss / 1024,
        "cpu_s": usage.ru_utime + usage.ru_stime - (sampler.spent if sampler else 0.0),
        "jobs": outcomes,
    }
    if tracer is not None:
        result["layers"] = tracer.metrics()
    return result


def _run_job(nambu, index: int, job: dict, tracer, sampler) -> dict:
    if tracer is not None:
        tracer.job = index
    stdout = io.StringIO()
    error = None
    spent = sampler.spent if sampler else 0.0
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(stdout):
            code = nambu.cli.main(job["argv"])
    except SystemExit as exc:  # argparse rejects bad arguments this way
        code, error = exc.code, "SystemExit"
    except Exception as exc:  # a job that raises is a failed job, not a crash
        code, error = None, f"{type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - start
    if sampler is not None:
        seconds -= sampler.spent - spent
    return {"id": job["id"], "exit": code, "error": error,
            "stdout": stdout.getvalue(), "seconds": seconds}


def main(argv: list[str]) -> int:
    mode, spec_path, out_path = argv
    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    if mode == "setup":
        result = setup(spec)
    elif mode == "pass":
        result = run_pass(spec)
    elif mode == "trace":
        from tracer import Tracer

        tracer = Tracer()
        result = run_pass(spec, tracer)
        tracer.dump(Path(spec["spans"]))
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    Path(out_path).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
