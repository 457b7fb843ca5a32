"""Outside-in tracing of the nambu layers, installed from the benchmark's files.

``Tracer.install`` wraps the public functions named in ``TIMED`` and rebinds
each wrapper in every ``nambu.*`` namespace that holds the original, so calls
through module globals (including the lambdas in ``cli.CHECKS``) reach it.
Methods and constructors in ``COUNTED`` are replaced on their class and only
counted: they run about a million times per job, too often to time.

A span is (name, start, end, parent, job); spans stay in memory and are
written out by ``dump``.  Self time is a span's duration minus the time of
its direct child spans; inclusive time counts only the outermost span of a
name, so a recursive call is not counted twice.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from array import array
from pathlib import Path

TIMED = {
    "cli": ("main",),
    "textio": ("load_structure_file", "format_tensor"),
    "structure": (
        "nbracket", "sharp", "hamiltonian", "fi_residual", "invariance_defect",
        "check_fundamental_identity", "check_invariance",
    ),
    "algebroid": (
        "lbracket", "anchor_residual", "sharp_d_residual", "leibniz_residual",
        "exact_forms_residual", "function_slot1_residual", "function_slot2_residual",
        "verify_anchor_morphism", "verify_sharp_d_identity", "verify_leibniz_identity",
        "verify_characterization",
    ),
    "cohomology": (
        "modular_multivector", "cobound0", "cobound1_eval", "lsv_residual",
        "verify_lsv", "verify_modular_cocycle", "exactness_witness",
    ),
    "exterior": (
        "wedge", "pair", "contract_form", "contract_vec", "differential", "ext_d",
        "apply_vec", "lie_form", "lie_mv",
    ),
}

# metric name -> (module, class, method names sharing one counter)
COUNTED = {
    "exterior.construct": ("exterior", "_Alternating", ("__init__",)),
    "poly.construct": ("poly", "Polynomial", ("__init__",)),
    "poly.mul": ("poly", "Polynomial", ("__mul__", "__rmul__")),
    "poly.add": ("poly", "Polynomial", ("__add__", "__radd__")),
    "poly.diff": ("poly", "Polynomial", ("diff",)),
}

# verifier -> residual whose direct evaluations it spends per counterexample
SEARCHES = {
    "search.fi_residual_per_hit": ("structure.check_fundamental_identity",
                                   "structure.fi_residual"),
    "search.leibniz_residual_per_hit": ("algebroid.verify_leibniz_identity",
                                        "algebroid.leibniz_residual"),
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.job = 0
        # one entry per span, indexed by span id
        self.span_name = array("i")
        self.span_parent = array("q")
        self.span_job = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self.calls: list[int] = []
        self.self_ns: list[int] = []
        self.inclusive_ns: list[int] = []
        self.active: list[int] = []
        self.hits: list[int] = []
        self.counts: dict[str, list[int]] = {}
        self.differential_args: set = set()
        self._stack: list[list[int]] = []  # [span id, child ns] of open spans

    def install(self) -> None:
        for module, names in TIMED.items():
            namespace = sys.modules[f"nambu.{module}"]
            for name in names:
                original = getattr(namespace, name)
                _rebind(original, self._timed(f"{module}.{name}", original))
        for metric, (module, cls_name, methods) in COUNTED.items():
            cls = getattr(sys.modules[f"nambu.{module}"], cls_name)
            cell = self.counts.setdefault(metric, [0])
            for method in methods:
                setattr(cls, method, _counted(cell, getattr(cls, method)))

    def _timed(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        for column in (self.calls, self.self_ns, self.inclusive_ns, self.active, self.hits):
            column.append(0)
        stack, clock = self._stack, time.perf_counter_ns
        span_name, span_parent, span_job = self.span_name, self.span_parent, self.span_job
        span_start, span_end = self.span_start, self.span_end
        calls, self_ns, inclusive_ns = self.calls, self.self_ns, self.inclusive_ns
        active, hits = self.active, self.hits
        seen = self.differential_args if name == "exterior.differential" else None
        watch_result = any(name == verifier for verifier, _ in SEARCHES.values())

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if seen is not None:
                seen.add(args[0])
            sid = len(span_start)
            span_name.append(nid)
            span_parent.append(stack[-1][0] if stack else -1)
            span_job.append(self.job)
            span_end.append(0)
            frame = [sid, 0]
            stack.append(frame)
            active[nid] += 1
            start = clock()
            span_start.append(start)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                span_end[sid] = end
                stack.pop()
                duration = end - start
                calls[nid] += 1
                self_ns[nid] += duration - frame[1]
                active[nid] -= 1
                if not active[nid]:
                    inclusive_ns[nid] += duration
                if stack:
                    stack[-1][1] += duration
            if watch_result and not result.passed:
                hits[nid] += 1
            return result

        return wrapper

    def metrics(self) -> dict:
        """Every layer figure the tracer can give, by metric name."""
        out: dict[str, float] = {}
        for nid, name in enumerate(self.names):
            out[f"{name}.calls"] = self.calls[nid]
            out[f"{name}.self_s"] = self.self_ns[nid] / 1e9
            out[f"{name}.s"] = self.inclusive_ns[nid] / 1e9
        for metric, cell in self.counts.items():
            out[f"{metric}.calls"] = cell[0]
        distinct = len(self.differential_args)
        out["exterior.differential.repeat_ratio"] = (
            out["exterior.differential.calls"] / distinct if distinct else 0.0
        )
        for metric, (verifier, residual) in SEARCHES.items():
            found = self.hits[self.names.index(verifier)]
            out[metric] = out[f"{residual}.calls"] / found if found else 0.0
        return out

    def dump(self, directory: Path) -> None:
        """Write the spans: one raw column file each, plus the name table."""
        directory.mkdir(parents=True, exist_ok=True)
        columns = {
            "name": self.span_name, "parent": self.span_parent, "job": self.span_job,
            "start_ns": self.span_start, "end_ns": self.span_end,
        }
        for column, values in columns.items():
            with open(directory / f"{column}.{values.typecode}", "wb") as handle:
                values.tofile(handle)
        (directory / "names.json").write_text(json.dumps({
            "names": self.names,
            "spans": len(self.span_start),
            "columns": {c: v.typecode for c, v in columns.items()},
        }, indent=1))


def _rebind(original, wrapper) -> None:
    for module_name, module in list(sys.modules.items()):
        if module_name == "nambu" or module_name.startswith("nambu."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)


def _counted(cell: list, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        cell[0] += 1
        return fn(*args, **kwargs)

    return wrapper
