"""Span recorder for the traced run.

Spans are recorded from outside the package: each public function below is
replaced by a timing wrapper in every `geomflow` module namespace that holds
it, so a call from another module (for example `solver.laplacian_field` or
`rescaling.scalar_curvature`) is caught as well as a call inside the defining
module. `ConformalGrid.__post_init__` is wrapped on the class, which catches
every grid construction. Nothing under `src/` changes.

A span is [name, start_ns, end_ns, parent index, run id, measure]. Spans stay
in memory; `per_layer` turns them into self times and counts, where a span's
self time is its duration minus the time covered by its child spans.
"""

from __future__ import annotations

import os
import statistics
import sys
import time
from collections import defaultdict

# (module, attribute, span name); a name groups the functions of one layer metric
FUNCTIONS = (
    ("geomflow.cli", "main", "cli"),
    ("geomflow.exact", "sample_grid", "exact.sample"),
    ("geomflow.exact", "u_profile", "exact.profile"),
    ("geomflow.exact", "log_u_profile", "exact.profile"),
    ("geomflow.exact", "r_profile", "exact.profile"),
    ("geomflow.exact", "dudt_profile", "exact.profile"),
    ("geomflow.solver", "evolve", "solver.evolve"),
    ("geomflow.solver", "exact_trajectory", "solver.exact_trajectory"),
    ("geomflow.solver", "rmax_series", "solver.analysis"),
    ("geomflow.solver", "diagnostics", "solver.analysis"),
    ("geomflow.geometry", "laplacian_field", "geometry.laplacian"),
    ("geomflow.geometry", "scalar_curvature", "geometry.curvature"),
    ("geomflow.geometry", "invariant_report", "geometry.invariants"),
    ("geomflow.rescaling", "pick_point", "rescaling.pick"),
    ("geomflow.rescaling", "classify_type", "rescaling.classify"),
    ("geomflow.rescaling", "dilate", "rescaling.profile"),
    ("geomflow.rescaling", "profile_distance", "rescaling.profile"),
    ("geomflow.embedding", "profile_from_metric", "embedding.embed"),
    ("geomflow.embedding", "embed", "embedding.embed"),
    ("geomflow.embedding", "circumference_and_width", "embedding.embed"),
    ("geomflow.serialize", "save_checkpoint", "serialize.write"),
    ("geomflow.serialize", "write_csv", "serialize.write"),
    ("geomflow.serialize", "write_json", "serialize.write"),
    ("geomflow.serialize", "load_checkpoint", "serialize.read"),
)
GRID_CLASS = ("geomflow.grids", "ConformalGrid", "__post_init__", "grids.construct")

# per-layer metric name -> unit, in the order they are reported
UNITS = {
    "cli.self_s": "s",
    "grids.construct_s": "s",
    "grids.constructed": "count",
    "exact.sample_s": "s",
    "exact.samples": "count",
    "exact.profile_s": "s",
    "exact.profile_calls": "count",
    "solver.evolve_s": "s",
    "solver.steps": "count",
    "solver.step_us": "us",
    "solver.node_steps_per_s": "1/s",
    "solver.exact_trajectory_s": "s",
    "solver.analysis_s": "s",
    "geometry.laplacian_s": "s",
    "geometry.laplacian_calls": "count",
    "geometry.curvature_s": "s",
    "geometry.curvature_calls": "count",
    "geometry.invariants_s": "s",
    "geometry.invariant_reports": "count",
    "rescaling.pick_s": "s",
    "rescaling.classify_s": "s",
    "rescaling.profile_s": "s",
    "embedding.embed_s": "s",
    "serialize.write_s": "s",
    "serialize.files_written": "count",
    "serialize.bytes_written": "bytes",
    "serialize.write_MBps": "MB/s",
    "serialize.read_s": "s",
    "serialize.files_read": "count",
    "trace.overhead_s": "s",
}

# metrics that must repeat exactly between repetitions
COUNTS = tuple(name for name, unit in UNITS.items() if unit in ("count", "bytes"))


def _evolve_measure(result, args, kwargs):
    """(steps taken, nodes) of an evolve call."""
    return (len(result.steps), result.grid0.n)


def _write_measure(result, args, kwargs):
    """Size in bytes of the file a serialize writer produced."""
    return os.path.getsize(args[0] if args else kwargs["path"])


MEASURES = {"solver.evolve": _evolve_measure, "serialize.write": _write_measure}


class Recorder:
    """Installs the span wrappers and keeps the recorded spans in memory."""

    def __init__(self):
        self.spans: list[list] = []
        self.run_id = 0
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name):
        spans = self.spans
        stack = self._stack
        measure = MEASURES.get(name)
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            span = [name, 0, 0, stack[-1] if stack else -1, self.run_id, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if measure is not None:
                span[5] = measure(result, args, kwargs)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def install(self) -> None:
        """Wrap every target in every loaded geomflow module that holds it."""
        modules = [m for key, m in sys.modules.items() if key.split(".")[0] == "geomflow"]
        for module_name, attr, name in FUNCTIONS:
            original = getattr(sys.modules[module_name], attr)
            wrapper = self._wrap(original, name)
            for module in modules:
                if getattr(module, attr, None) is original:
                    self._patches.append((module, attr, original))
                    setattr(module, attr, wrapper)
        module_name, cls_name, attr, name = GRID_CLASS
        cls = getattr(sys.modules[module_name], cls_name)
        original = cls.__dict__[attr]
        self._patches.append((cls, attr, original))
        setattr(cls, attr, self._wrap(original, name))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def per_layer(self) -> list[dict]:
        """Layer metrics of each recorded run id, in run-id order."""
        spans = self.spans
        child = [0] * len(spans)
        for span in spans:
            if span[3] >= 0:
                child[span[3]] += span[2] - span[1]
        self_ns = defaultdict(lambda: defaultdict(int))
        total_ns = defaultdict(lambda: defaultdict(int))
        calls = defaultdict(lambda: defaultdict(int))
        measured = defaultdict(lambda: defaultdict(list))
        for i, (name, start, end, parent, run, value) in enumerate(spans):
            self_ns[run][name] += end - start - child[i]
            # a call from inside the same layer (save_checkpoint -> write_json,
            # u_profile -> log_u_profile) is part of the outer call
            if parent < 0 or spans[parent][0] != name:
                calls[run][name] += 1
                total_ns[run][name] += end - start
                if value is not None:
                    measured[run][name].append(value)
        return [
            _layer_metrics(self_ns[run], total_ns[run], calls[run], measured[run])
            for run in sorted(self_ns)
        ]


def _layer_metrics(self_ns, total_ns, calls, measured) -> dict:
    def s(name):
        return self_ns.get(name, 0) * 1e-9

    steps = sum(k for k, _ in measured.get("solver.evolve", ()))
    node_steps = sum(k * n for k, n in measured.get("solver.evolve", ()))
    evolve_total = total_ns.get("solver.evolve", 0) * 1e-9
    written = sum(measured.get("serialize.write", ()))
    write_total = total_ns.get("serialize.write", 0) * 1e-9
    return {
        "cli.self_s": s("cli"),
        "grids.construct_s": s("grids.construct"),
        "grids.constructed": calls.get("grids.construct", 0),
        "exact.sample_s": s("exact.sample"),
        "exact.samples": calls.get("exact.sample", 0),
        "exact.profile_s": s("exact.profile"),
        "exact.profile_calls": calls.get("exact.profile", 0),
        "solver.evolve_s": s("solver.evolve"),
        "solver.steps": steps,
        # per-step and throughput figures use the whole evolve call, children included
        "solver.step_us": evolve_total / steps * 1e6 if steps else 0.0,
        "solver.node_steps_per_s": node_steps / evolve_total if evolve_total else 0.0,
        "solver.exact_trajectory_s": s("solver.exact_trajectory"),
        "solver.analysis_s": s("solver.analysis"),
        "geometry.laplacian_s": s("geometry.laplacian"),
        "geometry.laplacian_calls": calls.get("geometry.laplacian", 0),
        "geometry.curvature_s": s("geometry.curvature"),
        "geometry.curvature_calls": calls.get("geometry.curvature", 0),
        "geometry.invariants_s": s("geometry.invariants"),
        "geometry.invariant_reports": calls.get("geometry.invariants", 0),
        "rescaling.pick_s": s("rescaling.pick"),
        "rescaling.classify_s": s("rescaling.classify"),
        "rescaling.profile_s": s("rescaling.profile"),
        "embedding.embed_s": s("embedding.embed"),
        "serialize.write_s": s("serialize.write"),
        "serialize.files_written": calls.get("serialize.write", 0),
        "serialize.bytes_written": written,
        "serialize.write_MBps": written / write_total * 1e-6 if write_total else 0.0,
        "serialize.read_s": s("serialize.read"),
        "serialize.files_read": calls.get("serialize.read", 0),
    }


def median_layers(runs: list[dict]) -> dict:
    """Median of each layer metric over repetitions."""
    return {name: statistics.median(run[name] for run in runs) for name in runs[0]}
