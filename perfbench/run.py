"""geomflow benchmark: three `geomflow run` workloads, end to end and per layer.

Run from the repository root:

    python3 perfbench/run.py --workload forward --seed 1 --seconds 20 --trace 0

Workloads (see workloads.py and BENCHMARK.json for why each was chosen):
forward (solver-bound Rosenau evolve), backward (exact sampling, rescaling
and classification) and archive (cigar survey with 65 checkpoints plus a
resume run that reads the last one back).

Load model: a closed loop with one client in one process; the commands of a
workload run back to back and the next repetition starts when the last one
ended. Library thread pools are capped at the number of usable cores.

`--trace 0` measures, in this order:
  setup_s      median time of a fresh interpreter importing geomflow.cli
  cold_s       median time of the command sequence as fresh
               `python -m geomflow.cli` subprocesses (what a shell user waits)
  peak_rss_mb  largest ru_maxrss of those subprocesses
  wall_s       median warm in-process time of the sequence through
               geomflow.cli.main, repeated for --seconds
  wall_s_tail  the highest of p90/p95/p99 that leaves ten samples beyond it,
               or p75 when there are fewer than 100 samples
  err.*        accuracy against the closed forms, recomputed from the
               artifacts; 1 where the workload writes no artifact for it
`--trace 1` alternates untraced and traced repetitions for --seconds and
reports the per-layer metrics of spans.py plus trace.overhead_s, the traced
median wall time minus the untraced one.

Every command execution is one operation. It fails on a nonzero exit, a
missing or undecodable artifact, a wrong classify verdict, an accuracy
metric that cannot be computed, or artifact bytes that differ from the
first repetition's. The last line of standard output is the result object;
the line before it holds machine information, sample counts and failures.
Outputs go to a fresh directory under .bench_out/ per repetition and are
removed afterwards; only the span file of a traced run stays.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
import traceback
from dataclasses import dataclass

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
CHILD_TIMEOUT_S = 120.0

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "wall_s_tail": "s",
    "cold_s": "s",
    "peak_rss_mb": "MB",
    "err.u_sup_rel": "ratio",
    "err.rmax_rel": "ratio",
    "err.profile_distance": "ratio",
    "err.tau_rel": "ratio",
}
NOT_APPLICABLE = 1.0


@dataclass(frozen=True)
class Plan:
    """Repetition counts of one run; TINY is the self-test's."""

    setup_runs: int = 5
    cold_runs: int = 3
    min_warm: int = 3
    tiny: bool = False


FULL = Plan()
TINY = Plan(setup_runs=2, cold_runs=1, min_warm=2, tiny=True)


class BenchError(Exception):
    """The benchmark cannot run here: no source tree, or the wrong package."""


def cap_threads() -> dict:
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    for var in THREAD_VARS:
        os.environ[var] = str(cores)
    os.environ.pop("GEOMFLOW_OUT", None)
    return {var: os.environ[var] for var in THREAD_VARS}


def child_env() -> dict:
    """Environment of every subprocess: the working tree's src/ by absolute path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    return env


def spawn(argv: list[str], cwd: str, env: dict) -> tuple[float, int, int]:
    """Run a child to completion: (wall seconds, exit code, ru_maxrss in KiB)."""
    start = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    elapsed = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return elapsed, proc.returncode, usage.ru_maxrss


class Runner:
    """Repetitions of one workload, with the correctness bookkeeping."""

    def __init__(self, workload: str, seed: int, plan: Plan, run_dir: str):
        import geomflow.cli
        import workloads

        self.cli = geomflow.cli
        self.workloads = workloads
        self.cmds = workloads.commands(workload, seed, tiny=plan.tiny)
        self.run_dir = run_dir
        self.env = child_env()
        self.reference: dict[str, dict] = {}
        self.errors: dict[str, float] = {}
        self.attempted = 0
        self.failures: list[str] = []
        self.failed = 0
        self.peak_rss_kib = 0

    def _fresh(self) -> tuple[str, list[str]]:
        rep_dir = tempfile.mkdtemp(prefix="rep-", dir=self.run_dir)
        return rep_dir, self.workloads.write_configs(self.cmds, rep_dir)

    def _check(self, rep_dir: str, codes: list) -> None:
        for cmd, code in zip(self.cmds, codes):
            self.attempted += 1
            out_dir = os.path.join(rep_dir, cmd.name)
            failures, digests, errors = self.workloads.check_command(
                cmd, out_dir, code, self.reference.get(cmd.name)
            )
            if failures:
                self.failed += 1
                self.failures.extend(failures)
            elif cmd.name not in self.reference:
                self.reference[cmd.name] = digests
            for metric, value in errors.items():
                self.errors[metric] = max(self.errors.get(metric, 0.0), value)
        shutil.rmtree(rep_dir)

    def warm(self, recorder=None) -> float:
        """One in-process repetition through geomflow.cli.main; returns its wall time.

        With a recorder, its wrappers are installed around the timed calls
        only, so the checks stay out of the trace.
        """
        rep_dir, configs = self._fresh()
        codes = []
        gc.collect()
        with recorder if recorder is not None else contextlib.nullcontext():
            start = time.perf_counter()
            for config in configs:
                try:
                    codes.append(self.cli.main(["run", config]))
                except Exception:  # a crash is a failed operation, not the end of the run
                    codes.append(traceback.format_exc(limit=1).strip().splitlines()[-1])
            elapsed = time.perf_counter() - start
        self._check(rep_dir, codes)
        return elapsed

    def cold(self) -> float:
        """One repetition as fresh `python -m geomflow.cli` processes."""
        rep_dir, configs = self._fresh()
        codes = []
        total = 0.0
        for config in configs:
            argv = [sys.executable, "-m", "geomflow.cli", "run", config]
            elapsed, code, rss = spawn(argv, rep_dir, self.env)
            total += elapsed
            codes.append(code)
            self.peak_rss_kib = max(self.peak_rss_kib, rss)
        self._check(rep_dir, codes)
        return total


def import_time(run_dir: str) -> float:
    """Time of a fresh interpreter importing geomflow.cli, interpreter start included."""
    elapsed, code, _ = spawn([sys.executable, "-c", "import geomflow.cli"], run_dir, child_env())
    if code != 0:
        raise BenchError(f"`import geomflow.cli` failed in a fresh interpreter (exit {code})")
    return elapsed


def tail_percentile(samples: list[float]) -> tuple[int, float]:
    pct = 75
    for p in (90, 95, 99):
        if len(samples) * (100 - p) >= 1000:
            pct = p
    return pct, statistics.quantiles(samples, n=100, method="inclusive")[pct - 1]


def import_package() -> None:
    if not os.path.isfile(os.path.join(SRC, "geomflow", "cli.py")):
        raise BenchError(f"no geomflow source tree at {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import geomflow

    if os.path.dirname(os.path.abspath(geomflow.__file__)) != os.path.join(SRC, "geomflow"):
        raise BenchError(f"imported geomflow from {geomflow.__file__}, not from {SRC}")


def machine_info(caps: dict) -> dict:
    import numpy
    import scipy

    def read(path: str) -> str:
        try:
            with open(path, encoding="utf-8") as fh:
                return fh.read()
        except OSError:
            return ""

    caches = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    for index in sorted(os.listdir(base)) if os.path.isdir(base) else ():
        level, kind, size = (read(os.path.join(base, index, f)).strip() for f in ("level", "type", "size"))
        caches[f"L{level} {kind}"] = size
    model = next(
        (line.split(":", 1)[1].strip() for line in read("/proc/cpuinfo").splitlines() if line.startswith("model name")),
        "",
    )
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "cpu": model,
        "nproc": os.cpu_count(),
        "caches": caches,
        "thread_caps": caps,
        "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE", ""),
    }


def measure_untraced(runner: Runner, plan: Plan, seconds: float, run_dir: str) -> tuple[dict, dict]:
    import_time(run_dir)  # unmeasured: fills the file cache
    setup, cold, warm = [], [], []
    # Imports and cold repetitions are spread evenly over the run, between
    # warm repetitions, so that a burst of load on the machine hits a share
    # of every metric's samples instead of all samples of one metric.
    start = time.perf_counter()
    while True:
        done = (time.perf_counter() - start) / seconds
        if len(setup) < plan.setup_runs and done >= len(setup) / plan.setup_runs:
            setup.append(import_time(run_dir))
        elif len(cold) < plan.cold_runs and done >= (len(cold) + 0.5) / plan.cold_runs:
            cold.append(runner.cold())
        elif done < 1.0 or len(warm) < plan.min_warm:
            warm.append(runner.warm())
        else:
            break
    pct, tail = tail_percentile(warm)
    values = {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(warm),
        "wall_s_tail": tail,
        "cold_s": statistics.median(cold),
        "peak_rss_mb": runner.peak_rss_kib / 1024.0,
    }
    errors = [name for name in END_TO_END if name.startswith("err.")]
    for metric in errors:
        values[metric] = runner.errors.get(metric, NOT_APPLICABLE)
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
    details = {
        "samples": {"setup_s": len(setup), "cold_s": len(cold), "wall_s": len(warm)},
        "sample_values": {"setup_s": setup, "cold_s": cold, "wall_s": warm},
        "wall_s_tail_percentile": pct,
        "not_applicable": [name for name in errors if name not in runner.errors],
    }
    return metrics, details


def measure_traced(runner: Runner, plan: Plan, seconds: float, spans_path: str) -> tuple[dict, dict]:
    import spans

    recorder = spans.Recorder()
    plain, traced, layers = [], [], []
    last_spans: list = []
    start = time.perf_counter()
    while len(traced) < plan.min_warm or time.perf_counter() - start < seconds:
        plain.append(runner.warm())
        recorder.run_id = len(traced)
        traced.append(runner.warm(recorder))
        layers.extend(recorder.per_layer())
        last_spans = list(recorder.spans)
        recorder.spans.clear()
    values = spans.median_layers(layers)
    values["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
    unstable = [name for name in spans.COUNTS if len({run[name] for run in layers}) > 1]
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump({"fields": ["name", "start_ns", "end_ns", "parent", "run_id", "measure"],
                   "spans": last_spans}, fh)
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in spans.UNITS.items()}
    details = {
        "samples": {"untraced": len(plain), "traced": len(traced)},
        "spans_file": os.path.relpath(spans_path, ROOT),
        "spans_in_file": len(last_spans),
        "unstable_counts": unstable,
    }
    return metrics, details


def measure(workload: str, seed: int, seconds: float, trace: bool, plan: Plan = FULL) -> tuple[dict, dict]:
    """One benchmark run: (result object, details object)."""
    caps = cap_threads()
    import_package()
    os.makedirs(OUT, exist_ok=True)
    run_dir = tempfile.mkdtemp(prefix=f"{workload}-{seed}-", dir=OUT)
    try:
        runner = Runner(workload, seed, plan, run_dir)
        runner.warm()  # the reference repetition: fills caches and records the artifact bytes
        if trace:
            spans_path = os.path.join(OUT, f"spans-{workload}-seed{seed}.json")
            metrics, details = measure_traced(runner, plan, seconds, spans_path)
        else:
            metrics, details = measure_untraced(runner, plan, seconds, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    why = {}
    bench_json = os.path.join(ROOT, "BENCHMARK.json")
    if os.path.isfile(bench_json):
        with open(bench_json, encoding="utf-8") as fh:
            why = {w["name"]: w["why"] for w in json.load(fh)["workloads"]}
    details.update(
        workload=workload,
        why=why.get(workload, ""),
        seed=seed,
        seconds=seconds,
        trace=int(trace),
        load="closed loop, one client, one process",
        attempted=runner.attempted,
        failed=runner.failed,
        error_rate=runner.failed / runner.attempted,
        failures=runner.failures[:10],
        err=dict(sorted(runner.errors.items())),
        machine=machine_info(caps),
    )
    result = {
        # counts of the traced run must repeat exactly between repetitions
        "correct": runner.failed == 0 and not details.get("unstable_counts"),
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }
    return result, details


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("forward", "backward", "archive"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result, details = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    print(json.dumps({"details": details}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
