"""Command-line scenario runner and artifact emitter.

Scenarios are JSON configs (or inline flags) naming a conformal family,
a grid, a time window, and a task list. Each task writes fixed-format
CSV/JSON files into the output directory; identical configs produce
byte-identical files. Exit status: 0 success, 1 threshold failure,
2 input error.

The module itself loads the standard library only, so parsing, --help and
the rejection of a malformed config start no numpy; numpy and the science
modules load inside the functions that run a task.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import os
import sys
from typing import TYPE_CHECKING

from . import FAMILIES, FLAT, ROSENAU, SPHERE
from .errors import DomainError, GeomflowError

if TYPE_CHECKING:  # annotations only: importing the CLI loads no numpy
    from .exact import ExactSolutionSpec
    from .grids import ConformalGrid

TASKS = ("verify", "simulate", "invariants", "rescale", "classify", "embed")
DEFAULT_TOLERANCES = {"max_ratio": 5.0, "min_ratio": 3.0, "sup_rel_err": 1e-3}
RESCALE_DEPTHS = (1, 2, 3, 4, 5, 6)
RESCALE_SPAN = 1.5
CLASSIFY_SNAPSHOTS = 253
# the numeric config keys' defaults, which the inline flags show as theirs
CONFIG_DEFAULTS = {"t0": -2.0, "t1": -1.0, "resolution": 2000, "extent": 20.0, "cfl": 0.4}
# classify's flag defaults: criterion 7's window and grid, which hold the Rosenau peak near |x| = |t|
CLASSIFY_DEFAULTS = {"t0": -64.0, "n": 3081, "extent": 77.0}
# families whose backward tip width stays above a fixed uniform grid step;
# the soliton families collapse like exp(beta*t) and alias into garbage
BACKWARD_RESOLVABLE = (ROSENAU, SPHERE, FLAT)
# 65x the 16,000-node grid of the largest benchmark run; bounds a run's memory
MAX_RESOLUTION = 2**20
# the one time stepper's name, as scenario configs may spell it
SEMI_IMPLICIT = "SemiImplicit"

COLUMN_NOTES = """\
artifact files and their columns:
  convergence.csv   resolution, residual, ratio (empty on the coarsest row)
  checkpoint_NNNN.json  chart, t, nodes, u (base64 of little-endian float64),
                    family/params when known
  rmax.csv          t, r_max
  diagnostics.json  f_defect, m_of_t, harnack_defect, harnack_shift,
                    length_evolution_defect, circle_indices
  invariants.csv    t, tau, aperture, circumference, avr, r_max,
                    hartman_defect_length, hartman_defect_area
                    (cylinder charts leave the radial-only cells empty)
  rescale_jN.json   j, T_j, gamma_j, t_j, x_j, M_j, alpha_j, omega_j,
                    profile_distance (sup gap to the model profile on the
                    rescaled arc window [0, 1.5])
  classify.csv      T, S
  classify.json     verdict, t0, basis
  surface.csv       s, r, z
  embed.json        circumference, width
  verify_report.csv criterion, name, check, measured, requirement, status
classify accepts the Rosenau, Sphere, and Flat families, rescale the
Rosenau and Sphere ones (Flat's R = 0 leaves no point to pick); the
steady-soliton tip width collapses exponentially going backward, below
any fixed uniform grid step, so those families are rejected up front.
CSV floats carry 17 significant digits, other JSON floats their shortest
round-trip repr; files are written atomically (temp file then rename).
GEOMFLOW_OUT overrides --out and the config's output directory."""


@dataclasses.dataclass(frozen=True)
class ScenarioConfig:
    """Validated description of one scenario: source, grid, window, tasks."""

    name: str
    family: str | None
    params: tuple[tuple[str, float], ...]
    checkpoint: str | None
    extent: float
    resolution: int
    t0: float
    t1: float
    output_times: tuple[float, ...] | None
    cfl: float
    tasks: tuple[str, ...]
    tolerances: tuple[tuple[str, float], ...]
    out: str

    def __post_init__(self):
        if not self.name:
            raise DomainError("config needs a nonempty name")
        if (self.family is None) == (self.checkpoint is None):
            raise DomainError("config needs exactly one of family or checkpoint")
        if not 16 <= self.resolution <= MAX_RESOLUTION:
            raise DomainError(f"resolution must lie in [16, {MAX_RESOLUTION}], got {self.resolution}")
        if not self.extent > 0.0:
            raise DomainError(f"extent must be > 0, got {self.extent}")
        if not 0.0 < self.cfl <= 1.0:
            raise DomainError(f"cfl must lie in (0, 1], got {self.cfl}")
        if not self.tasks:
            raise DomainError("tasks must be nonempty")
        unknown = [t for t in self.tasks if t not in TASKS]
        if unknown:
            raise DomainError(f"unknown tasks {unknown}; expected subset of {list(TASKS)}")
        bad_tol = [k for k, _ in self.tolerances if k not in DEFAULT_TOLERANCES]
        if bad_tol:
            raise DomainError(
                f"unknown tolerance keys {bad_tol}; expected subset of {sorted(DEFAULT_TOLERANCES)}"
            )
        bad_tol = [k for k, v in self.tolerances if not (math.isfinite(v) and v > 0.0)]
        if bad_tol:
            raise DomainError(f"tolerances {bad_tol} must be finite numbers > 0")

    def spec(self) -> ExactSolutionSpec | None:
        if self.family is None:
            return None
        from . import exact

        return exact.spec_from_name(self.family, **dict(self.params))

    def effective_tolerances(self) -> dict:
        return {**DEFAULT_TOLERANCES, **dict(self.tolerances)}


# "scheme" names the time stepper; configs may still spell out the only one
_CONFIG_KEYS = tuple(f.name for f in dataclasses.fields(ScenarioConfig)) + ("scheme",)


def _number(key: str, value) -> float:
    """A finite JSON number that is not a bool, as a float."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise DomainError(f"{key} must be a JSON number, got {value!r}")
    try:
        number = float(value)
    except OverflowError as err:
        raise DomainError(f"{key} is out of range: {err}") from err
    # Python's JSON parser also reads NaN and Infinity, which are not JSON numbers
    if not math.isfinite(number):
        raise DomainError(f"{key} must be finite, got {number}")
    return number


def config_from_payload(payload: dict) -> ScenarioConfig:
    """Build a config from a parsed JSON document, rejecting unknown keys."""
    if not isinstance(payload, dict):
        raise DomainError("config document must be a JSON object")
    unknown = sorted(set(payload) - set(_CONFIG_KEYS))
    if unknown:
        raise DomainError(f"unknown config keys {unknown}")
    params = payload.get("params") or {}
    tolerances = payload.get("tolerances") or {}
    if not isinstance(params, dict) or not isinstance(tolerances, dict):
        raise DomainError("params and tolerances must be JSON objects")
    scheme = payload.get("scheme", SEMI_IMPLICIT)
    if scheme != SEMI_IMPLICIT:
        raise DomainError(f"unknown scheme {scheme!r}; the only scheme is {SEMI_IMPLICIT!r}")
    tasks = payload.get("tasks", [])
    times = payload.get("output_times")
    if not isinstance(tasks, (list, tuple)) or not isinstance(times, (list, tuple, type(None))):
        raise DomainError("tasks and output_times must be JSON arrays")
    if not all(isinstance(payload.get(key), (str, type(None))) for key in ("family", "checkpoint")):
        raise DomainError("family and checkpoint must be strings")
    if not all(isinstance(payload.get(key, ""), str) for key in ("name", "out")):
        raise DomainError("name and out must be strings")

    def number(key: str) -> float:
        return _number(key, payload.get(key, CONFIG_DEFAULTS[key]))

    def numbers(key: str, values: dict) -> tuple[tuple[str, float], ...]:
        # the key's repr keeps a key with a line break on the message's one line
        return tuple(sorted((k, _number(f"{key}[{k!r}]", v)) for k, v in values.items()))

    resolution = number("resolution")
    if not resolution.is_integer():
        raise DomainError(f"resolution must be a finite integral number, got {resolution!r}")
    return ScenarioConfig(
        name=payload.get("name", ""),
        family=payload.get("family"),
        params=numbers("params", params),
        checkpoint=payload.get("checkpoint"),
        extent=number("extent"),
        resolution=int(resolution),
        t0=number("t0"),
        t1=number("t1"),
        output_times=None if times is None else tuple(_number("output_times item", t) for t in times),
        cfl=number("cfl"),
        tasks=tuple(tasks),
        tolerances=numbers("tolerances", tolerances),
        out=payload.get("out", "out"),
    )


def load_config(path: str) -> ScenarioConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    except (json.JSONDecodeError, UnicodeDecodeError) as err:
        raise DomainError(f"config {path} is not valid UTF-8 JSON: {err}") from err
    return config_from_payload(payload)


def _initial_grid(config: ScenarioConfig) -> ConformalGrid:
    """The family sampled at t0, or the checkpoint; provenance names the family when known."""
    from . import exact, serialize

    spec = config.spec()
    if spec is None:
        return serialize.load_checkpoint(config.checkpoint)
    return exact.sample_grid(spec, config.t0, n=config.resolution, extent=config.extent)


def _convergence_ladder(resolution: int) -> tuple[int, ...]:
    ladder = sorted({max(16, resolution // (2**k)) for k in range(3, -1, -1)})
    return tuple(ladder)


def _task_verify(config: ScenarioConfig, out_dir: str) -> int:
    from . import acceptance, serialize

    spec = config.spec()
    tol = config.effective_tolerances()
    errors = []
    rows = []
    failures = 0
    for n in _convergence_ladder(config.resolution):
        err = acceptance.flow_residual(spec, config.t0, n=n, extent=config.extent)
        # an exact residual (the flat family's is 0) has no convergence ratio to judge
        ratio = None if not errors or err == 0.0 else errors[-1] / err
        if ratio is not None and not tol["min_ratio"] <= ratio <= tol["max_ratio"]:
            failures += 1
        errors.append(err)
        rows.append([n, err, ratio])
    serialize.write_csv(os.path.join(out_dir, "convergence.csv"), ("resolution", "residual", "ratio"), rows)
    return failures


def _task_simulate(config: ScenarioConfig, out_dir: str) -> int:
    from . import serialize, solver

    grid0 = _initial_grid(config)
    traj = solver.evolve(grid0, config.t1, cfl=config.cfl, output_times=config.output_times)
    for k in range(traj.times.size):
        path = os.path.join(out_dir, f"checkpoint_{k:04d}.json")
        serialize.save_checkpoint(path, traj.snapshot(k))
    report = solver.diagnostics(traj)
    serialize.write_csv(
        os.path.join(out_dir, "rmax.csv"), ("t", "r_max"), [[t, v] for t, v in report.rmax.values]
    )
    serialize.write_json(os.path.join(out_dir, "diagnostics.json"), serialize.diagnostics_payload(report))
    if traj.provenance is None:
        return 0
    return int(solver.closed_form_error(traj) > config.effective_tolerances()["sup_rel_err"])


def _task_invariants(config: ScenarioConfig, out_dir: str) -> int:
    import numpy as np

    from . import exact, serialize, solver
    from .geometry import invariant_report

    spec = config.spec()
    if spec is None:
        grids = [serialize.load_checkpoint(config.checkpoint)]
    else:
        times = config.output_times
        if times is None:
            count = 1 if config.t0 == config.t1 else solver.DEFAULT_OUTPUT_COUNT
            times = np.linspace(config.t0, config.t1, count)
        grids = (
            exact.sample_grid(spec, float(t), n=config.resolution, extent=config.extent)
            for t in times
        )
    header, rows = serialize.invariant_table(invariant_report(g) for g in grids)
    serialize.write_csv(os.path.join(out_dir, "invariants.csv"), header, rows)
    return 0


def _require_backward_resolvable(spec, task: str) -> None:
    if spec is None:
        raise DomainError(f"the {task} task needs a family, not a checkpoint")
    if spec.family not in BACKWARD_RESOLVABLE:
        raise DomainError(
            f"the {task} task needs backward data a fixed grid can resolve; "
            f"the {spec.family} tip width collapses exponentially going backward, "
            f"so use one of {list(BACKWARD_RESOLVABLE)}"
        )


def _task_rescale(config: ScenarioConfig, out_dir: str) -> int:
    import numpy as np

    from . import rescaling, serialize, solver

    spec = config.spec()
    for j in RESCALE_DEPTHS:
        if spec.family == ROSENAU:
            traj = rescaling.backward_rosenau_trajectory(j)
        else:
            times = np.linspace(rescaling.default_window(j), -1e-3, 257)
            traj = solver.exact_trajectory(spec, times, n=config.resolution, extent=config.extent)
        pick = rescaling.pick_point(traj, j)
        distance = rescaling.profile_distance(traj, pick, RESCALE_SPAN)
        serialize.write_json(
            os.path.join(out_dir, f"rescale_j{j}.json"),
            serialize.rescaling_record(pick, distance),
        )
    return 0


def _task_classify(config: ScenarioConfig, out_dir: str) -> int:
    import numpy as np

    from . import rescaling, serialize, solver

    spec = config.spec()
    times = np.linspace(config.t0, config.t1, CLASSIFY_SNAPSHOTS)
    traj = solver.exact_trajectory(spec, times, n=config.resolution, extent=config.extent)
    report = rescaling.classify_type(traj, t0=config.t1)
    serialize.write_csv(
        os.path.join(out_dir, "classify.csv"), ("T", "S"), [[t, s] for t, s in report.samples]
    )
    serialize.write_json(
        os.path.join(out_dir, "classify.json"),
        {"verdict": report.verdict, "t0": report.t0, "basis": report.basis},
    )
    return 0


def _task_embed(config: ScenarioConfig, out_dir: str) -> int:
    from . import embedding, serialize

    profile = embedding.profile_from_metric(_initial_grid(config))
    surface = embedding.embed(profile)
    serialize.write_csv(
        os.path.join(out_dir, "surface.csv"),
        ("s", "r", "z"),
        [[s, r, z] for s, r, z in zip(surface.s, surface.r, surface.z)],
    )
    circ, width = embedding.circumference_and_width(surface)
    serialize.write_json(
        os.path.join(out_dir, "embed.json"), {"circumference": circ, "width": width}
    )
    return 0


_TASK_RUNNERS = {
    "verify": _task_verify,
    "simulate": _task_simulate,
    "invariants": _task_invariants,
    "rescale": _task_rescale,
    "classify": _task_classify,
    "embed": _task_embed,
}


def _check_tasks(config: ScenarioConfig) -> None:
    """The config-level checks of the requested tasks, which run before the first task writes."""
    tasks = config.tasks
    if "verify" in tasks and config.family is None:
        raise DomainError("the verify task needs a family, not a checkpoint")
    if "simulate" in tasks and config.output_times is not None:
        from . import serialize, solver

        # diagnostics.json needs DIAGNOSTIC_SNAPSHOTS snapshots: count them before stepping
        t0 = config.t0 if config.checkpoint is None else serialize.load_checkpoint(config.checkpoint).t
        count = solver.resolve_output_times(t0, config.t1, config.output_times).size
        if count < solver.DIAGNOSTIC_SNAPSHOTS:
            raise DomainError(
                f"diagnostics.json needs at least {solver.DIAGNOSTIC_SNAPSHOTS} snapshots, got {count}"
            )
    if "invariants" in tasks and config.family is not None:
        from . import solver

        count = solver.DEFAULT_OUTPUT_COUNT if config.output_times is None else len(config.output_times)
        solver.check_trajectory_size(count, config.resolution)
    for task in ("rescale", "classify"):
        if task in tasks:
            _require_backward_resolvable(config.spec(), task)
    if "rescale" in tasks and config.spec().family == FLAT:
        raise DomainError(
            "the rescale task picks a point of largest curvature; Flat has R = 0, which leaves no point to pick"
        )


def resolve_out_dir(configured: str | None) -> str | None:
    return os.environ.get("GEOMFLOW_OUT") or configured


def run(config: ScenarioConfig) -> int:
    """Execute the config's tasks in canonical order; 0/1 exit semantics."""
    out_dir = resolve_out_dir(config.out)
    _check_tasks(config)
    # the benchmark's span tracer (perfbench/spans.py) wraps functions of
    # rescaling and embedding after any run, so every run loads both
    from . import embedding, rescaling  # noqa: F401

    failures = 0
    for task in TASKS:
        if task in config.tasks:
            failures += _TASK_RUNNERS[task](config, out_dir)
    return 1 if failures else 0


def render_verify_table(results) -> str:
    lines = []
    for res in results:
        verdict = "PASS" if res.passed else "FAIL"
        lines.append(f"[{verdict}] criterion {res.index:>2}  {res.name}")
        for check in res.checks:
            mark = "ok  " if check.ok else "FAIL"
            lines.append(f"    {mark} {check.label}: {check.measured}  required {check.requirement}")
    passed = sum(1 for res in results if res.passed)
    lines.append(f"passed {passed} of {len(results)} criteria")
    return "\n".join(lines) + "\n"


def verify_all(out_dir: str | None = None) -> int:
    """Run the built-in acceptance suite; print the table, optionally save it."""
    from . import acceptance, serialize

    results = acceptance.run_all()
    sys.stdout.write(render_verify_table(results))
    if out_dir is not None:
        rows = [
            [res.index, res.name, c.label, c.measured, c.requirement, "pass" if c.ok else "fail"]
            for res in results
            for c in res.checks
        ]
        serialize.write_csv(
            os.path.join(out_dir, "verify_report.csv"),
            ("criterion", "name", "check", "measured", "requirement", "status"),
            rows,
        )
    return 0 if all(res.passed for res in results) else 1


# the flags each inline subcommand reads; argparse rejects the others, and the
# config defaults fill in what a subcommand does not offer
INLINE_FLAGS = {
    "simulate": ("t0", "t1", "n", "extent", "cfl"),
    "invariants": ("t0", "t1", "n", "extent"),
    "rescale": ("n", "extent"),
    "classify": ("t0", "t1", "n", "extent"),
    "embed": ("t0", "n", "extent"),
}
# each flag's config key, type and help; its default is the key's CONFIG_DEFAULTS
# entry (classify's from CLASSIFY_DEFAULTS)
_FLAG_SPECS = {
    "t0": ("t0", float, "window start"),
    "t1": ("t1", float, "window end"),
    "n": ("resolution", int, "grid resolution"),
    "extent": ("extent", float, "chart extent"),
    "cfl": ("cfl", float, "time-step fraction"),
}


def _inline_config(task: str, args: argparse.Namespace) -> ScenarioConfig:
    payload = {"name": f"{args.family}-{task}", "family": args.family, "tasks": [task], "out": args.out}
    payload.update((_FLAG_SPECS[flag][0], getattr(args, flag)) for flag in INLINE_FLAGS[task])
    return config_from_payload(payload)


def _add_inline_flags(sub: argparse.ArgumentParser, task: str) -> None:
    sub.add_argument("--family", required=True, help="one of " + ", ".join(FAMILIES))
    for flag in INLINE_FLAGS[task]:
        key, kind, text = _FLAG_SPECS[flag]
        default = CONFIG_DEFAULTS[key]
        default = CLASSIFY_DEFAULTS.get(flag, default) if task == "classify" else default
        sub.add_argument(f"--{flag}", type=kind, default=default, help=f"{text} (default {default:g})")
    sub.add_argument("--out", default="out", help="output directory (default ./out)")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built once (2-5 ms) and shared by every main call."""
    notes = dict(epilog=COLUMN_NOTES, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser = argparse.ArgumentParser(
        prog="geomflow",
        description="Conformal-factor flow scenarios: simulate, measure, classify, embed.",
        **notes,
    )
    subs = parser.add_subparsers(dest="command", required=True)
    run_p = subs.add_parser("run", help="execute a JSON scenario config", **notes)
    run_p.add_argument("config", help="path to a scenario JSON document")
    verify_p = subs.add_parser("verify", help="run the built-in acceptance suite")
    verify_p.add_argument("--out", default=None, help="also write verify_report.csv here")
    for task in INLINE_FLAGS:
        sub = subs.add_parser(task, help=f"run the {task} task from inline flags", **notes)
        _add_inline_flags(sub, task)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "verify":
            return verify_all(resolve_out_dir(args.out))
        if args.command == "run":
            return run(load_config(args.config))
        return run(_inline_config(args.command, args))
    except (GeomflowError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
