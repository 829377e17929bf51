"""Benchmark workloads: seeded scenario configs and the checks on their artifacts.

A workload is a fixed list of `geomflow run` commands. The seed only jitters
inputs that leave the amount of work unchanged (a resolution offset of a few
nodes, interior output times, the classify window start), so every seed
costs the same; `forward` ignores it (see `commands`). The program sees
nothing but the JSON config files written here.

The checks read the artifacts back and compare them with the closed forms in
`geomflow.exact`. They run outside every timed region and outside tracing.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import random
from dataclasses import dataclass

import numpy as np

from geomflow import exact, serialize
from geomflow.errors import GeomflowError


@dataclass(frozen=True)
class Command:
    """One `geomflow run` invocation of a workload.

    `payload` is the config without its "out" key; a "checkpoint" value is a
    path relative to the repetition directory. `errors` names the accuracy
    metrics this command's artifacts feed.
    """

    name: str
    payload: dict
    expected: tuple[str, ...]
    errors: tuple[str, ...]


def _checkpoints(count: int) -> tuple[str, ...]:
    return tuple(f"checkpoint_{i:04d}.json" for i in range(count))


def commands(workload: str, seed: int, *, tiny: bool = False) -> list[Command]:
    """The workload's command list for this seed; `tiny` shrinks it for the self-test."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "forward":
        # The seed changes nothing here. Any change to the resolution, the
        # extent or an output time moves the known curvature-peak error of
        # the semi-implicit scheme between 1e-2 and 2.8e-2 (grid-scale
        # ringing), which would swamp the accuracy bound; this config shows
        # it at 1.76e-2.
        payload = {
            "name": "forward",
            "family": "rosenau",
            "extent": 20.0,
            "resolution": 400 if tiny else 16000,
            "t0": -2.0,
            "t1": -1.0,
            "cfl": 0.4,
            "scheme": "SemiImplicit",
            "output_times": [-2.0, -1.5, -1.0],
            "tasks": ["simulate"],
        }
        expected = _checkpoints(3) + ("rmax.csv", "diagnostics.json")
        return [Command("forward", payload, expected, ("err.u_sup_rel", "err.rmax_rel"))]
    if workload == "backward":
        n = (801 if tiny else 3081) + rng.randint(-4, 4)
        # t0 stays in [-64.5, -64]: six dyadic classify windows, as at -64
        t0 = round(-64.0 - rng.uniform(0.0, 0.5), 6)
        payload = {
            "name": "backward",
            "family": "rosenau",
            "extent": 77.0,
            "resolution": n,
            "t0": t0,
            "t1": -1.0,
            "tasks": ["rescale", "classify"],
        }
        expected = tuple(f"rescale_j{j}.json" for j in range(1, 7)) + (
            "classify.csv",
            "classify.json",
        )
        return [Command("backward", payload, expected, ("err.profile_distance",))]
    if workload == "archive":
        n = 2000 + rng.randint(-4, 4)
        count = 9 if tiny else 65
        # interior times move by at most a fifth of their spacing, which
        # stays below the solver's step cap, so every interval is one step
        spacing = 0.5 / (count - 1)
        times = [0.0]
        times += [round(k * spacing + rng.uniform(-0.2, 0.2) * spacing, 9) for k in range(1, count - 1)]
        times.append(0.5)
        survey = {
            "name": "cigar-survey",
            "family": "cigar",
            "extent": 50.0,
            "resolution": n,
            "t0": 0.0,
            "t1": 0.5,
            "cfl": 0.4,
            "scheme": "SemiImplicit",
            "output_times": times,
            "tasks": ["verify", "simulate", "invariants", "embed"],
        }
        resume = {
            "name": "cigar-resume",
            "checkpoint": os.path.join("survey", f"checkpoint_{count - 1:04d}.json"),
            "extent": 50.0,
            "resolution": n,
            "t1": 1.0,
            "cfl": 0.4,
            "scheme": "SemiImplicit",
            "tasks": ["simulate", "invariants", "embed"],
        }
        tail = ("rmax.csv", "diagnostics.json", "invariants.csv", "surface.csv", "embed.json")
        errors = ("err.u_sup_rel", "err.tau_rel")
        return [
            Command("survey", survey, ("convergence.csv",) + _checkpoints(count) + tail, errors),
            # the CLI writes 17 checkpoints when a config gives no output times
            Command("resume", resume, _checkpoints(17) + tail, errors),
        ]
    raise ValueError(f"unknown workload {workload!r}")


def write_configs(cmds: list[Command], rep_dir: str) -> list[str]:
    """Write one config per command into rep_dir; return their absolute paths."""
    paths = []
    for cmd in cmds:
        payload = dict(cmd.payload, out=os.path.join(rep_dir, cmd.name))
        if "checkpoint" in payload:
            payload["checkpoint"] = os.path.join(rep_dir, payload["checkpoint"])
        path = os.path.join(rep_dir, f"{cmd.name}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
        paths.append(path)
    return paths


class CheckError(Exception):
    """An artifact is missing, undecodable or wrong."""


def _read_csv(path: str) -> tuple[list[str], list[list[str]]]:
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or any(len(row) != len(rows[0]) for row in rows):
        raise CheckError(f"{os.path.basename(path)} is not a rectangular CSV with a header")
    return rows[0], rows[1:]


def _column(path: str, name: str) -> tuple[list[float], list[float]]:
    header, rows = _read_csv(path)
    if "t" not in header or name not in header:
        raise CheckError(f"{os.path.basename(path)} lacks columns t and {name}")
    it, iv = header.index("t"), header.index(name)
    try:
        return [float(r[it]) for r in rows], [float(r[iv]) for r in rows]
    except ValueError as err:
        raise CheckError(f"{os.path.basename(path)}: {err}") from None


def _u_sup_rel(out_dir: str, payloads: dict) -> float:
    worst = 0.0
    for name, payload in payloads.items():
        if not name.startswith("checkpoint_"):
            continue
        try:
            grid = serialize.grid_from_payload(payload)
        except GeomflowError as err:
            raise CheckError(f"{name}: {err}") from None
        if grid.provenance is None:
            raise CheckError(f"{name} records no family to compare against")
        u_ref = exact.u_profile(grid.provenance, grid.nodes, float(grid.t))
        rel = grid.reliable_slice()
        worst = max(worst, float(np.abs((grid.u - u_ref) / u_ref)[rel].max()))
    return worst


def _rmax_rel(out_dir: str, payloads: dict) -> float:
    times, values = _column(os.path.join(out_dir, "rmax.csv"), "r_max")
    refs = [exact.rosenau_rmax(t) for t in times]
    return max(abs(v - r) / r for v, r in zip(values, refs))


def _profile_distance(out_dir: str, payloads: dict) -> float:
    return float(payloads["rescale_j6.json"]["profile_distance"])


def _tau_rel(out_dir: str, payloads: dict) -> float:
    _, taus = _column(os.path.join(out_dir, "invariants.csv"), "tau")
    return max(abs(tau - 2.0 * math.pi) / (2.0 * math.pi) for tau in taus)


_ERROR_FUNCS = {
    "err.u_sup_rel": _u_sup_rel,
    "err.rmax_rel": _rmax_rel,
    "err.profile_distance": _profile_distance,
    "err.tau_rel": _tau_rel,
}


def digest_dir(out_dir: str) -> dict[str, str]:
    """sha256 of every file in out_dir, by file name."""
    digests = {}
    for name in sorted(os.listdir(out_dir)):
        with open(os.path.join(out_dir, name), "rb") as fh:
            digests[name] = hashlib.sha256(fh.read()).hexdigest()
    return digests


def check_command(cmd: Command, out_dir: str, code, reference: dict | None):
    """Check one command's exit code and artifacts.

    Returns (failures, digests, errors): failure messages (empty when the
    command passed), the artifact digests, and the accuracy metrics this
    command feeds. `reference` holds the digests of the first repetition;
    any difference in names or bytes is a failure.
    """
    if code != 0:
        return [f"{cmd.name}: exit status {code}"], {}, {}
    if not os.path.isdir(out_dir):
        return [f"{cmd.name}: no output directory"], {}, {}
    failures = []
    digests = digest_dir(out_dir)
    missing = [name for name in cmd.expected if name not in digests]
    if missing:
        failures.append(f"{cmd.name}: missing artifacts {missing[:3]}")
    if reference is not None and digests != reference:
        changed = sorted(set(digests) ^ set(reference)) or sorted(
            k for k in digests if digests[k] != reference[k]
        )
        failures.append(f"{cmd.name}: artifacts differ from the first repetition: {changed[:3]}")
    errors = {}
    try:
        payloads = {}
        for name in digests:
            path = os.path.join(out_dir, name)
            if name.endswith(".json"):
                with open(path, encoding="utf-8") as fh:
                    try:
                        payloads[name] = json.load(fh)
                    except json.JSONDecodeError as err:
                        raise CheckError(f"{name} is not valid JSON: {err}") from None
            elif name.endswith(".csv"):
                _read_csv(path)
        if "classify.json" in cmd.expected:
            verdict = payloads["classify.json"].get("verdict")
            if verdict != "Diverging":
                failures.append(f"{cmd.name}: classify verdict {verdict!r}, expected 'Diverging'")
        for metric in cmd.errors:
            value = _ERROR_FUNCS[metric](out_dir, payloads)
            if not math.isfinite(value):
                raise CheckError(f"{metric} is {value}")
            errors[metric] = value
    except (CheckError, KeyError, TypeError, ValueError, OSError) as err:
        failures.append(f"{cmd.name}: {type(err).__name__}: {err}")
    return failures, digests, errors
