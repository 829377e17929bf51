"""Deterministic artifact files: canonical CSV/JSON text and grid checkpoints.

Identical data must produce identical bytes, so every CSV cell goes through
one fixed float format (17 significant digits), JSON floats are Python's
shortest round-trip repr, JSON keys are sorted, line endings are fixed to
"\\n", and payloads never include wall-clock data. Files are written atomically
(temp file in the target directory, then rename) so concurrent scenario
runs never expose half-written artifacts.
"""

from __future__ import annotations

import csv
import functools
import io
import json
import os
import secrets

import numpy as np

from .errors import DomainError
from .exact import spec_from_name
from .geometry import FIELD_ORDER
from .grids import CHARTS, ConformalGrid
from .rescaling import RescalingPick
from .solver import DiagnosticReport

FLOAT_FORMAT = ".17g"


def format_value(value) -> str:
    """One cell of CSV output; fixed formatting keyed by type."""
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    # + 0.0 collapses signed zero so identical quantities render identically
    return format(float(value) + 0.0, FLOAT_FORMAT)


def csv_text(header, rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(list(header))
    for row in rows:
        writer.writerow([format_value(cell) for cell in row])
    return buf.getvalue()


class _Rendered(str):
    """JSON text `_encode` already rendered at the depth where it is used."""


def _encode(obj, level: int) -> str:
    """JSON text of obj at nesting depth level, byte for byte as
    `json.dumps(..., sort_keys=True, indent=2)` renders it.

    With an indent, `json.dumps` falls back to its pure-Python encoder, so
    containers are laid out here and scalars go through `json.dumps` (C). A
    list of finite floats is one C join of their reprs, the text that encoder
    writes for each of them.
    """
    if type(obj) is _Rendered:
        return obj
    if isinstance(obj, np.ndarray):
        obj = obj.tolist()
    if isinstance(obj, (dict, list, tuple)):
        if not obj:
            return "{}" if isinstance(obj, dict) else "[]"
        inner = "\n" + "  " * (level + 1)
        sep, close = "," + inner, "\n" + "  " * level
        if isinstance(obj, dict):
            items = {str(k): v for k, v in obj.items()}
            body = sep.join(json.dumps(k) + ": " + _encode(items[k], level + 1) for k in sorted(items))
            return "{" + inner + body + close + "}"
        if set(map(type, obj)) == {float}:
            body = sep.join(map(float.__repr__, obj))
            # a finite repr has no "n"; "nan" and "inf" must become NaN and Infinity
            if "n" not in body:
                return "[" + inner + body + close + "]"
        return "[" + inner + sep.join(_encode(v, level + 1) for v in obj) + close + "]"
    if isinstance(obj, (bool, np.bool_)):
        obj = bool(obj)
    elif isinstance(obj, (int, np.integer)):
        obj = int(obj)
    elif isinstance(obj, (float, np.floating)):
        obj = float(obj)
    return json.dumps(obj)


def json_text(payload) -> str:
    return _encode(payload, 0) + "\n"


def atomic_write_text(path: str, text: str) -> None:
    """Write via a temp file and rename, so readers never see partial files.

    The temp file name is unique per call, so concurrent writers of one path
    never share it, and a failed write removes it.
    """
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    tmp = f"{path}.{os.getpid()}.{secrets.token_hex(4)}.tmp"
    fh = open(tmp, "x", encoding="utf-8", newline="")
    try:
        with fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def write_csv(path: str, header, rows) -> None:
    atomic_write_text(path, csv_text(header, rows))


def write_json(path: str, payload) -> None:
    atomic_write_text(path, json_text(payload))


def checkpoint_payload(grid: ConformalGrid) -> dict:
    payload = {
        "kind": "checkpoint",
        "chart": grid.chart,
        "t": float(grid.t),
        "nodes": grid.nodes,
        "u": grid.u,
    }
    if grid.provenance is not None:
        payload["family"] = grid.provenance.family
        payload["params"] = grid.provenance.p
    return payload


@functools.lru_cache(maxsize=1)
def _nodes_text(nodes: bytes) -> _Rendered:
    """Checkpoint nodes rendered from their float64 bytes.

    The checkpoints of one trajectory share their nodes, so they render them
    once; the key is the bytes themselves, so equal keys mean equal text.
    """
    return _Rendered(_encode(np.frombuffer(nodes), 1))


def save_checkpoint(path: str, grid: ConformalGrid) -> None:
    payload = checkpoint_payload(grid)
    payload["nodes"] = _nodes_text(grid.nodes.tobytes())
    write_json(path, payload)


def grid_from_payload(payload: dict) -> ConformalGrid:
    try:
        chart = payload["chart"]
        t = float(payload["t"])
        nodes = np.asarray(payload["nodes"], dtype=float)
        u = np.asarray(payload["u"], dtype=float)
    except (KeyError, TypeError, ValueError) as err:
        raise DomainError(f"malformed checkpoint payload: {err}") from err
    if chart not in CHARTS:
        raise DomainError(f"checkpoint names unknown chart {chart!r}")
    provenance = None
    if "family" in payload:
        provenance = spec_from_name(payload["family"], **payload.get("params", {}))
    return ConformalGrid(chart, nodes, u, t, provenance)


def load_checkpoint(path: str) -> ConformalGrid:
    with open(path, encoding="utf-8") as fh:
        try:
            payload = json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError) as err:
            raise DomainError(f"checkpoint is not valid UTF-8 JSON: {err}") from err
    return grid_from_payload(payload)


def invariant_table(reports) -> tuple[tuple[str, ...], list[list]]:
    """Header and rows for a CSV of snapshot invariants."""
    header = FIELD_ORDER
    rows = []
    for report in reports:
        row_map = report.to_row()
        rows.append([row_map[name] for name in header])
    return header, rows


def rescaling_record(pick: RescalingPick, profile_distance: float) -> dict:
    return {
        "j": pick.j,
        "T_j": pick.T_j,
        "gamma_j": pick.gamma_j,
        "t_j": pick.t_j,
        "x_j": pick.x_j,
        "M_j": pick.M_j,
        "alpha_j": pick.alpha_j,
        "omega_j": pick.omega_j,
        "profile_distance": float(profile_distance),
    }


def diagnostics_payload(report: DiagnosticReport) -> dict:
    return {
        "f_defect": report.f_defect,
        "m_of_t": [[t, v] for t, v in report.m_of_t],
        "harnack_defect": report.harnack_defect,
        "harnack_shift": report.harnack_shift,
        "length_evolution_defect": report.length_evolution_defect,
        "circle_indices": list(report.circle_indices),
    }
