"""Deterministic artifact files: canonical CSV/JSON text and grid checkpoints.

Identical data must produce identical bytes, so every CSV cell goes through
one fixed float format (17 significant digits), JSON floats are Python's
shortest round-trip repr, JSON keys are sorted, line endings are fixed to
"\\n", and payloads never include wall-clock data. A checkpoint's `nodes` and
`u` arrays are base64 of their little-endian float64 bytes, which round-trip
exactly at a fraction of the size and time of decimal text. Files are written
atomically (temp file in the target directory, then rename) so concurrent
scenario runs never expose half-written artifacts.
"""

from __future__ import annotations

import base64
import csv
import io
import json
import os
from typing import TYPE_CHECKING

import numpy as np

from .errors import DomainError
from .exact import spec_from_name
from .geometry import FIELD_ORDER
from .grids import CHARTS, ConformalGrid

if TYPE_CHECKING:  # annotations only: writing a checkpoint loads neither module
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


def _jsonable(obj):
    """The JSON value of a numpy array or scalar, for `json.dumps`'s `default`."""
    if isinstance(obj, (np.ndarray, np.generic)):
        return obj.tolist()
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def json_text(payload) -> str:
    return json.dumps(payload, sort_keys=True, indent=2, default=_jsonable) + "\n"


def atomic_write_text(path: str, text: str) -> None:
    """Write via a temp file and rename, so readers never see partial files.

    The temp file name is unique per call, so concurrent writers of one path
    never share it, and a failed write removes it.
    """
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    # os.urandom, not secrets.token_hex: secrets loads OpenSSL (about 3.6 MB) for nothing
    tmp = f"{path}.{os.getpid()}.{os.urandom(4).hex()}.tmp"
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


def _array_text(a: np.ndarray) -> str:
    return base64.b64encode(np.ascontiguousarray(a, dtype="<f8").tobytes()).decode("ascii")


def _array_from_text(key: str, text) -> np.ndarray:
    """A checkpoint array from the base64 text of its little-endian float64 bytes."""
    if not isinstance(text, str):
        raise DomainError(
            f"checkpoint {key} is not a base64 string; the file predates base64 checkpoints"
        )
    try:
        return np.frombuffer(base64.b64decode(text, validate=True), "<f8")
    except ValueError as err:
        raise DomainError(f"checkpoint {key} is not base64 of float64 bytes: {err}") from err


def checkpoint_payload(grid: ConformalGrid) -> dict:
    """A grid as JSON; `nodes` and `u` are base64 of their little-endian float64 bytes."""
    payload = {
        "kind": "checkpoint",
        "chart": grid.chart,
        "t": float(grid.t),
        "nodes": _array_text(grid.nodes),
        "u": _array_text(grid.u),
    }
    if grid.provenance is not None:
        payload["family"] = grid.provenance.family
        payload["params"] = grid.provenance.p
    return payload


def save_checkpoint(path: str, grid: ConformalGrid) -> None:
    write_json(path, checkpoint_payload(grid))


def grid_from_payload(payload: dict) -> ConformalGrid:
    try:
        chart = payload["chart"]
        t = float(payload["t"])
        nodes, u = payload["nodes"], payload["u"]
        family = payload.get("family")
        provenance = None if family is None else spec_from_name(family, **payload.get("params", {}))
    except (AttributeError, KeyError, TypeError, ValueError) as err:
        raise DomainError(f"malformed checkpoint payload: {err}") from err
    if chart not in CHARTS:
        raise DomainError(f"checkpoint names unknown chart {chart!r}")
    return ConformalGrid(
        chart, _array_from_text("nodes", nodes), _array_from_text("u", u), t, provenance
    )


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
