import base64
import json
import math
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from geomflow import exact, serialize
from geomflow.errors import DomainError
from geomflow.geometry import FIELD_ORDER, invariant_report
from geomflow.grids import CYLINDER, ConformalGrid


@pytest.mark.parametrize(
    "value,expected",
    [
        (None, ""),
        ("plain text", "plain text"),
        (True, "true"),
        (False, "false"),
        (7, "7"),
        (np.int64(-3), "-3"),
        (1.0, "1"),
        (-0.0, "0"),
        (math.inf, "inf"),
        (0.1, "0.10000000000000001"),
        (np.float64(2.5), "2.5"),
    ],
)
def test_format_value(value, expected):
    assert serialize.format_value(value) == expected


def test_format_value_float_cells_round_trip():
    for x in (1.3130352854993315, 1e-300, 6.283185307179586, -2.0 / 3.0):
        assert float(serialize.format_value(x)) == x


def test_csv_text_layout():
    text = serialize.csv_text(("a", "b"), [[1, None], [0.5, "x"]])
    assert text == "a,b\n1,\n0.5,x\n"


def test_csv_rerender_is_byte_identical():
    rows = [[i, math.sqrt(i + 1), i % 2 == 0] for i in range(20)]
    first = serialize.csv_text(("i", "root", "even"), rows)
    second = serialize.csv_text(("i", "root", "even"), rows)
    assert first == second


def test_json_text_sorted_and_newline_terminated():
    text = serialize.json_text({"b": 1, "a": [1.5, 2]})
    assert text == '{\n  "a": [\n    1.5,\n    2\n  ],\n  "b": 1\n}\n'


def test_json_text_of_an_array_matches_its_tolist():
    arr = np.array([[-0.0, 5e-324], [1e300, 0.1]])
    payload = {"arr": arr, "flags": np.array([True, False]), "ints": np.arange(3)}
    listed = {"arr": arr.tolist(), "flags": [True, False], "ints": [0, 1, 2]}
    assert serialize.json_text(payload) == serialize.json_text(listed)
    assert '-0.0' in serialize.json_text(payload) and "5e-324" in serialize.json_text(payload)


def _stdlib_jsonable(obj):
    """The conversion json_text used to run before `json.dumps`: the reference."""
    if isinstance(obj, dict):
        return {str(k): _stdlib_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_stdlib_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        return float(obj)
    return obj


def _stdlib_json_text(payload) -> str:
    return json.dumps(_stdlib_jsonable(payload), sort_keys=True, indent=2) + "\n"


_EDGE_FLOATS = st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 1e300, 0.1])
_FLOATS = st.floats() | _EDGE_FLOATS
_SHAPES = hnp.array_shapes(min_dims=1, max_dims=2, min_side=0, max_side=6)
_LEAVES = (
    st.none()
    | st.booleans()
    | st.integers()
    | _FLOATS
    | st.text()
    | _FLOATS.map(np.float64)
    | st.integers(-(2**63), 2**63 - 1).map(np.int64)
    | st.booleans().map(np.bool_)
    | hnp.arrays(np.float64, _SHAPES, elements=_FLOATS)
    | hnp.arrays(np.int64, _SHAPES)
    | hnp.arrays(np.bool_, _SHAPES)
    | st.lists(_FLOATS, max_size=8)
)
_PAYLOADS = st.recursive(
    _LEAVES,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=24,
)


@settings(max_examples=300, deadline=None)
@given(_PAYLOADS)
def test_json_text_matches_the_stdlib_indented_encoder(payload):
    assert serialize.json_text(payload) == _stdlib_json_text(payload)


def test_json_text_handles_numpy_scalars_and_arrays():
    payload = {"v": np.float64(0.25), "n": np.int32(4), "arr": np.array([1.0, 2.0])}
    parsed = json.loads(serialize.json_text(payload))
    assert parsed == {"arr": [1.0, 2.0], "n": 4, "v": 0.25}


def test_atomic_write_leaves_no_temp_file(tmp_path):
    path = os.path.join(tmp_path, "sub", "report.csv")
    serialize.atomic_write_text(path, "x,y\n1,2\n")
    serialize.atomic_write_text(path, "x,y\n3,4\n")
    with open(path) as fh:
        assert fh.read() == "x,y\n3,4\n"
    assert sorted(os.listdir(os.path.dirname(path))) == ["report.csv"]


def test_failed_atomic_write_keeps_target_and_removes_temp_file(tmp_path):
    path = os.path.join(tmp_path, "report.csv")
    serialize.atomic_write_text(path, "x,y\n1,2\n")
    with pytest.raises(UnicodeEncodeError):
        serialize.atomic_write_text(path, "x,y\n\ud800,2\n")  # lone surrogate
    with open(path, "rb") as fh:
        assert fh.read() == b"x,y\n1,2\n"
    assert os.listdir(tmp_path) == ["report.csv"]


def _f8_text(values) -> str:
    return base64.b64encode(np.asarray(values, dtype="<f8").tobytes()).decode("ascii")


def asymmetric_rosenau_grid(n):
    """Rosenau at t = -1.5 on n uniform nodes of [-9, 11], off-centre like a checkpoint of any layout."""
    nodes = np.linspace(-9.0, 11.0, n)
    return ConformalGrid(CYLINDER, nodes, exact.u_profile(exact.rosenau(), nodes, -1.5), -1.5, exact.rosenau())


def test_checkpoint_round_trip_is_bit_exact(tmp_path):
    radial = exact.sample_grid(exact.cigar(4.0), 0.3, n=300, extent=30.0)
    cylinder = asymmetric_rosenau_grid(400)
    for i, grid in enumerate((radial, cylinder)):
        path = os.path.join(tmp_path, f"checkpoint_{i}.json")
        serialize.save_checkpoint(path, grid)
        with open(path) as fh:
            payload = json.load(fh)
        # the documented format: base64 of the little-endian float64 bytes
        assert np.frombuffer(base64.b64decode(payload["u"]), "<f8").tobytes() == grid.u.tobytes()
        assert np.frombuffer(base64.b64decode(payload["nodes"]), "<f8").tobytes() == grid.nodes.tobytes()
        loaded = serialize.load_checkpoint(path)
        assert loaded.chart == grid.chart
        assert loaded.t == grid.t
        assert loaded.nodes.tobytes() == grid.nodes.tobytes()
        assert loaded.u.tobytes() == grid.u.tobytes()
        assert loaded.provenance == grid.provenance


def test_checkpoints_with_shared_nodes_never_reuse_stale_text(tmp_path):
    a = asymmetric_rosenau_grid(64)
    # the same nodes with other values, then one node moved by an ulp, then the first again
    b = ConformalGrid(a.chart, a.nodes.copy(), a.u * 2.0, -1.2, a.provenance)
    nodes = a.nodes.copy()
    nodes[17] = np.nextafter(nodes[17], np.inf)
    c = ConformalGrid(a.chart, nodes, a.u, a.t, a.provenance)
    for i, grid in enumerate((a, b, c, a)):
        path = os.path.join(tmp_path, f"checkpoint_{i}.json")
        serialize.save_checkpoint(path, grid)
        with open(path) as fh:
            assert fh.read() == _stdlib_json_text(serialize.checkpoint_payload(grid))
        loaded = serialize.load_checkpoint(path)
        assert loaded.t == grid.t
        assert loaded.nodes.tobytes() == grid.nodes.tobytes()
        assert loaded.u.tobytes() == grid.u.tobytes()


def test_checkpoint_rerender_is_byte_identical(tmp_path):
    grid = exact.sample_grid(exact.ds_soliton(), 0.25, n=128, extent=12.0)
    first = serialize.json_text(serialize.checkpoint_payload(grid))
    path = os.path.join(tmp_path, "checkpoint.json")
    serialize.save_checkpoint(path, grid)
    with open(path) as fh:
        assert fh.read() == first
    second = serialize.json_text(serialize.checkpoint_payload(serialize.load_checkpoint(path)))
    assert second == first


def test_checkpoint_without_provenance_loads_as_plain_grid(tmp_path):
    grid = ConformalGrid("radial", np.linspace(0.0, 5.0, 64), np.full(64, 2.0), 0.0)
    path = os.path.join(tmp_path, "plain.json")
    serialize.save_checkpoint(path, grid)
    loaded = serialize.load_checkpoint(path)
    assert loaded.provenance is None
    assert loaded.nodes.tobytes() == grid.nodes.tobytes()
    assert loaded.u.tobytes() == grid.u.tobytes()


# a valid 16-node radial checkpoint; each case below breaks one thing in it
_NODES, _U = _f8_text(np.linspace(0.0, 5.0, 16)), _f8_text(np.full(16, 2.0))
_VALID = {"chart": "radial", "t": 0.0, "nodes": _NODES, "u": _U}


@pytest.mark.parametrize(
    "payload",
    [
        {"chart": "radial", "t": 0.0, "nodes": _NODES},
        dict(_VALID, chart="spiral"),
        {"t": 0.0, "nodes": _NODES, "u": _U},
        dict(_VALID, t="soon"),
        # one character outside the base64 alphabet, which a lenient decoder would skip
        dict(_VALID, u=_U[:4] + "*" + _U[4:]),
        # 124 bytes: not a whole number of float64 values
        dict(_VALID, u=base64.b64encode(np.full(16, 2.0).tobytes()[:-4]).decode("ascii")),
        dict(_VALID, u=_f8_text(np.full(15, 2.0))),
        # the number lists of checkpoints written before the base64 format
        dict(_VALID, nodes=np.linspace(0.0, 5.0, 16).tolist(), u=[2.0] * 16),
        dict(_VALID, family=5),
        dict(_VALID, family="Cigar", params=[4.0]),
        dict(_VALID, family="Cigar", params={"r0": "x"}),
    ],
)
def test_malformed_checkpoint_payload_rejected(payload):
    serialize.grid_from_payload(_VALID)  # the unbroken payload loads
    with pytest.raises(DomainError):
        serialize.grid_from_payload(payload)


def test_invalid_json_checkpoint_rejected(tmp_path):
    path = os.path.join(tmp_path, "broken.json")
    with open(path, "w") as fh:
        fh.write("{not json")
    with pytest.raises(DomainError):
        serialize.load_checkpoint(path)


def test_non_utf8_checkpoint_rejected(tmp_path):
    path = os.path.join(tmp_path, "binary.json")
    with open(path, "wb") as fh:
        fh.write(b'{"chart": "\xff"}')
    with pytest.raises(DomainError, match="UTF-8"):
        serialize.load_checkpoint(path)


def test_invariant_table_follows_field_order():
    grid = exact.sample_grid(exact.cigar(4.0), 0.0, n=600, extent=30.0)
    report = invariant_report(grid)
    header, rows = serialize.invariant_table([report, report])
    assert header == FIELD_ORDER
    assert len(rows) == 2
    row_map = report.to_row()
    assert rows[0] == [row_map[name] for name in FIELD_ORDER]


def test_rescaling_record_keys():
    from geomflow import rescaling

    traj = rescaling.backward_trajectory(exact.rosenau(), 2)
    pick = rescaling.pick_point(traj, 2)
    record = serialize.rescaling_record(pick, 0.125)
    assert sorted(record) == [
        "M_j",
        "T_j",
        "alpha_j",
        "gamma_j",
        "j",
        "omega_j",
        "profile_distance",
        "t_j",
        "x_j",
    ]
    assert record["j"] == 2
    assert record["profile_distance"] == 0.125


def test_diagnostics_payload_keys():
    from geomflow import solver

    traj = solver.exact_trajectory(
        exact.sphere(), np.linspace(-2.0, -1.0, 5), n=200, extent=10.0
    )
    payload = serialize.diagnostics_payload(solver.diagnostics(traj))
    assert sorted(payload) == [
        "circle_indices",
        "f_defect",
        "harnack_defect",
        "harnack_shift",
        "length_evolution_defect",
        "m_of_t",
    ]
    assert len(payload["m_of_t"]) == 5
