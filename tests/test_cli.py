import csv
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import geomflow
from geomflow import acceptance, cli, exact, rescaling, serialize, solver
from geomflow.errors import DomainError
from geomflow.geometry import FIELD_ORDER

TWO_PI = 2.0 * math.pi


def read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def write_config(tmp_path, **overrides):
    payload = {
        "name": "scenario",
        "family": "rosenau",
        "extent": 20.0,
        "resolution": 250,
        "t0": -2.0,
        "t1": -1.0,
        "cfl": 0.4,
        "scheme": "SemiImplicit",
        "tasks": ["simulate"],
        "out": str(tmp_path / "out"),
    }
    payload.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(payload))
    return str(path)


def base_payload():
    return {
        "name": "round",
        "family": "dssoliton",
        "params": {"beta": 2.0, "delta": 1.0},
        "extent": 15.0,
        "resolution": 256,
        "t0": 1.0,
        "t1": 2.0,
        "output_times": [1.0, 1.5, 2.0],
        "cfl": 0.5,
        "scheme": "SemiImplicit",
        "tasks": ["simulate", "invariants"],
        "tolerances": {"sup_rel_err": 0.01},
        "out": "artifacts",
    }


def test_config_defaults_fill_in():
    config = cli.config_from_payload({"name": "n", "family": "flat", "tasks": ["embed"]})
    assert config.resolution == 2000
    assert config.output_times is None
    assert config.out == "out"


@pytest.mark.parametrize(
    "overrides",
    [
        {"resolution": 8},
        {"extent": 0.0},
        {"extent": -3.0},
        {"cfl": 0.0},
        {"cfl": 1.5},
        {"tasks": []},
        {"tasks": ["simulate", "interpolate"]},
        {"scheme": "exact"},
        {"name": ""},
        {"family": None},
        {"checkpoint": "a.json"},
        {"tolerances": {"sup_norm": 1.0}},
        {"unknown_key": 1},
        {"resolution": "many"},
        {"tasks": "embed"},
        {"output_times": "123"},
        {"scheme": "ExplicitRK2"},
        {"family": None, "checkpoint": 0},
        {"family": 5},
        {"resolution": 1e999},
        {"resolution": 256.5},
        {"resolution": cli.MAX_RESOLUTION + 1},
        {"extent": 10**400},
        {"tolerances": {"max_ratio": math.nan}},
        {"tolerances": {"sup_rel_err": math.inf}},
        {"tolerances": {"min_ratio": 0}},
        {"params": {"beta": "2"}},
        {"params": {"r0": True}},
        {"tolerances": {"max_ratio": "5"}},
        {"tolerances": {"min_ratio": True}},
        {"t0": "0"},
        {"t1": True},
        {"extent": "20"},
        {"cfl": "0.4"},
        {"output_times": ["0.1"]},
        {"name": 5},
        {"out": 5},
        {"resolution": True},
        {"t0": math.inf},
        {"t1": -math.nan},
        {"extent": math.inf},
        {"output_times": [1.0, math.nan]},
    ],
)
def test_config_validation_rejects(overrides):
    payload = base_payload()
    payload.update(overrides)
    with pytest.raises(DomainError):
        cli.config_from_payload(payload)


def test_run_with_malformed_json_exits_2(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert cli.main(["run", str(path)]) == 2
    assert "error:" in capsys.readouterr().err


def test_run_with_missing_file_exits_2(tmp_path, capsys):
    assert cli.main(["run", str(tmp_path / "absent.json")]) == 2
    assert "error:" in capsys.readouterr().err


def assert_one_line_error(capsys):
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert "Traceback" not in err
    return err


def test_run_with_non_utf8_config_exits_2(tmp_path, capsys):
    path = tmp_path / "binary.json"
    path.write_bytes(b'{"name": "\xff"}')
    assert cli.main(["run", str(path)]) == 2
    assert_one_line_error(capsys)


def test_run_with_non_utf8_checkpoint_exits_2(tmp_path, capsys):
    checkpoint = tmp_path / "binary.json"
    checkpoint.write_bytes(b'{"chart": "\xff"}')
    path = write_config(tmp_path, family=None, checkpoint=str(checkpoint))
    assert cli.main(["run", path]) == 2
    assert_one_line_error(capsys)


def test_config_error_naming_a_key_with_a_line_break_stays_on_one_line(tmp_path, capsys):
    path = write_config(tmp_path, params={"be\nta": "2"})
    assert cli.main(["run", path]) == 2
    assert "params['be\\nta']" in assert_one_line_error(capsys)


def test_simulate_over_step_budget_exits_2_before_stepping(tmp_path, capsys, monkeypatch):
    def no_stepping(*args):
        raise AssertionError("stepped although the budget check should have failed first")

    monkeypatch.setattr(solver, "_Stencil", no_stepping)
    args = ["simulate", "--family", "flat", "--t0", "0", "--t1", "1e6", "--n", "64"]
    assert cli.main(args + ["--out", str(tmp_path / "out")]) == 2
    assert_one_line_error(capsys)


def test_simulate_with_two_snapshots_exits_2_before_stepping(tmp_path, capsys, monkeypatch):
    def no_stepping(*args):
        raise AssertionError("stepped although the snapshot count should have failed first")

    monkeypatch.setattr(solver, "_Stencil", no_stepping)
    out = tmp_path / "out"
    # the window ends alone: two snapshots, too few for diagnostics.json
    path = write_config(tmp_path, output_times=[-2.0, -1.0], out=str(out))
    assert cli.main(["run", path]) == 2
    assert "at least 3 snapshots" in assert_one_line_error(capsys)
    assert not out.exists()


@pytest.mark.parametrize(
    "overrides, message",
    [
        # the window ends alone: two snapshots, too few for diagnostics.json
        ({"tasks": ["verify", "simulate"], "output_times": [-2.0, -1.0]}, "at least 3 snapshots"),
        ({"tasks": ["verify", "rescale"], "family": "cigar"}, "collapses exponentially"),
        (
            {"tasks": ["verify", "invariants"], "resolution": 2**20, "output_times": [-2.0 + k / 65 for k in range(65)]},
            "exceed the limit",
        ),
        # classify builds its trajectory after invariants wrote, and the failed run publishes neither
        ({"tasks": ["invariants", "classify"], "t0": -20000.0}, "253 snapshots x 800521 nodes exceed the limit"),
        (
            {"tasks": ["invariants", "classify"], "t0": -727.0, "t1": -0.001},
            "conformal factor must be finite and positive",
        ),
        # and its dyadic windows counted: [-2, -1], [-4, -1] and [-8, -1] fit, four are needed
        ({"tasks": ["invariants", "classify"], "t0": -8.0}, "need 4 dyadic windows inside the trajectory, only 3 fit"),
    ],
    ids=[
        "simulate-snapshots", "rescale-family", "invariants-size", "classify-size", "classify-underflow",
        "classify-windows",
    ],
)
def test_a_later_task_that_fails_validation_leaves_no_artifact(tmp_path, capsys, monkeypatch, overrides, message):
    def no_verify(*args, **kwargs):
        raise AssertionError("ran verify before every requested task was validated")

    monkeypatch.setattr(acceptance, "flow_residual", no_verify)
    out = tmp_path / "out"
    path = write_config(tmp_path, out=str(out), **overrides)
    assert cli.main(["run", path]) == 2
    assert message in assert_one_line_error(capsys)
    assert not out.exists()


def tree(root):
    """Every path under root, hidden ones too, with a file's bytes (None for a directory)."""
    return {str(p.relative_to(root)): p.read_bytes() if p.is_file() else None for p in root.rglob("*")}


@pytest.mark.parametrize("out", ["out", os.path.join("a", "b", "out")], ids=["out", "nested-out"])
def test_a_task_that_fails_while_running_leaves_no_directory(tmp_path, capsys, out):
    # invariants writes, then embed finds the Sphere past its equator: no check runs before embed
    path = write_config(tmp_path, family="sphere", tasks=["invariants", "embed"], out=str(tmp_path / out))
    assert cli.main(["run", path]) == 2
    assert "not realizable as a revolution graph" in assert_one_line_error(capsys)
    # neither out nor its missing parents nor a staging directory
    assert sorted(os.listdir(tmp_path)) == ["config.json"]
    path = write_config(tmp_path, family="sphere", tasks=["invariants"], out=str(tmp_path / out))
    assert cli.main(["run", path]) == 0
    assert sorted(os.listdir(tmp_path / out)) == ["invariants.csv"]


def test_a_failing_second_task_leaves_a_filled_out_dir_byte_identical(tmp_path, capsys, monkeypatch):
    out = tmp_path / "out"
    path = write_config(tmp_path, family="flat", t0=0.0, t1=0.0, tasks=["invariants", "embed"], out=str(out))
    assert cli.main(["run", path]) == 0
    (out / "invariants.csv").write_text("stale\n")
    before = tree(tmp_path)

    def broken(config, out_dir):
        raise DomainError("the second task broke")

    monkeypatch.setitem(cli._TASK_RUNNERS, "embed", broken)
    assert cli.main(["run", path]) == 2
    assert assert_one_line_error(capsys) == "error: the second task broke\n"
    assert tree(tmp_path) == before
    assert sorted(os.listdir(out)) == ["embed.json", "invariants.csv", "surface.csv"]


def test_an_empty_out_writes_into_the_working_directory(tmp_path, monkeypatch):
    monkeypatch.delenv("GEOMFLOW_OUT", raising=False)
    monkeypatch.chdir(tmp_path)
    path = write_config(tmp_path, family="flat", t0=0.0, t1=0.0, tasks=["invariants"], out="")
    assert cli.main(["run", path]) == 0
    assert sorted(os.listdir(tmp_path)) == ["config.json", "invariants.csv"]


def test_a_resume_into_its_own_checkpoint_directory_reads_the_checkpoint_it_resumed(tmp_path):
    # simulate rewrites checkpoint_0016.json; invariants and embed must still read t = 0.5
    first = str(tmp_path / "first")
    args = ["simulate", "--family", "cigar", "--t0", "0", "--t1", "0.5", "--n", "400", "--extent", "30"]
    assert cli.main(args + ["--out", first]) == 0
    checkpoint = os.path.join(first, "checkpoint_0016.json")
    for name, out in (("fresh", str(tmp_path / "fresh")), ("own", first)):
        tasks = ["simulate", "invariants", "embed"]
        path = write_config(tmp_path, family=None, checkpoint=checkpoint, t1=1.0, tasks=tasks, out=out)
        assert cli.main(["run", path]) == 0, name
    for name in ("invariants.csv", "embed.json"):
        assert (tmp_path / "first" / name).read_bytes() == (tmp_path / "fresh" / name).read_bytes()
    _, rows = read_csv(os.path.join(first, "invariants.csv"))
    assert [float(row[0]) for row in rows] == [0.5]
    with open(os.path.join(first, "embed.json")) as fh:
        assert json.load(fh)["circumference"] == pytest.approx(6.283469, rel=1e-6)


def test_simulate_takes_one_curvature_pass_per_block(tmp_path, monkeypatch):
    # rmax.csv and diagnostics.json come from one traj.blocks pass
    calls = []
    curvature_field = solver.curvature_field

    def counting(*args):
        calls.append(args[1].shape)
        return curvature_field(*args)

    monkeypatch.setattr(solver, "curvature_field", counting)
    n = 4000
    args = ["simulate", "--family", "rosenau", "--t1", "-1.9", "--n", str(n)]
    assert cli.main(args + ["--out", str(tmp_path / "out")]) == 0
    blocks = solver.row_blocks(0, solver.DEFAULT_OUTPUT_COUNT, n)
    assert len(blocks) == 3
    assert calls == [(b.stop - b.start, n) for b in blocks]


def test_classify_over_the_trajectory_limit_exits_2_before_sampling(tmp_path, capsys, monkeypatch):
    def no_sampling(*args, **kwargs):
        raise AssertionError("sampled although the size check should have failed first")

    monkeypatch.setattr(solver, "sample_grid", no_sampling)
    # Rosenau's grid follows t0: 400,521 nodes over extent 10,013
    args = ["classify", "--family", "rosenau", "--t0", "-10000"]
    assert cli.main(args + ["--out", str(tmp_path / "out")]) == 2
    assert "exceed the limit" in assert_one_line_error(capsys)


def test_negative_flag_values_in_exponent_form_reach_the_program(tmp_path, capsys):
    # argparse alone reads -6.4e1 as an option: "argument --t0: expected one argument"
    for name, t0, t1 in [("exponent", "-6.4e1", "-1e0"), ("plain", "-64", "-1")]:
        args = ["classify", "--family", "rosenau", "--t0", t0, "--t1", t1]
        assert cli.main(args + ["--out", str(tmp_path / name)]) == 0
    for name in ("classify.csv", "classify.json"):
        assert (tmp_path / "exponent" / name).read_bytes() == (tmp_path / "plain" / name).read_bytes()
    out = tmp_path / "extent"
    # the flag in full, joined by hand, or as any prefix argparse resolves to it alone
    for flag in (["--extent", "-2e1"], ["--extent=-2e1"], ["--ext", "-2e1"], ["--e", "-2e1"]):
        assert cli.main(["invariants", "--family", "rosenau", *flag, "--out", str(out)]) == 2
        assert assert_one_line_error(capsys) == "error: extent must be > 0, got -20.0\n"
        assert not out.exists()
    # an ambiguous prefix stays argparse's to reject
    with pytest.raises(SystemExit) as exc:
        cli.main(["invariants", "--family", "rosenau", "--t", "-2e1", "--out", str(out)])
    assert exc.value.code == 2
    assert "ambiguous option: --t could match --t0, --t1" in capsys.readouterr().err


@pytest.mark.parametrize(
    "t0, message",
    [("-1e6", "253 snapshots x 40000521 nodes exceed the limit"), ("-1e308", "has no finite node count")],
    ids=["over-the-limit", "no-finite-count"],
)
def test_classify_with_a_huge_window_start_exits_2_before_sampling(tmp_path, capsys, monkeypatch, t0, message):
    def no_sampling(*args, **kwargs):
        raise AssertionError("sampled although the grid check should have failed first")

    monkeypatch.setattr(solver, "sample_grid", no_sampling)
    out = tmp_path / "out"
    assert cli.main(["classify", "--family", "rosenau", "--t0", t0, "--out", str(out)]) == 2
    assert message in assert_one_line_error(capsys)
    assert not out.exists()


def test_invariants_over_the_trajectory_limit_exits_2_before_sampling(tmp_path, capsys, monkeypatch):
    def no_sampling(*args, **kwargs):
        raise AssertionError("sampled although the size check should have failed first")

    monkeypatch.setattr(exact, "sample_grid", no_sampling)
    count = solver.MAX_TRAJECTORY_CELLS // cli.MAX_RESOLUTION + 1
    payload = {
        "name": "large",
        "family": "sphere",
        "resolution": cli.MAX_RESOLUTION,
        "output_times": [-2.0 + k / count for k in range(count)],
        "tasks": ["invariants"],
        "out": str(tmp_path / "out"),
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(payload))
    assert cli.main(["run", str(path)]) == 2
    assert "exceed the limit" in assert_one_line_error(capsys)


def run_python(tmp_path, *args):
    """Run a child interpreter in tmp_path that imports this checkout's package."""
    package_root = os.path.dirname(os.path.dirname(os.path.abspath(geomflow.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args], capture_output=True, env=env, cwd=tmp_path, text=True
    )


def test_importing_the_cli_loads_no_scipy(tmp_path):
    code = "import sys, geomflow.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    proc = run_python(tmp_path, "-c", code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


# runs `geomflow ARGV` (or only imports the CLI when ARGV is empty) and prints
# the exit code and the numpy and geomflow modules it loaded
FRONT_END_PROBE = """
import sys
from geomflow import cli
code = None
if sys.argv[1:]:
    try:
        code = cli.main(sys.argv[1:])
    except SystemExit as stop:  # argparse exits after printing --help
        code = stop.code
print(code, sorted(m for m in sys.modules if m == "numpy" or m.startswith("geomflow.")))
"""


def run_front_end(tmp_path, *argv) -> tuple[str, str]:
    proc = run_python(tmp_path, "-c", FRONT_END_PROBE, *argv)
    assert proc.returncode == 0, proc.stderr
    code, modules = proc.stdout.splitlines()[-1].split(" ", 1)
    return code, modules


@pytest.mark.parametrize(
    "argv, code",
    [([], "None"), (["--help"], "0"), (["simulate", "--help"], "0"), (["run", "bad.json"], "2")],
    ids=["import", "help", "simulate-help", "unknown-key"],
)
def test_the_front_end_loads_no_numpy(tmp_path, argv, code):
    (tmp_path / "bad.json").write_text(json.dumps({"name": "n", "family": "flat", "colour": 1}))
    assert run_front_end(tmp_path, *argv) == (code, "['geomflow.cli', 'geomflow.errors']")


def test_simulate_loads_no_acceptance(tmp_path):
    argv = ["simulate", "--family", "rosenau", "--n", "400", "--t1", "-1.9", "--out", "out"]
    code, modules = run_front_end(tmp_path, *argv)
    assert code == "0" and "'numpy'" in modules
    assert "'geomflow.acceptance'" not in modules


def test_stepping_loads_lapack_without_scipy_linalg(tmp_path):
    # the stepper loads scipy's compiled _flapack on its own; a later
    # scipy.linalg import reuses that module, so get_lapack_funcs hands back
    # the very routines the stepper used
    code = """
import sys
import numpy as np
from geomflow import exact, solver
grid = exact.sample_grid(exact.rosenau(), -2.0, n=200, extent=10.0)
traj = solver.evolve(grid, -1.9, cfl=0.4)
assert traj.steps and grid.provenance is not None
print(sorted(m for m in sys.modules if m.startswith("scipy.linalg")))
from scipy.linalg import get_lapack_funcs
pair = get_lapack_funcs(("pttrf", "pttrs"), (np.zeros(1),))
print(all(a is b for a, b in zip(pair, solver._lapack_pt())))
"""
    proc = run_python(tmp_path, "-c", code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("\n")[:2] == ["['scipy.linalg._flapack']", "True"]


def test_readme_api_example_runs(tmp_path):
    readme = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "README.md")
    with open(readme, encoding="utf-8") as fh:
        text = fh.read()
    section = text.split("## API example", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    proc = run_python(tmp_path, "-c", code)
    assert proc.returncode == 0, proc.stderr


def test_underflowing_soliton_shift_exits_2_with_one_line(tmp_path):
    # a subprocess, so a numpy RuntimeWarning would reach stderr as it does for users
    path = write_config(
        tmp_path, family="dssoliton", params={"beta": 1e308}, t0=-1.0, tasks=["invariants"]
    )
    proc = run_python(tmp_path, "-m", "geomflow.cli", "run", path)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error:") and proc.stderr.count("\n") == 1, proc.stderr
    assert "time shift" in proc.stderr


def test_a_later_snapshot_that_underflows_exits_2_with_one_line(tmp_path):
    # row 0 (t = -727, extent 740) is positive, but the t = -0.001 row underflows to 0 at the chart
    # ends, and the rows before it are subnormal there: a curvature pass over those would
    # overflow. A subprocess, so a numpy RuntimeWarning would reach stderr as it does for users
    args = ["classify", "--family", "rosenau", "--t0", "-727", "--t1", "-0.001"]
    proc = run_python(tmp_path, "-m", "geomflow.cli", *args, "--out", str(tmp_path / "out"))
    assert proc.returncode == 2
    assert proc.stderr == "error: conformal factor must be finite and positive\n"
    assert not os.path.exists(tmp_path / "out")


@pytest.mark.parametrize(
    "args",
    [
        # h*h underflows: the Laplacian would divide by zero
        ["invariants", "--family", "cigar", "--t0", "0", "--t1", "0", "--n", "16", "--extent", "1e-300"],
        ["embed", "--family", "cigar", "--n", "16", "--extent", "1e-300"],
        # squared nodes overflow in the closed forms
        ["invariants", "--family", "cigar", "--t0", "0", "--t1", "0", "--n", "16", "--extent", "1e300"],
        ["simulate", "--family", "rosenau", "--n", "16", "--extent", "1e300"],
    ],
    ids=["invariants-tiny", "embed-tiny", "invariants-huge", "simulate-huge"],
)
def test_out_of_range_grid_layouts_exit_2_with_one_line(tmp_path, args):
    # a subprocess, so a numpy RuntimeWarning would reach stderr as it does for users
    proc = run_python(tmp_path, "-m", "geomflow.cli", *args, "--out", str(tmp_path / "out"))
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("error:") and proc.stderr.count("\n") == 1, proc.stderr
    assert "Warning" not in proc.stderr and "Traceback" not in proc.stderr
    # the output directory appears with the first artifact, not before validation
    assert not os.path.exists(tmp_path / "out")


@pytest.mark.parametrize(
    "n, extent",
    [("16", "1e-150"), ("16", "1e154"), ("200", "1e36"), ("200", "1e42")],
    ids=["1e-150", "1e154", "1e36", "1e42"],
)
def test_out_of_scale_radial_fits_exit_2_with_one_line(tmp_path, n, extent):
    # np.polyfit's column norms underflow (tiny) or overflow (huge) in the tail fits,
    # or its scaled columns lose rank (RankWarning)
    args = ["invariants", "--family", "cigar", "--t0", "0", "--t1", "0", "--n", n]
    out = str(tmp_path / "out")
    proc = run_python(tmp_path, "-m", "geomflow.cli", *args, "--extent", extent, "--out", out)
    assert proc.returncode == 2, proc.stderr
    # no RankWarning before the error
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), proc.stderr
    assert f"extent {float(extent):g}" in lines[0]
    # no LAPACK complaint on stdout: the fit stops before its SVD sees a NaN
    assert "Traceback" not in proc.stderr and proc.stdout == ""
    assert not os.path.exists(out)


def test_a_snapshot_far_from_unit_scale_exits_2_with_one_line_naming_its_time(tmp_path):
    # the Sphere's u is about 1e300 at t = -1e300: polyfit's column norms overflow, which
    # numpy would also print as a RuntimeWarning
    args = ["invariants", "--family", "sphere", "--t0=-1e300", "--t1=-1e300"]
    out = str(tmp_path / "out")
    proc = run_python(tmp_path, "-m", "geomflow.cli", *args, "--out", out)
    assert proc.returncode == 2, proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), proc.stderr
    assert "at t = -1e+300, extent 20 " in lines[0]
    assert not os.path.exists(out)


def test_resume_from_an_old_format_checkpoint_exits_2_without_an_out_dir(tmp_path, capsys):
    checkpoint = tmp_path / "old.json"
    checkpoint.write_text(json.dumps({"chart": "radial", "t": 0.0, "nodes": [0.0, 1.0], "u": [1.0, 1.0]}))
    out = tmp_path / "out"
    path = write_config(tmp_path, family=None, checkpoint=str(checkpoint), out=str(out))
    assert cli.main(["run", path]) == 2
    assert "predates base64 checkpoints" in assert_one_line_error(capsys)
    assert not out.exists()


@pytest.mark.parametrize("t", [math.nan, math.inf])
def test_resume_from_a_checkpoint_with_a_non_finite_time_exits_2(tmp_path, capsys, t):
    checkpoint = tmp_path / "nonfinite.json"
    serialize.save_checkpoint(str(checkpoint), exact.sample_grid(exact.cigar(), 0.0, n=64, extent=10.0))
    payload = json.loads(checkpoint.read_text())
    # Python's JSON writer and reader spell these NaN and Infinity
    checkpoint.write_text(json.dumps(dict(payload, t=t)))
    out = tmp_path / "out"
    path = write_config(
        tmp_path, family=None, checkpoint=str(checkpoint), tasks=["invariants", "embed"], out=str(out)
    )
    assert cli.main(["run", path]) == 2
    assert "time must be finite" in assert_one_line_error(capsys)
    assert not out.exists()


def test_unknown_family_exits_2(tmp_path, capsys):
    out = str(tmp_path / "out")
    assert cli.main(["simulate", "--family", "torus", "--out", out]) == 2
    assert "unknown family" in capsys.readouterr().err


def test_simulate_rmax_final_row_matches_coth(tmp_path):
    out = str(tmp_path / "out")
    code = cli.main(
        ["simulate", "--family", "rosenau", "--n", "2000", "--extent", "20", "--out", out]
    )
    assert code == 0
    header, rows = read_csv(os.path.join(out, "rmax.csv"))
    assert header == ["t", "r_max"]
    t_end, r_end = float(rows[-1][0]), float(rows[-1][1])
    assert t_end == -1.0
    coth1 = 1.0 / math.tanh(1.0)
    assert abs(r_end - coth1) / coth1 < 1e-3
    assert os.path.exists(os.path.join(out, "checkpoint_0016.json"))
    assert os.path.exists(os.path.join(out, "diagnostics.json"))


def test_flat_invariants_row(tmp_path):
    out = str(tmp_path / "out")
    code = cli.main(
        ["invariants", "--family", "flat", "--t0", "0", "--t1", "0", "--n", "800",
         "--extent", "30", "--out", out]
    )
    assert code == 0
    header, rows = read_csv(os.path.join(out, "invariants.csv"))
    assert header == list(FIELD_ORDER)
    t, tau, aperture, circ, avr, r_max = (float(c) for c in rows[0][:6])
    assert t == 0.0
    assert tau == 0.0
    assert aperture == pytest.approx(TWO_PI, rel=1e-9)
    assert circ == math.inf
    assert avr == pytest.approx(1.0, abs=1e-6)
    assert r_max == pytest.approx(0.0, abs=1e-9)


@pytest.mark.parametrize("t1, rows", [("0", 1), ("1", solver.DEFAULT_OUTPUT_COUNT)])
def test_invariants_sample_a_one_time_window_once(tmp_path, t1, rows):
    out = str(tmp_path / "out")
    args = ["invariants", "--family", "flat", "--t0", "0", "--t1", t1, "--n", "400", "--out", out]
    assert cli.main(args) == 0
    _, table = read_csv(os.path.join(out, "invariants.csv"))
    assert len(table) == rows


def test_flat_verify_task_has_no_ratio_to_judge(tmp_path):
    # the flat residual is exactly 0 at every resolution
    out = str(tmp_path / "out")
    path = write_config(tmp_path, family="flat", t0=0.0, t1=1.0, tasks=["verify"], out=out)
    assert cli.main(["run", path]) == 0
    _, rows = read_csv(os.path.join(out, "convergence.csv"))
    assert [(float(r[1]), r[2]) for r in rows] == [(0.0, "")] * 4


def test_cigar_supported_tasks_full_artifact_set(tmp_path):
    out = str(tmp_path / "artifacts")
    path = write_config(
        tmp_path,
        name="cigar-all",
        family="cigar",
        extent=50.0,
        resolution=2000,
        t0=0.0,
        t1=0.5,
        tasks=["verify", "simulate", "invariants", "embed"],
        out=out,
    )
    assert cli.main(["run", path]) == 0
    names = sorted(os.listdir(out))
    assert "convergence.csv" in names
    assert "rmax.csv" in names
    assert "diagnostics.json" in names
    assert "invariants.csv" in names
    assert "surface.csv" in names
    assert "embed.json" in names
    assert sum(1 for n in names if n.startswith("checkpoint_")) == 17

    _, conv_rows = read_csv(os.path.join(out, "convergence.csv"))
    assert [int(r[0]) for r in conv_rows] == [250, 500, 1000, 2000]
    assert conv_rows[0][2] == ""
    for row in conv_rows[1:]:
        assert 3.0 <= float(row[2]) <= 5.0

    _, inv_rows = read_csv(os.path.join(out, "invariants.csv"))
    tau, aperture, circ, avr, r_max = (float(c) for c in inv_rows[0][1:6])
    assert tau == pytest.approx(TWO_PI, rel=0.01)
    assert abs(aperture) < 0.05
    assert circ == pytest.approx(TWO_PI, rel=0.01)
    assert avr < 0.02
    assert r_max == pytest.approx(4.0, abs=1e-6)

    with open(os.path.join(out, "embed.json")) as fh:
        surface_limits = json.load(fh)
    assert surface_limits["circumference"] == pytest.approx(TWO_PI, rel=0.01)
    assert surface_limits["width"] == pytest.approx(TWO_PI, rel=0.01)


def test_rescale_rosenau_writes_record_per_depth(tmp_path):
    out = str(tmp_path / "out")
    assert cli.main(["rescale", "--family", "rosenau", "--out", out]) == 0
    names = sorted(os.listdir(out))
    assert names == [f"rescale_j{j}.json" for j in range(1, 7)]
    with open(os.path.join(out, "rescale_j6.json")) as fh:
        record = json.load(fh)
    assert record["j"] == 6
    assert record["T_j"] == -64.0
    assert record["profile_distance"] < 0.02


def test_rescale_records_carry_criterion_6_distances(tmp_path):
    # one headline span: each rescale_jN.json distance is the one verify reports
    out = str(tmp_path / "out")
    assert cli.main(["rescale", "--family", "rosenau", "--out", out]) == 0
    written = []
    for j in rescaling.RESCALE_DEPTHS:
        with open(os.path.join(out, f"rescale_j{j}.json")) as fh:
            written.append(serialize.format_value(json.load(fh)["profile_distance"]))
    assert ", ".join(written) == acceptance.criterion_6().checks[0].measured


def test_rescale_config_grid_keys_leave_its_artifacts_unchanged(tmp_path):
    # rescale reads only the family; resolution and extent serve the other tasks,
    # so a narrow Sphere grid (which reaches the profile span on no window) writes
    # the bytes of the inline defaults
    inline = tmp_path / "inline"
    assert cli.main(["rescale", "--family", "sphere", "--out", str(inline)]) == 0
    out = tmp_path / "out"
    path = write_config(tmp_path, family="sphere", resolution=100, extent=1.5, tasks=["rescale"], out=str(out))
    assert cli.main(["run", path]) == 0
    names = sorted(os.listdir(inline))
    assert names == sorted(os.listdir(out)) == [f"rescale_j{j}.json" for j in range(1, 7)]
    for name in names:
        assert (out / name).read_bytes() == (inline / name).read_bytes(), name


@pytest.mark.parametrize("family", ["cigar", "dssoliton"])
@pytest.mark.parametrize("task", ["rescale", "classify"])
def test_backward_tasks_reject_steady_solitons(tmp_path, capsys, family, task):
    out = str(tmp_path / "out")
    assert cli.main([task, "--family", family, "--out", out]) == 2
    assert "collapses exponentially" in capsys.readouterr().err


def test_flat_rescale_is_rejected_before_any_task_writes(tmp_path, capsys):
    # R = 0 on Flat leaves rescale no point to pick; the invariants task, which
    # runs first, must not have written invariants.csv by then
    out = tmp_path / "out"
    path = write_config(tmp_path, family="flat", tasks=["invariants", "rescale"], out=str(out))
    assert cli.main(["run", path]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and "Flat" in lines[0] and "no point to pick" in lines[0]
    assert not out.exists()
    # classify keeps Flat
    assert cli.main(["classify", "--family", "flat", "--out", str(out)]) == 0


def test_classify_sphere_bounded(tmp_path):
    out = str(tmp_path / "out")
    code = cli.main(
        ["classify", "--family", "sphere", "--t0", "-64", "--t1", "-1", "--out", out]
    )
    assert code == 0
    with open(os.path.join(out, "classify.json")) as fh:
        verdict = json.load(fh)
    assert verdict["verdict"] == "Bounded"
    assert verdict["t0"] == -1.0
    header, rows = read_csv(os.path.join(out, "classify.csv"))
    assert header == ["T", "S"]
    assert [float(r[0]) for r in rows] == [-2.0, -4.0, -8.0, -16.0, -32.0, -64.0]
    for row in rows:
        assert 0.45 <= float(row[1]) <= 0.55


@pytest.mark.parametrize(
    "family, verdict", [("rosenau", "Diverging"), ("sphere", "Bounded"), ("flat", "Bounded")]
)
def test_classify_runs_with_its_own_defaults(tmp_path, family, verdict):
    # the defaults are the window of acceptance criterion 7, -64..-1, and its grids
    out = str(tmp_path / "out")
    assert cli.main(["classify", "--family", family, "--out", out]) == 0
    with open(os.path.join(out, "classify.json")) as fh:
        assert json.load(fh)["verdict"] == verdict
    _, rows = read_csv(os.path.join(out, "classify.csv"))
    assert [float(r[0]) for r in rows] == [-2.0, -4.0, -8.0, -16.0, -32.0, -64.0]


def test_a_deeper_rosenau_window_keeps_its_caps_and_classifies_diverging(tmp_path):
    # classify's grid follows t0, so the caps near |x| = 128 stay on it; a fixed
    # extent of 77 cut them off and read Bounded
    out = str(tmp_path / "out")
    assert cli.main(["classify", "--family", "rosenau", "--t0", "-128", "--out", out]) == 0
    with open(os.path.join(out, "classify.json")) as fh:
        assert json.load(fh)["verdict"] == "Diverging"
    _, rows = read_csv(os.path.join(out, "classify.csv"))
    assert [float(r[0]) for r in rows] == [-2.0, -4.0, -8.0, -16.0, -32.0, -64.0, -128.0]


def test_classify_help_shows_its_defaults_and_the_others_keep_theirs(capsys):
    def help_of(task):
        with pytest.raises(SystemExit):
            cli.main([task, "--help"])
        return capsys.readouterr().out

    classify = help_of("classify")
    assert "window start (default -64)" in classify
    for task in ("simulate", "invariants", "embed"):
        assert "window start (default -2)" in help_of(task)
    for task in ("simulate", "invariants", "embed"):
        text = help_of(task)
        for needle in ("grid resolution (default 2000)", "chart extent (default 20)"):
            assert needle in text
    # rescale's windows fix its grids, and classify's t0 fixes its: neither offers grid flags
    for text in (help_of("rescale"), classify):
        assert "--n" not in text and "--extent" not in text


@pytest.mark.parametrize(
    "task, flag",
    [("invariants", "--cfl"), ("rescale", "--cfl"), ("classify", "--cfl"), ("embed", "--cfl"),
     ("rescale", "--t0"), ("rescale", "--t1"), ("rescale", "--n"), ("rescale", "--extent"), ("embed", "--t1"),
     ("classify", "--n"), ("classify", "--extent")],
)
def test_inline_subcommands_reject_the_flags_they_do_not_read(tmp_path, capsys, task, flag):
    out = str(tmp_path / "out")
    with pytest.raises(SystemExit) as exc:
        cli.main([task, "--family", "sphere", flag, "-3", "--out", out])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag} -3" in capsys.readouterr().err
    assert not os.path.exists(out)


def test_env_var_overrides_out_dir(tmp_path, monkeypatch):
    env_dir = str(tmp_path / "env_out")
    flag_dir = str(tmp_path / "flag_out")
    monkeypatch.setenv("GEOMFLOW_OUT", env_dir)
    code = cli.main(
        ["invariants", "--family", "flat", "--t0", "0", "--t1", "0", "--n", "400",
         "--extent", "20", "--out", flag_dir]
    )
    assert code == 0
    assert os.path.exists(os.path.join(env_dir, "invariants.csv"))
    assert not os.path.exists(flag_dir)


def test_identical_commands_produce_identical_bytes(tmp_path):
    args = ["simulate", "--family", "rosenau", "--n", "250", "--extent", "12"]
    out_a = str(tmp_path / "a")
    out_b = str(tmp_path / "b")
    assert cli.main(args + ["--out", out_a]) == 0
    assert cli.main(args + ["--out", out_b]) == 0
    names = sorted(os.listdir(out_a))
    assert names == sorted(os.listdir(out_b))
    for name in names:
        with open(os.path.join(out_a, name), "rb") as fh:
            first = fh.read()
        with open(os.path.join(out_b, name), "rb") as fh:
            second = fh.read()
        assert first == second, name


def test_simulate_from_checkpoint_starts_at_saved_time(tmp_path):
    grid = exact.sample_grid(exact.rosenau(), -2.0, n=800, extent=20.0)
    checkpoint = str(tmp_path / "start.json")
    serialize.save_checkpoint(checkpoint, grid)
    out = str(tmp_path / "out")
    path = write_config(
        tmp_path, family=None, checkpoint=checkpoint, tasks=["simulate"], out=out
    )
    assert cli.main(["run", path]) == 0
    _, rows = read_csv(os.path.join(out, "rmax.csv"))
    assert float(rows[0][0]) == -2.0
    assert float(rows[-1][0]) == -1.0
    coth1 = 1.0 / math.tanh(1.0)
    assert float(rows[-1][1]) == pytest.approx(coth1, rel=1e-3)


def test_threshold_failure_exits_1(tmp_path):
    out = str(tmp_path / "out")
    path = write_config(
        tmp_path, resolution=250, tolerances={"sup_rel_err": 1e-12}, out=out
    )
    assert cli.main(["run", path]) == 1
    assert os.path.exists(os.path.join(out, "rmax.csv"))


def test_help_documents_csv_columns():
    text = cli.build_parser().format_help()
    for needle in (
        "convergence.csv",
        "rmax.csv",
        "invariants.csv",
        "classify.csv",
        "surface.csv",
        "t, r_max",
        "GEOMFLOW_OUT",
    ):
        assert needle in text
    # the rescale_jN.json note names the one profile span
    assert f"[0, {rescaling.PROFILE_SPAN:g}]" in text


# Scenario payloads for the property test below: mostly well-formed configs,
# each key drawn from its own range, with up to two keys set to an edge value
# or to arbitrary JSON, or an unknown key added. Values are bounded so that no
# example asks for more than a few thousand grid values or solver steps.
_JSON_ANY = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 256) | st.floats(-1e3, 1e3) | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=8), inner, max_size=3),
    max_leaves=6,
)
_SCENARIO_VALUES = {
    "name": st.text(min_size=1, max_size=8),
    "family": st.sampled_from(exact.FAMILIES),
    "checkpoint": st.just("checkpoint_0000.json"),
    "params": st.dictionaries(st.sampled_from(["r0", "beta", "delta"]), st.floats(0.5, 6.0), max_size=2),
    "extent": st.floats(4.0, 40.0),
    "resolution": st.integers(16, 256),
    "t0": st.floats(-3.0, 1.0),
    "t1": st.floats(-2.0, 2.0),
    "output_times": st.lists(st.floats(-3.0, 2.0), max_size=3),
    "cfl": st.floats(0.2, 1.0),
    "scheme": st.just(cli.SEMI_IMPLICIT),
    "tasks": st.lists(st.sampled_from(cli.TASKS), min_size=1, max_size=3),
    "tolerances": st.dictionaries(st.sampled_from(sorted(cli.DEFAULT_TOLERANCES)), st.floats(0.01, 10.0), max_size=2),
    "out": st.text(max_size=8),
}
_EDGE_VALUES = {
    "name": st.just(""),
    "family": st.sampled_from(["rosenau", "cone", ""]),
    "checkpoint": st.sampled_from(["missing.json", "config.json", ""]),
    "params": st.dictionaries(st.sampled_from(["r0", "beta", "k"]), st.floats(-2.0, 2.0), max_size=2),
    "extent": st.sampled_from([0.0, -1.0, math.nan, math.inf]),
    "resolution": st.sampled_from([-2, 0, 15, 16.5, 1e300]),
    "t0": st.sampled_from([0.0, -1e-3, math.inf, math.nan]),
    "t1": st.sampled_from([0.0, -1e-3, -math.inf, math.nan]),
    "output_times": st.lists(st.sampled_from([0.0, -5.0, 5.0, math.nan]), max_size=3),
    "cfl": st.sampled_from([0.0, 1.5, math.inf]),
    "scheme": st.just("ExplicitRK2"),
    "tasks": st.lists(st.sampled_from(cli.TASKS + ("plot",)), max_size=3),
    "tolerances": st.dictionaries(st.sampled_from(["sup_rel_err", "atol"]), st.floats(-1.0, 1.0), max_size=2),
    "out": st.just(""),
}


@st.composite
def _scenarios(draw):
    source = draw(st.sampled_from(["family", "checkpoint"]))
    payload = {key: draw(_SCENARIO_VALUES[key]) for key in ("name", "tasks", source)}
    for key, values in _SCENARIO_VALUES.items():
        if key not in payload and key not in ("family", "checkpoint") and draw(st.booleans()):
            payload[key] = draw(values)
    for key in draw(st.lists(st.sampled_from(sorted(_SCENARIO_VALUES) + ["plot"]), max_size=2)):
        payload[key] = draw(_EDGE_VALUES.get(key, _JSON_ANY) | _JSON_ANY)
    return payload


@settings(
    max_examples=100,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)
@given(payload=_scenarios())
def test_any_bounded_config_exits_0_1_or_2_without_a_traceback(payload, tmp_path, monkeypatch, capsys):
    # artifacts and relative checkpoint paths stay inside tmp_path
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("GEOMFLOW_OUT", str(tmp_path / "out"))
    serialize.save_checkpoint(
        str(tmp_path / "checkpoint_0000.json"), exact.sample_grid(exact.cigar(), 0.0, n=64, extent=8.0)
    )
    path = tmp_path / "config.json"
    path.write_text(json.dumps(payload))
    code = cli.main(["run", str(path)])
    err = capsys.readouterr().err
    assert code in (0, 1, 2)
    if code == 2:
        assert err.startswith("error:") and err.count("\n") == 1
