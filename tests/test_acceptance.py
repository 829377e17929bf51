"""Acceptance gate: one test per numbered criterion, then suite properties.

Each criterion test prints its measured-vs-required table and asserts the
overall verdict, so `pytest -v` shows one pass/fail line per criterion.
"""

import dataclasses
import os
import subprocess
import sys

import numpy as np
import pytest

import geomflow
from geomflow import acceptance, exact, solver
from geomflow.geometry import laplacian_field


def _assert_criterion(result):
    lines = [
        f"criterion {result.index} ({result.name}): "
        + ("PASS" if result.passed else "FAIL")
    ]
    for check in result.checks:
        mark = "ok" if check.ok else "FAIL"
        lines.append(
            f"  [{mark}] {check.label}: {check.measured} (required {check.requirement})"
        )
    text = "\n".join(lines)
    print(text)
    assert result.passed, text


def test_criterion_01_flow_equation_residual_order():
    _assert_criterion(acceptance.criterion_1())


def test_criterion_02_solver_accuracy():
    _assert_criterion(acceptance.criterion_2())


def test_criterion_03_curvature_maximum_track():
    _assert_criterion(acceptance.criterion_3())


def test_criterion_04_soliton_invariant_suite():
    _assert_criterion(acceptance.criterion_4())


def test_criterion_05_growth_rate_identities():
    _assert_criterion(acceptance.criterion_5())


def test_criterion_06_backward_cigar_limit():
    _assert_criterion(acceptance.criterion_6())


def test_criterion_07_growth_type_classifier():
    _assert_criterion(acceptance.criterion_7())


def test_criterion_08_trajectory_diagnostics():
    _assert_criterion(acceptance.criterion_8())


def test_criterion_09_average_curvature_bounds():
    _assert_criterion(acceptance.criterion_9())


def test_criterion_10_revolution_embedding():
    _assert_criterion(acceptance.criterion_10())


def test_criterion_11_deterministic_outputs():
    _assert_criterion(acceptance.criterion_11())


def test_verify_command_twice_is_byte_identical(tmp_path):
    env = dict(os.environ)
    env.pop("GEOMFLOW_OUT", None)
    # the child runs in tmp_path, where a relative PYTHONPATH entry would not resolve
    package_root = os.path.dirname(os.path.dirname(os.path.abspath(geomflow.__file__)))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    runs = []
    for name in ("first", "second"):
        out = tmp_path / name
        proc = subprocess.run(
            [sys.executable, "-m", "geomflow.cli", "verify", "--out", str(out)],
            capture_output=True,
            env=env,
            cwd=tmp_path,
        )
        assert proc.returncode == 0, proc.stdout.decode() + proc.stderr.decode()
        runs.append((proc.stdout, (out / "verify_report.csv").read_bytes()))
    assert runs[0][0] == runs[1][0]
    assert runs[0][1] == runs[1][1]
    assert b"passed 11 of 11 criteria" in runs[0][0]


def test_convergence_order_survives_halved_resolution():
    spec = exact.rosenau()
    errors = [acceptance.flow_residual(spec, -1.0, n=n, extent=12.0) for n in (125, 250, 500, 1000)]
    for coarse, fine in zip(errors, errors[1:]):
        assert 3.0 <= coarse / fine <= 5.0


def test_flow_residual_is_the_reliable_sup_of_the_pointwise_residual():
    # on this short chart the one-sided end rows carry the largest residual, outside the reliable slice
    spec = exact.rosenau()
    grid = exact.sample_grid(spec, -1.0, n=100, extent=3.0)
    lap = laplacian_field(np.log(grid.u), grid.nodes, grid.h, grid.chart)
    residual = np.abs(exact.dudt_profile(spec, grid.nodes, -1.0) - lap)
    expected = float(residual[grid.reliable_slice()].max())
    assert 0.0 < expected < residual.max()
    assert acceptance.flow_residual(spec, -1.0, n=100, extent=3.0) == expected


def test_criterion_values_are_pinned():
    # the shared scans (solver.closed_form_error, solver.diagnostics) reproduce
    # the values of the row-at-a-time loops they replaced, to the last bit
    traj = acceptance._accuracy_run()
    assert solver.closed_form_error(traj) == 7.869171654254486e-06
    diag = solver.diagnostics(traj)
    assert diag.f_defect == 1.9473017590865283e-05
    assert diag.length_evolution_defect == 3.8136771046248186e-05
    assert (diag.harnack_defect, diag.harnack_shift) == (0.0, 3.0)
    soliton = solver.exact_trajectory(exact.ds_soliton(), np.linspace(1.0, 2.0, 17), n=800, extent=15.0)
    diag = solver.diagnostics(soliton)
    assert diag.harnack_defect == 0.0
    assert diag.f_defect == 0.0012172038557372034
    assert diag.length_evolution_defect == 0.003627466656896746


@pytest.fixture
def reset_accuracy_cache():
    yield
    acceptance._accuracy_run.cache_clear()


def test_accuracy_criterion_detects_skewed_solver(monkeypatch, reset_accuracy_cache):
    real_evolve = solver.evolve

    def skewed_evolve(grid, t_end, **kwargs):
        traj = real_evolve(grid, t_end, **kwargs)
        return dataclasses.replace(traj, U=traj.U * 1.002)

    monkeypatch.setattr(solver, "evolve", skewed_evolve)
    result = acceptance.criterion_2()
    assert not result.passed
