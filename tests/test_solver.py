import math
import os
import re
import sys
import tracemalloc
from importlib.machinery import EXTENSION_SUFFIXES

import numpy as np
import pytest

from geomflow import exact, geometry, grids, solver
from geomflow.errors import DomainError, GeomflowError
from geomflow.grids import CYLINDER, RADIAL, ConformalGrid, reliable_slice, trust_mask


def rosenau_grid(n=800, extent=20.0, t=-2.0):
    return exact.sample_grid(exact.rosenau(), t, n=n, extent=extent)


def free_radial_grid(n=64, extent=10.0):
    # cigar-shaped data without provenance: boundary falls back to the mirror closure
    nodes = np.linspace(0.0, extent, n)
    return ConformalGrid(RADIAL, nodes, 1.0 / (1.0 + nodes**2), 0.0)


def rosenau_run(n=800, cfl=0.4, t0=-2.0, t1=-1.0, snapshots=17):
    grid = rosenau_grid(n=n)
    return solver.evolve(grid, t1, cfl=cfl, output_times=np.linspace(t0, t1, snapshots))


def one_step(grid, dt):
    """The run of one step of dt from grid: evolve steps exactly once to an output
    time when dt <= cfl * min(h, 1 / R_max)."""
    traj = solver.evolve(grid, grid.t + dt, output_times=[grid.t + dt])
    assert len(traj.steps) == 1
    return traj


def test_step_tracks_exact_solution_one_step():
    spec = exact.rosenau()
    grid = exact.sample_grid(spec, -2.0, n=400, extent=6.0)
    dt = 1e-4
    stepped = one_step(grid, dt).snapshot(-1)
    assert stepped.t == grid.t + dt
    u_ref = exact.u_profile(spec, stepped.nodes, stepped.t)
    err = np.abs(stepped.u - u_ref).max()
    assert 0.0 < err < 5e-9


@pytest.mark.parametrize("grid,calls", [(rosenau_grid(n=64, extent=5.0), 1), (free_radial_grid(), 0)])
def test_step_evaluates_the_pinned_boundary_once(monkeypatch, grid, calls):
    seen = []

    def counted(spec, coords, t, out=None, factor=None):
        seen.append(t)
        return exact.u_profile(spec, coords, t, out, factor)

    monkeypatch.setattr(solver, "u_profile", counted)
    traj = one_step(grid, 1e-3)
    dt = traj.steps[0].dt
    # one call for both stages: the trapezoid stage ends at t + gamma dt, the BDF2 stage at t + dt
    assert seen == [(grid.t + solver.GAMMA * dt, grid.t + dt)] * calls
    assert np.all(np.isfinite(traj.U[-1]))


def test_invalid_state_is_rejected_with_first_bad_node():
    # u = exp(w): NaN stays NaN, +inf and w > 709.78 give u = inf, -inf and
    # w < -745.2 give u = 0; each is a bad node, and the first one is named
    cases = [
        ({5: np.nan, 6: np.nan}, 5),
        ({3: np.inf}, 3),
        ({2: -np.inf}, 2),
        ({1: 800.0}, 1),
        ({1: -800.0}, 1),
        ({6: np.nan, 4: -np.inf, 7: np.inf, 5: 1.0}, 4),
    ]
    for bad, first in cases:
        w = np.zeros(8)
        for node, value in bad.items():
            w[node] = value
        with np.errstate(over="ignore"):
            u = np.exp(w)
        message = r"^step toward t=1.0 produced an invalid conformal factor at node \d+$"
        with pytest.raises(GeomflowError, match=message) as excinfo:
            solver._check_state(w, u, 1.0)
        assert int(str(excinfo.value).rsplit(" ", 1)[1]) == first
    solver._check_state(np.zeros(8), np.ones(8), 1.0)


def test_failed_linear_solve_is_a_rejected_step(monkeypatch):
    # LAPACK reports failure through info > 0: pttrf for a matrix that is not
    # positive definite, pttrs never in practice; either way the step is
    # rejected, not returned
    real_pttrf, real_pttrs = solver._lapack_pt()

    def failed_pttrf(d, e, overwrite_d=0):
        return d, e, 1

    def failed_pttrs(d, e, b, overwrite_b=0):
        return b, 1

    for pair in ((failed_pttrf, real_pttrs), (real_pttrf, failed_pttrs)):
        monkeypatch.setattr(solver, "_lapack_pt", lambda pair=pair: pair)
        with pytest.raises(GeomflowError, match="^linear solve failed during step toward t="):
            one_step(free_radial_grid(), 1e-3)


def test_missing_lapack_extension_names_the_file(monkeypatch, tmp_path):
    import scipy

    monkeypatch.delitem(sys.modules, "scipy.linalg._flapack", raising=False)
    monkeypatch.setattr(scipy, "__path__", [str(tmp_path)])
    expected = os.path.join(str(tmp_path), "linalg", "_flapack" + EXTENSION_SUFFIXES[0])
    with pytest.raises(ImportError, match=re.escape(expected)):
        solver._lapack_pt.__wrapped__()


def test_step_factors_once_and_solves_twice(monkeypatch):
    # one L D L^T factorization serves both stages, the per-step curvature
    # peak comes from the carried rate, not from the measurement operator, and
    # the trust mask is refilled once per accepted step after the initial one
    real_pttrf, real_pttrs = solver._lapack_pt()
    real_trust_mask = solver.trust_mask
    calls = {"pttrf": 0, "pttrs": 0, "trust_mask": 0}

    def pttrf(*args, **kwargs):
        calls["pttrf"] += 1
        return real_pttrf(*args, **kwargs)

    def pttrs(*args, **kwargs):
        calls["pttrs"] += 1
        return real_pttrs(*args, **kwargs)

    def counted_trust_mask(*args, **kwargs):
        calls["trust_mask"] += 1
        return real_trust_mask(*args, **kwargs)

    def forbidden(*args, **kwargs):
        raise AssertionError("a step used the measurement operator")

    monkeypatch.setattr(solver, "_lapack_pt", lambda: (pttrf, pttrs))
    monkeypatch.setattr(solver, "curvature_field", forbidden)
    monkeypatch.setattr(solver, "trust_mask", counted_trust_mask)
    traj = solver.evolve(rosenau_grid(n=400), -1.9, cfl=0.4, output_times=[-2.0, -1.9])
    steps = len(traj.steps)
    assert steps > 0
    assert calls == {"pttrf": steps, "pttrs": 2 * steps, "trust_mask": steps + 1}


def test_step_peaks_follow_the_one_trust_floor(monkeypatch):
    # the stepper's r_max reads grids.trust_mask, so a change of the floor in
    # grids reaches every StepRecord; dt = cfl * h on this grid either way
    def run():
        return solver.evolve(rosenau_grid(n=400), -1.9, cfl=0.4, output_times=[-2.0, -1.9])

    default = np.array([s.r_max for s in run().steps])
    # u peaks near 0.76 at x = 0, so only the centre, where R is lowest, stays trusted
    monkeypatch.setattr(grids, "CURVATURE_TRUST_FLOOR", 0.5)
    centre = run().steps
    assert len(centre) == default.size
    assert np.all(np.array([s.r_max for s in centre]) < default)
    # no node reaches the floor: trust_mask keeps the argmax of u, so r_max stays finite
    monkeypatch.setattr(grids, "CURVATURE_TRUST_FLOOR", 10.0)
    fallback = run().steps
    assert all(math.isfinite(s.r_max) and math.isfinite(s.residual) for s in fallback)
    assert np.all(np.array([s.r_max for s in fallback]) <= np.array([s.r_max for s in centre]))


def _reference_band(grid):
    """The stepper's L written out per chart as rows (sub, dia, sup): the second
    difference, the radial slope term, the two-point axis row and mirror ends."""
    n, h, inv_h2 = grid.n, grid.h, 1.0 / grid.h**2
    sub, dia, sup = np.full(n, inv_h2), np.full(n, -2.0 * inv_h2), np.full(n, inv_h2)
    if grid.chart == RADIAL:
        slope = 1.0 / (2.0 * h * grid.nodes[1:-1])
        sub[1:-1] -= slope
        sup[1:-1] += slope
        dia[0], sup[0] = -4.0 * inv_h2, 4.0 * inv_h2
    else:
        sup[0] = 2.0 * inv_h2
    sub[-1] = 2.0 * inv_h2
    sub[0] = sup[-1] = 0.0
    return sub, dia, sup


def _reference_step(grid, st, w, f, t, dt):
    """TR-BDF2 written out of place: the unsymmetric band of I - theta J and solve_banded.

    Only the pinned nodes and their values come from the stencil under test."""
    from scipy.linalg import solve_banded

    sub, dia, sup = _reference_band(grid)
    g = 2.0 - math.sqrt(2.0)
    theta = 0.5 * g * dt
    c = theta * np.exp(-w)
    ab = np.zeros((3, w.size))
    ab[0, 1:] = -(c * sup)[:-1]
    ab[1, :] = 1.0 - c * dia + theta * f
    ab[2, :-1] = -(c * sub)[1:]
    for p in st.pinned:
        ab[1, p] = 1.0
        if p + 1 < w.size:
            ab[0, p + 1] = 0.0
        if p > 0:
            ab[2, p - 1] = 0.0

    def solve(rhs, pinned_delta):
        rhs = rhs.copy()
        rhs[st.pinned] = pinned_delta
        return solve_banded((1, 1), ab, rhs, check_finite=False)

    def rate(v):
        lap = dia * v
        lap[1:] += sub[1:] * v[:-1]
        lap[:-1] += sup[:-1] * v[1:]
        return np.exp(-v) * lap

    pins = st.pin_values(t + g * dt, t + dt)
    d1 = solve(g * dt * f, pins[0] - w[st.pinned])
    w_g = w + d1
    f_g = rate(w_g)
    carry = (1.0 - g) ** 2 / (g * (2.0 - g))
    d2 = solve(carry * d1 + theta * f_g, pins[1] - w_g[st.pinned])
    w_new = w + d1 + d2
    f_new = rate(w_new)
    C = (-3.0 * g**2 + 4.0 * g - 2.0) / (12.0 * (2.0 - g))
    err = 2.0 * abs(C) * dt * np.abs(f / g - f_g / (g * (1.0 - g)) + f_new / (1.0 - g))
    return w_new, f_new, err


@pytest.mark.parametrize(
    "grid,t_end",
    [
        (exact.sample_grid(exact.cigar(4.0), 0.0, n=400, extent=30.0), 0.5),
        (rosenau_grid(n=800), -1.5),
        (free_radial_grid(n=200), 0.5),
    ],
    ids=["pinned-radial", "pinned-cylinder", "free"],
)
def test_lean_step_matches_reference_formulation(monkeypatch, grid, t_end):
    # the symmetric scaled pttrf/pttrs step with in-place stage arithmetic must
    # reproduce the band formulation at every step. Measured worst gaps over
    # the three grids: 3.7e-14 in w (relative to max|w|), 1.3e-11 in f
    # (relative to max|f|) and 4.7e-3 in the estimate (relative; its maximum
    # sits at the trust floor u ~ 1e-5, where rounding in f is amplified by
    # 1/u); each bound below leaves a margin of at least 2.5x.
    taken = []
    lean_step = solver._step_tr_bdf2

    def recorded(st, w, u, f, t, dt):
        out = lean_step(st, w, u, f, t, dt)
        taken.append((st, w.copy(), f.copy(), t, dt, out))
        return out

    monkeypatch.setattr(solver, "_step_tr_bdf2", recorded)
    traj = solver.evolve(grid, t_end, cfl=0.4, output_times=np.linspace(grid.t, t_end, 3))
    assert len(taken) == len(traj.steps) > 0
    for (st, w, f, t, dt, (w_new, u_new, f_new, err)), record in zip(taken, traj.steps):
        ref_w, ref_f, ref_err = _reference_step(grid, st, w, f, t, dt)
        mask = trust_mask(u_new, grid.chart)
        assert np.abs(w_new - ref_w).max() <= 1e-13 * np.abs(ref_w).max()
        assert np.abs(f_new - ref_f).max() <= 1e-9 * np.abs(ref_f).max()
        assert err[mask].max() == pytest.approx(ref_err[mask].max(), rel=2e-2)
        assert np.array_equal(u_new, np.exp(w_new))
        assert record.residual == float(err[mask].max())
        assert record.r_max == float(-f_new[mask].min())


def test_semi_implicit_huge_step_stays_positive():
    # far beyond evolve's step cap, theta R > 1 somewhere, so I - theta J is not
    # positive definite: the step is rejected whole, never returned with a
    # nonpositive or nonfinite conformal factor
    grid = free_radial_grid()
    st = solver._Stencil(grid)
    w = np.log(grid.u)
    message = re.escape(f"linear solve failed during step toward t={grid.t + 1e8}")
    with pytest.raises(GeomflowError, match=f"^{message}$"):
        solver._advance(st, w, grid.u, st.apply(w) / grid.u, grid.t, 1e8)


def test_flat_data_is_stationary():
    sampled = exact.sample_grid(exact.flat(), 0.0, n=64, extent=5.0)
    free = ConformalGrid(CYLINDER, np.linspace(-5.0, 5.0, 64), np.ones(64), 0.0)
    for grid in (sampled, free):
        stepped = one_step(grid, 0.01).snapshot(-1)
        assert np.abs(stepped.u - 1.0).max() <= 1e-15


def test_evolve_rosenau_tracks_exact_solution():
    spec = exact.rosenau()
    traj = rosenau_run(n=800)
    assert np.array_equal(traj.times, np.linspace(-2.0, -1.0, 17))
    sup_rel = 0.0
    for t, u in zip(traj.times, traj.U):
        u_ref = exact.u_profile(spec, traj.nodes, t)
        sup_rel = max(sup_rel, float(np.abs(u / u_ref - 1.0).max()))
    assert sup_rel < 5e-4
    assert all(record.dt > 0.0 for record in traj.steps)
    assert np.all(traj.U > 0.0)


def test_evolve_rmax_matches_rosenau_curvature_maximum():
    traj = rosenau_run(n=800)
    series = solver.rmax_series(traj)
    worst = max(abs(rm / exact.rosenau_rmax(t) - 1.0) for t, rm in series.values)
    assert worst < 1e-3
    assert series.monotonicity_defect <= 1e-6


def test_rmax_series_constant_on_exact_cigar():
    traj = solver.exact_trajectory(
        exact.cigar(4.0), np.linspace(-0.5, 2.0, 6), n=1000, extent=30.0
    )
    series = solver.rmax_series(traj)
    assert all(abs(rm - 4.0) < 1e-4 for _, rm in series.values)
    assert series.monotonicity_defect <= 1e-8


@pytest.mark.parametrize(
    "spec, times, kwargs",
    [
        (exact.cigar(4.0), np.linspace(-0.5, 2.0, 15), dict(extent=30.0)),
        (exact.rosenau(), np.linspace(-3.0, -0.2, 15), dict(extent=12.0)),
        (exact.sphere(), np.linspace(-8.0, -0.5, 15), dict(extent=30.0)),
    ],
)
def test_blocked_rmax_series_equals_the_row_by_row_maxima(spec, times, kwargs):
    n = 5001
    # 6 rows per block: 15 snapshots end in a short block
    assert [b.stop - b.start for b in solver.row_blocks(0, times.size, n)] == [6, 6, 3]
    traj = solver.exact_trajectory(spec, times, n=n, **kwargs)
    # the same rows stored: the scan reads them through the same blocks
    stored = solver.FlowTrajectory(traj.chart, traj.nodes, traj.times, traj.u_rows(), spec, ())
    assert np.array_equal(solver.curvature_range(stored), solver.curvature_range(traj))
    assert solver.rmax_series(stored) == solver.rmax_series(traj)
    values = solver.rmax_series(traj).values
    assert len(values) == times.size
    for k, (t, rm) in enumerate(values):
        assert t == float(traj.times[k])
        snapshot = traj.snapshot(k)
        trusted = trust_mask(snapshot.u, snapshot.chart)
        assert rm == float(geometry.scalar_curvature(snapshot)[trusted].max())


def test_refinement_reduces_rosenau_errors():
    # at fixed cfl, doubling n must shrink the sup error in u at second order
    # and keep the curvature peak accurate; a scheme that leaves stiff
    # far-field modes ringing lets the peak error grow with n instead
    # (the trapezoid corrector read 2.6e-5, 4.9e-5, 1.3e-3 here)
    spec = exact.rosenau()
    times = np.linspace(-2.0, -1.0, 9)
    u_errs = []
    for n in (2000, 4000, 8000):
        traj = solver.evolve(rosenau_grid(n=n), -1.0, cfl=0.4, output_times=times)
        rel_errs = [np.abs(u / exact.u_profile(spec, traj.nodes, t) - 1.0).max() for t, u in zip(times, traj.U)]
        u_errs.append(float(max(rel_errs)))
        peak_err = max(abs(rm / exact.rosenau_rmax(t) - 1.0) for t, rm in solver.rmax_series(traj).values)
        assert peak_err < 5e-5, (n, peak_err)
    assert u_errs[0] >= 3.0 * u_errs[1] and u_errs[1] >= 3.0 * u_errs[2], u_errs


def test_convergence_order_two():
    spec = exact.rosenau()
    t1 = -1.5
    errs = []
    for n in (250, 500):
        grid = exact.sample_grid(spec, -2.0, n=n, extent=20.0)
        traj = solver.evolve(grid, t1, cfl=0.4, output_times=[-2.0, t1])
        u_ref = exact.u_profile(spec, traj.nodes, t1)
        errs.append(float(np.abs(traj.U[-1] - u_ref).max()))
    ratio = errs[0] / errs[1]
    assert 3.0 < ratio < 5.0


def test_u_decreases_toward_extinction():
    traj = rosenau_run(n=300, t1=-1.5, snapshots=3)
    assert np.all(traj.U[-1] < traj.U[0])


def test_blow_up_aborts_with_structured_error():
    grid = exact.sample_grid(exact.rosenau(), -0.01, n=64, extent=3.0)
    message = r"curvature maximum (\S+) crossed 1000 at t=(\S+)"
    with pytest.raises(GeomflowError, match=f"^{message}$") as excinfo:
        solver.evolve(grid, -1e-5, cfl=0.5)
    r_max, t = re.fullmatch(message, str(excinfo.value)).groups()
    assert float(r_max) > 1e3
    assert -1e-2 < float(t) < 0.0


def test_sphere_rmax_tracks_inverse_time():
    grid = exact.sample_grid(exact.sphere(), -1.0, n=500, extent=30.0)
    traj = solver.evolve(grid, -0.5, cfl=0.4, output_times=np.linspace(-1.0, -0.5, 5))
    for t, rm in solver.rmax_series(traj).values:
        assert abs(rm * abs(t) - 1.0) < 0.01


def test_residual_records_shrink_with_cfl():
    # the records carry the embedded TR-BDF2 error estimate (measured max:
    # 3.7e-6 at cfl 0.4, 7.2e-7 at cfl 0.1)
    grid = rosenau_grid(n=500)
    runs = {}
    for cfl in (0.4, 0.1):
        traj = solver.evolve(grid, -1.9, cfl=cfl, output_times=[-2.0, -1.9])
        residuals = [record.residual for record in traj.steps]
        assert all(math.isfinite(r) and r >= 0.0 for r in residuals)
        runs[cfl] = max(residuals)
    assert runs[0.4] < 1e-2
    assert runs[0.1] < runs[0.4]


def test_diagnostics_rosenau_defects():
    traj = rosenau_run(n=800, snapshots=33)
    report = solver.diagnostics(traj)
    assert report.f_defect < 5e-4
    assert report.length_evolution_defect < 0.01
    assert report.harnack_defect <= 1e-10
    # ancient times get shifted onto [span, 2 span]
    assert report.harnack_shift == pytest.approx(3.0)
    t_first, m_first = report.m_of_t[0]
    t_last, m_last = report.m_of_t[-1]
    assert t_first == -2.0 and m_first == 0.0
    assert t_last == -1.0
    assert m_last == pytest.approx(math.log(math.sinh(1.0) / math.sinh(2.0)), abs=1e-3)
    assert len(report.circle_indices) == 3


def test_diagnostics_exact_soliton_harnack_clean():
    traj = solver.exact_trajectory(
        exact.ds_soliton(2.0, 1.0), np.linspace(1.0, 2.0, 17), n=1200, extent=50.0
    )
    report = solver.diagnostics(traj)
    assert report.harnack_defect == 0.0
    assert report.harnack_shift == 0.0


def test_diagnostics_flat_run_all_zero():
    grid = exact.sample_grid(exact.flat(), 0.0, n=128, extent=10.0)
    traj = solver.evolve(grid, 1.0, cfl=0.5, output_times=np.linspace(0.0, 1.0, 5))
    report = solver.diagnostics(traj)
    assert report.f_defect == 0.0
    # +0.0, not the -0.0 of a zero increment negated, which diagnostics.json would spell "-0.0"
    assert math.copysign(1.0, report.harnack_defect) == 1.0 and report.harnack_defect == 0.0
    assert report.length_evolution_defect == 0.0


def test_diagnostics_needs_three_snapshots():
    traj = solver.exact_trajectory(exact.rosenau(), [-2.0, -1.0], n=64, extent=5.0)
    with pytest.raises(DomainError, match="^diagnostics needs at least 3 snapshots$"):
        solver.diagnostics(traj)


def row_by_row_diagnostics(traj):
    """Reference: diagnostics as one curvature pass and one trust mask per snapshot."""
    times = traj.times
    snapshots = [traj.snapshot(k) for k in range(times.size)]
    trusted = [trust_mask(snapshot.u, snapshot.chart) for snapshot in snapshots]
    mask = np.logical_and.reduce(trusted)
    if not mask.any():
        mask = np.zeros(traj.nodes.size, dtype=bool)
        mask[reliable_slice(traj.chart, traj.nodes.size)] = True
    if times[0] > 0.0:
        shift = 0.0
    else:
        span = float(times[-1] - times[0])
        shift = span - float(times[0])
    idx = solver._tracked_circle_indices(traj)
    cols = np.array(idx, dtype=int)
    U = traj.u_rows()
    w0 = np.log(U[0])
    r = geometry.scalar_curvature(snapshots[0])
    r_int = np.zeros_like(r)
    r_cols = [r[cols]]
    peaks = [float(r[trusted[0]].max())]
    m_of_t = [(float(times[0]), 0.0)]
    f_defect = harnack_defect = 0.0
    for k in range(1, times.size):
        r_prev, r = r, geometry.scalar_curvature(snapshots[k])
        peaks.append(float(r[trusted[k]].max()))
        f = np.log(U[k]) - w0
        r_int = r_int + (times[k] - times[k - 1]) * (r + r_prev) / 2.0
        f_defect = max(f_defect, float(np.abs(f + r_int)[mask].max()))
        m_of_t.append((float(times[k]), float(f[mask].min())))
        increments = (times[k] + shift) * r - (times[k - 1] + shift) * r_prev
        harnack_defect = max(harnack_defect, -float(increments[mask].min()))
        r_cols.append(r[cols])
    root_u = np.sqrt(U[:, cols])
    geom = math.pi * traj.nodes[cols] if traj.chart == RADIAL else math.pi * np.ones(cols.size)
    dldt = np.gradient(2.0 * geom * root_u, times, axis=0)
    rhs = -geom * np.array(r_cols) * root_u
    err = np.abs(dldt - rhs)[1:-1]
    length_defect = float((err / np.maximum(np.abs(rhs)[1:-1], 1e-12)).max())
    drops = [a - b for a, b in zip(peaks, peaks[1:])]
    return solver.DiagnosticReport(
        f_defect=f_defect,
        m_of_t=tuple(m_of_t),
        harnack_defect=harnack_defect,
        harnack_shift=shift,
        length_evolution_defect=length_defect,
        circle_indices=idx,
        rmax=solver.RmaxSeries(tuple(zip(times.tolist(), peaks)), max(0.0, max(drops))),
    )


def _disjointly_trusted_trajectory():
    # rows 7 and 8 sit below the trust floor at every node, tilted so that their
    # fallback nodes (the argmax of u) differ: no node is trusted in every row
    base = solver.exact_trajectory(exact.rosenau(), np.linspace(-3.0, -0.2, 15), n=5001, extent=12.0)
    U = np.array(base.u_rows())
    U[7] *= 1e-6 * np.exp(-0.5 * base.nodes)
    U[8] *= 1e-6 * np.exp(0.5 * base.nodes)
    traj = solver.FlowTrajectory(base.chart, base.nodes, base.times, U, None, ())
    assert not np.logical_and.reduce(trust_mask(traj.U, traj.chart)).any()
    return traj


def _stored(traj):
    """The same trajectory with its rows stored as U."""
    return solver.FlowTrajectory(traj.chart, traj.nodes, traj.times, traj.u_rows(), traj.provenance, ())


def _closed_form_sphere():
    return solver.exact_trajectory(exact.sphere(), np.linspace(-8.0, -0.5, 15), n=5001, extent=30.0)


def _closed_form_rosenau():
    return solver.exact_trajectory(exact.rosenau(), np.linspace(-3.0, -0.2, 15), n=5001, extent=12.0)


@pytest.mark.parametrize(
    "make",
    [
        lambda: solver.exact_trajectory(exact.cigar(4.0), np.linspace(-0.5, 2.0, 15), n=5001, extent=30.0),
        _closed_form_rosenau,
        lambda: rosenau_run(n=3001, snapshots=23),
        _disjointly_trusted_trajectory,
        _closed_form_sphere,
        lambda: _stored(_closed_form_rosenau()),
        lambda: _stored(_closed_form_sphere()),
    ],
    ids=["radial", "cylinder", "evolved", "empty-mask", "sphere", "cylinder-stored", "sphere-stored"],
)
def test_blocked_diagnostics_equal_the_row_by_row_loop(make):
    traj = make()
    # 6 rows of 5,001 or 10 rows of 3,001 nodes per block, the last block short
    assert len(solver.row_blocks(0, traj.times.size, traj.nodes.size)) == 3
    report = solver.diagnostics(traj)
    assert report == row_by_row_diagnostics(traj)
    # the r_max series rmax.csv is written from: the row-by-row trusted maxima above
    assert report.rmax == solver.rmax_series(traj)


def test_diagnostics_samples_each_closed_form_row_twice(monkeypatch):
    # the blocks scan yields the rows it sampled, so the defect loop reads no
    # others; m_of_t needs the final trust mask and samples rows once more
    traj = _closed_form_rosenau()
    expected = row_by_row_diagnostics(traj)
    rows = []

    def counted(spec, coords, times, *args):
        rows.append(len(times))
        return exact.u_profile(spec, coords, times, *args)

    monkeypatch.setattr(solver, "u_profile", counted)
    assert solver.diagnostics(traj) == expected
    assert sum(rows) == 2 * traj.times.size == 30


@pytest.mark.parametrize(
    "grid, t_end",
    [(rosenau_grid(n=3001), -1.0), (exact.sample_grid(exact.cigar(4.0), 0.0, n=3001, extent=30.0), 0.5)],
    ids=["rosenau-blocks", "cigar-rows"],
)
def test_closed_form_error_equals_the_row_loop(grid, t_end):
    traj = solver.evolve(grid, t_end, cfl=0.4, output_times=np.linspace(grid.t, t_end, 17))
    rel = grid.reliable_slice()
    expected = 0.0
    for k, t in enumerate(traj.times.tolist()):
        u_ref = exact.u_profile(grid.provenance, traj.nodes, t)
        expected = max(expected, float(np.abs((traj.U[k] - u_ref) / u_ref)[rel].max()))
    assert 0.0 < solver.closed_form_error(traj) == expected
    with pytest.raises(DomainError, match="records its family"):
        solver.closed_form_error(solver.FlowTrajectory(traj.chart, traj.nodes, traj.times, traj.U, None, ()))


def test_trajectory_validation():
    g = exact.sample_grid(exact.cigar(4.0), 0.0, n=64, extent=5.0)

    def make(times=(0.0, 1.0), U=None, nodes=g.nodes, chart=g.chart):
        U = np.stack([g.u] * len(times)) if U is None else U
        return solver.FlowTrajectory(chart, nodes, np.asarray(times), U, None, ())

    assert make().h == g.h
    with pytest.raises(DomainError):
        make(U=np.ones((2, 63)))
    with pytest.raises(DomainError):
        make(U=np.ones((3, 64)))
    with pytest.raises(DomainError):
        make(nodes=g.nodes + 1.0)  # radial nodes must start at the axis
    with pytest.raises(DomainError):
        make(chart="sphere")
    with pytest.raises(DomainError):
        make(U=np.stack([g.u, -g.u]))
    with pytest.raises(DomainError, match="^snapshot times must be strictly increasing$"):
        make(times=(1.0, 0.0))
    with pytest.raises(DomainError, match="^snapshot times must be strictly increasing$"):
        make(times=(0.0, 0.0))
    with pytest.raises(DomainError, match="^trajectory needs at least one snapshot$"):
        make(times=(), U=np.ones((0, 64)))
    # rows that are not stored are sampled from a family on the trajectory's chart
    with pytest.raises(DomainError, match="without stored rows"):
        solver.FlowTrajectory(g.chart, g.nodes, np.array([0.0, 1.0]), None, None, ())
    with pytest.raises(DomainError, match="without stored rows"):
        solver.FlowTrajectory(CYLINDER, g.nodes, np.array([0.0, 1.0]), None, exact.cigar(4.0), ())


def test_trajectory_keeps_a_private_read_only_copy():
    g = exact.sample_grid(exact.cigar(4.0), 0.0, n=64, extent=5.0)
    U = np.stack([g.u, g.u])
    traj = solver.FlowTrajectory(g.chart, g.nodes, np.array([0.0, 1.0]), U, None, ())
    U[1] = 1.0
    assert np.array_equal(traj.U[1], g.u)
    with pytest.raises(ValueError):
        traj.U[0, 0] = 1.0


def test_trajectory_u_at_interpolates_linearly():
    traj = solver.exact_trajectory(
        exact.rosenau(), [-2.0, -1.5, -1.0], n=64, extent=5.0
    )
    U = traj.u_rows()
    mid = traj.u_at(-1.75)
    expected = 0.5 * (U[0] + U[1])
    assert np.abs(mid - expected).max() <= 1e-15
    assert np.array_equal(traj.u_at(-2.0), U[0])
    assert np.array_equal(traj.u_at(-1.0), U[-1])
    with pytest.raises(DomainError, match=r"^time -3.0 outside snapshot range \[-2.0, -1.0\]$"):
        traj.u_at(-3.0)
    with pytest.raises(DomainError, match=r"^time -0.5 outside snapshot range \[-2.0, -1.0\]$"):
        traj.u_at(-0.5)


def test_exact_trajectory_validation():
    message = "^exact trajectory needs at least two strictly increasing times$"
    with pytest.raises(DomainError, match=message):
        solver.exact_trajectory(exact.rosenau(), [-2.0], n=64, extent=5.0)
    with pytest.raises(DomainError, match=message):
        solver.exact_trajectory(exact.rosenau(), [-1.0, -1.0], n=64, extent=5.0)
    traj = solver.exact_trajectory(exact.rosenau(), [-2.0, -1.0], n=64, extent=5.0)
    assert traj.steps == ()
    assert traj.provenance == exact.rosenau()


def test_closed_form_rows_that_leave_float64_fail_before_the_curvature_pass():
    # at |x| = 740 the t = -0.001 row underflows to 0 while the t = -64 row is positive
    nodes = np.linspace(-740.0, 740.0, 3081)
    with pytest.raises(DomainError, match="finite and positive"):
        solver.exact_trajectory(exact.rosenau(), [-64.0, -0.001], n=nodes.size, extent=740.0)
    # built directly, the trajectory checks each sampled block before dividing by it
    traj = solver.FlowTrajectory(CYLINDER, nodes, np.array([-64.0, -0.001]), None, exact.rosenau(), ())
    with pytest.raises(DomainError, match="finite and positive"):
        solver.curvature_range(traj)


def test_trajectories_over_the_size_limit_are_rejected_before_allocating(monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("allocated although the size check should have failed first")

    monkeypatch.setattr(solver, "sample_grid", no_work)
    times = np.linspace(-2.0, -1.0, 65)
    with pytest.raises(DomainError, match="limit"):
        solver.exact_trajectory(exact.rosenau(), times, n=solver.MAX_TRAJECTORY_CELLS // 64, extent=5.0)

    grid = exact.sample_grid(exact.flat(), 0.0, n=4097, extent=5.0)
    monkeypatch.setattr(solver, "_Stencil", no_work)
    count = solver.MAX_TRAJECTORY_CELLS // grid.n + 1
    with pytest.raises(DomainError, match="limit"):
        solver.evolve(grid, 1.0, output_times=np.linspace(0.0, 1.0, count))


def test_exact_trajectory_rows_match_sampled_grids():
    times = [-2.0, -1.5, -1.0]
    traj = solver.exact_trajectory(exact.rosenau(), times, n=64, extent=5.0)
    for k, t in enumerate(times):
        grid = exact.sample_grid(exact.rosenau(), t, n=64, extent=5.0)
        snap = traj.snapshot(k)
        assert np.array_equal(traj.u_rows(k, k + 1)[0], grid.u)
        assert np.array_equal(snap.nodes, grid.nodes)
        assert (snap.t, snap.provenance, snap.chart) == (grid.t, grid.provenance, grid.chart)
        assert np.array_equal(geometry.scalar_curvature(snap), geometry.scalar_curvature(grid))
        assert np.array_equal(trust_mask(snap.u, snap.chart), trust_mask(grid.u, grid.chart))
    assert np.array_equal(traj.snapshot(-1).u, traj.snapshot(2).u)
    # one block holds all three rows; its rows are the sampled grids' fields
    ((rows, u, r, trusted),) = traj.blocks()
    assert rows == slice(0, 3)
    for k, t in enumerate(times):
        grid = exact.sample_grid(exact.rosenau(), t, n=64, extent=5.0)
        assert np.array_equal(u[k], grid.u)
        assert np.array_equal(r[k], geometry.scalar_curvature(grid))
        assert np.array_equal(trusted[k], trust_mask(grid.u, grid.chart))


@pytest.mark.parametrize(
    "spec, times, kwargs",
    [
        # Rosenau broadcasts its time terms over a block; the others go row by row
        (exact.rosenau(), np.linspace(-6.0, -0.5, 24), dict(extent=20.0)),
        (exact.sphere(), np.linspace(-6.0, -0.5, 24), dict(extent=20.0)),
        (exact.cigar(2.0), np.linspace(-1.0, 1.0, 24), dict(extent=20.0)),
    ],
)
def test_exact_trajectory_rows_are_bitwise_single_time_profiles(spec, times, kwargs, monkeypatch):
    n = 3001
    blocks = solver.row_blocks(1, times.size, n)
    # rows 1..23 in blocks of 10: the last block is short
    assert [b.stop - b.start for b in blocks] == [10, 10, 3]
    traj = solver.exact_trajectory(spec, times, n=n, **kwargs)
    assert traj.U is None
    calls = []
    monkeypatch.setattr(solver, "node_factor", lambda *args: calls.append(args) or exact.node_factor(*args))
    U = traj.u_rows()
    # the rows a scan reads, block by block, are the rows of one whole read
    for rows in [slice(0, 1)] + blocks:
        assert np.array_equal(traj.u_rows(rows.start, rows.stop), U[rows])
    for k, t in enumerate(times.tolist()):
        assert np.array_equal(U[k], exact.u_profile(spec, traj.nodes, t))
    # the family's node factor is computed once per trajectory, not once per read or scan
    solver.curvature_range(traj, range(times.size))
    solver.curvature_range(traj, [0, 5])
    assert len(calls) == 1


@pytest.mark.parametrize(
    "make",
    [_closed_form_rosenau, _closed_form_sphere, lambda: _stored(_closed_form_sphere())],
    ids=["cylinder", "sphere", "sphere-stored"],
)
def test_blocks_fill_one_workspace_allocated_per_call(make):
    # tracemalloc sees numpy's buffers. The first block allocates the workspace;
    # the later ones may allocate row-sized temporaries (measured: about half a
    # block, the Rosenau evaluation's node terms) but no array of a block's size
    traj = make()
    block = 6 * traj.nodes.size * 8  # bytes of one 6-row block
    assert [b.stop - b.start for b in solver.row_blocks(0, traj.times.size, traj.nodes.size)] == [6, 6, 3]
    tracemalloc.start()
    try:
        scan = traj.blocks()
        next(scan)
        tracemalloc.reset_peak()
        held = tracemalloc.get_traced_memory()[0]
        for _ in scan:
            pass
        grown = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    assert grown < block


def test_row_blocks_cover_the_rows_once_with_at_least_one_row_each():
    assert solver.row_blocks(5, 5, 100) == []
    assert solver.row_blocks(3, 9, solver.BLOCK_CELLS // 4) == [slice(3, 7), slice(7, 9)]
    assert solver.row_blocks(0, 3, 2 * solver.BLOCK_CELLS) == [slice(0, 1), slice(1, 2), slice(2, 3)]


def test_evolve_validations():
    grid = rosenau_grid(n=64, extent=5.0)
    with pytest.raises(DomainError):
        solver.evolve(grid, -2.5)
    with pytest.raises(DomainError):
        solver.evolve(grid, grid.t)
    # boundary pinning needs the family alive through t_end
    with pytest.raises(DomainError):
        solver.evolve(grid, 1.0)
    with pytest.raises(DomainError, match=r"^output times must lie in \[-2.0, -1.9\], got "):
        solver.evolve(grid, -1.9, output_times=[-2.0, -1.5])
    with pytest.raises(DomainError):
        solver.evolve(grid, -1.9, cfl=0.0)
    # snapshots closer than the time tolerance 1e-9 * max(1, |t|)
    with pytest.raises(DomainError, match="^snapshot times must lie more than .* apart$"):
        solver.evolve(grid, -1.5, output_times=[-2.0, -1.75, -1.75 + 1e-10, -1.5])
    with pytest.raises(DomainError, match="^snapshot times must lie more than .* apart$"):
        solver.evolve(grid, -2.0 + 1e-9)


def test_evolve_rejects_a_run_over_the_step_budget_up_front(monkeypatch):
    grid = exact.sample_grid(exact.flat(), 0.0, n=64, extent=5.0)

    def no_stepping(*args):
        raise AssertionError("stepped although the budget check should have failed first")

    monkeypatch.setattr(solver, "_Stencil", no_stepping)
    with pytest.raises(DomainError, match="budget"):
        solver.evolve(grid, 1e9)
    # steps are at most cfl * h = 0.5 * 5 / 63, so 100 time units need at least 2520
    monkeypatch.setattr(solver, "MAX_STEPS", 2519)
    with pytest.raises(DomainError, match="budget"):
        solver.evolve(grid, 100.0)


def test_step_record_validation():
    with pytest.raises(DomainError):
        solver.StepRecord(t=0.0, dt=0.0, residual=0.0, r_max=1.0)
    with pytest.raises(DomainError):
        solver.StepRecord(t=0.0, dt=1e-3, residual=-1.0, r_max=1.0)


@pytest.mark.parametrize(
    "grid",
    [
        exact.sample_grid(exact.cigar(4.0), 0.0, n=2000, extent=50.0),
        exact.sample_grid(exact.rosenau(), -2.0, n=2000, extent=20.0),
    ],
    ids=["radial", "cylinder"],
)
def test_stencil_matches_measurement_laplacian_on_interior_rows(grid):
    # one flux-form kernel gives both operators' interior rows; only their end
    # and axis rows differ by design
    w = np.log(grid.u)
    implicit = solver._Stencil(grid).apply(w)
    measured = geometry.laplacian_field(w, grid.nodes, grid.h, grid.chart)
    assert np.array_equal(implicit[1:-1], measured[1:-1])


@pytest.mark.parametrize("chart", [RADIAL, CYLINDER])
def test_stencil_end_rows_are_the_axis_and_mirror_closures(chart):
    # on a free grid the stepper's end rows are its zero-flux closures written out
    lo = 0.0 if chart == RADIAL else -3.0
    nodes = np.linspace(lo, 3.0, 61)
    grid = ConformalGrid(chart, nodes, np.exp(-0.3 * nodes**2 + 0.1 * nodes), 0.0)
    w = np.log(grid.u)
    lap = solver._Stencil(grid).apply(w)
    h2 = grid.h**2
    first = (4.0 if chart == RADIAL else 2.0) * (w[1] - w[0]) / h2
    last = 2.0 * (w[-2] - w[-1]) / h2
    assert lap[0] == pytest.approx(first, rel=1e-12)
    assert lap[-1] == pytest.approx(last, rel=1e-12)
