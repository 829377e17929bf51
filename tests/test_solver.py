import math

import numpy as np
import pytest

from geomflow import exact, geometry, solver
from geomflow.errors import BlowUpError, DomainError, StepRejectedError, WindowError
from geomflow.grids import CYLINDER, RADIAL, ConformalGrid


def rosenau_grid(n=800, extent=20.0, t=-2.0):
    return exact.sample_grid(exact.rosenau(), t, n=n, x_lo=-extent, x_hi=extent)


def free_radial_grid(n=64, extent=10.0):
    # cigar-shaped data without provenance: boundary falls back to the mirror closure
    nodes = np.linspace(0.0, extent, n)
    return ConformalGrid(RADIAL, nodes, 1.0 / (1.0 + nodes**2), 0.0)


def rosenau_run(n=800, cfl=0.4, t0=-2.0, t1=-1.0, snapshots=17):
    grid = rosenau_grid(n=n)
    return solver.evolve(grid, t1, cfl=cfl, output_times=np.linspace(t0, t1, snapshots))


def test_step_tracks_exact_solution_one_step():
    spec = exact.rosenau()
    grid = exact.sample_grid(spec, -2.0, n=400, x_lo=-6.0, x_hi=6.0)
    dt = 1e-4
    stepped = solver.step(grid, dt)
    assert stepped.t == grid.t + dt
    u_ref = exact.u_profile(spec, stepped.nodes, stepped.t)
    err = np.abs(stepped.u - u_ref).max()
    assert 0.0 < err < 5e-9


@pytest.mark.parametrize("grid,calls", [(rosenau_grid(n=64, extent=5.0), 1), (free_radial_grid(), 0)])
def test_step_evaluates_the_pinned_boundary_once(monkeypatch, grid, calls):
    seen = []

    def counted(spec, coords, t):
        seen.append(t)
        return exact.log_u_profile(spec, coords, t)

    monkeypatch.setattr(solver, "log_u_profile", counted)
    stepped = solver.step(grid, 1e-3)
    assert seen == [grid.t + 1e-3] * calls
    assert np.all(np.isfinite(stepped.u))


@pytest.mark.parametrize("dt", [0.0, -1e-3, float("nan"), float("inf")])
def test_step_rejects_bad_dt(dt):
    grid = rosenau_grid(n=64, extent=5.0)
    with pytest.raises(DomainError):
        solver.step(grid, dt)


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
        with pytest.raises(StepRejectedError) as excinfo:
            solver._check_state(w, u, 1.0)
        assert excinfo.value.node == first
    solver._check_state(np.zeros(8), np.ones(8), 1.0)


def test_failed_linear_solve_is_a_rejected_step(monkeypatch):
    # gtsv reports an exactly zero pivot through info > 0
    def singular_gtsv(dl, d, du, b, *overwrite):
        return dl, d, du, b, 1

    monkeypatch.setattr("scipy.linalg.get_lapack_funcs", lambda names, arrays: singular_gtsv)
    with pytest.raises(StepRejectedError, match="linear solve failed"):
        solver.step(free_radial_grid(), 1e-3)


def _reference_step(st, w, t, dt):
    """The step as first written: solve_banded on a (3, n) band, out-of-place arithmetic."""
    from scipy.linalg import solve_banded

    def solve_shifted(coeff, rhs):
        c = coeff
        if st.pinned.size:
            c = coeff.copy()
            c[st.pinned] = 0.0
        ab = np.zeros((3, rhs.size))
        ab[0, 1:] = -(c * st.sup)[:-1]
        ab[1, :] = 1.0 - c * st.dia
        ab[2, :-1] = -(c * st.sub)[1:]
        return solve_banded((1, 1), ab, rhs, check_finite=False)

    pins = st.pin_values(t + dt)
    lap0 = st.apply(w)
    rhs = w.copy()
    rhs[st.pinned] = pins
    w_star = solve_shifted(dt * np.exp(-w), rhs)
    d_mid = np.exp(-0.5 * (w + w_star))
    rhs = w + (0.5 * dt) * d_mid * lap0
    rhs[st.pinned] = pins
    return solve_shifted((0.5 * dt) * d_mid, rhs)


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
    # the in-place step and gtsv call must reproduce the band formulation bit for bit
    output_times = np.linspace(grid.t, t_end, 3)
    lean = solver.evolve(grid, t_end, cfl=0.4, output_times=output_times)

    taken = []

    def reference(st, w, t, dt):
        w_new = _reference_step(st, w, t, dt)
        taken.append((st, w, w_new, dt))
        return w_new

    monkeypatch.setattr(solver, "_step_semi_implicit", reference)
    ref = solver.evolve(grid, t_end, cfl=0.4, output_times=output_times)
    assert np.array_equal(lean.U, ref.U)
    assert lean.steps == ref.steps
    rel = grid.reliable_slice()
    residuals = []
    for st, w, w_new, dt in taken:
        w_mid = 0.5 * (w + w_new)
        resid = (w_new - w) / dt - np.exp(-w_mid) * st.apply(w_mid)
        residuals.append(float(np.abs(resid[rel]).max()))
    assert [record.residual for record in lean.steps] == residuals


def test_semi_implicit_huge_step_stays_positive():
    grid = free_radial_grid()
    stepped = solver.step(grid, 1e8)
    assert np.all(np.isfinite(stepped.u))
    assert np.all(stepped.u > 0.0)


def test_flat_data_is_stationary():
    sampled = exact.sample_grid(exact.flat(), 0.0, n=64, extent=5.0)
    free = ConformalGrid(CYLINDER, np.linspace(-5.0, 5.0, 64), np.ones(64), 0.0)
    for grid in (sampled, free):
        stepped = solver.step(grid, 0.01)
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


def test_convergence_order_two():
    spec = exact.rosenau()
    t1 = -1.5
    errs = []
    for n in (250, 500):
        grid = exact.sample_grid(spec, -2.0, n=n, x_lo=-20.0, x_hi=20.0)
        traj = solver.evolve(grid, t1, cfl=0.4, output_times=[-2.0, t1])
        u_ref = exact.u_profile(spec, traj.nodes, t1)
        errs.append(float(np.abs(traj.U[-1] - u_ref).max()))
    ratio = errs[0] / errs[1]
    assert 3.0 < ratio < 5.0


def test_u_decreases_toward_extinction():
    traj = rosenau_run(n=300, t1=-1.5, snapshots=3)
    assert np.all(traj.U[-1] < traj.U[0])


def test_blow_up_aborts_with_structured_error():
    grid = exact.sample_grid(exact.rosenau(), -0.01, n=64, x_lo=-3.0, x_hi=3.0)
    with pytest.raises(BlowUpError) as excinfo:
        solver.evolve(grid, -1e-5, cfl=0.5)
    assert excinfo.value.r_max > 1e3
    assert -1e-2 < excinfo.value.t < 0.0


def test_sphere_rmax_tracks_inverse_time():
    grid = exact.sample_grid(exact.sphere(), -1.0, n=500, extent=30.0)
    traj = solver.evolve(grid, -0.5, cfl=0.4, output_times=np.linspace(-1.0, -0.5, 5))
    for t, rm in solver.rmax_series(traj).values:
        assert abs(rm * abs(t) - 1.0) < 0.01


def test_residual_records_shrink_with_cfl():
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
    assert report.harnack_defect == 0.0
    assert report.length_evolution_defect == 0.0


def test_diagnostics_needs_three_snapshots():
    traj = solver.exact_trajectory(exact.rosenau(), [-2.0, -1.0], n=64, extent=5.0)
    with pytest.raises(WindowError):
        solver.diagnostics(traj)


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
    with pytest.raises(WindowError):
        make(times=(1.0, 0.0))
    with pytest.raises(WindowError):
        make(times=(0.0, 0.0))
    with pytest.raises(WindowError):
        make(times=(), U=np.ones((0, 64)))


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
    mid = traj.u_at(-1.75)
    expected = 0.5 * (traj.U[0] + traj.U[1])
    assert np.abs(mid - expected).max() <= 1e-15
    assert np.array_equal(traj.u_at(-2.0), traj.U[0])
    assert np.array_equal(traj.u_at(-1.0), traj.U[-1])
    with pytest.raises(WindowError):
        traj.u_at(-3.0)
    with pytest.raises(WindowError):
        traj.u_at(-0.5)


def test_exact_trajectory_validation():
    with pytest.raises(WindowError):
        solver.exact_trajectory(exact.rosenau(), [-2.0], n=64, extent=5.0)
    with pytest.raises(WindowError):
        solver.exact_trajectory(exact.rosenau(), [-1.0, -1.0], n=64, extent=5.0)
    traj = solver.exact_trajectory(exact.rosenau(), [-2.0, -1.0], n=64, extent=5.0)
    assert traj.steps == ()
    assert traj.provenance == exact.rosenau()


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
        assert np.array_equal(traj.U[k], grid.u)
        assert np.array_equal(snap.nodes, grid.nodes)
        assert (snap.t, snap.provenance, snap.chart) == (grid.t, grid.provenance, grid.chart)
        assert np.array_equal(traj.curvature(k), geometry.scalar_curvature(grid))
        assert np.array_equal(traj.trusted(k), solver.trusted_mask(grid))


def test_evolve_validations():
    grid = rosenau_grid(n=64, extent=5.0)
    with pytest.raises(DomainError):
        solver.evolve(grid, -2.5)
    with pytest.raises(DomainError):
        solver.evolve(grid, grid.t)
    # boundary pinning needs the family alive through t_end
    with pytest.raises(DomainError):
        solver.evolve(grid, 1.0)
    with pytest.raises(WindowError):
        solver.evolve(grid, -1.9, output_times=[-2.0, -1.5])
    with pytest.raises(DomainError):
        solver.evolve(grid, -1.9, cfl=0.0)


def test_evolve_rejects_a_run_over_the_step_budget_up_front(monkeypatch):
    grid = exact.sample_grid(exact.flat(), 0.0, n=64, extent=5.0)

    def no_stepping(*args):
        raise AssertionError("stepped although the budget check should have failed first")

    monkeypatch.setattr(solver, "_Stencil", no_stepping)
    with pytest.raises(DomainError, match="budget"):
        solver.evolve(grid, 1e9)
    # steps are at most cfl * h = 0.5 * 5 / 63, so 100 time units need at least 2520
    with pytest.raises(DomainError, match="budget"):
        solver.evolve(grid, 100.0, max_steps=2519)


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
    # the solve matrix and the measurement operator share interior rows up to
    # rounding; only their boundary and axis rows differ by design
    w = np.log(grid.u)
    implicit = solver._Stencil(grid).apply(w)
    measured = geometry.laplacian_field(w, grid.nodes, grid.h, grid.chart)
    gap = np.abs(implicit - measured)[1:-1].max()
    assert gap <= 4.0 * np.finfo(float).eps * np.abs(w).max() / grid.h**2
