import math
import tracemalloc

import numpy as np
import pytest

from geomflow import cli, exact, geometry, rescaling, solver
from geomflow.errors import DomainError
from geomflow.grids import trust_mask


def ladder_trajectory(j, h_target=0.05, snapshot_count=65):
    return rescaling.backward_rosenau_trajectory(
        j, h_target=h_target, snapshot_count=snapshot_count
    )


def ladder_pick(j, **kwargs):
    traj = ladder_trajectory(j, **kwargs)
    pick = rescaling.pick_point(
        traj, rescaling.default_window(j), rescaling.default_gamma(j), j=j
    )
    return traj, pick


def sphere_trajectory(t_start=-8.0, snapshots=257):
    times = np.linspace(t_start, -1e-3, snapshots)
    return solver.exact_trajectory(exact.sphere(), times, n=1201, extent=30.0)


def classifier_rosenau_trajectory():
    times = np.linspace(-64.0, -1.0, 253)
    return solver.exact_trajectory(exact.rosenau(), times, n=3081, x_lo=-77.0, x_hi=77.0)


# The paper's headline: the rescale task's pick and profile distance for
# j = 1..6 on the default backward Rosenau trajectories. A change that moves
# them on purpose updates this table and says why.
HEADLINE = [
    # (j, node, x_j, t_j, profile distance)
    (1, 786, -5.28, -0.001, 0.4005009164302036),
    (2, 437, -13.26, -1.7818046875, 0.04544120858856737),
    (3, 425, -15.5, -4.0005, 5.551226429522105e-4),
    (4, 425, -19.5, -8.0005, 1.4524482505273717e-5),
    (5, 425, -27.5, -16.0005, 1.453925271754919e-5),
    (6, 425, -43.5, -32.0005, 1.4539256110834842e-5),
]


@pytest.mark.parametrize("j, node, x_j, t_j, distance", HEADLINE)
def test_headline_picks_and_profile_distances_are_pinned(j, node, x_j, t_j, distance):
    traj = rescaling.backward_rosenau_trajectory(j)
    pick = rescaling.pick_point(traj, rescaling.default_window(j), rescaling.default_gamma(j), j=j)
    assert pick.node == node
    assert pick.x_j == traj.nodes[node]
    assert pick.x_j == pytest.approx(x_j, abs=1e-12)
    assert pick.t_j == pytest.approx(t_j, abs=1e-12)
    measured = rescaling.profile_distance(traj, pick, cli.RESCALE_SPAN)
    assert measured == pytest.approx(distance, rel=1e-6)


def test_default_window_is_dyadic():
    assert [rescaling.default_window(j) for j in range(1, 7)] == [
        -2.0, -4.0, -8.0, -16.0, -32.0, -64.0,
    ]


def test_default_gamma_increases_toward_one():
    gammas = [rescaling.default_gamma(j) for j in range(1, 9)]
    assert gammas[0] == 0.5
    assert all(0.0 < g < 1.0 for g in gammas)
    assert all(b > a for a, b in zip(gammas, gammas[1:]))


def test_cigar_profile_values():
    assert rescaling.cigar_profile(0.0) == 1.0
    s_half = 2.0 * math.acosh(math.sqrt(2.0))
    assert rescaling.cigar_profile(s_half) == pytest.approx(0.5, rel=1e-12)
    s = np.linspace(0.0, 6.0, 25)
    prof = rescaling.cigar_profile(s)
    assert prof.shape == s.shape
    assert np.all(np.diff(prof) < 0.0)


@pytest.mark.parametrize("T", [0.0, 1.0, float("nan")])
def test_pick_rejects_nonnegative_window(T):
    traj = ladder_trajectory(1)
    with pytest.raises(DomainError):
        rescaling.pick_point(traj, T, 0.5)


@pytest.mark.parametrize("gamma", [0.0, 1.0, -0.2, 1.5])
def test_pick_rejects_bad_gamma(gamma):
    traj = ladder_trajectory(1)
    with pytest.raises(DomainError):
        rescaling.pick_point(traj, -2.0, gamma)


def test_pick_needs_window_coverage():
    traj = ladder_trajectory(1)  # starts at -2
    with pytest.raises(DomainError, match="^trajectory starts at -2.0, window needs coverage from -4.0$"):
        rescaling.pick_point(traj, -4.0, 0.5)


def test_pick_needs_strictly_backward_times():
    base = exact.sample_grid(exact.flat(), -1.0, n=64, extent=5.0)
    times = np.array([-1.0, 0.0])
    U = np.stack([base.u] * 2)
    traj = solver.FlowTrajectory(base.chart, base.nodes, times, U, None, ())
    with pytest.raises(DomainError, match="^backward pick needs snapshot times strictly before 0$"):
        rescaling.pick_point(traj, -1.0, 0.5)


def test_flat_pick_is_degenerate():
    times = np.linspace(-2.0, -0.5, 9)
    traj = solver.exact_trajectory(exact.flat(), times, n=201, extent=10.0)
    with pytest.raises(DomainError, match="^curvature score vanishes on the searched window$"):
        rescaling.pick_point(traj, -2.0, 0.5)


def test_tied_scores_resolve_to_earliest_snapshot():
    # equal weights (-t)(t - T) at t = -3 and t = -1 for T = -4, identical u
    base = exact.sample_grid(exact.sphere(), -1.0, n=201, extent=10.0)
    traj = solver.FlowTrajectory(
        base.chart, base.nodes, np.array([-4.0, -3.0, -1.0]), np.stack([base.u] * 3), None, ()
    )
    pick = rescaling.pick_point(traj, -4.0, 0.5)
    assert pick.t_j == -3.0


def masked_magnitude(traj, k):
    """Reference: M = |R|/2 of snapshot k from its own curvature and trust passes,
    untrusted nodes sent to -inf."""
    snapshot = traj.snapshot(k)
    magnitude = 0.5 * np.abs(geometry.scalar_curvature(snapshot))
    magnitude[~trust_mask(snapshot.u, snapshot.chart, solver.CURVATURE_TRUST_FLOOR)] = -np.inf
    return magnitude


def test_blocked_peaks_equal_the_masked_magnitude_maxima():
    base = ladder_trajectory(3)
    U = np.array(base.u_rows())
    U[7] *= 1e-6  # below the trust floor at every node: the argmax fallback decides
    traj = solver.FlowTrajectory(base.chart, base.nodes, base.times, U, base.provenance, ())
    assert not np.any(traj.U[7] >= solver.CURVATURE_TRUST_FLOOR)
    count = traj.times.size
    rows = solver.row_blocks(0, count, traj.nodes.size)[0].stop
    assert 8 < rows < count
    # whole range, windows starting mid-block, one ending mid-block, a single row
    for start, stop in [(0, count), (5, count), (rows + 3, count), (2, rows + 5), (7, 8)]:
        lo, hi = solver.curvature_range(traj, start, stop)
        for i, k in enumerate(range(start, stop)):
            snapshot = traj.snapshot(k)
            trusted = trust_mask(snapshot.u, snapshot.chart, solver.CURVATURE_TRUST_FLOOR)
            trusted_r = geometry.scalar_curvature(snapshot)[trusted]
            assert lo[i] == trusted_r.min() and hi[i] == trusted_r.max()
        # the peaks pick_point and classify_type read: bitwise the old maxima of |R|/2
        expected = [float(masked_magnitude(traj, k).max()) for k in range(start, stop)]
        assert np.array_equal(0.5 * np.maximum(hi, -lo), expected)


def reference_pick(traj, T):
    """Reference: (snapshot, node, score) of the pick, scored row by row through
    masked_magnitude; the earliest snapshot and smallest node in the tie band win."""
    scored = []
    for k, t in enumerate(traj.times.tolist()):
        weight = (-t) * (t - T)
        if weight > 0.0:
            scored.append((k, weight * masked_magnitude(traj, k)))
    band = max(float(s.max()) for _, s in scored) * (1.0 - rescaling.PICK_TIE_RTOL)
    for k, s in scored:
        hits = np.nonzero(s >= band)[0]
        if hits.size:
            return k, int(hits[0]), float(s[hits[0]])


@pytest.mark.parametrize("j", [2, 4])
def test_pick_equals_the_row_by_row_reference_pick(j):
    traj = ladder_trajectory(j)
    U = np.array(traj.u_rows())
    U[-1] *= 1e-6  # the last snapshot untrusted everywhere: its fallback node competes
    traj = solver.FlowTrajectory(traj.chart, traj.nodes, traj.times, U, traj.provenance, ())
    T = rescaling.default_window(j)
    pick = rescaling.pick_point(traj, T, rescaling.default_gamma(j), j=j)
    k, node, score = reference_pick(traj, T)
    assert (pick.t_j, pick.node, pick.score) == (float(traj.times[k]), node, score)


@pytest.mark.parametrize(
    "spec, kwargs",
    [(exact.rosenau(), dict(x_lo=-20.0, x_hi=20.0)), (exact.sphere(), dict(extent=30.0))],
    ids=["cylinder", "radial"],
)
def test_stored_and_closed_form_rows_give_equal_results(spec, kwargs):
    # 15 snapshots of 5,001 nodes: three row blocks, so every scan carries state
    # across two block boundaries
    times = np.linspace(-16.0, -0.5, 15)
    closed = solver.exact_trajectory(spec, times, n=5001, **kwargs)
    stored = solver.FlowTrajectory(closed.chart, closed.nodes, closed.times, closed.u_rows(), spec, ())
    assert closed.U is None and len(solver.row_blocks(0, times.size, 5001)) == 3

    def results(traj):
        pick = rescaling.pick_point(traj, -16.0, rescaling.default_gamma(4), j=4)
        k = 7  # mid-block: u_at interpolates with weight exactly 1
        return (
            solver.curvature_range(traj),
            solver.rmax_series(traj),
            solver.diagnostics(traj),
            solver.closed_form_error(traj),
            pick,
            rescaling.profile_distance(traj, pick, cli.RESCALE_SPAN),
            rescaling.classify_type(traj),
            [traj.snapshot(i).u for i in range(times.size)],
            traj.u_at(float(times[k])),
        )

    ranges, *reports, snapshots, u_k = results(closed)
    stored_ranges, *stored_reports, stored_snapshots, stored_u_k = results(stored)
    assert np.array_equal(ranges, stored_ranges)
    assert reports == stored_reports
    assert np.array_equal(snapshots, stored_snapshots)
    assert np.array_equal(u_k, stored_u_k) and np.array_equal(u_k, snapshots[7])


def test_pick_and_classify_scan_in_blocks_not_whole_arrays():
    # tracemalloc sees numpy's buffers. Measured (2**15-value blocks, 6 rows of
    # 5,201 nodes): building the closed-form trajectory traces about 0.3 MB, as it
    # stores no rows (storing them took 10.7 MB); the pick and classify scans about
    # 1.2 MB, mostly their workspace of four row blocks. A scan over all rows at
    # once traces several times 10.7 MB. The bounds leave about 2x margin.
    tracemalloc.start()
    try:
        traj = rescaling.backward_rosenau_trajectory(6)
        build = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        held = tracemalloc.get_traced_memory()[0]
        rescaling.pick_point(traj, -64.0, rescaling.default_gamma(6), j=6)
        rescaling.classify_type(traj, t0=-1.0)
        scan = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    block = 2**18  # bytes of one 2**15-value block
    assert build <= 2 * block
    assert scan <= 10 * block < traj.times.size * traj.nodes.size * 8 / 4


def test_pick_is_reproducible():
    traj, pick = ladder_pick(3)
    again = rescaling.pick_point(
        traj, rescaling.default_window(3), rescaling.default_gamma(3), j=3
    )
    assert again == pick


def test_backward_pick_lands_mid_window_at_half_coth():
    traj, pick = ladder_pick(3)
    assert pick.j == 3
    assert pick.T_j == -8.0
    # weight (-t)(t - T) peaks at T/2; the snapshot grid contains it exactly
    assert pick.t_j == pytest.approx(-4.0005, abs=1e-9)
    assert pick.x_j == pytest.approx(-15.5, abs=1e-9)
    assert 2.0 * pick.M_j == pytest.approx(1.0 / math.tanh(-pick.t_j), abs=1e-3)
    assert pick.alpha_j == pytest.approx((pick.t_j - pick.T_j) * pick.M_j, rel=1e-14)
    assert pick.omega_j == pytest.approx(-pick.t_j * pick.M_j, rel=1e-14)
    assert pick.alpha_j == pytest.approx(2.0, abs=5e-3)
    assert pick.omega_j == pytest.approx(2.0, abs=5e-3)
    assert pick.score == pytest.approx(
        (-pick.t_j) * (pick.t_j - pick.T_j) * pick.M_j, rel=1e-13
    )


def test_pick_attains_searched_supremum():
    traj, pick = ladder_pick(2)
    sup = 0.0
    for k in range(traj.times.size):
        grid = traj.snapshot(k)
        t = float(grid.t)
        weight = (-t) * (t - pick.T_j)
        if weight <= 0.0:
            continue
        mag = 0.5 * np.abs(geometry.scalar_curvature(grid))
        trusted = trust_mask(grid.u, grid.chart, solver.CURVATURE_TRUST_FLOOR)
        sup = max(sup, weight * float(mag[trusted].max()))
    assert pick.score >= pick.gamma_j * sup
    assert pick.score >= sup * (1.0 - 2.0 * rescaling.PICK_TIE_RTOL)


def test_pick_validation_rejects_inconsistent_fields():
    good = dict(
        j=None, T_j=-2.0, gamma_j=0.5, x_j=0.0, node=0,
        t_j=-1.0, M_j=1.0, alpha_j=1.0, omega_j=1.0, score=1.0,
    )
    rescaling.RescalingPick(**good)
    for bad in (
        dict(T_j=0.5),
        dict(gamma_j=1.2),
        dict(t_j=0.5),
        dict(t_j=-3.0),
        dict(M_j=-1.0),
        dict(alpha_j=-1.0),
        dict(omega_j=0.0),
    ):
        with pytest.raises(DomainError):
            rescaling.RescalingPick(**{**good, **bad})


def test_dilated_window_is_open():
    traj, pick = ladder_pick(3)
    flow = rescaling.dilate(traj, pick)
    lo, hi = flow.window
    assert lo == -pick.alpha_j and hi == pick.omega_j
    for t in (lo, hi, lo - 1.0, hi + 1.0):
        with pytest.raises(DomainError, match=r"^dilated time \S+ outside \(\S+, \S+\)$"):
            flow.u_at(t)


def test_dilation_scales_conformal_factor():
    traj, pick = ladder_pick(3)
    flow = rescaling.dilate(traj, pick)
    np.testing.assert_allclose(
        flow.u_at(0.0), pick.M_j * traj.u_at(pick.t_j), rtol=1e-13
    )
    grid = flow.grid_at(0.5)
    assert grid.t == 0.5
    assert grid.chart == traj.chart


def test_dilated_tip_curvature_is_two():
    # R0 = R_tip / M_j with M_j = R_tip / 2 from the same row: exact, whatever the
    # rounding of R_tip
    for j in range(1, 7):
        traj = rescaling.backward_rosenau_trajectory(j)
        pick = rescaling.pick_point(traj, rescaling.default_window(j), rescaling.default_gamma(j), j=j)
        prof = rescaling.rescaled_profile(traj, pick, cli.RESCALE_SPAN)
        assert prof.R0 == 2.0
        assert prof.Rn[0] == 1.0


def test_magnitude_bound_holds_inside_window():
    traj, pick = ladder_pick(3)
    flow = rescaling.dilate(traj, pick)
    a, w, gamma = pick.alpha_j, pick.omega_j, pick.gamma_j

    def bound(t):
        # the pick's score |t| (t - T) M is at least gamma times its window maximum
        return a * w / (gamma * (a + t) * (w - t))

    assert bound(0.0) == pytest.approx(1.0 / gamma, rel=1e-13)
    lo, hi = flow.window
    for t in np.linspace(lo + 0.05, hi - 0.05, 21):
        grid = flow.grid_at(float(t))
        mag = 0.5 * np.abs(geometry.scalar_curvature(grid))
        trusted = trust_mask(grid.u, grid.chart, solver.CURVATURE_TRUST_FLOOR)
        peak = float(mag[trusted].max())
        assert peak <= bound(float(t))


def test_rescaled_profile_structure():
    traj, pick = ladder_pick(3)
    prof = rescaling.rescaled_profile(traj, pick, 3.0)
    assert prof.s[0] == 0.0
    assert prof.Rn[0] == 1.0
    assert prof.R0 == 2.0
    assert np.all(np.diff(prof.s) >= 0.0)
    assert float(prof.s[-1]) <= 3.0
    assert prof.s.size > 100


def test_profile_span_errors():
    traj, pick = ladder_pick(3)
    with pytest.raises(DomainError, match="^profile span must be positive, got 0.0$"):
        rescaling.rescaled_profile(traj, pick, 0.0)
    # trusted region ends near unit-curvature distance 10.8 on this grid
    with pytest.raises(DomainError, match=r"^grid supports the profile only to distance \S+, span 20.0 requested$"):
        rescaling.rescaled_profile(traj, pick, 20.0)


@pytest.mark.parametrize("rows", [slice(1, None, 2), slice(0, 10)], ids=["between", "after"])
def test_profile_needs_the_picked_time_among_the_snapshots(rows):
    traj, pick = ladder_pick(3)
    assert pick.t_j == traj.times[32]
    other = solver.FlowTrajectory(traj.chart, traj.nodes, traj.times[rows], traj.u_rows()[rows], None, ())
    with pytest.raises(DomainError, match=r"^picked time \S+ is not a snapshot time of the trajectory$"):
        rescaling.rescaled_profile(other, pick, 3.0)


def test_profile_validation_rejects_malformed_arrays():
    s = np.array([0.0, 1.0, 2.0])
    rn = np.array([1.0, 0.8, 0.4])
    rescaling.RescaledProfile(s=s, Rn=rn, R0=2.0)
    with pytest.raises(DomainError):
        rescaling.RescaledProfile(s=s[:2], Rn=rn, R0=2.0)
    with pytest.raises(DomainError):
        rescaling.RescaledProfile(s=np.array([0.1, 1.0]), Rn=np.array([1.0, 0.5]), R0=2.0)
    with pytest.raises(DomainError):
        rescaling.RescaledProfile(s=np.array([0.0, 1.0]), Rn=np.array([0.9, 0.5]), R0=2.0)
    with pytest.raises(DomainError):
        rescaling.RescaledProfile(s=np.array([0.0, 2.0, 1.0]), Rn=rn, R0=2.0)
    with pytest.raises(DomainError):
        rescaling.RescaledProfile(s=np.array([0.0]), Rn=np.array([1.0]), R0=2.0)


def test_profile_distance_ladder_approaches_cigar():
    dists = []
    mins = []
    for j in range(1, 7):
        traj, pick = ladder_pick(j)
        dists.append(rescaling.profile_distance(traj, pick, 3.0))
        mins.append(min(pick.alpha_j, pick.omega_j))
    expected = [8.179981e-1, 1.591337e-1, 2.053718e-3, 1.144657e-4, 1.145856e-4, 1.146530e-4]
    for got, want in zip(dists, expected):
        assert got == pytest.approx(want, rel=1e-2, abs=5e-7)
    # sup-norm noise on the far plateau sits near 2e-7; 1e-6 absorbs it
    assert all(b <= a + 1e-6 for a, b in zip(dists, dists[1:]))
    assert dists[-1] < 1e-3
    assert all(b >= a for a, b in zip(mins, mins[1:]))
    assert mins[0] < 1.0 and mins[-1] > 15.0


def test_solver_path_pick_matches_exact_magnitude():
    grid0 = exact.sample_grid(exact.rosenau(), -4.0, n=881, x_lo=-22.0, x_hi=22.0)
    traj = solver.evolve(grid0, -0.01, cfl=0.4, output_times=np.linspace(-4.0, -0.01, 65))
    pick = rescaling.pick_point(traj, -4.0, rescaling.default_gamma(2), j=2)
    assert pick.t_j == pytest.approx(-1.7556, abs=1e-3)
    assert pick.x_j == pytest.approx(-13.2, abs=0.3)
    assert 2.0 * pick.M_j == pytest.approx(1.0 / math.tanh(-pick.t_j), abs=5e-4)
    dist = rescaling.profile_distance(traj, pick, 3.0)
    assert 0.1 < dist < 0.2


def test_sphere_pick_forward_endpoint_stays_bounded():
    traj = sphere_trajectory()
    picks = [rescaling.pick_point(traj, T, 0.9) for T in (-4.0, -8.0)]
    for pick in picks:
        # omega = -t_j M_j pins the |t| R / 2 = 1/2 identity of the round family
        assert pick.omega_j == pytest.approx(0.5, abs=1e-3)
    assert picks[0].t_j == picks[1].t_j
    assert picks[1].alpha_j > 100.0


def test_sphere_profile_stays_far_from_cigar():
    traj = sphere_trajectory()
    pick = rescaling.pick_point(traj, -8.0, 0.9)
    dist = rescaling.profile_distance(traj, pick, 2.0)
    assert dist == pytest.approx(0.5717, abs=0.02)
    assert dist > 0.5


def test_classifier_rejects_bad_t0():
    traj = classifier_rosenau_trajectory()
    with pytest.raises(DomainError):
        rescaling.classify_type(traj, t0=0.0)


def test_classifier_needs_enough_windows():
    times = np.linspace(-4.0, -1.0, 13)
    traj = solver.exact_trajectory(exact.rosenau(), times, n=401, x_lo=-22.0, x_hi=22.0)
    with pytest.raises(DomainError, match="^need 4 dyadic windows inside the trajectory, only 2 fit$"):
        rescaling.classify_type(traj)


def test_classifier_needs_coverage_up_to_t0():
    times = np.linspace(-64.0, -2.0, 63)
    traj = solver.exact_trajectory(exact.rosenau(), times, n=1001, x_lo=-77.0, x_hi=77.0)
    with pytest.raises(DomainError, match="^trajectory ends at -2.0, before t0 = -1.0$"):
        rescaling.classify_type(traj, t0=-1.0)


def test_classifier_flags_diverging_growth():
    rep = rescaling.classify_type(classifier_rosenau_trajectory())
    assert rep.verdict == rescaling.DIVERGING
    assert rep.basis == rescaling.VERDICT_BASIS
    assert rep.t0 == -1.0
    windows = [T for T, _ in rep.samples]
    assert windows == [-2.0, -4.0, -8.0, -16.0, -32.0, -64.0]
    expected = [1.037521, 2.001740, 4.000796, 8.001589, 16.003175, 32.006395]
    for (_, got), want in zip(rep.samples, expected):
        assert got == pytest.approx(want, rel=1e-4)
    values = [s for _, s in rep.samples]
    for prev, nxt in zip(values[2:], values[3:]):
        assert nxt / prev >= 1.8


def test_classifier_keeps_round_family_bounded():
    times = np.linspace(-64.0, -1.0, 253)
    traj = solver.exact_trajectory(exact.sphere(), times, n=1201, extent=30.0)
    rep = rescaling.classify_type(traj)
    assert rep.verdict == rescaling.BOUNDED
    for _, s in rep.samples:
        assert s == pytest.approx(0.500043, abs=1e-3)
        assert 0.45 <= s <= 0.55


def test_classifier_keeps_flat_bounded():
    times = np.linspace(-64.0, -1.0, 65)
    traj = solver.exact_trajectory(exact.flat(), times, n=201, extent=10.0)
    rep = rescaling.classify_type(traj)
    assert rep.verdict == rescaling.BOUNDED
    assert all(s == 0.0 for _, s in rep.samples)


def test_classifier_is_scale_invariant():
    traj = classifier_rosenau_trajectory()
    rep = rescaling.classify_type(traj)
    lam = 2.0
    scaled = solver.FlowTrajectory(traj.chart, traj.nodes, lam * traj.times, lam * traj.u_rows(), None, ())
    rep_scaled = rescaling.classify_type(scaled, t0=lam * rep.t0)
    assert rep_scaled.verdict == rep.verdict
    assert len(rep_scaled.samples) == len(rep.samples)
    for (T, s), (T_scaled, s_scaled) in zip(rep.samples, rep_scaled.samples):
        assert T_scaled == lam * T
        assert s_scaled == pytest.approx(s, rel=1e-4)


def test_backward_trajectory_validation_and_layout():
    with pytest.raises(DomainError):
        rescaling.backward_rosenau_trajectory(0)
    traj = rescaling.backward_rosenau_trajectory(1, h_target=0.5, snapshot_count=5)
    assert traj.grid0.n == 85
    assert traj.grid0.nodes[0] == -21.0
    assert traj.U is None and traj.u_rows().shape == (5, 85)
    assert float(traj.times[0]) == -2.0


def test_evolved_backward_data_reproduces_the_exact_pick_and_profile():
    # the backward analysis on evolved data, not only on the closed form: row 0
    # of the exact j = 4 trajectory, evolved over the same snapshot times, must
    # pick the same point and stay within 2x of the exact profile distance
    # (measured 1.60e-5 against 1.45e-5; the trapezoid-corrector stepper read
    # 8.5e-4 and picked the mirror node)
    j = 4
    exact_traj = rescaling.backward_rosenau_trajectory(j)
    evolved = solver.evolve(
        exact_traj.grid0, float(exact_traj.times[-1]), cfl=0.4, output_times=exact_traj.times
    )
    assert np.array_equal(evolved.times, exact_traj.times)
    window, gamma = rescaling.default_window(j), rescaling.default_gamma(j)
    picks, dists = [], []
    for traj in (exact_traj, evolved):
        pick = rescaling.pick_point(traj, window, gamma, j=j)
        picks.append((pick.t_j, pick.node))
        dists.append(rescaling.profile_distance(traj, pick, 3.0))
    assert picks[1] == picks[0]
    assert dists[1] <= 2.0 * dists[0]
