import math
import tracemalloc

import numpy as np
import pytest

from geomflow import exact, geometry, rescaling, solver
from geomflow.errors import DomainError
from geomflow.grids import CURVATURE_TRUST_FLOOR, reliable_slice, trust_mask


def ladder_trajectory(j):
    # a coarse Rosenau window: the pipeline's extent at step 0.05, 65 snapshots
    T = rescaling.default_window(j)
    extent = abs(T) / 2.0 + 20.0
    n = int(round(2.0 * extent / 0.05)) + 1
    return solver.exact_trajectory(exact.rosenau(), np.linspace(T, -1e-3, 65), n=n, extent=extent)


def ladder_pick(j):
    traj = ladder_trajectory(j)
    return traj, rescaling.pick_point(traj, j)


def sphere_trajectory(t_start=-8.0, snapshots=257):
    times = np.linspace(t_start, -1e-3, snapshots)
    return solver.exact_trajectory(exact.sphere(), times, n=1201, extent=30.0)


def classifier_rosenau_trajectory():
    return rescaling.classify_trajectory(exact.rosenau(), -64.0, -1.0)


# The paper's headline: the rescale task's pick and profile distance for
# j = 1..6 on the default backward Rosenau trajectories. A change that moves
# them on purpose updates this table and says why.
HEADLINE = [
    # (j, node, x_j, t_j, profile distance)
    (1, 786, -5.28, -0.001, 0.8191376632207104),
    (2, 437, -13.26, -1.7818046875, 0.1508387383602681),
    (3, 425, -15.5, -4.0005, 2.036792894486217e-3),
    (4, 425, -19.5, -8.0005, 1.4524482505273717e-5),
    (5, 425, -27.5, -16.0005, 1.453925271754919e-5),
    (6, 425, -43.5, -32.0005, 1.4539256110834842e-5),
]


@pytest.mark.parametrize("j, node, x_j, t_j, distance", HEADLINE, ids=[f"j{row[0]}" for row in HEADLINE])
def test_headline_picks_and_profile_distances_are_pinned(j, node, x_j, t_j, distance):
    traj = rescaling.backward_trajectory(exact.rosenau(), j)
    pick = rescaling.pick_point(traj, j)
    assert pick.node == node
    assert pick.x_j == traj.nodes[node]
    assert pick.x_j == pytest.approx(x_j, abs=1e-12)
    assert pick.t_j == pytest.approx(t_j, abs=1e-12)
    measured = rescaling.profile_distance(traj, pick)
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


@pytest.mark.parametrize("j", [0, -1, 1024])
def test_pick_rejects_an_index_outside_one_to_1023(j):
    traj = ladder_trajectory(1)
    with pytest.raises(DomainError, match=rf"^pick index must be an int in \[1, 1023\], got {j}$"):
        rescaling.pick_point(traj, j)


@pytest.mark.parametrize("j", [1, 2])
def test_pick_records_the_window_and_gamma_of_its_index(j):
    traj, pick = ladder_pick(j)
    assert pick.j == j
    assert pick.T_j == -(2.0**j)
    assert pick.gamma_j == rescaling.default_gamma(j)


def test_pick_needs_window_coverage():
    traj = ladder_trajectory(1)  # starts at -2
    with pytest.raises(DomainError, match="^trajectory starts at -2.0, window needs coverage from -4.0$"):
        rescaling.pick_point(traj, 2)


def test_pick_needs_strictly_backward_times():
    base = exact.sample_grid(exact.flat(), -1.0, n=64, extent=5.0)
    times = np.array([-2.0, 0.0])
    U = np.stack([base.u] * 2)
    traj = solver.FlowTrajectory(base.chart, base.nodes, times, U, None, ())
    with pytest.raises(DomainError, match="^backward pick needs snapshot times strictly before 0$"):
        rescaling.pick_point(traj, 1)


def test_pick_before_its_window_has_no_score():
    # every snapshot at or before T_1 = -2 has weight (-t)(t - T_1) <= 0: none is scored
    times = np.linspace(-8.0, -2.0, 13)
    traj = solver.exact_trajectory(exact.rosenau(), times, n=401, extent=22.0)
    with pytest.raises(DomainError, match="^curvature score vanishes on the searched window$"):
        rescaling.pick_point(traj, 1)


def test_flat_pick_is_degenerate():
    times = np.linspace(-2.0, -0.5, 9)
    traj = solver.exact_trajectory(exact.flat(), times, n=201, extent=10.0)
    with pytest.raises(DomainError, match="^curvature score vanishes on the searched window$"):
        rescaling.pick_point(traj, 1)


def test_tied_scores_resolve_to_earliest_snapshot():
    # equal weights (-t)(t - T) at t = -3 and t = -1 for T = -4, identical u
    base = exact.sample_grid(exact.sphere(), -1.0, n=201, extent=10.0)
    traj = solver.FlowTrajectory(
        base.chart, base.nodes, np.array([-4.0, -3.0, -1.0]), np.stack([base.u] * 3), None, ()
    )
    pick = rescaling.pick_point(traj, 2)
    assert pick.t_j == -3.0


def masked_magnitude(traj, k):
    """Reference: M = |R|/2 of snapshot k from its own curvature and trust passes,
    untrusted nodes sent to -inf."""
    snapshot = traj.snapshot(k)
    magnitude = 0.5 * np.abs(geometry.scalar_curvature(snapshot))
    magnitude[~trust_mask(snapshot.u, snapshot.chart)] = -np.inf
    return magnitude


def test_blocked_peaks_equal_the_masked_magnitude_maxima():
    base = ladder_trajectory(3)
    U = np.array(base.u_rows())
    U[7] *= 1e-6  # below the trust floor at every node: the argmax fallback decides
    traj = solver.FlowTrajectory(base.chart, base.nodes, base.times, U, base.provenance, ())
    assert not np.any(traj.U[7] >= CURVATURE_TRUST_FLOOR)
    count = traj.times.size
    rows = solver.row_blocks(0, count, traj.nodes.size)[0].stop
    assert 8 < rows < count
    # whole range, windows starting mid-block, one ending mid-block, a single row, and
    # rows that are no range, over two blocks, as the bisection of pick_point reads them
    scattered = [k for k in range(count) if k % 3 != 1]
    assert len(scattered) > rows
    for read in [range(count), range(5, count), range(rows + 3, count), range(2, rows + 5), range(7, 8),
                 scattered, [count - 1, 7, 0]]:
        lo, hi = solver.curvature_range(traj, read)
        for i, k in enumerate(read):
            snapshot = traj.snapshot(k)
            trusted = trust_mask(snapshot.u, snapshot.chart)
            trusted_r = geometry.scalar_curvature(snapshot)[trusted]
            assert lo[i] == trusted_r.min() and hi[i] == trusted_r.max()
        # the peaks pick_point and classify_type read: bitwise the old maxima of |R|/2
        expected = [float(masked_magnitude(traj, k).max()) for k in read]
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
    pick = rescaling.pick_point(traj, j)
    k, node, score = reference_pick(traj, rescaling.default_window(j))
    assert (pick.t_j, pick.node, pick.score) == (float(traj.times[k]), node, score)


RESCALE_WINDOWS = [
    (name, j)
    for name in ("rosenau", "sphere", "ladder")
    for j in rescaling.RESCALE_DEPTHS
]


def rescale_window(name, j):
    """A window pick_point reads: rescale's backward data for Rosenau and Sphere, or a ladder window."""
    if name == "ladder":
        return ladder_trajectory(j)
    return rescaling.backward_trajectory(getattr(exact, name)(), j)


@pytest.mark.parametrize("name, j", RESCALE_WINDOWS, ids=[f"{n}-j{j}" for n, j in RESCALE_WINDOWS])
def test_pick_equals_the_exhaustive_reference_on_every_rescale_window(name, j):
    traj = rescale_window(name, j)
    pick = rescaling.pick_point(traj, j)
    k, node, score = reference_pick(traj, rescaling.default_window(j))
    assert (pick.t_j, pick.node, pick.score) == (float(traj.times[k]), node, score)


CLASSIFY_WINDOWS = [(name, t0) for name in ("rosenau", "sphere") for t0 in (-16.0, -64.0, -64.5, -128.0)]


def classify_window(name, t0):
    """A trajectory classify_type reads: classify's closed-form data from t0 to -1."""
    return rescaling.classify_trajectory(getattr(exact, name)(), t0, -1.0)


PREMISE_WINDOWS = [(rescale_window, name, j) for name, j in RESCALE_WINDOWS] + [
    (classify_window, name, t0) for name, t0 in CLASSIFY_WINDOWS
]
PREMISE_IDS = [f"{n}-j{j}" for n, j in RESCALE_WINDOWS] + [f"classify-{n}-t0{t0:g}" for n, t0 in CLASSIFY_WINDOWS]


@pytest.mark.parametrize("make, name, depth", PREMISE_WINDOWS, ids=PREMISE_IDS)
def test_trusted_peaks_never_drop_below_an_earlier_peak_by_more_than_the_tie_band(make, name, depth):
    # the premise of the Harnack bisection: M(t) is nondecreasing within PICK_TIE_RTOL, over
    # a pick window's scored rows and over every row of a classify trajectory. Measured
    # worst drop from one snapshot to the next 1.9e-6 (classify 2.2e-6), below any
    # earlier peak 3.1e-6 (classify 2.7e-6).
    traj = make(name, depth)
    lo, hi = solver.curvature_range(traj, range(make is rescale_window, traj.times.size))
    peaks = 0.5 * np.maximum(hi, -lo)
    assert np.all(peaks[1:] >= peaks[:-1] * (1.0 - rescaling.PICK_TIE_RTOL))
    assert np.all(peaks >= np.maximum.accumulate(peaks) * (1.0 - rescaling.PICK_TIE_RTOL))


def counted_reads(monkeypatch):
    """The row sequences every FlowTrajectory.blocks call reads, recorded from now on."""
    read = []
    blocks = solver.FlowTrajectory.blocks

    def counted(self, rows=None):
        read.append(list(range(self.times.size) if rows is None else rows))
        return blocks(self, rows)

    monkeypatch.setattr(solver.FlowTrajectory, "blocks", counted)
    return read


def test_pick_reads_only_the_rows_the_harnack_bound_leaves_in_play(monkeypatch):
    traj = rescaling.backward_trajectory(exact.rosenau(), 6)
    read = counted_reads(monkeypatch)
    pick = rescaling.pick_point(traj, 6)
    # 256 scored rows (t > T_6 = -64); the last at or before T_6/2 = -32 is row 128
    assert traj.times.size - 1 == 256
    assert traj.times[128] <= -32.0 < traj.times[129]
    # the bisection reads the first scored row, k_mid = 128 and the last row, then one
    # midpoint per level: the run 2..127 before k_mid is dropped at once, its larger end
    # weight (row 127's) times M(128) being below the band, and the last row's
    # M = coth(1e-3)/2 keeps each right half in play, while each left half's bound falls
    # below the band: 10 of the 256 scored rows, then the picked row once more
    assert read == [[1, 128, 256], [192], [224], [240], [248], [252], [254], [255], [128]]
    assert pick.t_j == traj.times[128]


def test_classify_reads_only_the_rows_the_harnack_bound_leaves_in_play(monkeypatch):
    traj = classifier_rosenau_trajectory()
    read = counted_reads(monkeypatch)
    rescaling.classify_type(traj)
    # the first row of each window T = -2 ... -64, and the last row; then one midpoint,
    # the run 249..251 before the last row: 8 of the 253 rows
    assert traj.times[[0, 128, 192, 224, 240, 248]].tolist() == [-64.0, -32.0, -16.0, -8.0, -4.0, -2.0]
    assert read == [[0, 128, 192, 224, 240, 248, 252], [250]]
    # no row before the deepest window: at t0 = -64.5 the window [-64, -1] starts at row 2
    deeper = rescaling.classify_trajectory(exact.rosenau(), -64.5, -1.0)
    read.clear()
    rescaling.classify_type(deeper)
    assert deeper.times[1] < -64.0 <= deeper.times[2]
    assert min(min(rows) for rows in read) == 2 and sum(map(len, read)) <= 12


def test_flat_classify_reads_only_the_window_starts_and_the_last_row(monkeypatch):
    # Flat has R = 0, so every score and every run's bound is 0: no run can raise an
    # S(T) = 0, and none is read beyond the first row of each window and the last row
    traj = classify_window("flat", -64.0)
    read = counted_reads(monkeypatch)
    report = rescaling.classify_type(traj)
    assert read == [[0, 128, 192, 224, 240, 248, 252]]
    assert report.verdict == rescaling.BOUNDED and all(s == 0.0 for _, s in report.samples)


def reference_classification(traj):
    """Reference: classify_type's report, S(T) taken row by row through masked_magnitude
    over every snapshot of each window [T, t0]."""
    times = traj.times.tolist()
    tol = 1e-9 * max(1.0, abs(times[0]))
    values = [abs(t) * float(masked_magnitude(traj, k).max()) for k, t in enumerate(times)]
    samples, T = [], 2.0 * times[-1]
    while T >= times[0] - tol:
        samples.append((T, max(v for t, v in zip(times, values) if t >= T - tol)))
        T *= 2.0
    s = [v for _, v in samples]
    growth = [b / a if a > 0.0 else (math.inf if b > 0.0 else 0.0) for a, b in zip(s[-4:], s[-3:])]
    verdict = rescaling.DIVERGING if min(growth) >= rescaling.GROWTH_RATIO else rescaling.BOUNDED
    return rescaling.ClassificationReport(samples=tuple(samples), verdict=verdict, t0=times[-1])


CLASSIFY_REFERENCE_WINDOWS = CLASSIFY_WINDOWS + [("flat", t0) for t0 in (-16.0, -64.0, -64.5, -128.0)]


@pytest.mark.parametrize(
    "name, t0", CLASSIFY_REFERENCE_WINDOWS, ids=[f"{n}-t0{t0:g}" for n, t0 in CLASSIFY_REFERENCE_WINDOWS]
)
def test_classify_equals_the_exhaustive_reference(name, t0):
    traj = classify_window(name, t0)
    assert rescaling.classify_type(traj) == reference_classification(traj)


def test_a_trajectory_that_breaks_the_premise_is_maximized_over_the_rows_read(monkeypatch):
    # T_2 = -4, weight peaks at t = -2; each row is the Sphere at its own time except
    # at t = -3.5, where a Sphere row from t = -0.1 has ten times the curvature of t = -1
    times = [-4.0, -3.75, -3.5, -3.0, -2.0, -1.0]
    rows = [-4.0, -3.75, -0.1, -3.0, -2.0, -1.0]
    grids = [exact.sample_grid(exact.sphere(), t, n=201, extent=10.0) for t in rows]
    traj = solver.FlowTrajectory(
        grids[0].chart, grids[0].nodes, np.array(times), np.stack([g.u for g in grids]), None, ()
    )
    # the exhaustive maximizer is the high row. The bisection reads the first scored row
    # (t = -3.75), k_mid (t = -2) and the last row, then drops the run between the first
    # two, whose larger end weight 3 at t = -3 times M(-2) is half the supremum 3 * M(-1):
    # the planted row is never read
    k, node, score = reference_pick(traj, -4.0)
    assert times[k] == -3.5
    read = counted_reads(monkeypatch)
    pick = rescaling.pick_point(traj, 2)
    assert read == [[1, 4, 5], [5]]
    assert pick.t_j == -1.0
    assert pick.score < score / 5.0


def test_a_trajectory_that_breaks_the_premise_is_classified_over_the_rows_read():
    # classify's Rosenau data from t0 = -16 with row 60 (t = -12.43) replaced by the
    # Rosenau row of t = -0.5, whose peak coth(0.5)/2 is 2.16x that of t = -1
    base = classify_window("rosenau", -16.0)
    U = np.array(base.u_rows())
    U[60] = exact.u_profile(exact.rosenau(), base.nodes, -0.5)
    traj = solver.FlowTrajectory(base.chart, base.nodes, base.times, U, None, ())
    # the exhaustive S(-16) is that row's |t| M, 12.43 x 1.082 = 13.45. Rows 1..134 lie in
    # the window [-16, -1] only, and the bisection drops them at the first level, as
    # their bound 15.94 M(row 135, t = -7.96) = 7.97 is below S(-16) = 8.0: the planted
    # row is never read, and the report is that of the unplanted rows
    reference = reference_classification(traj)
    assert reference.samples[-1] == (-16.0, pytest.approx(13.45, abs=0.01))
    report = rescaling.classify_type(traj)
    assert report == rescaling.classify_type(base)
    assert report.samples[:-1] == reference.samples[:-1]
    assert report.samples[-1][1] == pytest.approx(8.0, rel=1e-3)


@pytest.mark.parametrize(
    "spec, extent",
    [(exact.rosenau(), 20.0), (exact.sphere(), 30.0)],
    ids=["cylinder", "radial"],
)
def test_stored_and_closed_form_rows_give_equal_results(spec, extent):
    # 15 snapshots of 5,001 nodes: three row blocks, so every scan carries state
    # across two block boundaries
    times = np.linspace(-16.0, -0.5, 15)
    closed = solver.exact_trajectory(spec, times, n=5001, extent=extent)
    stored = solver.FlowTrajectory(closed.chart, closed.nodes, closed.times, closed.u_rows(), spec, ())
    assert closed.U is None and len(solver.row_blocks(0, times.size, 5001)) == 3

    def results(traj):
        pick = rescaling.pick_point(traj, 4)
        k = 7  # mid-block: u_at interpolates with weight exactly 1
        return (
            solver.curvature_range(traj),
            solver.rmax_series(traj),
            solver.diagnostics(traj),
            solver.closed_form_error(traj),
            pick,
            rescaling.profile_distance(traj, pick),
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
        traj = rescaling.backward_trajectory(exact.rosenau(), 6)
        build = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        held = tracemalloc.get_traced_memory()[0]
        rescaling.pick_point(traj, 6)
        rescaling.classify_type(traj)
        scan = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    block = 2**18  # bytes of one 2**15-value block
    assert build <= 2 * block
    assert scan <= 10 * block < traj.times.size * traj.nodes.size * 8 / 4


def test_pick_is_reproducible():
    traj, pick = ladder_pick(3)
    assert rescaling.pick_point(traj, 3) == pick


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
        trusted = trust_mask(grid.u, grid.chart)
        sup = max(sup, weight * float(mag[trusted].max()))
    assert pick.score >= pick.gamma_j * sup
    assert pick.score >= sup * (1.0 - 2.0 * rescaling.PICK_TIE_RTOL)


def test_pick_validation_rejects_inconsistent_fields():
    good = dict(
        j=1, T_j=-2.0, gamma_j=0.5, x_j=0.0, node=0,
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
    # the profile divides R by R_tip from the row that gave M_j = R_tip / 2, so the
    # dilated tip curvature R_tip / M_j is 2 exactly, whatever the rounding of R_tip
    for j in range(1, 7):
        traj = rescaling.backward_trajectory(exact.rosenau(), j)
        pick = rescaling.pick_point(traj, j)
        prof = rescaling.rescaled_profile(traj, pick)
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
        trusted = trust_mask(grid.u, grid.chart)
        peak = float(mag[trusted].max())
        assert peak <= bound(float(t))


def test_rescaled_profile_structure():
    traj, pick = ladder_pick(3)
    prof = rescaling.rescaled_profile(traj, pick)
    assert prof.s[0] == 0.0
    assert prof.Rn[0] == 1.0
    assert np.all(np.diff(prof.s) >= 0.0)
    assert float(prof.s[-1]) <= 3.0
    assert prof.s.size > 100


def test_profile_span_errors():
    # the trusted region of the coarse Sphere grid ends at unit-curvature distance 2.71
    times = np.linspace(-2.0, -1e-3, 257)
    traj = solver.exact_trajectory(exact.sphere(), times, n=100, extent=20.0)
    pick = rescaling.pick_point(traj, 1)
    with pytest.raises(DomainError, match=r"^grid supports the profile only to distance 2.71, span 3.0 requested$"):
        rescaling.rescaled_profile(traj, pick)


@pytest.mark.parametrize("rows", [slice(1, None, 2), slice(0, 10)], ids=["between", "after"])
def test_profile_needs_the_picked_time_among_the_snapshots(rows):
    traj, pick = ladder_pick(3)
    assert pick.t_j == traj.times[32]
    other = solver.FlowTrajectory(traj.chart, traj.nodes, traj.times[rows], traj.u_rows()[rows], None, ())
    with pytest.raises(DomainError, match=r"^picked time \S+ is not a snapshot time of the trajectory$"):
        rescaling.rescaled_profile(other, pick)


def test_profile_validation_rejects_malformed_arrays():
    s = np.array([0.0, 1.0, 2.0])
    rn = np.array([1.0, 0.8, 0.4])
    rescaling.RescaledProfile(s=s, Rn=rn)
    with pytest.raises(DomainError):
        rescaling.RescaledProfile(s=s[:2], Rn=rn)
    with pytest.raises(DomainError):
        rescaling.RescaledProfile(s=np.array([0.1, 1.0]), Rn=np.array([1.0, 0.5]))
    with pytest.raises(DomainError):
        rescaling.RescaledProfile(s=np.array([0.0, 1.0]), Rn=np.array([0.9, 0.5]))
    with pytest.raises(DomainError):
        rescaling.RescaledProfile(s=np.array([0.0, 2.0, 1.0]), Rn=rn)
    with pytest.raises(DomainError):
        rescaling.RescaledProfile(s=np.array([0.0]), Rn=np.array([1.0]))


def test_profile_distance_ladder_approaches_cigar():
    dists = []
    mins = []
    for j in range(1, 7):
        traj, pick = ladder_pick(j)
        dists.append(rescaling.profile_distance(traj, pick))
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
    grid0 = exact.sample_grid(exact.rosenau(), -4.0, n=881, extent=22.0)
    traj = solver.evolve(grid0, -0.01, cfl=0.4, output_times=np.linspace(-4.0, -0.01, 65))
    pick = rescaling.pick_point(traj, 2)
    assert pick.t_j == pytest.approx(-1.7556, abs=1e-3)
    assert pick.x_j == pytest.approx(-13.2, abs=0.3)
    assert 2.0 * pick.M_j == pytest.approx(1.0 / math.tanh(-pick.t_j), abs=5e-4)
    dist = rescaling.profile_distance(traj, pick)
    assert 0.1 < dist < 0.2


def test_sphere_pick_forward_endpoint_stays_bounded():
    traj = sphere_trajectory()
    picks = [rescaling.pick_point(traj, j) for j in (2, 3)]
    for pick in picks:
        # omega = -t_j M_j pins the |t| R / 2 = 1/2 identity of the round family
        assert pick.omega_j == pytest.approx(0.5, abs=1e-3)
    assert picks[0].t_j == picks[1].t_j
    assert picks[1].alpha_j > 100.0


def test_sphere_profile_stays_far_from_cigar():
    # the rescale task's Sphere windows: |t| M is constant on the shrinking
    # sphere and the weight t - T_j grows toward 0, so every window picks the
    # last snapshot, at the axis node (sphere_trajectory's n = 1201 on extent 30
    # supports the profile only to distance 2.36, short of the span)
    for j in rescaling.RESCALE_DEPTHS:
        traj = rescaling.backward_trajectory(exact.sphere(), j)
        pick = rescaling.pick_point(traj, j)
        assert (pick.node, pick.t_j) == (0, -1e-3)
        assert rescaling.profile_distance(traj, pick) == pytest.approx(0.8186067221287973, rel=1e-6)


def test_classifier_rejects_bad_t0():
    # the window end t0 is the trajectory's last time, which must lie before 0
    times = np.linspace(-64.0, 0.0, 65)
    traj = solver.exact_trajectory(exact.flat(), times, n=201, extent=10.0)
    with pytest.raises(
        DomainError, match="^classify needs snapshot times strictly before 0, trajectory ends at 0.0$"
    ):
        rescaling.classify_type(traj)


def test_classifier_needs_enough_windows():
    times = np.linspace(-4.0, -1.0, 13)
    traj = solver.exact_trajectory(exact.rosenau(), times, n=401, extent=22.0)
    with pytest.raises(DomainError, match="^need 4 dyadic windows inside the trajectory, only 2 fit$"):
        rescaling.classify_type(traj)


def test_classifier_window_ends_at_the_trajectory_end():
    times = np.linspace(-64.0, -2.0, 63)
    traj = solver.exact_trajectory(exact.rosenau(), times, n=1001, extent=77.0)
    rep = rescaling.classify_type(traj)
    assert rep.t0 == -2.0
    assert [T for T, _ in rep.samples] == [-4.0, -8.0, -16.0, -32.0, -64.0]


def test_classifier_flags_diverging_growth():
    rep = rescaling.classify_type(classifier_rosenau_trajectory())
    assert rep.verdict == rescaling.DIVERGING
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
    rep_scaled = rescaling.classify_type(scaled)
    assert rep_scaled.verdict == rep.verdict
    assert len(rep_scaled.samples) == len(rep.samples)
    for (T, s), (T_scaled, s_scaled) in zip(rep.samples, rep_scaled.samples):
        assert T_scaled == lam * T
        assert s_scaled == pytest.approx(s, rel=1e-4)


def test_backward_trajectory_validation_and_layout():
    # 1024 would overflow T_j = -2^j, and a fractional j is no pick index
    for j in (0, 2.5, 1024):
        with pytest.raises(DomainError, match="^pick index must be an int in"):
            rescaling.backward_trajectory(exact.rosenau(), j)
    traj = rescaling.backward_trajectory(exact.rosenau(), 1)
    assert traj.U is None and traj.u_rows().shape == (257, 2101)
    assert float(traj.times[0]) == -2.0 and float(traj.times[-1]) == -1e-3


@pytest.mark.parametrize(
    "j, extent, n",
    [(1, 21.0, 2101), (2, 22.0, 2201), (3, 24.0, 2401), (4, 28.0, 2801), (5, 36.0, 3601), (6, 52.0, 5201)],
)
def test_backward_trajectory_grids(j, extent, n):
    # Rosenau's caps move out with |t|: extent |T_j|/2 + 20 at step 0.02; the
    # round Sphere keeps one grid, 2000 nodes over extent 20, in every window
    rosenau = rescaling.backward_trajectory(exact.rosenau(), j)
    assert rosenau.nodes.size == n
    assert (rosenau.nodes[0], rosenau.nodes[-1]) == (-extent, extent)
    sphere = rescaling.backward_trajectory(exact.sphere(), j)
    assert sphere.nodes.size == 2000
    assert (sphere.nodes[0], sphere.nodes[-1]) == (0.0, 20.0)
    for traj in (rosenau, sphere):
        assert np.array_equal(traj.times, np.linspace(rescaling.default_window(j), -1e-3, 257))


@pytest.mark.parametrize(
    "family, t0, n, extent",
    [("rosenau", -64.0, 3081, 77.0), ("rosenau", -64.5, 3101, 77.5), ("sphere", -64.0, 2000, 20.0),
     ("flat", -64.0, 2000, 20.0)],
)
def test_classify_trajectory_grids(family, t0, n, extent):
    # Rosenau's caps sit near |x| = |t|: extent |t0| + 13 at step 0.05; the
    # other families keep backward_trajectory's grid, 2000 nodes over extent 20
    traj = rescaling.classify_trajectory(getattr(exact, family)(), t0, -1.0)
    assert traj.nodes.size == n and float(traj.nodes[-1]) == extent
    assert np.array_equal(traj.times, np.linspace(t0, -1.0, 253))


@pytest.mark.parametrize("t0", [-16.0, -32.0, -64.0, -128.0])
def test_classify_trajectory_keeps_the_rosenau_caps_inside_the_trust_edges(t0):
    # a cap beyond the chart end leaves the end of the reliable slice trusted and
    # S(T) reads the edge, not the cap: extent 77 at t0 = -128 classified Bounded
    traj = rescaling.classify_trajectory(exact.rosenau(), t0, -1.0)
    rel = reliable_slice(traj.chart, traj.nodes.size)
    for _, _, _, trusted in traj.blocks():
        assert not trusted[:, rel.start].any() and not trusted[:, rel.stop - 1].any()


def test_a_window_start_near_the_float_limit_has_no_finite_grid():
    with pytest.raises(DomainError, match="^a grid of step 0.05 over extent 1e\\+308 has no finite node count$"):
        rescaling.classify_trajectory(exact.rosenau(), -1e308, -1.0)


def test_evolved_backward_data_reproduces_the_exact_pick_and_profile():
    # the backward analysis on evolved data, not only on the closed form: row 0
    # of the exact j = 4 trajectory, evolved over the same snapshot times, must
    # pick the same point and stay within 2x of the exact profile distance
    # (measured 1.60e-5 against 1.45e-5; the trapezoid-corrector stepper read
    # 8.5e-4 and picked the mirror node)
    j = 4
    exact_traj = rescaling.backward_trajectory(exact.rosenau(), j)
    evolved = solver.evolve(
        exact_traj.grid0, float(exact_traj.times[-1]), cfl=0.4, output_times=exact_traj.times
    )
    assert np.array_equal(evolved.times, exact_traj.times)
    picks, dists = [], []
    for traj in (exact_traj, evolved):
        pick = rescaling.pick_point(traj, j)
        picks.append((pick.t_j, pick.node))
        dists.append(rescaling.profile_distance(traj, pick))
    assert picks[1] == picks[0]
    assert dists[1] <= 2.0 * dists[0]
