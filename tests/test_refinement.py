"""Refinement rows: a reported quantity must not get worse when the data is refined.

Each row refines one artifact quantity in space or in snapshot count and
asserts its observed order, or that its distance from the limit does not grow.
"""

import math

import numpy as np
import pytest

from geomflow import embedding, exact, geometry, rescaling, solver
from geomflow.grids import CYLINDER, trust_mask

TWO_PI = 2.0 * math.pi


def test_rosenau_diagnostics_converge_at_second_order_in_the_snapshot_spacing():
    # diagnostics.json of a Rosenau run -2 -> -1 (n = 4000, cfl 0.4). Measured:
    # f_defect 4.30e-3, 1.08e-3, 2.71e-4, 6.83e-5 and length_evolution_defect
    # 8.16e-3, 2.20e-3, 5.78e-4, 1.48e-4 at 5, 9, 17 and 33 snapshots
    grid = exact.sample_grid(exact.rosenau(), -2.0, n=4000, extent=20.0)
    f_defects, length_defects = [], []
    for count in (5, 9, 17, 33):
        traj = solver.evolve(grid, -1.0, cfl=0.4, output_times=np.linspace(-2.0, -1.0, count))
        report = solver.diagnostics(traj)
        f_defects.append(report.f_defect)
        length_defects.append(report.length_evolution_defect)
    for defects in (f_defects, length_defects):
        ratios = [coarse / fine for coarse, fine in zip(defects, defects[1:])]
        assert all(3.0 <= ratio <= 5.0 for ratio in ratios), (defects, ratios)


def test_cigar_invariants_approach_their_limits_under_grid_refinement():
    # invariants.csv of the cigar r0 = 4 at extent 50. Measured: |tau - 2 pi|
    # 3.49e-3, 2.76e-3, 2.57e-3 and |circumference - 2 pi| 9.9e-6, 5.7e-6, 3.6e-6
    # at n = 2001, 4001, 8001; tau's gap tends to a finite-extent limit, not 0
    tau_gaps, circumference_gaps = [], []
    for n in (2001, 4001, 8001):
        report = geometry.invariant_report(exact.sample_grid(exact.cigar(4.0), 0.0, n=n, extent=50.0))
        tau_gaps.append(abs(report.tau - TWO_PI))
        circumference_gaps.append(abs(report.circumference - TWO_PI))
    for gaps in (tau_gaps, circumference_gaps):
        assert all(fine <= coarse for coarse, fine in zip(gaps, gaps[1:])), gaps


def test_cigar_r_max_stays_at_the_tip_curvature_under_grid_refinement():
    # invariants.csv r_max of the cigar r0 = 4 at extent 50, the O(h^6) axis row.
    # Measured r_max - 4: -8.7e-9, -1.3e-10, -8.1e-13, -2.0e-12, 1.2e-10 and
    # -5.2e-10 at n = 2001 ... 64001: from n = 8001 on the axis row's rounding,
    # about eps / h^2, outgrows its truncation, so the row asserts a band, not a
    # non-increase
    for n in (2001, 4001, 8001, 16001, 32001, 64001):
        report = geometry.invariant_report(exact.sample_grid(exact.cigar(4.0), 0.0, n=n, extent=50.0))
        assert abs(report.r_max - 4.0) <= 1e-8, (n, report.r_max)


def test_cigar_embedded_circumference_settles_under_grid_refinement():
    # embed.json circumference of the cigar r0 = 4 at extent 50. Measured above
    # 2 pi: 1.2573e-6, 1.2560e-6, 1.2561e-6, 1.2562e-6 and 1.2562e-6 at
    # n = 2001 ... 32001, the finite-extent tail; the distance to the finest
    # level reads 1.1e-9, 2.5e-10, 6.9e-11 and 2.9e-11
    circumferences = []
    for n in (2001, 4001, 8001, 16001, 32001):
        grid = exact.sample_grid(exact.cigar(4.0), 0.0, n=n, extent=50.0)
        surface = embedding.embed(embedding.profile_from_metric(grid))
        circumferences.append(embedding.circumference_and_width(surface)[0])
    assert all(1.2555e-6 <= c - TWO_PI <= 1.2575e-6 for c in circumferences), circumferences
    gaps = [abs(c - circumferences[-1]) for c in circumferences[:-1]]
    assert all(fine <= coarse for coarse, fine in zip(gaps, gaps[1:])), gaps


def _rosenau_cigar_distance(t, span):
    """Criterion 6's distance of the Rosenau snapshot at time t from the cigar, from
    the closed form, and the cap curvature R_tip = coth(-t).

    The distance is the sup over s in [0, span] of |R / R_tip - sech^2(s/2)|, with
    R = (1 + cosh x cosh t) / ((cosh x + cosh t) sinh(-t)) and s the arc from the
    cap at x = +inf scaled by sqrt(R_tip). With y = e^x that arc is
    2 sqrt(2 sinh(-t)) R_F(y, y + e^t, y + e^-t), Carlson's symmetric integral.
    The sup is read on 64 points from the span end to s = 1e-3 and refined by a
    golden-section search around the largest.
    """
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        t = mpmath.mpf(t)
        a, c = mpmath.sinh(-t), mpmath.cosh(t)
        r_tip = mpmath.coth(-t)
        scale = 2 * mpmath.sqrt(2 * a * r_tip)

        def s_hat(x):
            y = mpmath.exp(x)
            return scale * mpmath.elliprf(y, y + mpmath.exp(t), y + mpmath.exp(-t))

        def gap(x):
            r = (1 + mpmath.cosh(x) * c) / ((mpmath.cosh(x) + c) * a)
            return abs(r / r_tip - mpmath.sech(s_hat(x) / 2) ** 2)

        x_end = mpmath.findroot(lambda x: s_hat(x) - span, 0)
        x_tip = mpmath.findroot(lambda x: s_hat(x) - mpmath.mpf("1e-3"), x_end + 1)
        xs = mpmath.linspace(x_end, x_tip, 64)
        k = max(range(len(xs)), key=lambda i: gap(xs[i]))
        lo, hi = xs[max(k - 1, 0)], xs[min(k + 1, len(xs) - 1)]
        golden = (mpmath.sqrt(5) - 1) / 2
        for _ in range(40):
            m1, m2 = hi - (hi - lo) * golden, lo + (hi - lo) * golden
            lo, hi = (lo, m2) if gap(m1) > gap(m2) else (m1, hi)
        return float(max(gap(xs[k]), gap(lo))), float(r_tip)


# j: the closed-form distance at the pipeline's own pick; the pipeline reads
# 0.819138, 0.150839 and 2.03679e-3, low by 0.019%, 1.05% and 0.71%
_CLOSED_FORM_HEADLINE = {1: 0.819293, 2: 0.152433, 3: 2.05127e-3}
# j: (closed-form distance, pipeline minus truth) where the pipeline reads numerical error
_HEADLINE_ERROR = {4: (6.8924e-7, 1.3835e-5), 5: (7.7564e-14, 1.4539e-5), 6: (9.8226e-28, 1.4539e-5)}


@pytest.mark.parametrize("j", sorted(_CLOSED_FORM_HEADLINE) + sorted(_HEADLINE_ERROR))
def test_headline_distance_against_its_closed_form(j):
    # criterion 6 (span 3) on backward_trajectory(rosenau(), j), h = 0.02, against the
    # closed form at the same pick time. j = 1...3: the pipeline sits low by the
    # O(h) span-edge bias, since its sup stops at the last node with s <= span,
    # up to one node (h sqrt(u R_tip) in s) short of the span end. j >= 4: the
    # truth falls to 6.9e-7 and below while the pipeline stays near 1.45e-5, so
    # the row records pipeline minus truth as a ceiling that a fix only lowers.
    traj = rescaling.backward_trajectory(exact.rosenau(), j)
    pick = rescaling.pick_point(traj, j)
    measured = rescaling.profile_distance(traj, pick)
    truth, r_tip = _rosenau_cigar_distance(pick.t_j, rescaling.PROFILE_SPAN)
    assert r_tip == pytest.approx(1.0 / math.tanh(-pick.t_j), rel=1e-15)
    # the discrete tip curvature 2 M_j reads 2.3e-5 to 3.2e-5 above R_tip: the
    # O(h^2) truncation of R outweighs the censoring at the trust edge
    assert 0.0 < 2.0 * pick.M_j / r_tip - 1.0 < 4e-5
    if j in _CLOSED_FORM_HEADLINE:
        assert truth == pytest.approx(_CLOSED_FORM_HEADLINE[j], rel=1e-5)
        assert -0.0125 <= measured / truth - 1.0 <= 0.0
    else:
        pinned, error = _HEADLINE_ERROR[j]
        assert truth == pytest.approx(pinned, rel=1e-4)
        assert measured - truth <= error * 1.001


# the zero-truth control: h -> {j: ceiling} of its headline past the turn-around below
# h = 0.01, which a fix may only lower (j = 4 at h = 0.0025 is a pick jump like Rosenau's)
_CIGAR_CEILINGS = {
    0.005: {1: 1.936e-5, 2: 1.936e-5, 3: 1.936e-5, 4: 1.863e-5},
    0.0025: {1: 4.683e-5, 2: 4.251e-5, 3: 4.251e-5, 4: 2.459e-3},
}


def _cigar_control(j, h):
    """Stored rows of the cigar with R_tip = 4 on the cylinder chart x = log rho,
    v = 1/(1 + e^(4t - 2x)), on nodes from 2 T_j - 20 to 20 at step h and 17 snapshots
    from T_j to -1e-3, with no family. The steady soliton is its own backward limit, so
    its headline distance from the cigar is exactly 0 at every j."""
    T = rescaling.default_window(j)
    nodes = np.linspace(2.0 * T - 20.0, 20.0, int(round((40.0 - 2.0 * T) / h)) + 1)
    times = np.linspace(T, -1e-3, 17)
    rows = 1.0 / (1.0 + np.exp(4.0 * times[:, None] - 2.0 * nodes))
    return solver.FlowTrajectory(CYLINDER, nodes, times, rows, None, ())


def _exhaustive_pick(traj, T):
    """(t, node, score) of the largest |t|(t - T) M over every scored snapshot's trusted
    nodes, each snapshot's curvature taken alone; within PICK_TIE_RTOL of the supremum
    the earliest snapshot wins, then the smallest node."""
    scored = []
    for k, t in enumerate(traj.times.tolist()):
        if t > T:
            snapshot = traj.snapshot(k)
            magnitude = 0.5 * np.abs(geometry.scalar_curvature(snapshot))
            scored.append((t, (-t) * (t - T) * np.where(trust_mask(snapshot.u, CYLINDER), magnitude, -np.inf)))
    band = max(float(s.max()) for _, s in scored) * (1.0 - rescaling.PICK_TIE_RTOL)
    t, s = next((t, s) for t, s in scored if s.max() >= band)
    node = int(np.nonzero(s >= band)[0][0])
    return t, node, float(s[node])


@pytest.mark.parametrize("j", [1, 2, 3, 4])
def test_cigar_control_headline_converges_to_its_zero_truth_down_to_h_0_01(j):
    # criterion 6's distance (span 3) on the stored cigar rows. Measured at every j:
    # 3.006e-4, 7.153e-5 and 1.403e-5 at h = 0.04, 0.02 and 0.01, order about 2.2; then
    # it turns around (the fixed trust floor on a family whose truth is 0), and the rows
    # past it are ceilings. Every pick equals the exhaustive one, so the control also
    # checks pick_point's bisection on stored rows.
    distances = []
    for h in (0.04, 0.02, 0.01, *_CIGAR_CEILINGS):
        traj = _cigar_control(j, h)
        pick = rescaling.pick_point(traj, j)
        assert (pick.t_j, pick.node, pick.score) == _exhaustive_pick(traj, rescaling.default_window(j))
        distances.append(rescaling.profile_distance(traj, pick))
    assert distances[0] >= distances[1] >= distances[2] and distances[2] < 2e-5, distances
    for d, ceilings in zip(distances[3:], _CIGAR_CEILINGS.values()):
        assert d <= ceilings[j], distances
