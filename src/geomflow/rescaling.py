"""Point-picking, cigar-profile comparison of the picked snapshot, classification.

For an ancient flow (defined for t < 0) the scale-invariant score
|t| (t - T) M(x, t), with M = R/2 the curvature magnitude, is maximized
over a backward window [T, 0) to select an event where curvature
concentrates. Dilating about the selected (x_j, t_j) by M_j maps the
window onto (-alpha_j, omega_j) with alpha_j = (t_j - T) M_j and
omega_j = -t_j M_j. On flows whose |t| R_max diverges backward in time
both endpoints grow without bound and the dilated curvature profile near
the picked point approaches the unit cigar profile sech^2(s/2). Profile
distances use the geodesic coordinate renormalized to unit tip curvature,
which is free of M_j, so the profile is read from the picked snapshot's own
curvature and trust rows.

The classifier samples S(T) = max |t| M over dyadic backward windows and
labels the growth pattern Diverging or Bounded. The verdict is a
finite-window heuristic, not a proof, and every report says so.

Both read only the snapshots whose score can still win. The trace Harnack
inequality keeps the trusted peak M(t) nondecreasing on an ancient solution
with R > 0, so one read snapshot b bounds the peaks of every snapshot before
it. Where the weight falls with the snapshot (the pick's after T/2, the
classifier's |t| throughout), every snapshot of a run a..b-1 therefore
scores at most weight(a) M(b). A level-by-level bisection reads the
midpoints of the runs this bound leaves in play and drops the others; the
pick's rows before T/2, where its weight rises, are bounded by the peak at
T/2 instead. The results are the exhaustive ones wherever the peaks are
nondecreasing within PICK_TIE_RTOL.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from . import ROSENAU
from .errors import DomainError
from .exact import ExactSolutionSpec
from .grids import RADIAL, ConformalGrid, cumulative_trapezoid
from .solver import FlowTrajectory, curvature_range, exact_trajectory

DIVERGING = "Diverging"
BOUNDED = "Bounded"
VERDICT_BASIS = "finite-window heuristic"
GROWTH_RATIO = 1.5
MIN_WINDOWS = 4
CLASSIFY_SNAPSHOTS = 253
# the pick indices j of the rescale task and of criterion 6
RESCALE_DEPTHS = (1, 2, 3, 4, 5, 6)
# the headline's unit-curvature distance: the profile is compared with the cigar on [0, 3]
PROFILE_SPAN = 3.0

# Discrete curvature carries roundoff of order |log u|*eps/(h^2 u); scores
# closer than this are indistinguishable and resolved by the tie-break rule,
# which keeps the selected node deterministic under bit-level noise.
PICK_TIE_RTOL = 2e-5


def default_window(j: int) -> float:
    """Backward window T_j = -2^j for the j-th pick, j an int from 1 to 1023 (a float64 T_j)."""
    if not (isinstance(j, int) and 1 <= j <= 1023):
        raise DomainError(f"pick index must be an int in [1, 1023], got {j!r}")
    return -float(2**j)


def default_gamma(j: int) -> float:
    """Near-optimality fraction gamma_j = 1 - 1/(j+1), increasing to 1."""
    return 1.0 - 1.0 / (j + 1)


@dataclass(frozen=True)
class RescalingPick:
    """Maximizer of |t|(t - T_j) M over a backward window of a trajectory."""

    j: int
    T_j: float
    gamma_j: float
    x_j: float
    node: int
    t_j: float
    M_j: float
    alpha_j: float
    omega_j: float
    score: float

    def __post_init__(self):
        if not self.T_j < 0.0:
            raise DomainError(f"window start must be negative, got {self.T_j}")
        if not 0.0 < self.gamma_j < 1.0:
            raise DomainError(f"gamma must lie in (0, 1), got {self.gamma_j}")
        if not self.T_j <= self.t_j < 0.0:
            raise DomainError(f"picked time {self.t_j} outside [{self.T_j}, 0)")
        if not self.M_j > 0.0:
            raise DomainError(f"picked curvature magnitude must be positive, got {self.M_j}")
        if not (self.alpha_j > 0.0 and self.omega_j > 0.0):
            raise DomainError("dilated window endpoints must be positive")


def _trusted_peaks(traj: FlowTrajectory, rows) -> list[float]:
    """Trusted-node maxima of M = |R|/2, which is max(hi, -lo) / 2, of the snapshots at rows."""
    lo, hi = curvature_range(traj, rows)
    return (0.5 * np.maximum(hi, -lo)).tolist()


def _suprema(weights, peaks, starts) -> list[float]:
    """For each start, the maximum of weights[k] M(k) over the read rows k at or after it
    (every start is a read row)."""
    rows = sorted(peaks)
    tail = list(accumulate((weights[k] * peaks[k] for k in reversed(rows)), max))[::-1]
    return [tail[bisect_left(rows, start)] for start in starts]


def _harnack_peaks(traj: FlowTrajectory, weights, starts) -> dict[int, float]:
    """Trusted peaks {row: M} of the rows that can still set the supremum of weights * M
    over some window, the window of a start being the rows from it to the last.

    The premise: M(k) <= M(b)(1 + PICK_TIE_RTOL) for every row k before b. weights
    falls with the row from each start on, so every row of a run a..b-1 of unread rows
    before a read row b scores at most weights[a] M(b)(1 + PICK_TIE_RTOL). The starts
    and the last row are read first. Then, level by level, a run is dropped once that
    bound is below the current supremum of the shallowest window that holds it, times
    (1 - PICK_TIE_RTOL), and every other run is read at its midpoint, where it splits.
    All reads of one level go through one curvature_range call, and no row before the
    first start is read. (Reading runs of up to 6 rows whole instead, measured on
    rescale's and classify's Rosenau data, read as many rows or more in no less time.)
    """
    starts = sorted(starts)
    probes = sorted({*starts, traj.times.size - 1})
    peaks = dict(zip(probes, _trusted_peaks(traj, probes)))
    runs = list(zip([a + 1 for a in probes], probes[1:]))
    while True:
        floors = [sup * (1.0 - PICK_TIE_RTOL) for sup in _suprema(weights, peaks, starts)]
        runs = [
            (a, b) for a, b in runs
            if a < b and weights[a] * peaks[b] * (1.0 + PICK_TIE_RTOL) >= floors[bisect_right(starts, a) - 1]
        ]
        if not runs:
            return peaks
        mids = [(a + b) // 2 for a, b in runs]
        peaks.update(zip(mids, _trusted_peaks(traj, mids)))
        runs = [run for (a, b), c in zip(runs, mids) for run in ((a, c), (c + 1, b))]


def pick_point(traj: FlowTrajectory, j: int) -> RescalingPick:
    """The j-th pick: snapshot-and-node maximizer of |t|(t - T_j) M(x, t) over the
    snapshots the Harnack bound leaves in play in the window T_j = default_window(j),
    which rejects a j that is no int from 1 to 1023.

    Scores within PICK_TIE_RTOL of the supremum count as tied; among ties
    the earliest snapshot wins, then the smallest node index. That maximizer
    reaches the fraction gamma_j = default_gamma(j) of the supremum for every
    j, so gamma_j never moves the pick; it is recorded for rescale_jN.json and
    for the magnitude bound.

    The premise: on an ancient solution with R > 0, Hamilton's trace Harnack
    inequality dR/dt >= |grad R|^2 / R makes the trusted peak M(t) nondecreasing,
    taken as M(k) <= M(b)(1 + PICK_TIE_RTOL) for every snapshot k before b. The
    weight |t|(t - T_j) falls after k_mid, the last snapshot at or before T_j/2,
    and rises before it. From k_mid on, a bisection (_harnack_peaks) reads k_mid
    and the last snapshot, then level by level drops every run of unread snapshots
    whose first weight times M at the run's end times (1 + PICK_TIE_RTOL) is below
    the tie band of the rows read so far. Before k_mid, the guard steps back over
    every snapshot whose weight times M(k_mid)(1 + PICK_TIE_RTOL) still reaches the
    band. So the pick is the exhaustive one whenever the premise holds; where it
    does not, the pick maximizes over the snapshots it read.
    """
    T_j = default_window(j)
    times = traj.times
    tol = 1e-9 * max(1.0, abs(T_j))
    if float(times[0]) > T_j + tol:
        raise DomainError(
            f"trajectory starts at {float(times[0])}, window needs coverage from {T_j}"
        )
    if not float(times[-1]) < 0.0:
        raise DomainError("backward pick needs snapshot times strictly before 0")

    # a positive weight needs t > T_j, so the scored snapshots are the suffix from
    # first, and every scored t lies in (T_j, 0), so every scored weight is positive
    first = int(np.searchsorted(times, T_j, side="right"))
    weights = [(-t) * (t - T_j) for t in times.tolist()]
    start = mid = max(first, int(np.searchsorted(times, 0.5 * T_j, side="right")) - 1)
    peaks = _harnack_peaks(traj, weights, [mid]) if mid < times.size else {}
    band = max((weights[k] * m for k, m in peaks.items()), default=0.0) * (1.0 - PICK_TIE_RTOL)
    # the guard: an earlier snapshot could reach the band if its peak were M(k_mid)
    while start > first and weights[start - 1] * peaks[mid] * (1.0 + PICK_TIE_RTOL) >= band:
        start -= 1
    if start < mid:
        peaks.update(zip(range(start, mid), _trusted_peaks(traj, range(start, mid))))
    read = sorted(peaks)
    snapshot_scores = [weights[k] * peaks[k] for k in read]
    sup = max(snapshot_scores, default=0.0)
    if not sup > 0.0:
        raise DomainError("curvature score vanishes on the searched window")

    band = sup * (1.0 - PICK_TIE_RTOL)
    # the first snapshot at or above the band holds a node at or above it: its
    # row is bitwise the row of the block scan
    k = next(k for k, score in zip(read, snapshot_scores) if score >= band)
    # M = |R|/2 of snapshot k, untrusted nodes sent to -inf
    _, _, r, trusted = next(traj.blocks(range(k, k + 1)))
    scores = weights[k] * np.where(trusted[0], 0.5 * np.abs(r[0]), -np.inf)
    node = int(np.nonzero(scores >= band)[0][0])
    t_j = float(times[k])
    m_j = 0.5 * abs(float(r[0, node]))
    return RescalingPick(
        j=j,
        T_j=T_j,
        gamma_j=default_gamma(j),
        x_j=float(traj.nodes[node]),
        node=node,
        t_j=t_j,
        M_j=m_j,
        alpha_j=(t_j - T_j) * m_j,
        omega_j=-t_j * m_j,
        score=float(scores[node]),
    )


class DilatedFlow:
    """Evaluator of the dilation u_j(x, t) = M_j * u(x, t_j + t / M_j).

    Defined on the open dilated window t in (-alpha_j, omega_j), where the
    picked event sits at t = 0 with dilated R = 2. The pipeline does not use
    it; it serves the magnitude-bound check at other times and perfbench's span.
    """

    def __init__(self, traj: FlowTrajectory, pick: RescalingPick):
        self.traj = traj
        self.pick = pick

    @property
    def window(self) -> tuple[float, float]:
        return (-self.pick.alpha_j, self.pick.omega_j)

    def u_at(self, t: float) -> np.ndarray:
        lo, hi = self.window
        if not lo < t < hi:
            raise DomainError(f"dilated time {t} outside ({lo}, {hi})")
        return self.pick.M_j * self.traj.u_at(self.pick.t_j + t / self.pick.M_j)

    def grid_at(self, t: float) -> ConformalGrid:
        return ConformalGrid(self.traj.chart, self.traj.nodes, self.u_at(t), float(t))


def dilate(traj: FlowTrajectory, pick: RescalingPick) -> DilatedFlow:
    """Dilated-trajectory evaluator about the picked event."""
    return DilatedFlow(traj, pick)


def cigar_profile(s):
    """Tip-normalized cigar curvature sech^2(s/2) at intrinsic distance s."""
    return 1.0 / np.cosh(np.asarray(s, dtype=float) / 2.0) ** 2


@dataclass(frozen=True)
class RescaledProfile:
    """Tip-normalized curvature versus unit-curvature geodesic distance.

    s is the geodesic distance from the picked node renormalized to unit tip
    curvature (multiplied by sqrt of the tip curvature), so a cigar of any
    scale collapses onto sech^2(s/2).
    """

    s: np.ndarray
    Rn: np.ndarray

    def __post_init__(self):
        if self.s.shape != self.Rn.shape or self.s.ndim != 1 or self.s.size < 2:
            raise DomainError("profile needs matching 1-d s and Rn arrays")
        if self.s[0] != 0.0 or abs(self.Rn[0] - 1.0) > 1e-12:
            raise DomainError("profile must start at s = 0 with Rn = 1")
        if np.any(np.diff(self.s) < 0.0):
            raise DomainError("profile distances must be nondecreasing")


def _tip_arc_position(
    chart: str, nodes: np.ndarray, u: np.ndarray, mask: np.ndarray, node: int, arc: np.ndarray
) -> float:
    """Arc coordinate of the curvature-profile tip.

    Normally the picked node itself. When the discrete maximum sits at the
    edge of the statistics mask with u still falling off beyond it, the true
    maximum is censored by the trust cutoff; the tip is then placed past the
    cutoff using the measured exponential taper of u toward the grid end
    (remaining length of an e^{-beta x} end is 2 sqrt(u_end) / beta).
    """
    n = u.size
    side = 0
    for d in (-1, 1):
        nb = node + d
        if 0 <= nb < n:
            if mask[nb] or u[nb] >= u[node]:
                continue
        elif chart == RADIAL and d == -1:
            continue  # the axis is an interior point, not an end
        side = d
        break
    if side == 0:
        return float(arc[node])
    end = n - 1 if side > 0 else 0
    inner = end - side
    h_end = abs(float(nodes[end] - nodes[inner]))
    beta = (math.log(u[inner]) - math.log(u[end])) / h_end
    if not (math.isfinite(beta) and beta > 0.0):
        return float(arc[node])
    tail = 2.0 * math.sqrt(u[end]) / beta
    return float(arc[end] + side * tail)


def rescaled_profile(traj: FlowTrajectory, pick: RescalingPick) -> RescaledProfile:
    """Curvature profile of the traj.blocks row pick_point scored, out to distance PROFILE_SPAN."""
    k = int(np.searchsorted(traj.times, pick.t_j))
    if k == traj.times.size or float(traj.times[k]) != pick.t_j:
        raise DomainError(f"picked time {pick.t_j} is not a snapshot time of the trajectory")
    _, (u,), (r,), (mask,) = next(traj.blocks(range(k, k + 1)))
    node = pick.node
    r_tip = float(r[node])
    if not r_tip > 0.0:
        raise DomainError(f"curvature at the picked node is not positive: {r_tip}")
    mask[node] = True
    arc = cumulative_trapezoid(np.sqrt(u), traj.nodes)
    arc_tip = _tip_arc_position(traj.chart, traj.nodes, u, mask, node, arc)
    s_hat = np.abs(arc - arc_tip) * math.sqrt(r_tip)
    reach = float(s_hat[mask].max())
    if reach < PROFILE_SPAN:
        raise DomainError(
            f"grid supports the profile only to distance {reach:.3g}, span {PROFILE_SPAN} requested"
        )
    keep = mask & (s_hat <= PROFILE_SPAN)
    order = np.argsort(s_hat[keep], kind="stable")
    s_sorted = s_hat[keep][order]
    rn_sorted = (r[keep] / r_tip)[order]
    if arc_tip != float(arc[node]):
        # censored tip: the node at s = 0 is synthetic, Rn = 1 by construction
        s_sorted = np.concatenate(([0.0], s_sorted))
        rn_sorted = np.concatenate(([1.0], rn_sorted))
    return RescaledProfile(s=s_sorted, Rn=rn_sorted)


def profile_distance(traj: FlowTrajectory, pick: RescalingPick) -> float:
    """Sup distance of the picked snapshot's tip-normalized profile from sech^2(s/2) on [0, PROFILE_SPAN]."""
    prof = rescaled_profile(traj, pick)
    return float(np.abs(prof.Rn - cigar_profile(prof.s)).max())


@dataclass(frozen=True)
class ClassificationReport:
    """Dyadic-window samples of sup |t| M and the growth verdict."""

    samples: tuple[tuple[float, float], ...]
    verdict: str
    t0: float


def _growth_ratio(prev: float, nxt: float) -> float:
    if prev <= 0.0:
        return math.inf if nxt > 0.0 else 0.0
    return nxt / prev


def _dyadic_windows(times) -> list[tuple[float, int]]:
    """classify_type's windows [T, t0], T = 2 t0, 4 t0, 8 t0, ... down to the first of the
    increasing snapshot times and t0 the last, each as T and its first snapshot; rejects
    a t0 not before 0 and fewer than MIN_WINDOWS windows."""
    t0 = float(times[-1])
    if not t0 < 0.0:
        raise DomainError(f"classify needs snapshot times strictly before 0, trajectory ends at {t0}")
    tol = 1e-9 * max(1.0, abs(float(times[0])))
    windows = []
    T = 2.0 * t0
    while T >= float(times[0]) - tol:
        windows.append((T, int(np.searchsorted(times, T - tol))))
        T *= 2.0
    if len(windows) < MIN_WINDOWS:
        raise DomainError(
            f"need {MIN_WINDOWS} dyadic windows inside the trajectory, only {len(windows)} fit"
        )
    return windows


def classify_type(traj: FlowTrajectory) -> ClassificationReport:
    """Sample S(T) = sup |t| M over dyadic windows [T, t0], t0 the trajectory's last time,
    and label the growth.

    The rows are read by pick_point's bisection (_harnack_peaks), whose weight here is
    |t|, falling with the snapshot: first the first snapshot of each window and the last
    one, then every run of snapshots whose first |t| times M at the run's end times
    (1 + PICK_TIE_RTOL) still reaches the current S of the shallowest window that holds
    the run, times (1 - PICK_TIE_RTOL). Snapshots before the deepest window are never
    read. So every S(T) is the exhaustive one whenever pick_point's premise holds,
    M(k) <= M(b)(1 + PICK_TIE_RTOL) for every snapshot k before b; where it does not,
    S(T) is the maximum over the snapshots read.
    """
    times = traj.times
    windows, starts = zip(*_dyadic_windows(times))
    weights = [abs(t) for t in times.tolist()]
    peaks = _harnack_peaks(traj, weights, starts)
    s_vals = _suprema(weights, peaks, starts)
    # the verdict looks at the deepest three doublings only
    ratios = [_growth_ratio(s_vals[i], s_vals[i + 1]) for i in range(len(s_vals) - 4, len(s_vals) - 1)]
    verdict = DIVERGING if all(r >= GROWTH_RATIO for r in ratios) else BOUNDED
    return ClassificationReport(samples=tuple(zip(windows, s_vals)), verdict=verdict, t0=float(times[-1]))


def _window_trajectory(spec: ExactSolutionSpec, times, extent: float, step: float) -> FlowTrajectory:
    """Exact data at the times: Rosenau at the step over the extent, other families 2000 nodes over 20."""
    if spec.family != ROSENAU:
        return exact_trajectory(spec, times, n=2000, extent=20.0)
    cells = 2.0 * extent / step
    if not math.isfinite(cells):
        raise DomainError(f"a grid of step {step} over extent {extent:g} has no finite node count")
    return exact_trajectory(spec, times, n=int(round(cells)) + 1, extent=extent)


def backward_trajectory(spec: ExactSolutionSpec, j: int) -> FlowTrajectory:
    """Exact backward data for the j-th pick window T_j = -2^j: 257 snapshots up to t = -1e-3.

    Rosenau's caps move out with |t|, so its grid grows with the window: the
    extent |T_j|/2 + 20 at step 0.02 keeps pole truncation of the
    tip-normalized profile below 1e-3 for the optimizing time near T_j/2. A
    round Sphere looks the same at every time, so every window shares one
    grid of 2000 nodes over extent 20; so does any other family.
    """
    T = default_window(j)
    return _window_trajectory(spec, np.linspace(T, -1e-3, 257), abs(T) / 2.0 + 20.0, 0.02)


def classify_trajectory(spec: ExactSolutionSpec, t0: float, t1: float) -> FlowTrajectory:
    """Exact data for classify_type: CLASSIFY_SNAPSHOTS snapshots from t0 to t1.

    Rosenau's caps sit near |x| = |t|, so its extent |t0| + 13 at step 0.05 puts every trust
    edge about 11.5 beyond them (3081 nodes over 77 at t0 = -64); others take rescale's grid.
    The dyadic windows are counted first, so a t1 not before 0 or a window too short for
    MIN_WINDOWS of them is rejected before any grid is built.
    """
    times = np.linspace(t0, t1, CLASSIFY_SNAPSHOTS)
    _dyadic_windows(times)
    return _window_trajectory(spec, times, abs(t0) + 13.0, 0.05)
