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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError
from .exact import rosenau
from .grids import RADIAL, ConformalGrid, cumulative_trapezoid
from .solver import FlowTrajectory, curvature_range, exact_trajectory

DIVERGING = "Diverging"
BOUNDED = "Bounded"
VERDICT_BASIS = "finite-window heuristic"
GROWTH_RATIO = 1.5
MIN_WINDOWS = 4
CLASSIFIER_T0 = -1.0

# Discrete curvature carries roundoff of order |log u|*eps/(h^2 u); scores
# closer than this are indistinguishable and resolved by the tie-break rule,
# which keeps the selected node deterministic under bit-level noise.
PICK_TIE_RTOL = 2e-5


def default_window(j: int) -> float:
    """Backward window T_j = -2^j for the j-th pick."""
    return -float(2**j)


def default_gamma(j: int) -> float:
    """Near-optimality fraction gamma_j = 1 - 1/(j+1), increasing to 1."""
    return 1.0 - 1.0 / (j + 1)


@dataclass(frozen=True)
class RescalingPick:
    """Maximizer of |t|(t - T_j) M over a backward window of a trajectory."""

    j: int | None
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


def pick_point(
    traj: FlowTrajectory, T_j: float, gamma_j: float, *, j: int | None = None
) -> RescalingPick:
    """Exhaustive snapshot-and-node maximizer of |t|(t - T_j) M(x, t).

    Scores within PICK_TIE_RTOL of the supremum count as tied; among ties
    the earliest snapshot wins, then the smallest node index.
    """
    T_j = float(T_j)
    gamma_j = float(gamma_j)
    if not T_j < 0.0:
        raise DomainError(f"window start must be negative, got {T_j}")
    if not 0.0 < gamma_j < 1.0:
        raise DomainError(f"gamma must lie in (0, 1), got {gamma_j}")
    times = traj.times
    tol = 1e-9 * max(1.0, abs(T_j))
    if float(times[0]) > T_j + tol:
        raise DomainError(
            f"trajectory starts at {float(times[0])}, window needs coverage from {T_j}"
        )
    if not float(times[-1]) < 0.0:
        raise DomainError("backward pick needs snapshot times strictly before 0")

    # a positive weight needs t > T_j, so the scored snapshots are a suffix
    first = int(np.searchsorted(times, T_j, side="right"))
    # trusted-node maxima of M = |R|/2, which is max(hi, -lo) / 2
    lo, hi = curvature_range(traj, first, times.size)
    peaks = 0.5 * np.maximum(hi, -lo)
    snapshot_sups = []
    sup = 0.0
    for k, t in enumerate(times[first:].tolist(), start=first):
        weight = (-t) * (t - T_j)
        if weight <= 0.0:
            continue
        peak = weight * float(peaks[k - first])
        snapshot_sups.append((k, weight, peak))
        sup = max(sup, peak)
    if not sup > 0.0:
        raise DomainError("curvature score vanishes on the searched window")

    band = sup * (1.0 - PICK_TIE_RTOL)
    for k, weight, peak in snapshot_sups:
        if peak < band:
            continue
        # M = |R|/2 of snapshot k, untrusted nodes sent to -inf
        _, _, r, trusted = next(traj.blocks(k, k + 1))
        scores = weight * np.where(trusted[0], 0.5 * np.abs(r[0]), -np.inf)
        node = int(np.nonzero(scores >= band)[0][0])
        t_j = float(times[k])
        m_j = 0.5 * abs(float(r[0, node]))
        return RescalingPick(
            j=j,
            T_j=T_j,
            gamma_j=gamma_j,
            x_j=float(traj.nodes[node]),
            node=node,
            t_j=t_j,
            M_j=m_j,
            alpha_j=(t_j - T_j) * m_j,
            omega_j=-t_j * m_j,
            score=float(scores[node]),
        )
    raise DomainError("curvature score vanishes on the searched window")


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
    scale collapses onto sech^2(s/2). R0 = R_tip / M_j, the dilated tip curvature, is 2.
    """

    s: np.ndarray
    Rn: np.ndarray
    R0: float

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


def rescaled_profile(traj: FlowTrajectory, pick: RescalingPick, span: float) -> RescaledProfile:
    """Curvature profile of the traj.blocks row pick_point scored, out to distance span."""
    if not span > 0.0:
        raise DomainError(f"profile span must be positive, got {span}")
    k = int(np.searchsorted(traj.times, pick.t_j))
    if k == traj.times.size or float(traj.times[k]) != pick.t_j:
        raise DomainError(f"picked time {pick.t_j} is not a snapshot time of the trajectory")
    _, (u,), (r,), (mask,) = next(traj.blocks(k, k + 1))
    node = pick.node
    r_tip = float(r[node])
    if not r_tip > 0.0:
        raise DomainError(f"curvature at the picked node is not positive: {r_tip}")
    mask[node] = True
    arc = cumulative_trapezoid(np.sqrt(u), traj.nodes)
    arc_tip = _tip_arc_position(traj.chart, traj.nodes, u, mask, node, arc)
    s_hat = np.abs(arc - arc_tip) * math.sqrt(r_tip)
    reach = float(s_hat[mask].max())
    if reach < span:
        raise DomainError(
            f"grid supports the profile only to distance {reach:.3g}, span {span} requested"
        )
    keep = mask & (s_hat <= span)
    order = np.argsort(s_hat[keep], kind="stable")
    s_sorted = s_hat[keep][order]
    rn_sorted = (r[keep] / r_tip)[order]
    if arc_tip != float(arc[node]):
        # censored tip: the node at s = 0 is synthetic, Rn = 1 by construction
        s_sorted = np.concatenate(([0.0], s_sorted))
        rn_sorted = np.concatenate(([1.0], rn_sorted))
    return RescaledProfile(s=s_sorted, Rn=rn_sorted, R0=r_tip / pick.M_j)


def profile_distance(traj: FlowTrajectory, pick: RescalingPick, span: float) -> float:
    """Sup distance of the picked snapshot's tip-normalized profile from sech^2(s/2) on [0, span]."""
    prof = rescaled_profile(traj, pick, span)
    return float(np.abs(prof.Rn - cigar_profile(prof.s)).max())


@dataclass(frozen=True)
class ClassificationReport:
    """Dyadic-window samples of sup |t| M and the growth verdict."""

    samples: tuple[tuple[float, float], ...]
    verdict: str
    t0: float
    basis: str = field(default=VERDICT_BASIS)


def _growth_ratio(prev: float, nxt: float) -> float:
    if prev <= 0.0:
        return math.inf if nxt > 0.0 else 0.0
    return nxt / prev


def classify_type(traj: FlowTrajectory, t0: float = CLASSIFIER_T0) -> ClassificationReport:
    """Sample S(T) = sup |t| M over dyadic windows [T, t0] and label the growth."""
    t0 = float(t0)
    if not t0 < 0.0:
        raise DomainError(f"t0 must be negative, got {t0}")
    times = traj.times
    tol = 1e-9 * max(1.0, abs(float(times[0])))
    if float(times[-1]) < t0 - tol:
        raise DomainError(f"trajectory ends at {float(times[-1])}, before t0 = {t0}")

    windows = []
    T = 2.0 * t0
    while T >= float(times[0]) - tol:
        windows.append(T)
        T *= 2.0
    if len(windows) < MIN_WINDOWS:
        raise DomainError(
            f"need {MIN_WINDOWS} dyadic windows inside the trajectory, only {len(windows)} fit"
        )

    # the sampled snapshots are the prefix with t <= t0 + tol
    count = int(np.searchsorted(times, t0 + tol, side="right"))
    sample_times = times[:count].tolist()
    lo, hi = curvature_range(traj, 0, count)
    peaks = (0.5 * np.maximum(hi, -lo)).tolist()
    sample_values = [abs(t) * peak for t, peak in zip(sample_times, peaks)]

    samples = []
    for T in windows:
        vals = [v for t, v in zip(sample_times, sample_values) if t >= T - tol]
        if not vals:
            raise DomainError(f"no snapshots inside window [{T}, {t0}]")
        samples.append((T, max(vals)))

    s_vals = [s for _, s in samples]
    # the verdict looks at the deepest three doublings only
    ratios = [_growth_ratio(s_vals[i], s_vals[i + 1]) for i in range(len(s_vals) - 4, len(s_vals) - 1)]
    verdict = DIVERGING if all(r >= GROWTH_RATIO for r in ratios) else BOUNDED
    return ClassificationReport(samples=tuple(samples), verdict=verdict, t0=t0)


def backward_rosenau_trajectory(
    j: int, *, h_target: float = 0.02, snapshot_count: int = 257
) -> FlowTrajectory:
    """Exact backward data for the j-th pick window T_j = -2^j, snapshots up to t = -1e-3.

    The extent |T_j|/2 + 20 keeps pole truncation of the tip-normalized
    profile below 1e-3 for the optimizing time near T_j/2.
    """
    if j < 1:
        raise DomainError(f"pick index must be >= 1, got {j}")
    T = default_window(j)
    extent = abs(T) / 2.0 + 20.0
    n = int(round(2.0 * extent / h_target)) + 1
    times = np.linspace(T, -1e-3, snapshot_count)
    return exact_trajectory(rosenau(), times, n=n, x_lo=-extent, x_hi=extent)
