"""Time integration of the conformal-factor flow du/dt = lap(log u).

The state is advanced in w = log u, where the equation reads
w_t = exp(-w) * lap(w): positivity of u is then automatic and the far
field (where u underflows toward zero) stays well conditioned because
exp(-w) * lap(w) = -R is bounded on the families of interest.

Boundary closure: when a grid carries provenance (it was sampled from a
known family) the outermost nodes are pinned to the family's values at
every stage time (Dirichlet). Without provenance the boundary rows use a
mirror closure (zero normal derivative of w). Pointwise statistics skip
the outer margin either way, so the closure choice only has to keep the
interior stable.

Each step is a semi-implicit midpoint rule: a backward Euler predictor
for the frozen diffusion coefficient, then a trapezoid corrector. Its
step is limited only by accuracy, dt = cfl * min(h, 1 / R_max); an
explicit rule would need dt ~ h^2 * u_min, prohibitive when the far field
is tiny.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.linalg import LinAlgError

from .errors import BlowUpError, DomainError, GeomflowError, StepRejectedError, WindowError
from .exact import ExactSolutionSpec, check_time, log_u_profile, sample_grid, u_profile
from .geometry import curvature_field
from .grids import CYLINDER, RADIAL, ConformalGrid, check_layout, check_positive, readonly
from .grids import reliable_slice, trust_mask

# the one time stepper's name, as scenario configs may spell it
SEMI_IMPLICIT = "SemiImplicit"

BLOW_UP_RMAX = 1.0e3
DEFAULT_OUTPUT_COUNT = 17
# float64 cells of one trajectory's snapshot array (512 MiB); 86x the largest
# benchmark trajectory, 253 snapshots of ~3,085 nodes
MAX_TRAJECTORY_CELLS = 2**26

# Trust region for curvature statistics on evolved data. R = -lap(w)/u divides
# a second difference by u, so the smooth O(h^2 + dt^2) integration error in w
# is amplified like 1/u; below u ~ 1e-5 that amplification exceeds the ~1e-4
# accuracy the statistics promise (measured on boundary-pinned runs), while the
# discarded tail carries curvature within 1e-6 of the retained region's values.
CURVATURE_TRUST_FLOOR = 1.0e-5


@dataclass(frozen=True)
class StepRecord:
    """One accepted step: time reached, step size, PDE residual, curvature max."""

    t: float
    dt: float
    residual: float
    r_max: float

    def __post_init__(self):
        if not (math.isfinite(self.dt) and self.dt > 0.0):
            raise DomainError(f"step record needs dt > 0, got {self.dt}")
        if not self.residual >= 0.0:
            raise DomainError(f"step record needs residual >= 0, got {self.residual}")


@dataclass(frozen=True)
class FlowTrajectory:
    """Snapshots of one flow run as rows of one array, plus the step log.

    Row k of the read-only array U, of shape (len(times), len(nodes)), is
    the conformal factor at times[k] on the shared chart and nodes. The
    provenance keeps recording which family supplied the boundary data,
    even though evolved interiors carry discretization error.
    """

    chart: str
    nodes: np.ndarray
    times: np.ndarray
    U: np.ndarray
    provenance: ExactSolutionSpec | None
    steps: tuple[StepRecord, ...]
    h: float = field(init=False)

    def __post_init__(self):
        nodes, times, U = readonly(self.nodes), readonly(self.times), readonly(self.U)
        if nodes.ndim != 1 or times.ndim != 1 or U.shape != (times.size, nodes.size):
            raise DomainError("U must have shape (len(times), len(nodes))")
        if times.size < 1:
            raise WindowError("trajectory needs at least one snapshot")
        if not np.all(np.diff(times) > 0.0):
            raise WindowError("snapshot times must be strictly increasing")
        object.__setattr__(self, "h", check_layout(self.chart, nodes))
        check_positive(U)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "U", U)

    def snapshot(self, k: int) -> ConformalGrid:
        """Snapshot k as a standalone grid; it shares the trajectory's read-only arrays."""
        t = float(self.times[k])
        return ConformalGrid(self.chart, self.nodes, self.U[k], t, self.provenance)

    @property
    def grid0(self) -> ConformalGrid:
        return self.snapshot(0)

    def curvature(self, k: int) -> np.ndarray:
        """Scalar curvature of snapshot k."""
        u = self.U[k]
        return curvature_field(np.log(u), u, self.nodes, self.h, self.chart)

    def trusted(self, k: int) -> np.ndarray:
        """Nodes of snapshot k that support curvature statistics (see trusted_mask)."""
        return trust_mask(self.U[k], self.chart, CURVATURE_TRUST_FLOOR)

    def u_at(self, t: float) -> np.ndarray:
        """Conformal factor at time t, linear in time between snapshots."""
        times = self.times
        tol = 1e-9 * max(1.0, abs(float(times[0])), abs(float(times[-1])))
        if t < times[0] - tol or t > times[-1] + tol:
            raise WindowError(f"time {t} outside snapshot range [{times[0]}, {times[-1]}]")
        k = int(np.searchsorted(times, t))
        if k == 0:
            return self.U[0].copy()
        if k == len(times):
            return self.U[-1].copy()
        t0, t1 = times[k - 1], times[k]
        lam = (t - t0) / (t1 - t0)
        return (1.0 - lam) * self.U[k - 1] + lam * self.U[k]


@dataclass(frozen=True)
class RmaxSeries:
    """Masked curvature maximum per snapshot and its worst drop."""

    values: tuple[tuple[float, float], ...]
    monotonicity_defect: float


@dataclass(frozen=True)
class DiagnosticReport:
    """Conservation and monotonicity defects measured on a trajectory.

    f_defect: max over reliable nodes and times of
        |log(u(t)/u(0)) + integral_0^t R dtau|  (exactly zero for the flow).
    m_of_t: per-snapshot infimum of log(u(t)/u(0)) over reliable nodes.
    harnack_defect: worst negative increment of t * R between consecutive
        snapshots after shifting times to a positive window [span, 2*span]
        (harnack_shift records the shift; zero when times already positive).
    length_evolution_defect: worst relative mismatch between the measured
        d(length)/dt of tracked circles and -pi * rho * R * sqrt(u)
        (radial chart; the rho factor drops on the cylinder chart).
    """

    f_defect: float
    m_of_t: tuple[tuple[float, float], ...]
    harnack_defect: float
    harnack_shift: float
    length_evolution_defect: float
    circle_indices: tuple[int, ...]

    def __post_init__(self):
        for name in ("f_defect", "harnack_defect", "length_evolution_defect"):
            value = getattr(self, name)
            if not value >= 0.0:
                raise DomainError(f"{name} must be nonnegative, got {value}")


class _Stencil:
    """Tridiagonal lap(w) rows plus the boundary-pinning bookkeeping.

    These rows are the matrix the implicit solve inverts, and the explicit
    half of the trapezoid corrector must apply that same matrix, so the
    axis row uses two points and the matrix stays tridiagonal. This is not
    geometry.laplacian_field, the measurement operator, which has
    one-sided ends and an O(h^6) axis row. On interior rows the two agree
    only to rounding (about 1.4 * eps * max|w| / h^2, never bitwise), so
    merging them would change every evolved artifact.

    The solve hands its three diagonals straight to LAPACK's gtsv (the
    routine scipy.linalg.solve_banded dispatches to for one sub- and one
    super-diagonal) and lets it overwrite them, so a solve costs LAPACK's
    own arithmetic, about 390 us at n = 16000, plus three products.
    """

    def __init__(self, grid: ConformalGrid):
        n = grid.n
        h = grid.h
        inv_h2 = 1.0 / (h * h)
        sub = np.zeros(n)
        dia = np.zeros(n)
        sup = np.zeros(n)
        dia[1:-1] = -2.0 * inv_h2
        sub[1:-1] = inv_h2
        sup[1:-1] = inv_h2
        if grid.chart == RADIAL:
            rho = grid.nodes[1:-1]
            sub[1:-1] -= 1.0 / (2.0 * h * rho)
            sup[1:-1] += 1.0 / (2.0 * h * rho)
            # even extension through the axis: lap w(0) = 4 (w1 - w0) / h^2
            dia[0] = -4.0 * inv_h2
            sup[0] = 4.0 * inv_h2
            # mirror closure at the outer end (replaced by pinning if provenance)
            dia[-1] = -2.0 * inv_h2
            sub[-1] = 2.0 * inv_h2
            pinned = [n - 1] if grid.provenance is not None else []
        else:
            dia[0] = -2.0 * inv_h2
            sup[0] = 2.0 * inv_h2
            dia[-1] = -2.0 * inv_h2
            sub[-1] = 2.0 * inv_h2
            pinned = [0, n - 1] if grid.provenance is not None else []
        self.sub = sub
        self.dia = dia
        self.sup = sup
        # the solve's off-diagonals are -c*sub and -c*sup; (-a)*b == -(a*b) exactly
        self.neg_sub = -sub[1:]
        self.neg_sup = -sup[:-1]
        self.pinned = np.array(pinned, dtype=int)
        self.pinned_nodes = grid.nodes[self.pinned]
        self.provenance = grid.provenance
        # deferred: scipy.linalg takes ~0.3 s to import and only the implicit solve needs it
        from scipy.linalg import get_lapack_funcs

        self._gtsv = get_lapack_funcs("gtsv", (dia,))

    def apply(self, w: np.ndarray) -> np.ndarray:
        lap = self.dia * w
        lap[1:] += self.sub[1:] * w[:-1]
        lap[:-1] += self.sup[:-1] * w[1:]
        return lap

    def pin_values(self, t: float) -> np.ndarray:
        """log u at the pinned nodes at time t (empty when nothing is pinned)."""
        if not self.pinned.size:
            return np.empty(0)
        return log_u_profile(self.provenance, self.pinned_nodes, t)

    def solve_shifted(self, c: np.ndarray, rhs: np.ndarray) -> np.ndarray:
        """Solve (I - diag(c) L) w = rhs with pinned rows forced to identity.

        Consumes both arrays: c's pinned entries are zeroed and c then holds
        the main diagonal; the solution is returned in rhs's storage.
        """
        c[self.pinned] = 0.0
        dl = self.neg_sub * c[1:]
        du = self.neg_sup * c[:-1]
        d = c
        d *= self.dia
        np.subtract(1.0, d, out=d)
        # every overwrite flag set: gtsv works in the arrays given, f2py copies nothing
        x, info = self._gtsv(dl, d, du, rhs, True, True, True, True)[3:]
        if info != 0:
            # info > 0: an exactly zero pivot; info < 0 would be a malformed argument
            raise LinAlgError(f"tridiagonal solve failed (gtsv info {info})")
        return x


def _step_semi_implicit(st: _Stencil, w: np.ndarray, t: float, dt: float) -> np.ndarray:
    pins = st.pin_values(t + dt)
    lap0 = st.apply(w)
    rhs = w.copy()
    rhs[st.pinned] = pins
    c = np.negative(w)
    np.exp(c, out=c)
    c *= dt
    # d_mid = exp(-0.5 * (w + w_star)), built in w_star's storage
    d_mid = st.solve_shifted(c, rhs)
    d_mid += w
    d_mid *= -0.5
    np.exp(d_mid, out=d_mid)
    c = d_mid
    c *= 0.5 * dt
    # rhs = w + (0.5 * dt) * d_mid * lap0, built in lap0's storage
    rhs = lap0
    rhs *= c
    rhs += w
    rhs[st.pinned] = pins
    return st.solve_shifted(c, rhs)


def _check_state(w_new: np.ndarray, u_new: np.ndarray, t: float) -> None:
    # u = exp(w) is NaN, inf or 0 wherever w is not finite, so two reductions
    # on u decide validity; the mask that names the first bad node is only
    # built on failure
    if u_new.min() > 0.0 and u_new.max() < math.inf:
        return
    bad = ~np.isfinite(w_new) | ~np.isfinite(u_new) | (u_new <= 0.0)
    node = int(np.argmax(bad))
    raise StepRejectedError(
        f"step toward t={t} produced an invalid conformal factor at node {node}",
        node=node,
    )


def _advance(st: _Stencil, w: np.ndarray, t: float, dt: float):
    """Run one stage-complete step and adjudicate validity of the result."""
    # overflow/invalid are expected failure modes for oversized steps; they are
    # silenced here and judged by _check_state instead of leaking as warnings
    try:
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            w_new = _step_semi_implicit(st, w, t, dt)
            u_new = np.exp(w_new)
    except LinAlgError:
        raise StepRejectedError(f"linear solve failed during step toward t={t + dt}") from None
    _check_state(w_new, u_new, t + dt)
    return w_new, u_new


def trusted_mask(grid: ConformalGrid) -> np.ndarray:
    """Reliable-slice nodes whose conformal factor supports curvature statistics."""
    return trust_mask(grid.u, grid.chart, CURVATURE_TRUST_FLOOR)


def _masked_rmax(grid: ConformalGrid, w: np.ndarray, u: np.ndarray) -> float:
    """Curvature peak over the trusted nodes of the state w = log u on grid's layout."""
    r = curvature_field(w, u, grid.nodes, grid.h, grid.chart)
    return float(r[trust_mask(u, grid.chart, CURVATURE_TRUST_FLOOR)].max())


def step(grid: ConformalGrid, dt: float) -> ConformalGrid:
    """Advance one step of w_t = exp(-w) lap(w) and return the new grid."""
    if not (math.isfinite(dt) and dt > 0.0):
        raise DomainError(f"step needs dt > 0, got {dt}")
    _, u_new = _advance(_Stencil(grid), np.log(grid.u), grid.t, dt)
    return grid.with_u(u_new, t=grid.t + dt)


def _resolve_output_times(t0: float, t_end: float, output_times) -> np.ndarray:
    if output_times is None:
        return np.linspace(t0, t_end, DEFAULT_OUTPUT_COUNT)
    times = np.unique(np.asarray(output_times, dtype=float))
    if times.size == 0 or not np.all(np.isfinite(times)):
        raise WindowError("output times must be a nonempty finite collection")
    tol = 1e-9 * max(1.0, abs(t0), abs(t_end))
    if times[0] < t0 - tol or times[-1] > t_end + tol:
        raise WindowError(
            f"output times must lie in [{t0}, {t_end}], got [{times[0]}, {times[-1]}]"
        )
    if times[0] > t0 + tol:
        times = np.concatenate(([t0], times))
    times[0] = t0
    if times[-1] < t_end - tol:
        times = np.concatenate((times, [t_end]))
    times[-1] = t_end
    return times


def check_trajectory_size(times: int, n: int) -> None:
    """Reject times x n snapshot values above MAX_TRAJECTORY_CELLS before allocating them."""
    if times * n > MAX_TRAJECTORY_CELLS:
        raise DomainError(
            f"{times} snapshots x {n} nodes exceed the limit of {MAX_TRAJECTORY_CELLS} values"
        )


def evolve(
    grid: ConformalGrid,
    t_end: float,
    cfl: float = 0.5,
    *,
    output_times=None,
    blow_up_threshold: float = BLOW_UP_RMAX,
    max_steps: int = 2_000_000,
) -> FlowTrajectory:
    """Evolve to t_end, snapshotting at the requested output times.

    Steps never exceed cfl * h, so a run that needs more than max_steps of
    them, or more than MAX_TRAJECTORY_CELLS snapshot values, is rejected
    before anything is allocated.
    """
    if not (0.0 < cfl <= 1.0):
        raise DomainError(f"cfl must lie in (0, 1], got {cfl}")
    if not (math.isfinite(t_end) and t_end > grid.t):
        raise DomainError(f"t_end must exceed the initial time {grid.t}, got {t_end}")
    if grid.provenance is not None:
        check_time(grid.provenance, t_end)
    h = grid.h
    fewest_steps = (t_end - grid.t) / (cfl * h)
    if fewest_steps > max_steps:
        raise DomainError(
            f"reaching t={t_end} takes at least {fewest_steps:.3g} steps, over the budget {max_steps}"
        )
    targets = _resolve_output_times(grid.t, float(t_end), output_times)
    check_trajectory_size(targets.size, grid.n)

    st = _Stencil(grid)
    rel = grid.reliable_slice()
    w = np.log(grid.u)
    u = grid.u
    t = grid.t
    r_max = _masked_rmax(grid, w, u)
    U = np.empty((targets.size, grid.n))
    U[0] = grid.u
    steps: list[StepRecord] = []
    # residual buffers, reused every step
    w_mid = np.empty(grid.n)
    resid = np.empty(grid.n)

    for k in range(1, targets.size):
        target = targets[k]
        tol = 1e-12 * max(1.0, abs(target))
        while t < target - tol:
            cap = min(h, 1.0 / r_max) if r_max > 0.0 else h
            dt = min(cfl * cap, target - t)
            w_new, u_new = _advance(st, w, t, dt)
            # resid = (w_new - w) / dt - exp(-w_mid) * L w_mid, w_mid = 0.5 * (w + w_new)
            np.add(w, w_new, out=w_mid)
            w_mid *= 0.5
            lap = st.apply(w_mid)
            np.negative(w_mid, out=w_mid)
            np.exp(w_mid, out=w_mid)
            lap *= w_mid
            np.subtract(w_new, w, out=resid)
            resid /= dt
            resid -= lap
            np.abs(resid, out=resid)
            residual = float(resid[rel].max())
            w, u = w_new, u_new
            t = t + dt
            r_max = _masked_rmax(grid, w, u)
            steps.append(StepRecord(t=t, dt=dt, residual=residual, r_max=r_max))
            if r_max > blow_up_threshold:
                raise BlowUpError(
                    f"curvature maximum {r_max:.6g} crossed {blow_up_threshold:.6g} at t={t:.6g}",
                    t=t,
                    r_max=r_max,
                )
            if len(steps) >= max_steps:
                raise GeomflowError(f"step budget {max_steps} exhausted at t={t}")
        t = float(target)
        U[k] = u
    U.setflags(write=False)
    return FlowTrajectory(grid.chart, grid.nodes, targets, U, grid.provenance, tuple(steps))


def exact_trajectory(
    spec,
    times,
    *,
    n: int,
    extent: float | None = None,
    x_lo: float | None = None,
    x_hi: float | None = None,
) -> FlowTrajectory:
    """Trajectory sampled straight from a family (no stepping, no error)."""
    times = np.asarray(times, dtype=float)
    if times.size < 2 or np.any(np.diff(times) <= 0.0):
        raise WindowError("exact trajectory needs at least two strictly increasing times")
    check_trajectory_size(times.size, int(n))
    grid = sample_grid(spec, float(times[0]), n=n, extent=extent, x_lo=x_lo, x_hi=x_hi)
    U = np.empty((times.size, grid.n))
    U[0] = grid.u
    for k in range(1, times.size):
        U[k] = u_profile(spec, grid.nodes, float(times[k]))
    U.setflags(write=False)
    return FlowTrajectory(grid.chart, grid.nodes, times, U, spec, ())


def rmax_series(traj: FlowTrajectory) -> RmaxSeries:
    """Per-snapshot masked curvature maximum and its worst drop."""
    values = tuple(
        (float(t), float(traj.curvature(k)[traj.trusted(k)].max()))
        for k, t in enumerate(traj.times)
    )
    drops = [a[1] - b[1] for a, b in zip(values, values[1:])]
    defect = max(0.0, max(drops, default=0.0))
    return RmaxSeries(values=values, monotonicity_defect=defect)


def _tracked_circle_indices(traj: FlowTrajectory, fractions) -> tuple[int, ...]:
    rel = reliable_slice(traj.chart, traj.nodes.size)
    lo = rel.start if traj.chart == CYLINDER else 1
    hi = rel.stop - 1
    if hi <= lo:
        raise WindowError("grid too small to track circles")
    picked = sorted({min(hi, max(lo, int(round(lo + f * (hi - lo))))) for f in fractions})
    return tuple(picked)


def diagnostics(traj: FlowTrajectory, *, circle_fractions=(0.25, 0.5, 0.75)) -> DiagnosticReport:
    """Measure conservation/monotonicity defects on a trajectory; needs >= 3 snapshots.

    Curvature is computed one snapshot at a time; only the current and the
    previous row are held, never a (snapshots x nodes) array.
    """
    times = traj.times
    count = times.size
    if count < 3:
        raise WindowError("diagnostics needs at least three snapshots")
    mask = traj.trusted(0)
    for k in range(1, count):
        mask &= traj.trusted(k)
    if not mask.any():
        mask = np.zeros(traj.nodes.size, dtype=bool)
        mask[reliable_slice(traj.chart, traj.nodes.size)] = True

    if times[0] > 0.0:
        shift = 0.0
    else:
        span = float(times[-1] - times[0])
        shift = span - float(times[0])

    idx = _tracked_circle_indices(traj, circle_fractions)
    cols = np.array(idx, dtype=int)
    w0 = np.log(traj.U[0])
    r = traj.curvature(0)
    r_int = np.zeros_like(r)  # integral_0^t R dtau, trapezoid rule accumulated row by row
    r_cols = [r[cols]]
    m_of_t = [(float(times[0]), 0.0)]  # log(u/u0) vanishes at the first snapshot
    f_defect = harnack_defect = 0.0
    for k in range(1, count):
        r_prev, r = r, traj.curvature(k)
        f = np.log(traj.U[k]) - w0
        r_int = r_int + (times[k] - times[k - 1]) * (r + r_prev) / 2.0
        f_defect = max(f_defect, float(np.abs(f + r_int)[mask].max()))
        m_of_t.append((float(times[k]), float(f[mask].min())))
        increments = (times[k] + shift) * r - (times[k - 1] + shift) * r_prev
        harnack_defect = max(harnack_defect, -float(increments[mask].min()))
        r_cols.append(r[cols])

    root_u = np.sqrt(traj.U[:, cols])
    if traj.chart == RADIAL:
        geom = math.pi * traj.nodes[cols]
    else:
        geom = math.pi * np.ones(cols.size)
    lengths = 2.0 * geom * root_u
    dldt = np.gradient(lengths, times, axis=0)
    rhs = -geom * np.array(r_cols) * root_u
    err = np.abs(dldt - rhs)[1:-1]
    scale = np.maximum(np.abs(rhs)[1:-1], 1e-12)
    length_defect = float((err / scale).max())

    return DiagnosticReport(
        f_defect=f_defect,
        m_of_t=tuple(m_of_t),
        harnack_defect=harnack_defect,
        harnack_shift=shift,
        length_evolution_defect=length_defect,
        circle_indices=idx,
    )
