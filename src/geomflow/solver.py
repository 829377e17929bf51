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

Each step is TR-BDF2 with gamma = 2 - sqrt(2) (Bank et al. 1985; Hosea &
Shampine 1996), linearized and in increment form: a trapezoid stage over
gamma * dt, then a BDF2 stage to t + dt. Both stages solve with the same
matrix I - theta J, theta = gamma * dt / 2, where J is the exact
tridiagonal Jacobian of f = exp(-w) L w at the step's start, so one
factorization serves both (see _Stencil). The scheme is second order and
L-stable: stiff far-field modes are damped, not left ringing. The rate f of
the accepted state is carried into the next step, so a step applies L
twice, and it also yields the step's curvature peak and its embedded error
estimate. The step is limited only by accuracy, dt = cfl * min(h, 1 / R_max);
an explicit rule would need dt ~ h^2 * u_min, prohibitive when the far
field is tiny. A step whose matrix is not positive definite is rejected:
TR-BDF2 is the one step path.
"""

from __future__ import annotations

import functools
import importlib.util
import math
import os
import sys
from dataclasses import dataclass, field
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader

import numpy as np
from numpy.linalg import LinAlgError

from .errors import DomainError, GeomflowError
from .exact import ExactSolutionSpec, check_extremes, check_time, node_factor, sample_grid, u_profile
from .geometry import _flux_laplacian, _flux_weights, curvature_field
from .grids import CYLINDER, RADIAL, ConformalGrid, check_layout
from .grids import check_positive, readonly, reliable_slice, trust_mask

# TR-BDF2 stage fraction; with it both stages share the matrix I - (GAMMA dt / 2) J
GAMMA = 2.0 - math.sqrt(2.0)
# the BDF2 stage in increment form: w_new - w_g = BDF2_CARRY (w_g - w) + (GAMMA dt / 2) f(w_new)
BDF2_CARRY = (1.0 - GAMMA) ** 2 / (GAMMA * (2.0 - GAMMA))
# embedded error estimate: 2|C| dt |f / g - f_g / (g (1 - g)) + f_new / (1 - g)|,
# C = (-3 g^2 + 4 g - 2) / (12 (2 - g)) (Hosea & Shampine 1996)
ERR_SCALE = 2.0 * abs(-3.0 * GAMMA**2 + 4.0 * GAMMA - 2.0) / (12.0 * (2.0 - GAMMA))

BLOW_UP_RMAX = 1.0e3
# steps one evolve may take; cfl * h bounds every step, so evolve checks this up front
MAX_STEPS = 2_000_000
DEFAULT_OUTPUT_COUNT = 17
# snapshots diagnostics needs: the length defect reads d(length)/dt at interior ones
DIAGNOSTIC_SNAPSHOTS = 3
# tracked circles of diagnostics, as fractions of the reliable node range
CIRCLE_FRACTIONS = (0.25, 0.5, 0.75)
# float64 values of one trajectory's snapshots (512 MiB when stored); 86x the
# largest benchmark trajectory, 253 snapshots of ~3,085 nodes
MAX_TRAJECTORY_CELLS = 2**26

# float64 values in one row block (256 KiB) of a blocked snapshot scan: the
# scan's workspace arrays are this size, never the size of a trajectory
BLOCK_CELLS = 2**15


@dataclass(frozen=True)
class StepRecord:
    """One accepted step: time reached, step size, error estimate, curvature max.

    residual is the step's embedded TR-BDF2 local error estimate in w = log u
    (Hosea & Shampine 1996), the max over grids.trust_mask(u_{n+1}) of
    2|C| dt |f_n / gamma - f_gamma / (gamma (1 - gamma)) + f_{n+1} / (1 - gamma)|,
    C = (-3 gamma^2 + 4 gamma - 2) / (12 (2 - gamma)). The untrusted far
    field is left out because there f = exp(-w) L w is rounding amplified
    by 1/u, not truncation error.
    r_max is the curvature maximum -f_{n+1} over the same mask, taken from
    the stepper's own stencil; rmax_series and rmax.csv measure it with
    the measurement operator instead, so the two can differ near the axis.
    """

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
    """Snapshots of one flow run on a shared chart and nodes, plus the step log.

    Row k is the conformal factor at times[k]. An evolved run stores its rows
    in the read-only array U, of shape (len(times), len(nodes)). A closed-form
    trajectory (exact_trajectory) has U None and samples its provenance
    family whenever rows are read, bitwise the rows it would store; u_rows
    reads either kind. The provenance keeps recording which family supplied
    the boundary data, even though evolved interiors carry discretization
    error.
    """

    chart: str
    nodes: np.ndarray
    times: np.ndarray
    U: np.ndarray | None
    provenance: ExactSolutionSpec | None
    steps: tuple[StepRecord, ...]
    h: float = field(init=False)

    def __post_init__(self):
        nodes, times = readonly(self.nodes), readonly(self.times)
        U = None if self.U is None else readonly(self.U)
        shape = (times.size, nodes.size) if U is None else U.shape
        if nodes.ndim != 1 or times.ndim != 1 or shape != (times.size, nodes.size):
            raise DomainError("U must have shape (len(times), len(nodes))")
        if U is None and (self.provenance is None or self.provenance.chart != self.chart):
            raise DomainError("a trajectory without stored rows needs a family on its chart to sample")
        if times.size < 1:
            raise DomainError("trajectory needs at least one snapshot")
        if not np.all(np.diff(times) > 0.0):
            raise DomainError("snapshot times must be strictly increasing")
        object.__setattr__(self, "h", check_layout(self.chart, nodes))
        if U is not None:
            check_positive(U)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "U", U)

    @functools.cached_property
    def factor(self):
        """The family's node_factor on the nodes, computed at the first sampled read."""
        return None if self.U is not None else node_factor(self.provenance, self.nodes)

    def u_rows(self, start: int = 0, stop: int | None = None) -> np.ndarray:
        """Rows start..stop-1 of u: a view of the stored U, or the family sampled at
        those times into a new read-only array and checked finite and positive."""
        stop = self.times.size if stop is None else stop
        return self._take(range(start, stop))

    def _take(self, rows, out=None) -> np.ndarray:
        """u_rows at the row indices rows: a contiguous range of stored rows stays a view,
        other stored rows are copied, and sampled rows filled, to out when given."""
        if self.U is not None:
            if isinstance(rows, range) and rows.step == 1:
                return self.U[rows.start : rows.stop]
            return np.take(self.U, rows, axis=0, out=out)
        times = tuple(self.times[rows].tolist())
        u = u_profile(self.provenance, self.nodes, times, out, self.factor)
        check_positive(u)
        if out is None:
            u.setflags(write=False)
        return u

    def snapshot(self, k: int) -> ConformalGrid:
        """Snapshot k as a standalone grid; it shares the trajectory's read-only arrays."""
        k = range(self.times.size)[k]
        t = float(self.times[k])
        return ConformalGrid(self.chart, self.nodes, self.u_rows(k, k + 1)[0], t, self.provenance)

    @property
    def grid0(self) -> ConformalGrid:
        return self.snapshot(0)

    def blocks(self, rows=None):
        """Yield (block, u, R, trusted) over the snapshots at the row indices rows (a
        sequence, every row by default), one row_blocks block at a time: block is the
        slice of rows the arrays hold, and trusted is grids.trust_mask. Every snapshot
        scan's one curvature pass, whether it reads a range or scattered rows.

        The block arrays are a workspace allocated once per call and filled in
        place, so the scan allocates nothing of a block's size after it starts:
        each yielded R and trusted, and a sampled u, is overwritten by the next
        block, and a caller that keeps a row past it copies the row. The
        workspace is there for speed, not memory: allocating per block instead
        left the backward benchmark's peak RSS unchanged but raised its wall
        time by about 70%.
        """
        rows = range(self.times.size) if rows is None else rows
        n = self.nodes.size
        shape = (max(1, min(len(rows), BLOCK_CELLS // n)), n)
        sampled, w, r, scratch = np.empty((4,) + shape)
        trusted = np.empty(shape, dtype=bool)
        for block in row_blocks(0, len(rows), n):
            m = block.stop - block.start
            # _take fills sampled unless the rows are a view of U; the Laplacian keeps its differences in scratch
            u = self._take(rows[block], sampled[:m])
            np.log(u, out=w[:m])
            curvature_field(w[:m], u, self.nodes, self.h, self.chart, r[:m], scratch[:m])
            yield block, u, r[:m], trust_mask(u, self.chart, trusted[:m])

    def u_at(self, t: float) -> np.ndarray:
        """Conformal factor at time t, linear in time between snapshots."""
        times = self.times
        tol = 1e-9 * max(1.0, abs(float(times[0])), abs(float(times[-1])))
        if t < times[0] - tol or t > times[-1] + tol:
            raise DomainError(f"time {t} outside snapshot range [{times[0]}, {times[-1]}]")
        k = int(np.searchsorted(times, t))
        if k == 0:
            return self.u_rows(0, 1)[0].copy()
        if k == len(times):
            return self.u_rows(k - 1, k)[0].copy()
        t0, t1 = times[k - 1], times[k]
        lam = (t - t0) / (t1 - t0)
        u0, u1 = self.u_rows(k - 1, k + 1)
        return (1.0 - lam) * u0 + lam * u1


@dataclass(frozen=True)
class RmaxSeries:
    """Masked curvature maximum per snapshot and its worst drop."""

    values: tuple[tuple[float, float], ...]
    monotonicity_defect: float

    @classmethod
    def of(cls, times: np.ndarray, peaks: np.ndarray) -> RmaxSeries:
        drop = max(0.0, float(np.max(peaks[:-1] - peaks[1:], initial=0.0)))
        return cls(values=tuple(zip(times.tolist(), peaks.tolist())), monotonicity_defect=drop)


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
    rmax: the trusted curvature maximum per snapshot, as rmax_series gives it.
    """

    f_defect: float
    m_of_t: tuple[tuple[float, float], ...]
    harnack_defect: float
    harnack_shift: float
    length_evolution_defect: float
    circle_indices: tuple[int, ...]
    rmax: RmaxSeries

    def __post_init__(self):
        for name in ("f_defect", "harnack_defect", "length_evolution_defect"):
            value = getattr(self, name)
            if not value >= 0.0:
                raise DomainError(f"{name} must be nonnegative, got {value}")


@functools.cache
def _lapack_pt():
    """LAPACK's dpttrf and dpttrs, loaded from scipy's compiled _flapack extension.

    Importing scipy.linalg to reach them (get_lapack_funcs) takes about 0.25 s
    and 20 MB, so the extension module is loaded on its own, without running
    scipy/linalg/__init__.py. It is registered under its own name, so a later
    import of scipy.linalg reuses it and get_lapack_funcs returns these very
    function objects.
    """
    name = "scipy.linalg._flapack"
    module = sys.modules.get(name)
    if module is None:
        import scipy

        stem = os.path.join(scipy.__path__[0], "linalg", "_flapack")
        path = next((stem + s for s in EXTENSION_SUFFIXES if os.path.isfile(stem + s)), None)
        if path is None:
            raise ImportError(f"scipy's LAPACK extension {stem + EXTENSION_SUFFIXES[0]} not found")
        loader = ExtensionFileLoader(name, path)
        module = importlib.util.module_from_spec(importlib.util.spec_from_loader(name, loader))
        sys.modules[name] = module
        loader.exec_module(module)
    return module.dpttrf, module.dpttrs


class _Stencil:
    """The stepper's lap(w), its symmetric scaled matrix and the pinned rows.

    L and the matrix come from the conductances k and weights omega of
    geometry._flux_weights alone. L w = geometry._flux_laplacian(w, k, omega)
    is bitwise the measurement operator on rows 1..n-2; its zero end flux and
    the end weights close the ends (4 (w_1 - w_0) / h^2 at the axis, the mirror
    2 (w_1 - w_0) / h^2 at a chart end), so L stays tridiagonal where the
    measurement has one-sided ends and an O(h^6) axis row.

    -omega L is the graph Laplacian with conductance k_i between nodes i and
    i+1. Row i of I - theta J, with the Jacobian J = diag(exp(-w)) L - diag(f)
    of f = exp(-w) L w, scaled by omega_i exp(w_i) / theta is then symmetric
    with the constant off-diagonal -k and the diagonal
    omega u (1/theta + f) + k_{i-1} + k_i; the right-hand sides carry the
    same scale. It is positive definite whenever theta R < 1 at every node
    (f = -R), which the step cap dt <= cfl / R_max keeps on grids.trust_mask(u),
    so LAPACK's pttrf factors it as L D L^T once per step and pttrs solves
    each stage against those factors; a step where pttrf reports otherwise is
    rejected (LinAlgError), as is one whose pttrs fails. A pinned node is an
    identity row; its coupling into the neighbouring row moves to the
    right-hand side.
    """

    def __init__(self, grid: ConformalGrid):
        n = grid.n
        self.k, self.omega = _flux_weights(grid.nodes, grid.h, grid.chart)
        # -omega * (L's diagonal): the row sums of the conductances
        self.cond_sums = np.zeros(n)
        self.cond_sums[:-1] += self.k
        self.cond_sums[1:] += self.k
        # a family pins the chart ends to its values (Dirichlet rows); the axis never
        ends = [n - 1] if grid.chart == RADIAL else [0, n - 1]
        self.pinned = np.array(ends if grid.provenance is not None else [], dtype=int)
        self.pinned_nodes = grid.nodes[self.pinned]
        self.provenance = grid.provenance
        # the pinned nodes' u_profile factor, computed once for every stage time
        self.pin_factor = node_factor(self.provenance, self.pinned_nodes) if self.pinned.size else None
        # a pinned node's edge, its neighbour and the conductance that moves to the rhs
        edges = np.minimum(self.pinned, n - 2)
        self.pin_nbrs = np.where(self.pinned == 0, 1, n - 2)
        self.pin_cond = self.k[edges]
        self.off = -self.k
        self.off[edges] = 0.0
        # loaded on first use and without scipy.linalg's import (see _lapack_pt)
        self._pttrf, self._pttrs = _lapack_pt()

    def apply(self, w: np.ndarray) -> np.ndarray:
        return _flux_laplacian(w, self.k, self.omega)

    def rate(self, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """u = exp(w) and the flow's rate f = exp(-w) L w."""
        u = np.exp(w)
        f = self.apply(w)
        f /= u
        return u, f

    def pin_values(self, *times: float) -> np.ndarray:
        """log u at the pinned nodes, one row per time (no columns when nothing is pinned)."""
        if not self.pinned.size:
            return np.empty((len(times), 0))
        u = u_profile(self.provenance, self.pinned_nodes, times, factor=self.pin_factor)
        return np.log(u, out=u)

    def factor(self, wu: np.ndarray, shift):
        """pttrf factors of the scaled matrix with diagonal wu * shift + k_{i-1} + k_i."""
        d = wu * shift
        d += self.cond_sums
        d[self.pinned] = 1.0
        d, e, info = self._pttrf(d, self.off, overwrite_d=1)
        if info != 0:
            raise LinAlgError(f"step matrix is not positive definite (pttrf info {info})")
        return d, e

    def solve(self, factors, rhs: np.ndarray, pin_delta: np.ndarray) -> np.ndarray:
        """Solve the factored system for a scaled rhs (consumed), given the pinned increments."""
        rhs[self.pinned] = pin_delta
        rhs[self.pin_nbrs] += self.pin_cond * pin_delta
        x, info = self._pttrs(*factors, rhs, overwrite_b=1)
        if info != 0:
            raise LinAlgError(f"tridiagonal solve failed (pttrs info {info})")
        return x


def _step_tr_bdf2(st: _Stencil, w: np.ndarray, u: np.ndarray, f: np.ndarray, t: float, dt: float):
    """One TR-BDF2 step from w, u = exp(w) and f = exp(-w) L w.

    Returns w, u and f at t + dt and the embedded error estimate per node.
    """
    theta = 0.5 * GAMMA * dt
    wu = st.omega * u
    factors = st.factor(wu, f + 1.0 / theta)
    pins = st.pin_values(t + GAMMA * dt, t + dt)
    # stage 1, trapezoid over gamma dt: (I - theta J) d1 = gamma dt f, rows scaled by omega u / theta
    rhs = wu * f
    rhs *= 2.0
    d1 = st.solve(factors, rhs, pins[0] - w[st.pinned])
    # stage 2, BDF2 from w and w_g: (I - theta J) d2 = BDF2_CARRY d1 + theta f_g, scaled alike
    rhs = d1 * (BDF2_CARRY / theta)
    w_g = np.add(d1, w, out=d1)
    u_g, f_g = st.rate(w_g)
    rhs += f_g
    rhs *= wu
    w_new = st.solve(factors, rhs, pins[1] - w_g[st.pinned])
    w_new += w_g
    u_new, f_new = st.rate(w_new)
    # err = ERR_SCALE dt |f / g - f_g / (g (1 - g)) + f_new / (1 - g)|, built in f_g's and u_g's storage
    err = f_g
    err *= -1.0 / (GAMMA * (1.0 - GAMMA))
    err += np.multiply(f, 1.0 / GAMMA, out=u_g)
    err += np.multiply(f_new, 1.0 / (1.0 - GAMMA), out=u_g)
    np.abs(err, out=err)
    err *= ERR_SCALE * dt
    return w_new, u_new, f_new, err


def _check_state(w_new: np.ndarray, u_new: np.ndarray, t: float) -> None:
    # u = exp(w) is NaN, inf or 0 wherever w is not finite, so two reductions
    # on u decide validity; the mask that names the first bad node is only
    # built on failure
    if u_new.min() > 0.0 and u_new.max() < math.inf:
        return
    bad = ~np.isfinite(w_new) | ~np.isfinite(u_new) | (u_new <= 0.0)
    node = int(np.argmax(bad))
    raise GeomflowError(f"step toward t={t} produced an invalid conformal factor at node {node}")


def _advance(st: _Stencil, w: np.ndarray, u: np.ndarray, f: np.ndarray, t: float, dt: float):
    """Run one step and adjudicate validity: (w, u, f, error estimate per node) at t + dt."""
    # overflow/invalid are expected failure modes for oversized steps; they are
    # silenced here and judged by _check_state instead of leaking as warnings
    try:
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            state = _step_tr_bdf2(st, w, u, f, t, dt)
    except LinAlgError:
        raise GeomflowError(f"linear solve failed during step toward t={t + dt}") from None
    _check_state(state[0], state[1], t + dt)
    return state


def resolve_output_times(t0: float, t_end: float, output_times) -> np.ndarray:
    """Snapshot times of a run from t0 to t_end: the output times (default
    DEFAULT_OUTPUT_COUNT evenly spaced ones) with both window ends."""
    tol = 1e-9 * max(1.0, abs(t0), abs(t_end))
    if output_times is None:
        times = np.linspace(t0, t_end, DEFAULT_OUTPUT_COUNT)
    else:
        times = np.sort(np.asarray(output_times, dtype=float), axis=None)
        if times.size == 0 or not np.all(np.isfinite(times)):
            raise DomainError("output times must be a nonempty finite collection")
        # exact duplicates dropped, as np.unique would, which imports numpy.ma
        times = times[np.append(True, times[1:] != times[:-1])]
        if times[0] < t0 - tol or times[-1] > t_end + tol:
            raise DomainError(
                f"output times must lie in [{t0}, {t_end}], got [{times[0]}, {times[-1]}]"
            )
        if times[0] > t0 + tol:
            times = np.concatenate(([t0], times))
        times[0] = t0
        if times[-1] < t_end - tol:
            times = np.concatenate((times, [t_end]))
        times[-1] = t_end
    # closer snapshots are one time to this tolerance, and time differences of
    # them (np.gradient in diagnostics) would underflow
    if times.size < 2 or np.diff(times).min() <= tol:
        raise DomainError(f"snapshot times must lie more than {tol:.3g} apart")
    return times


def row_blocks(start: int, stop: int, n: int) -> list[slice]:
    """Slices covering rows start..stop-1 of n values each, at most BLOCK_CELLS values
    (and at least one row) per slice."""
    rows = max(1, BLOCK_CELLS // n)
    return [slice(a, min(a + rows, stop)) for a in range(start, stop, rows)]


def check_trajectory_size(times: int, n: int) -> None:
    """Reject times x n snapshot values above MAX_TRAJECTORY_CELLS before any is computed:
    an evolved trajectory stores them, a closed-form one samples them on every scan."""
    if times * n > MAX_TRAJECTORY_CELLS:
        raise DomainError(
            f"{times} snapshots x {n} nodes exceed the limit of {MAX_TRAJECTORY_CELLS} values"
        )


def evolve(grid: ConformalGrid, t_end: float, cfl: float = 0.5, *, output_times=None) -> FlowTrajectory:
    """Evolve to t_end, snapshotting at the requested output times.

    Steps never exceed cfl * h, so a run that needs more than MAX_STEPS of
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
    if fewest_steps > MAX_STEPS:
        raise DomainError(
            f"reaching t={t_end} takes at least {fewest_steps:.3g} steps, over the budget {MAX_STEPS}"
        )
    targets = resolve_output_times(grid.t, float(t_end), output_times)
    check_trajectory_size(targets.size, grid.n)

    st = _Stencil(grid)
    w = np.log(grid.u)
    u = grid.u
    f = st.apply(w) / u
    t = grid.t
    # the trusted nodes of u (grids.trust_mask), refilled after every accepted step
    mask = trust_mask(u, grid.chart, np.empty(grid.n, dtype=bool))
    r_max = -float(np.min(f, where=mask, initial=math.inf))
    U = np.empty((targets.size, grid.n))
    U[0] = grid.u
    steps: list[StepRecord] = []

    for k in range(1, targets.size):
        target = targets[k]
        tol = 1e-12 * max(1.0, abs(target))
        while t < target - tol:
            cap = min(h, 1.0 / r_max) if r_max > 0.0 else h
            dt = min(cfl * cap, target - t)
            w, u, f, err = _advance(st, w, u, f, t, dt)
            t = t + dt
            trust_mask(u, grid.chart, mask)
            r_max = -float(np.min(f, where=mask, initial=math.inf))
            residual = float(np.max(err, where=mask, initial=-math.inf))
            steps.append(StepRecord(t=t, dt=dt, residual=residual, r_max=r_max))
            if r_max > BLOW_UP_RMAX:
                raise GeomflowError(
                    f"curvature maximum {r_max:.6g} crossed {BLOW_UP_RMAX:.6g} at t={t:.6g}"
                )
            if len(steps) >= MAX_STEPS:
                raise GeomflowError(f"step budget {MAX_STEPS} exhausted at t={t}")
        t = float(target)
        U[k] = u
    U.setflags(write=False)
    return FlowTrajectory(grid.chart, grid.nodes, targets, U, grid.provenance, tuple(steps))


def exact_trajectory(spec, times, *, n: int, extent: float) -> FlowTrajectory:
    """Trajectory of a family at the given times (no stepping, no error), on
    sample_grid's n nodes over extent.

    Its rows are not stored: every read samples them (FlowTrajectory.u_rows),
    so the size limit bounds the work of a scan, not its memory. The size, the
    layout, every time and the range of u (through its extremes) are checked
    here, before any scan.
    """
    times = np.asarray(times, dtype=float)
    if times.size < 2 or np.any(np.diff(times) <= 0.0):
        raise DomainError("exact trajectory needs at least two strictly increasing times")
    check_trajectory_size(times.size, int(n))
    grid = sample_grid(spec, float(times[0]), n=n, extent=extent)
    check_extremes(spec, grid.nodes, times)
    return FlowTrajectory(grid.chart, grid.nodes, times, None, spec, ())


def curvature_range(traj: FlowTrajectory, rows=None) -> tuple[np.ndarray, np.ndarray]:
    """Trusted-node minimum and maximum of R for the snapshots at the row indices rows
    (a sequence, every row by default), as two arrays in the order of rows."""
    count = traj.times.size if rows is None else len(rows)
    lo = np.empty(count)
    hi = np.empty(count)
    for block, _, r, trusted in traj.blocks(rows):
        np.min(r, axis=-1, where=trusted, initial=np.inf, out=lo[block])
        np.max(r, axis=-1, where=trusted, initial=-np.inf, out=hi[block])
    return lo, hi


def rmax_series(traj: FlowTrajectory) -> RmaxSeries:
    """Per-snapshot masked curvature maximum and its worst drop."""
    return RmaxSeries.of(traj.times, curvature_range(traj)[1])


def closed_form_error(traj: FlowTrajectory) -> float:
    """Sup over snapshots and reliable nodes of |u - u_exact| / u_exact, where u_exact
    is the provenance family's closed form, sampled one row block at a time."""
    if traj.provenance is None:
        raise DomainError("closed-form error needs a trajectory that records its family")
    rel = reliable_slice(traj.chart, traj.nodes.size)
    worst = 0.0
    for rows in row_blocks(0, traj.times.size, traj.nodes.size):
        u_ref = u_profile(traj.provenance, traj.nodes, tuple(traj.times[rows].tolist()))
        u = traj.u_rows(rows.start, rows.stop)
        worst = max(worst, float(np.abs((u - u_ref) / u_ref)[:, rel].max()))
    return worst


def _tracked_circle_indices(traj: FlowTrajectory) -> tuple[int, ...]:
    rel = reliable_slice(traj.chart, traj.nodes.size)
    lo = rel.start if traj.chart == CYLINDER else 1
    hi = rel.stop - 1
    if hi <= lo:
        raise DomainError("grid too small to track circles")
    picked = sorted({min(hi, max(lo, int(round(lo + f * (hi - lo))))) for f in CIRCLE_FRACTIONS})
    return tuple(picked)


def diagnostics(traj: FlowTrajectory) -> DiagnosticReport:
    """Conservation/monotonicity defects and the r_max series; needs >= 3 snapshots.

    One traj.blocks pass takes each snapshot's trusted curvature maximum, ANDs
    the trust masks and keeps per-node running maxima of the two defects; these
    and m_of_t are then read over the nodes every snapshot trusts. A maximum is
    exact, so the values equal masking each snapshot as it comes.
    """
    times = traj.times
    count = times.size
    if count < DIAGNOSTIC_SNAPSHOTS:
        raise DomainError(f"diagnostics needs at least {DIAGNOSTIC_SNAPSHOTS} snapshots")
    if times[0] > 0.0:
        shift = 0.0
    else:
        span = float(times[-1] - times[0])
        shift = span - float(times[0])

    idx = _tracked_circle_indices(traj)
    cols = np.array(idx, dtype=int)
    n = traj.nodes.size
    w0 = np.log(traj.u_rows(0, 1)[0])
    mask = np.ones(n, dtype=bool)
    peaks = np.empty(count)
    r_cols = np.empty((count, cols.size))
    u_cols = np.empty((count, cols.size))
    r_int = np.zeros(n)  # integral_0^t R dtau, trapezoid rule accumulated row by row
    f_worst = np.zeros(n)  # per node: max of |log(u/u0) + r_int| over t
    harnack_worst = np.zeros(n)  # per node: largest decrease of t * R
    for rows, u, block, trusted in traj.blocks():
        mask &= trusted.all(axis=0)
        np.max(block, axis=-1, where=trusted, initial=-np.inf, out=peaks[rows])
        r_cols[rows] = block[:, cols]
        u_cols[rows] = u[:, cols]
        for k, r, u_k in zip(range(rows.start, rows.stop), block, u):
            if k:
                r_int = r_int + (times[k] - times[k - 1]) * (r + r_prev) / 2.0
                np.maximum(f_worst, np.abs(np.log(u_k) - w0 + r_int), out=f_worst)
                increments = (times[k] + shift) * r - (times[k - 1] + shift) * r_prev
                np.maximum(harnack_worst, -increments, out=harnack_worst)
            r_prev = r
        r_prev = r_prev.copy()  # the next block overwrites this one's rows
    if not mask.any():
        mask[reliable_slice(traj.chart, n)] = True
    m_of_t = [(float(times[0]), 0.0)]  # log(u/u0) vanishes at the first snapshot
    for rows in row_blocks(1, count, n):
        logs = np.log(traj.u_rows(rows.start, rows.stop))
        logs -= w0
        m_of_t.extend(zip(times[rows].tolist(), logs[:, mask].min(axis=1).tolist()))

    root_u = np.sqrt(u_cols)
    geom = math.pi * (traj.nodes[cols] if traj.chart == RADIAL else np.ones(cols.size))
    lengths = 2.0 * geom * root_u
    dldt = np.gradient(lengths, times, axis=0)
    rhs = -geom * r_cols * root_u
    err = np.abs(dldt - rhs)[1:-1]
    scale = np.maximum(np.abs(rhs)[1:-1], 1e-12)
    length_defect = float((err / scale).max())

    return DiagnosticReport(
        f_defect=float(f_worst[mask].max()),
        m_of_t=tuple(m_of_t),
        # max() turns the -0.0 that np.maximum can leave into 0.0
        harnack_defect=max(0.0, float(harnack_worst[mask].max())),
        harnack_shift=shift,
        length_evolution_defect=length_defect,
        circle_indices=idx,
        rmax=RmaxSeries.of(times, peaks),
    )
