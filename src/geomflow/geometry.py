"""Discrete curvature and asymptotic-geometry estimators on conformal grids.

Conventions: scalar curvature R = -lap(log u)/u (Gauss curvature K = R/2),
geodesic distance s along the generator line from node 0 (the axis on the
radial chart, the left end on the cylinder chart), circle length
l = 2*pi*rho*sqrt(u) (radial) or 2*pi*sqrt(u) (cylinder).

Limits s -> infinity (aperture, circumference, volume ratio, Hartman values)
are estimated from local tail slopes at the largest reliable radius:
aperture = dl/ds and 2A/s^2 -> d^2A/ds^2, both exact for cones and
convergent at desk-scale extents where the raw ratios are still far from
their limits. Raw ratios at the reliable radius are reported alongside.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError
from .grids import CYLINDER, RADIAL, RELIABLE_MARGIN, ConformalGrid, cumulative_trapezoid

TWO_PI = 2.0 * math.pi

# |direct - (2*pi - tau)| gaps are judged relative to max(target, this floor)
HARTMAN_GAP_FLOOR = TWO_PI / 100.0
# dyadic circle-length growth beyond this flags a diverging circumference
DIVERGENCE_RATIO = 1.5
# so does a tail slope dl/ds above this (cone-like opening)
DIVERGENCE_APERTURE = TWO_PI / 20.0


def _axis_laplacian(w: np.ndarray, h: float):
    # even extension through rho=0: lap w(0) = 2 w''(0); the weights satisfy
    # sum c_k k^2 = 1, sum c_k k^4 = sum c_k k^6 = 0, so the truncation error
    # is O(h^6) and axis curvature is resolved to ~1e-8 at desk resolutions
    w0 = w[..., 0]
    d1, d2, d3 = w[..., 1] - w0, w[..., 2] - w0, w[..., 3] - w0
    return (4.0 / (h * h)) * (1.5 * d1 - 0.15 * d2 + d3 / 90.0)


def _one_sided_second(w4: np.ndarray, h: float):
    # w4 ordered boundary-first along the last axis; second-order one-sided second derivative
    return (2.0 * w4[..., 0] - 5.0 * w4[..., 1] + 4.0 * w4[..., 2] - w4[..., 3]) / (h * h)


def _one_sided_first(w3: np.ndarray, h: float):
    return (3.0 * w3[..., 0] - 4.0 * w3[..., 1] + w3[..., 2]) / (2.0 * h)


def laplacian_field(
    w: np.ndarray, nodes: np.ndarray, h: float, chart: str, out=None, scratch=None
) -> np.ndarray:
    """Flat-chart Laplacian of a rotationally symmetric field.

    w is one row of node values or a (rows, nodes) block; the stencil runs
    along the last axis, and each row of a block is bitwise its 1-d result.
    The result goes to out when given; the radial chart's first-derivative
    term goes to scratch, of the same shape, when given. With both, nothing
    of w's size is allocated, and the values are the same to the bit.
    """
    lap = np.empty_like(w) if out is None else out
    # (w[2:] - 2 w[1:-1] + w[:-2]) / h^2, one operation at a time into lap
    mid = np.multiply(w[..., 1:-1], 2.0, out=lap[..., 1:-1])
    np.subtract(w[..., 2:], mid, out=mid)
    mid += w[..., :-2]
    mid /= h * h
    if chart == RADIAL:
        slope = np.subtract(w[..., 2:], w[..., :-2], out=None if scratch is None else scratch[..., 1:-1])
        slope /= 2.0 * h
        slope /= nodes[1:-1]
        mid += slope
        lap[..., 0] = _axis_laplacian(w, h)
        tail = w[..., -1:-5:-1]
        lap[..., -1] = _one_sided_second(tail, h) + _one_sided_first(tail, h) / nodes[-1]
    else:
        lap[..., 0] = _one_sided_second(w[..., :4], h)
        lap[..., -1] = _one_sided_second(w[..., -1:-5:-1], h)
    return lap


def curvature_field(
    w: np.ndarray, u: np.ndarray, nodes: np.ndarray, h: float, chart: str, out=None, scratch=None
) -> np.ndarray:
    """R = -lap(w)/u for one row of u or a (rows, nodes) block, given w = log u
    (the solver passes its own log state, which can differ from np.log(u) in
    the last bit). out and scratch are laplacian_field's; R is built in out."""
    r = laplacian_field(w, nodes, h, chart, out, scratch)
    np.negative(r, out=r)
    r /= u
    return r


def scalar_curvature(grid: ConformalGrid) -> np.ndarray:
    """R = -lap(log u)/u at every node."""
    return curvature_field(np.log(grid.u), grid.u, grid.nodes, grid.h, grid.chart)


def s_profile(grid: ConformalGrid) -> np.ndarray:
    """Geodesic distance from node 0 along the generator line (trapezoid)."""
    return cumulative_trapezoid(np.sqrt(grid.u), grid.nodes)


def circle_length_profile(grid: ConformalGrid) -> np.ndarray:
    root = np.sqrt(grid.u)
    if grid.chart == RADIAL:
        return TWO_PI * grid.nodes * root
    return TWO_PI * root


def ball_area_profile(grid: ConformalGrid) -> np.ndarray:
    """Area of the metric ball bounded by each coordinate circle."""
    if grid.chart == RADIAL:
        integrand = grid.u * grid.nodes
    else:
        integrand = grid.u
    return TWO_PI * cumulative_trapezoid(integrand, grid.nodes)


def _reliable_outer_index(grid: ConformalGrid) -> int:
    return grid.n - 1 - RELIABLE_MARGIN


def _centered_first(w: np.ndarray, h: float, i: int) -> float:
    return (w[i + 1] - w[i - 1]) / (2.0 * h)


def _tail_window(grid: ConformalGrid, width_divisor: int, minimum: int) -> slice:
    i_r = _reliable_outer_index(grid)
    width = max(minimum, grid.n // width_divisor)
    return slice(max(1, i_r - width + 1), i_r + 1)


def _cumulative_curvature(grid: ConformalGrid) -> np.ndarray:
    """Integral of R over balls bounded by each coordinate circle."""
    r_field = scalar_curvature(grid)
    if grid.chart == RADIAL:
        integrand = r_field * grid.u * grid.nodes
    else:
        integrand = r_field * grid.u
    return TWO_PI * cumulative_trapezoid(integrand, grid.nodes)


def average_curvature_k(grid: ConformalGrid, r: float) -> float:
    """Mean of R over the geodesic ball of radius r about node 0."""
    if r <= 0.0:
        raise DomainError("average curvature needs r > 0")
    s = s_profile(grid)
    i_r = _reliable_outer_index(grid)
    if r > s[i_r]:
        raise DomainError(f"r={r} exceeds the reliable geodesic radius {s[i_r]:.6g}")
    num = float(np.interp(r, s, _cumulative_curvature(grid)))
    den = float(np.interp(r, s, ball_area_profile(grid)))
    return num / den


def sup_r_times_k(grid: ConformalGrid) -> float:
    """sup over sampled radii of r * k(o, r)."""
    s = s_profile(grid)
    i_r = _reliable_outer_index(grid)
    num = _cumulative_curvature(grid)
    den = ball_area_profile(grid)
    sl = slice(1, i_r + 1)
    return float(np.max(s[sl] * num[sl] / den[sl]))


FIELD_ORDER = (
    "t",
    "tau",
    "aperture",
    "circumference",
    "avr",
    "r_max",
    "hartman_defect_length",
    "hartman_defect_area",
)


@dataclass(frozen=True)
class InvariantReport:
    """Asymptotic invariants of one snapshot; None marks not-applicable
    (see invariant_report for how each is estimated)."""

    t: float
    tau: float
    aperture: float | None
    circumference: float | None
    avr: float | None
    r_max: float
    hartman_defect_length: float | None
    hartman_defect_area: float | None
    warnings: tuple[str, ...] = ()
    extras: dict = field(default_factory=dict)

    def to_row(self) -> dict:
        return {name: getattr(self, name) for name in FIELD_ORDER}


def _tail_fit(grid: ConformalGrid, x: np.ndarray, y: np.ndarray, degree: int) -> float:
    """Leading coefficient of a least-squares polynomial fit of a radial tail."""
    try:
        # far from unit scale polyfit's column norms underflow or overflow, or its
        # scaled columns lose rank
        with np.errstate(divide="raise", over="raise", invalid="raise"), warnings.catch_warnings():
            warnings.simplefilter("error", np.exceptions.RankWarning)
            return float(np.polyfit(x, y, degree)[0])
    except (FloatingPointError, np.linalg.LinAlgError, np.exceptions.RankWarning) as err:
        raise DomainError(
            f"the tail fits of the invariants fail at t = {grid.t:g}, extent {grid.extent:g} ({err}); "
            "the snapshot is too far from unit scale"
        ) from err


def invariant_report(grid: ConformalGrid) -> InvariantReport:
    """Every invariant this chart supports, from one evaluation of R, s, l and A.

    r_max: maximum of R over grid.reliable_mask().
    tau: trapezoid quadrature of the integral of K = R/2. extras["tau_flux"] is
        its boundary-flux form, -pi * [rho d(log u)/drho] at the reliable radius
        (radial) or between the reliable ends (cylinder), and extras
        ["tau_disagreement"] = |tau - flux|; a flux that still moves by 1% from
        half the extent (the middle half on a cylinder) warns.
    aperture: lim l/s as the tail slope dl/ds, a line fitted over the last n/50
        (at least 7) reliable nodes. Hartman's identity gives it as 2*pi - tau
        (extras["aperture_hartman"]); hartman_defect_length is their gap.
    circumference: lim l by one dyadic Richardson step for a 1/rho^2 tail, or
        +inf when l(r)/l(r/2) > DIVERGENCE_RATIO or aperture > DIVERGENCE_APERTURE.
    avr: lim A/(pi s^2) = (d^2A/ds^2)/(2*pi), with d^2A/ds^2 (extras
        ["avr_second_derivative"]) from a quadratic fit over the last n/40 (at
        least 9) reliable nodes; hartman_defect_area = |d^2A/ds^2 - (2*pi - tau)|.
        extras["bg_defect"] is the largest increase of A/(pi s^2), which
        Bishop-Gromov makes nonincreasing for K >= 0.
    The raw l/s, l and A/(pi s^2) at the reliable radius are extras
    ["aperture_ratio_raw"], ["circumference_raw"] and ["avr_ratio_raw"].
    A cylinder has no open end: its report leaves aperture to
    hartman_defect_area None.
    """
    # one evaluation of each profile per report, shared by every estimate below
    r_field = scalar_curvature(grid)
    w = np.log(grid.u)
    h = grid.h
    mask = grid.reliable_mask()
    r_max = float(r_field[mask].max())
    i_r = _reliable_outer_index(grid)
    warnings: list[str] = []
    integrand = r_field * grid.u
    if grid.chart == RADIAL:
        integrand = integrand * grid.nodes
        i_half = grid.index_of(grid.extent / 2.0)
        flux = -math.pi * grid.nodes[i_r] * _centered_first(w, h, i_r)
        flux_half = -math.pi * grid.nodes[i_half] * _centered_first(w, h, i_half)
    else:
        i_lo = RELIABLE_MARGIN
        span = i_r - i_lo
        j_lo, j_r = i_lo + span // 4, i_r - span // 4
        flux = -math.pi * (_centered_first(w, h, i_r) - _centered_first(w, h, i_lo))
        flux_half = -math.pi * (_centered_first(w, h, j_r) - _centered_first(w, h, j_lo))
    tau = float(math.pi * np.trapezoid(integrand, grid.nodes))
    if abs(flux - flux_half) > 1e-2 * max(abs(flux), abs(tau), 1e-30):
        warnings.append("boundary flux not stabilized at the sampled extent")
    extras = {"tau_flux": float(flux), "tau_disagreement": float(abs(tau - flux))}
    if grid.chart != RADIAL:
        # compact cylinder snapshots: the open-end limits are not applicable
        return InvariantReport(
            t=grid.t, tau=tau, aperture=None, circumference=None, avr=None, r_max=r_max,
            hartman_defect_length=None, hartman_defect_area=None,
            warnings=tuple(warnings), extras=extras,
        )

    s = s_profile(grid)
    ell = circle_length_profile(grid)
    area = ball_area_profile(grid)
    hartman = TWO_PI - tau

    win = _tail_window(grid, width_divisor=50, minimum=7)
    aperture = _tail_fit(grid, s[win], ell[win], 1)
    defect_len = abs(aperture - hartman)
    if defect_len > 0.05 * max(abs(hartman), HARTMAN_GAP_FLOOR):
        warnings.append("direct aperture and 2*pi - tau disagree beyond 5%")

    drops = np.diff(ell[grid.reliable_slice()])
    if float(drops.min()) < -1e-9 * max(float(ell[i_r]), 1.0):
        warnings.append("circle lengths are not monotone; limit estimate unreliable")
    if ell[i_r] / max(ell[i_half], 1e-300) > DIVERGENCE_RATIO or aperture > DIVERGENCE_APERTURE:
        circumference = math.inf
    else:
        # dyadic Richardson step for an algebraic 1/rho^2 tail
        circumference = float(ell[i_r] + (ell[i_r] - ell[i_half]) / 3.0)

    win = _tail_window(grid, width_divisor=40, minimum=9)
    s_w = s[win] - float(np.mean(s[win]))
    second = 2.0 * _tail_fit(grid, s_w, area[win], 2)
    ratio = area[1 : i_r + 1] / (math.pi * s[1 : i_r + 1] ** 2)
    bg_defect = float(max(0.0, np.diff(ratio).max()))
    if bg_defect > 1e-6:
        warnings.append("ball-volume ratio is not monotone (curvature sign?)")

    if float(r_field[mask].min()) > -1e-6 and tau > TWO_PI + 1e-2:
        warnings.append(
            "total curvature exceeds 2*pi: input is not a complete noncompact "
            "positive-curvature surface"
        )
    extras.update(
        aperture_hartman=hartman,
        aperture_ratio_raw=float(ell[i_r] / s[i_r]),
        avr_ratio_raw=float(ratio[-1]),
        avr_second_derivative=second,
        bg_defect=bg_defect,
        circumference_raw=float(ell[i_r]),
    )
    return InvariantReport(
        t=grid.t,
        tau=tau,
        aperture=aperture,
        circumference=circumference,
        avr=second / TWO_PI,
        r_max=r_max,
        hartman_defect_length=defect_len,
        hartman_defect_area=abs(second - hartman),
        warnings=tuple(warnings),
        extras=extras,
    )


def curvature_bump_grid() -> ConformalGrid:
    """Rotationally symmetric metric with a Gaussian curvature bump of total pi.

    On 2000 nodes of rho in [0, 40] the radial log-derivative is prescribed
    as rho (log u)' = -(1 - exp(-(rho/1.5)^2)), which makes the flux form of
    the total curvature exactly pi up to an exp(-(40/1.5)^2) tail and the
    far field an exact cone of aperture pi.
    """
    # deferred: scipy.special is slow to import and only acceptance criterion 5 needs it
    from scipy.special import exp1

    nodes = np.linspace(0.0, 40.0, 2000)
    x = (nodes / 1.5) ** 2
    f = np.empty_like(x)
    small = x < 0.1
    xs = x[small]
    # ln x + gamma + E1(x) = sum_{k>=1} (-1)^{k+1} x^k / (k * k!)
    acc = np.zeros_like(xs)
    term = np.ones_like(xs)
    for k in range(1, 9):
        term = term * xs / k
        acc += term / k if k % 2 == 1 else -term / k
    f[small] = acc
    big = ~small
    f[big] = np.log(x[big]) + np.euler_gamma + exp1(x[big])
    # log u = -(total / 2 pi) f with total = pi
    log_u = -0.5 * f
    return ConformalGrid(chart=RADIAL, nodes=nodes, u=np.exp(log_u), t=0.0)


def cigar_cylinder_grid() -> ConformalGrid:
    """Cigar metric of tip curvature 4 in cylinder coordinates (rho = e^x) on
    2000 nodes of x in [-8, 25], tip at the left end: u = 1 / (1 + e^{-2x}).

    The tube side is nearly unit speed (u -> 1), so geodesic radii of order
    the coordinate extent are reachable; the tip sits within arcsinh(e^-8)
    of the left end.
    """
    nodes = np.linspace(-8.0, 25.0, 2000)
    log_u = -np.logaddexp(0.0, -2.0 * nodes)
    return ConformalGrid(chart=CYLINDER, nodes=nodes, u=np.exp(log_u), t=0.0)
