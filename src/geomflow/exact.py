"""Closed-form conformal flow solutions used as oracles and initial data.

Every family solves du/dt = lap(log u) on its chart, where lap is the flat
Laplacian of the chart; the scalar curvature of g = u * (flat) is
R = -lap(log u) / u.

Families:
  Flat      u = 1 on the plane (stationary).
  Cigar     u = (4/R0) / (rho^2 + (4/R0) e^{R0 t}); tip curvature R0 for all
            t, curvature profile R(s) = R0 sech^2(sqrt(R0) s / 2).
  DSSoliton u = 2 / (beta (rho^2 + delta e^{2 beta t})); eternal gradient
            soliton, R at the center equals 2*beta for all t.
  Sphere    u = -8t / (1 + rho^2)^2 for t < 0; round, R(t) = 1/(-t).
  Rosenau   u = sinh(-t) / (cosh x + cosh t) on the cylinder for t < 0;
            R = (1 + cosh t cosh x) / (sinh(-t) (cosh x + cosh t)),
            R_max(t) = coth(-t).

Hyperbolic evaluations run in log space so coordinates with |x| of a few
hundred stay finite and hit their asymptotic limits instead of overflowing.
Their log-space sums go through _logaddexp, not numpy's logaddexp ufunc,
which runs as a scalar libm loop. _logaddexp applies the same formula with
numpy's vectorized exp and log1p, so its results may differ from the ufunc's
by about an ulp. The speed-up relies on those vectorized loops; a numpy build
without them does the same libm work as the ufunc (unmeasured).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .grids import CYLINDER, RADIAL, ConformalGrid, check_layout, check_positive

CIGAR = "Cigar"
ROSENAU = "Rosenau"
SPHERE = "Sphere"
FLAT = "Flat"
DS_SOLITON = "DSSoliton"
FAMILIES = (CIGAR, ROSENAU, SPHERE, FLAT, DS_SOLITON)

_LOG2 = math.log(2.0)
# exp overflow threshold for float64; beyond it log-space paths are mandatory
_EXP_MAX = 700.0
# closest approach to a finite singular time: curvature ~ 1/|t| and its square
# stay inside the float64 range
_SINGULAR_MARGIN = math.sqrt(np.finfo(float).tiny)


def _logcosh(y):
    y = np.abs(np.asarray(y, dtype=float))
    return y + np.log1p(np.exp(-2.0 * y)) - _LOG2


def _logsinh(y):
    """log(sinh(y)) for y > 0, stable for both tiny and huge y."""
    y = np.asarray(y, dtype=float)
    if np.any(y <= 0.0):
        raise DomainError("logsinh expects positive argument")
    small = y < 1e-3
    # the large-y form only sees large y: log1p(-exp(-2y)) is -inf below y ~ 1e-17
    yl = np.where(small, 1.0, y)
    out = yl + np.log1p(-np.exp(-2.0 * yl)) - _LOG2
    if np.any(small):
        ys = np.where(small, y, 1.0)
        out = np.where(small, np.log(ys) + ys * ys / 6.0, out)
    return out


def _logaddexp(a, b, out=None, scratch=None):
    """log(exp(a) + exp(b)) by numpy's npy_logaddexp formula, hi + log1p(exp(lo - hi)),
    on vectorized ufuncs; lo - hi is exactly -|a - b|. Broadcasts like numpy's
    logaddexp. The result goes to out, or to a new array (0-d for scalar inputs);
    hi = max(a, b) goes to scratch, or to a temporary. Neither may overlap a or b."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if out is None:
        out = np.empty(np.broadcast_shapes(a.shape, b.shape))
    np.subtract(a, b, out=out)
    np.abs(out, out=out)
    np.negative(out, out=out)
    np.exp(out, out=out)
    np.log1p(out, out=out)
    out += np.maximum(a, b, out=scratch)
    return out


@dataclass(frozen=True)
class ExactSolutionSpec:
    """Family tag plus validated parameters, hashable and immutable."""

    family: str
    params: tuple[tuple[str, float], ...] = ()

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise DomainError(f"unknown family {self.family!r}")
        params = dict(self.params)
        object.__setattr__(self, "params", tuple(sorted(params.items())))
        allowed = _FAMILY_PARAMS[self.family]
        extra = set(params) - set(allowed)
        if extra:
            raise DomainError(f"{self.family} does not take params {sorted(extra)}")
        for key, default in allowed.items():
            value = float(params.get(key, default))
            if not math.isfinite(value):
                raise DomainError(f"{self.family} requires a finite {key}, got {value}")
            if key in ("r0", "beta", "delta") and value <= 0.0:
                raise DomainError(f"{self.family} requires {key} > 0")
            params[key] = value
        if self.family == DS_SOLITON:
            if params.get("x0", 0.0) != 0.0 or params.get("y0", 0.0) != 0.0:
                # off-center solitons are not rotationally symmetric about the
                # chart origin, so they cannot live on the radial grid
                raise DomainError("DSSoliton center must be the chart origin")
        object.__setattr__(self, "params", tuple(sorted(params.items())))

    @property
    def p(self) -> dict[str, float]:
        return dict(self.params)

    @property
    def chart(self) -> str:
        return CYLINDER if self.family == ROSENAU else RADIAL

    def existence_interval(self) -> tuple[float, float]:
        if self.family in (ROSENAU, SPHERE):
            return (-math.inf, 0.0)
        return (-math.inf, math.inf)


_FAMILY_PARAMS: dict[str, dict[str, float]] = {
    CIGAR: {"r0": 4.0},
    ROSENAU: {},
    SPHERE: {},
    FLAT: {},
    DS_SOLITON: {"beta": 2.0, "delta": 1.0, "x0": 0.0, "y0": 0.0},
}


def cigar(r0: float = 4.0) -> ExactSolutionSpec:
    return ExactSolutionSpec(CIGAR, (("r0", float(r0)),))


def rosenau() -> ExactSolutionSpec:
    return ExactSolutionSpec(ROSENAU)


def sphere() -> ExactSolutionSpec:
    return ExactSolutionSpec(SPHERE)


def flat() -> ExactSolutionSpec:
    return ExactSolutionSpec(FLAT)


def ds_soliton(beta: float = 2.0, delta: float = 1.0) -> ExactSolutionSpec:
    return ExactSolutionSpec(DS_SOLITON, (("beta", float(beta)), ("delta", float(delta))))


def check_time(spec: ExactSolutionSpec, t: float) -> None:
    lo, hi = spec.existence_interval()
    if not (lo < t < hi):
        raise DomainError(f"{spec.family} is only defined for t in ({lo}, {hi}); got t={t}")
    if hi - t < _SINGULAR_MARGIN:
        raise DomainError(
            f"t={t} is within {_SINGULAR_MARGIN:.3g} of the singular time {hi}, "
            "where curvature leaves the float64 range"
        )


def _ds_params(spec: ExactSolutionSpec) -> tuple[float, float]:
    if spec.family == CIGAR:
        r0 = spec.p["r0"]
        return r0 / 2.0, 4.0 / r0
    return spec.p["beta"], spec.p["delta"]


def _ds_shift(beta: float, delta: float, t: float) -> float:
    arg = math.log(delta) + 2.0 * beta * t
    # the profiles square the shift (dudt divides by (rho^2 + shift)^2), so it stays
    # within half the exp range: no overflow, and no underflow to 0 on the axis
    if not -_EXP_MAX / 2.0 <= arg <= _EXP_MAX / 2.0:
        raise DomainError(f"soliton time shift exp({arg}) leaves the float64 range; rescale first")
    return math.exp(arg)


def log_u_profile(
    spec: ExactSolutionSpec, coords: np.ndarray, t: float | tuple[float, ...], out=None, scratch=None
) -> np.ndarray:
    """log u along the generator line (rho or x nodes) at time t.

    t may also be a tuple of times; row k of the result is then the profile
    at t[k], bitwise as if evaluated alone. The rows go to out when given,
    and the Rosenau family, which evaluates them as one 2-d block, may
    overwrite scratch, of the same shape; with both, it allocates nothing of
    that shape. The other families fill the rows one at a time.
    """
    c = np.asarray(coords, dtype=float)
    if isinstance(t, tuple):
        if spec.family != ROSENAU:
            rows = np.empty((len(t),) + c.shape) if out is None else out
            for row, s in zip(rows, t):
                row[...] = log_u_profile(spec, c, s)
            return rows
        for s in t:
            check_time(spec, s)
        # the Rosenau time terms broadcast over the rows
        t = np.array(t)[:, None]
    else:
        check_time(spec, t)
    fam = spec.family
    if fam == FLAT:
        return np.zeros_like(c)
    if fam == ROSENAU:
        lcx = _logcosh(c)
        lct = _logcosh(t)
        lse = _logaddexp(lcx, lct, out, scratch)
        return np.subtract(_logsinh(-t), lse, out=lse)
    if fam == SPHERE:
        return math.log(-8.0 * t) - 2.0 * np.log1p(c * c)
    beta, delta = _ds_params(spec)
    shift = _ds_shift(beta, delta, t)
    return math.log(2.0 / beta) - np.log(c * c + shift)


def u_profile(spec: ExactSolutionSpec, coords: np.ndarray, t: float) -> np.ndarray:
    return np.exp(log_u_profile(spec, coords, t))


def r_profile(spec: ExactSolutionSpec, coords: np.ndarray, t: float) -> np.ndarray:
    """Scalar curvature R = -lap(log u)/u along the generator line."""
    check_time(spec, t)
    c = np.asarray(coords, dtype=float)
    fam = spec.family
    if fam == FLAT:
        return np.zeros_like(c)
    if fam == ROSENAU:
        lcx = _logcosh(c)
        lct = _logcosh(t)
        num = _logaddexp(0.0, lcx + lct)
        return np.exp(num - _logsinh(-t) - _logaddexp(lcx, lct))
    if fam == SPHERE:
        return np.full_like(c, 1.0 / (-t))
    beta, delta = _ds_params(spec)
    shift = _ds_shift(beta, delta, t)
    return 2.0 * beta * shift / (c * c + shift)


def dudt_profile(spec: ExactSolutionSpec, coords: np.ndarray, t: float) -> np.ndarray:
    """Analytic time derivative of u; equals lap(log u) pointwise."""
    check_time(spec, t)
    c = np.asarray(coords, dtype=float)
    fam = spec.family
    if fam == FLAT:
        return np.zeros_like(c)
    if fam == ROSENAU:
        lcx = _logcosh(c)
        lct = _logcosh(t)
        return -np.exp(_logaddexp(0.0, lcx + lct) - 2.0 * _logaddexp(lcx, lct))
    if fam == SPHERE:
        return -8.0 / (1.0 + c * c) ** 2
    beta, delta = _ds_params(spec)
    shift = _ds_shift(beta, delta, t)
    return -4.0 * shift / (c * c + shift) ** 2


def rosenau_rmax(t: float) -> float:
    """Supremum of R at time t < 0, approached at the cylinder ends: coth(-t)."""
    if t >= 0.0:
        raise DomainError("Rosenau solution requires t < 0")
    return 1.0 / math.tanh(-t)


def check_extremes(spec: ExactSolutionSpec, coords: np.ndarray, times) -> None:
    """Check every time, and u finite and positive at every time on coords, without
    sampling every node: each family's u is largest at the node nearest the centre
    (rho = 0 or x = 0) and least at an end node, so those three nodes bound it."""
    c = np.asarray(coords, dtype=float)
    bounds = c[[0, int(np.argmin(np.abs(c))), -1]]
    check_positive(np.exp(log_u_profile(spec, bounds, tuple(float(t) for t in times))))


def sample_grid(
    spec: ExactSolutionSpec,
    t: float,
    *,
    n: int,
    extent: float | None = None,
    x_lo: float | None = None,
    x_hi: float | None = None,
) -> ConformalGrid:
    """Sample the family on a uniform grid of its chart at time t."""
    if spec.chart == RADIAL:
        if extent is None or extent <= 0.0:
            raise DomainError("radial sampling needs extent > 0")
        nodes = np.linspace(0.0, float(extent), int(n))
    else:
        if x_lo is None or x_hi is None:
            if extent is None or extent <= 0.0:
                raise DomainError("cylinder sampling needs extent > 0 or explicit bounds")
            x_lo, x_hi = -float(extent), float(extent)
        if not x_hi > x_lo:
            raise DomainError("cylinder sampling needs x_hi > x_lo")
        if not float(x_hi) - float(x_lo) < math.inf:
            raise DomainError("cylinder sampling needs a finite width x_hi - x_lo")
        nodes = np.linspace(float(x_lo), float(x_hi), int(n))
    # a layout the grid would reject must not reach the closed form, where it overflows
    check_layout(spec.chart, nodes)
    u = u_profile(spec, nodes, t)
    return ConformalGrid(chart=spec.chart, nodes=nodes, u=u, t=float(t), provenance=spec)


def spec_from_name(family: str, **params: float) -> ExactSolutionSpec:
    """Build a spec from a family name (case-insensitive) and parameters."""
    lookup = {f.lower(): f for f in FAMILIES}
    key = family.strip().lower()
    if key not in lookup:
        raise DomainError(f"unknown family {family!r}; expected one of {list(FAMILIES)}")
    return ExactSolutionSpec(lookup[key], tuple(sorted((k, float(v)) for k, v in params.items())))
