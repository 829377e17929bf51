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

u_profile samples every family's u above in linear space, as one
(times x nodes) block, and log_u_profile is its log. The Rosenau u is taken
as sinh(-t) / (cosh x + cosh t) scaled by 2 e^t:

  u = (1 - q^2) / (A q_k + 1 + q^2),  q = e^t, q_k = e^(t + k),
  A = e^(|x| - k) + e^(-|x| - k),    k = max(0, ceil(max|x|) - 709).

A holds everything that depends on the node alone and q, q_k everything that
depends on the time alone, so a row costs one multiply, add and divide per
node. The integral shift k keeps A and q_k finite on charts wider than the
exp range: their product 2 cosh(x) e^t overflows only where u is below the
smallest normal float64, and there u is 0. 1 - q^2 is taken as -expm1(2t),
which keeps its digits as t approaches 0. The Rosenau R and du/dt are
evaluated in log space through numpy's logaddexp, so coordinates with |x| of
a few hundred and times down to -1000 stay finite and accurate instead of
overflowing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import CIGAR, DS_SOLITON, FAMILIES, FLAT, ROSENAU, SPHERE
from .errors import DomainError
from .grids import CYLINDER, RADIAL, ConformalGrid, check_layout, check_positive

_LOG2 = math.log(2.0)
# exp overflow threshold for float64, with a margin
_EXP_MAX = 700.0
# largest |x| - k of the Rosenau node factor, so A <= 2 e^709 stays finite
_ROSENAU_NODE_MAX = 709.0
# closest approach to a finite singular time: curvature ~ 1/|t| and its square
# stay inside the float64 range
_SINGULAR_MARGIN = math.sqrt(np.finfo(float).tiny)


def _logcosh(y):
    y = np.abs(np.asarray(y, dtype=float))
    return y + np.log1p(np.exp(-2.0 * y)) - _LOG2


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
    DS_SOLITON: {"beta": 2.0, "delta": 1.0},
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


def _ds_shift(beta: float, delta: float, t):
    """delta e^{2 beta t} at a time or at each of an array of times."""
    with np.errstate(over="ignore"):
        arg = math.log(delta) + 2.0 * beta * np.asarray(t, dtype=float)
    # the profiles square the shift (dudt divides by (rho^2 + shift)^2), so it stays
    # within half the exp range: no overflow, and no underflow to 0 on the axis
    bad = arg[~(np.abs(arg) <= _EXP_MAX / 2.0)]
    if bad.size:
        raise DomainError(f"soliton time shift exp({bad.flat[0]}) leaves the float64 range; rescale first")
    return np.exp(arg)


def node_factor(spec: ExactSolutionSpec, coords: np.ndarray):
    """The terms of spec's u that depend on the nodes alone, for u_profile's factor:
    for Rosenau the node factor A and the shift k of the module docstring, for
    the other families None."""
    if spec.family != ROSENAU:
        return None
    ax = np.abs(np.asarray(coords, dtype=float))
    k = max(0.0, float(np.ceil(ax.max(initial=0.0))) - _ROSENAU_NODE_MAX)
    a = np.exp(ax - k)
    a += np.exp(-ax - k)
    return a, k


def u_profile(
    spec: ExactSolutionSpec, coords: np.ndarray, t: float | tuple[float, ...], out=None, factor=None
) -> np.ndarray:
    """u along the generator line (rho or x nodes) at time t.

    t may also be a tuple of times; row k of the result is then the profile
    at t[k], bitwise as if evaluated alone, and the rows go to out when
    given. Every family fills the rows as one (times x nodes) block in linear
    space (see the module docstring). factor is node_factor(spec, coords), for
    a caller that samples the same coords at many times.
    """
    times = np.array(t if isinstance(t, tuple) else (t,), dtype=float)[:, None]
    if times.size:
        # the existence interval is convex: the earliest and latest time decide
        # for all (a NaN time makes both NaN)
        check_time(spec, float(times.min()))
        check_time(spec, float(times.max()))
    c = np.asarray(coords, dtype=float)
    rows = np.empty((times.shape[0], c.size)) if out is None else out
    fam = spec.family
    # a row whose u leaves the float64 range can overflow (or meet 0 * inf), leaving
    # u = inf, 0 or NaN at some nodes, which every caller's positivity check rejects;
    # the Rosenau A q_k is finite on every row whose end nodes' u is a normal float64
    with np.errstate(over="ignore", invalid="ignore"):
        if fam == FLAT:
            rows.fill(1.0)
        elif fam == SPHERE:
            # dividing by 1 + rho^2 twice keeps u wherever it is a normal float64,
            # also where (1 + rho^2)^2 would overflow
            d = 1.0 + c * c
            np.divide(-8.0 * times, d, out=rows)
            rows /= d
        elif fam == ROSENAU:
            a, k = node_factor(spec, c) if factor is None else factor
            np.multiply(a, np.exp(times + k), out=rows)
            rows += 1.0 + np.exp(2.0 * times)
            np.divide(-np.expm1(2.0 * times), rows, out=rows)
        else:
            beta, delta = _ds_params(spec)
            np.add(c * c, _ds_shift(beta, delta, times), out=rows)
            np.divide(2.0 / beta, rows, out=rows)
    return rows if isinstance(t, tuple) else rows[0]


def log_u_profile(
    spec: ExactSolutionSpec, coords: np.ndarray, t: float | tuple[float, ...], out=None
) -> np.ndarray:
    """log u along the generator line: the log of u_profile(spec, coords, t, out)."""
    u = u_profile(spec, coords, t, out)
    return np.log(u, out=u)


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
        log_sinh = -t - _LOG2 + math.log(-math.expm1(2.0 * t))
        return np.exp(np.logaddexp(0.0, lcx + lct) - log_sinh - np.logaddexp(lcx, lct))
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
        return -np.exp(np.logaddexp(0.0, lcx + lct) - 2.0 * np.logaddexp(lcx, lct))
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
    check_positive(u_profile(spec, bounds, tuple(float(t) for t in times)))


def sample_grid(spec: ExactSolutionSpec, t: float, *, n: int, extent: float) -> ConformalGrid:
    """Sample the family at time t on n uniform nodes rho in [0, extent] (radial)
    or x in [-extent, extent] (cylinder)."""
    lo = 0.0 if spec.chart == RADIAL else -float(extent)
    if not (extent > 0.0 and float(extent) - lo < math.inf):
        raise DomainError(f"{spec.chart} sampling needs an extent > 0 with a finite width, got {extent}")
    nodes = np.linspace(lo, float(extent), int(n))
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
