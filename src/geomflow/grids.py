"""Sampled rotationally symmetric conformal metrics on uniform 1-d grids.

A grid stores the conformal factor u > 0 of g = u * (flat chart metric) at
uniformly spaced nodes of one generator line:

  radial   : nodes are rho in [0, extent], g = u(rho) (drho^2 + rho^2 dtheta^2)
             written conformally on the plane, u sampled along a ray;
  cylinder : nodes are x in [a, b], g = u(x) (dx^2 + dtheta^2) on
             R x S^1 with theta of period 2*pi.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .errors import DomainError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for annotations only
    from .exact import ExactSolutionSpec

RADIAL = "radial"
CYLINDER = "cylinder"
CHARTS = (RADIAL, CYLINDER)

# Outermost nodes use one-sided stencils and feel the boundary condition;
# reported extrema and tail estimates stay this many nodes inside.
RELIABLE_MARGIN = 5

# The one trust floor of pointwise curvature statistics (trust_mask), on
# sampled and evolved data alike. R = -lap(log u)/u divides a second
# difference by u, so any error in log u (rounding, or the O(h^2 + dt^2)
# integration error of a run) is amplified like 1/u; below u ~ 1e-5 that
# exceeds the ~1e-4 accuracy the statistics promise (measured on
# boundary-pinned runs), while the discarded tail carries curvature within
# 1e-6 of the retained region's values. Integrated quantities keep such
# nodes (the 1/u amplification cancels against the measure).
CURVATURE_TRUST_FLOOR = 1.0e-5

MIN_NODES = 16

# The stencils divide by h*h and the closed forms square node coordinates, so
# a layout must keep h*h a normal float64 and every node's square finite.
MAX_NODE = float(np.sqrt(np.finfo(float).max))


def readonly(a: np.ndarray) -> np.ndarray:
    """Float array that cannot be written; an already read-only input is shared."""
    out = np.asarray(a, dtype=float)
    if out.flags.writeable:
        out = out.copy()
        out.setflags(write=False)
    return out


def cumulative_trapezoid(y: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Running trapezoid integral of y over x from 0 at x[0], bit-identical to scipy's formula."""
    return np.concatenate(([0.0], np.cumsum(np.diff(x) * (y[1:] + y[:-1]) / 2.0)))


def check_layout(chart: str, nodes: np.ndarray) -> float:
    """Validate a chart's node layout and return its uniform spacing h."""
    if chart not in CHARTS:
        raise DomainError(f"unknown chart {chart!r}")
    n = nodes.size
    if n < MIN_NODES:
        raise DomainError(f"grid needs at least {MIN_NODES} nodes, got {n}")
    steps = np.diff(nodes)
    h = float(steps[0])
    # np.allclose's verdict (a NaN step fails) at a third of its cost; h is finite,
    # so no step minus h is inf - inf
    if not 0.0 < h < math.inf or not np.abs(steps - h).max() <= 1e-9 * h:
        raise DomainError("nodes must be uniformly spaced and increasing")
    if h * h < np.finfo(float).tiny:
        raise DomainError(f"node spacing {h:.6g} is too small: its square underflows")
    if max(abs(float(nodes[0])), abs(float(nodes[-1]))) > MAX_NODE:
        raise DomainError(f"nodes must lie within +-{MAX_NODE:.6g}, where their squares stay finite")
    if chart == RADIAL and abs(float(nodes[0])) > 1e-12 * h:
        raise DomainError("radial grids must start at the axis rho = 0")
    return h


def check_positive(u: np.ndarray) -> None:
    # NaN fails both comparisons, so two reductions decide; no mask the size of u
    if not (u.min() > 0.0 and u.max() < np.inf):
        raise DomainError("conformal factor must be finite and positive")


def reliable_slice(chart: str, n: int) -> slice:
    """Nodes far enough from outer boundaries to trust pointwise stats."""
    if chart == RADIAL:
        return slice(0, n - RELIABLE_MARGIN)
    return slice(RELIABLE_MARGIN, n - RELIABLE_MARGIN)


def trust_mask(u: np.ndarray, chart: str, out=None) -> np.ndarray:
    """Reliable-slice nodes of u with u >= CURVATURE_TRUST_FLOOR, for one row or a
    (rows, nodes) block: the one rule of every pointwise curvature statistic.

    A row with no such node keeps its best-conditioned node (the argmax of u),
    so maxima over the mask are always defined. The mask goes to out, a bool
    array of u's shape, when given.
    """
    mask = np.empty(u.shape, dtype=bool) if out is None else out
    rel = reliable_slice(chart, u.shape[-1])
    mask[..., : rel.start] = False
    mask[..., rel.stop :] = False
    np.greater_equal(u[..., rel], CURVATURE_TRUST_FLOOR, out=mask[..., rel])
    empty = ~mask.any(axis=-1)
    if empty.any():
        mask[empty, np.argmax(u[empty], axis=-1)] = True
    return mask


@dataclass(frozen=True)
class ConformalGrid:
    """Immutable snapshot of a conformal factor at time t on one chart."""

    chart: str
    nodes: np.ndarray
    u: np.ndarray
    t: float
    provenance: "ExactSolutionSpec | None" = None
    h: float = field(init=False)

    def __post_init__(self):
        nodes = readonly(self.nodes)
        u = readonly(self.u)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "u", u)
        if nodes.ndim != 1 or nodes.shape != u.shape:
            raise DomainError("nodes and u must be matching 1-d arrays")
        object.__setattr__(self, "h", check_layout(self.chart, nodes))
        check_positive(u)
        if not math.isfinite(self.t):
            raise DomainError(f"grid time must be finite, got {self.t}")

    @property
    def n(self) -> int:
        return self.nodes.size

    @property
    def extent(self) -> float:
        return float(self.nodes[-1])

    def reliable_slice(self) -> slice:
        """Nodes far enough from outer boundaries to trust pointwise stats."""
        return reliable_slice(self.chart, self.n)

    def index_of(self, coord: float) -> int:
        """Nearest node index for a coordinate inside the extent."""
        lo, hi = float(self.nodes[0]), float(self.nodes[-1])
        if coord < lo - 1e-12 or coord > hi + 1e-12:
            raise DomainError(f"coordinate {coord} outside [{lo}, {hi}]")
        return int(round((coord - lo) / self.h))
