"""Surfaces of revolution realizing rotationally symmetric metrics.

A radial metric u (dρ² + ρ²dθ²) rewrites as ds² + h(s)²dθ² with s the
geodesic radius and h = ρ√u the circumferential radius. When 0 ≤ h′ ≤ 1
the metric embeds in R³ as the rotation of the curve (h(s), z(s)) with
z′ = √(1 - h′²): the induced first fundamental form is then
(h′² + z′²) ds² + h²dθ² = ds² + h²dθ², an isometry by construction.
h′ > 1 (circles outgrowing the flat rate) or h′ < 0 past an equator
obstruct the graph realization; the plane h ≡ s embeds degenerately
with z ≡ 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateSurfaceError,
    DomainError,
    EmbeddingObstructionError,
    ExtentError,
)
from .geometry import TWO_PI, circle_length_profile, s_profile
from .grids import RADIAL, ConformalGrid, cumulative_trapezoid

# h' beyond [-OBSTRUCTION_TOL, 1 + OBSTRUCTION_TOL] blocks the embedding;
# inside the band, excursions are discretization slack and get clamped to
# [0, 1] before the height quadrature (the smooth tip sits exactly at
# h' = 1, so roundoff alone can poke above it).
OBSTRUCTION_TOL = 1e-3

# slopes this close to 1 are the smooth tip seen through roundoff; they
# snap to exactly 1 so the height integrand vanishes instead of picking
# up sqrt(eps) spikes
CLAMP_TOL = 1e-8

# a tail still climbing at h' > 0.05 has no finite circumference to
# extrapolate (same cutoff as the aperture divergence trigger, 2pi/20,
# expressed per unit circumferential radius)
DIVERGENCE_SLOPE = 0.05


@dataclass(frozen=True)
class RevolutionProfile:
    """Geodesic radius s, circumferential radius h(s), and discrete h'(s)."""

    s: np.ndarray
    hcirc: np.ndarray
    hprime: np.ndarray

    def __post_init__(self):
        if not (self.s.shape == self.hcirc.shape == self.hprime.shape) or self.s.ndim != 1:
            raise DomainError("profile needs matching 1-d s, hcirc, hprime arrays")
        if self.s.size < 4:
            raise DomainError("profile needs at least 4 samples")
        if self.s[0] != 0.0 or self.hcirc[0] != 0.0:
            raise DomainError("profile must start at the tip s = 0, h = 0")
        if np.any(np.diff(self.s) <= 0.0):
            raise DomainError("geodesic radius samples must be strictly increasing")


@dataclass(frozen=True)
class EmbeddedSurface:
    """Rotation of the meridian (r(s), z(s)) about the z axis, tip at the origin."""

    s: np.ndarray
    r: np.ndarray
    z: np.ndarray

    def __post_init__(self):
        if not (self.s.shape == self.r.shape == self.z.shape) or self.s.ndim != 1:
            raise DomainError("surface needs matching 1-d s, r, z arrays")
        if self.z[0] != 0.0 or self.r[0] != 0.0:
            raise DomainError("surface tip must sit at (r, z) = (0, 0)")
        if np.any(np.diff(self.z) < 0.0):
            raise DomainError("surface height must be nondecreasing")


def _check_slopes(hprime: np.ndarray, s: np.ndarray) -> None:
    lo = float(hprime.min())
    hi = float(hprime.max())
    if lo < -OBSTRUCTION_TOL or hi > 1.0 + OBSTRUCTION_TOL:
        worst = []
        if hi > 1.0 + OBSTRUCTION_TOL:
            k = int(np.argmax(hprime))
            worst.append(f"h' = {hi:.6g} at s = {float(s[k]):.6g} (circles outgrow the flat rate)")
        if lo < -OBSTRUCTION_TOL:
            k = int(np.argmin(hprime))
            worst.append(f"h' = {lo:.6g} at s = {float(s[k]):.6g} (past an equator)")
        raise EmbeddingObstructionError(
            "metric is not realizable as a revolution graph: " + "; ".join(worst)
        )


def profile_from_metric(grid: ConformalGrid) -> RevolutionProfile:
    """Level geometry h(s) = ρ√u of a radial metric, tip at s = 0."""
    if grid.chart != RADIAL:
        raise DomainError("revolution profiles need a radial-chart grid")
    s = s_profile(grid)
    hcirc = circle_length_profile(grid) / TWO_PI
    hprime = np.gradient(hcirc, s)
    _check_slopes(hprime, s)
    return RevolutionProfile(s=s, hcirc=hcirc, hprime=hprime)


def embed(profile: RevolutionProfile) -> EmbeddedSurface:
    """Meridian curve with z by quadrature of √(1 - h'²), tip at the origin."""
    _check_slopes(profile.hprime, profile.s)
    slope = np.clip(profile.hprime, 0.0, 1.0)
    slope[profile.hprime >= 1.0 - CLAMP_TOL] = 1.0
    z = cumulative_trapezoid(np.sqrt(1.0 - slope**2), profile.s)
    return EmbeddedSurface(s=profile.s.copy(), r=profile.hcirc.copy(), z=z)


def level_lengths(surface: EmbeddedSurface, heights) -> np.ndarray:
    """Lengths 2π r of the level circles z = c for each requested height."""
    z = surface.z
    z_max = float(z[-1])
    if not z_max > 0.0:
        raise DegenerateSurfaceError(
            "surface is a plane graph with z = 0 everywhere; levels are not circles"
        )
    heights = np.asarray(heights, dtype=float)
    tol = 1e-12 * max(1.0, z_max)
    if heights.size and (heights.min() < -tol or heights.max() > z_max + tol):
        raise ExtentError(
            f"heights must lie within the embedded range [0, {z_max:.6g}]"
        )
    return TWO_PI * np.interp(heights, z, surface.r)


def circumference_and_width(surface: EmbeddedSurface) -> tuple[float, float]:
    """Circumference at infinity and width from the meridian tail.

    The tail of h is extrapolated through three samples spaced over the
    last quarter of the geodesic range (exact for h = limit - a e^{-bs}).
    For rotationally symmetric metrics the width equals the circumference,
    so the pair reports one limit twice. Returns (inf, inf) when the tail
    still grows too fast to have a finite limit.
    """
    s = surface.s
    r = surface.r
    d = (float(s[-1]) - float(s[0])) / 8.0
    probes = np.array([float(s[-1]) - 2.0 * d, float(s[-1]) - d, float(s[-1])])
    h0, h1, h2 = np.interp(probes, s, r)
    if (h2 - h0) / (2.0 * d) > DIVERGENCE_SLOPE:
        return (math.inf, math.inf)
    contraction = (h1 - h0) - (h2 - h1)
    if not contraction > 0.0:
        return (math.inf, math.inf)
    limit = h2 + (h2 - h1) ** 2 / contraction
    circumference = TWO_PI * float(limit)
    return (circumference, circumference)
