import math

import numpy as np
import pytest

from geomflow import embedding, exact, geometry
from geomflow.errors import DomainError

TWO_PI = 2.0 * math.pi


def cigar_profile_fixture(r0=4.0, n=2000, extent=50.0):
    grid = exact.sample_grid(exact.cigar(r0), 0.0, n=n, extent=extent)
    return grid, embedding.profile_from_metric(grid)


def cap_grid(t=-0.5, n=800, extent=1.0):
    # extent 1 ends exactly at the equator of the round family at this t
    return exact.sample_grid(exact.sphere(), t, n=n, extent=extent)


def test_cigar_profile_matches_tanh():
    _, prof = cigar_profile_fixture()
    assert float(np.abs(prof.hcirc - np.tanh(prof.s)).max()) < 1e-4
    assert prof.hprime[0] == pytest.approx(1.0, abs=1e-3)
    assert np.all(prof.hprime >= 0.0)
    assert np.all(prof.hprime <= 1.0)


def test_flat_profile_is_the_identity():
    grid = exact.sample_grid(exact.flat(), 0.0, n=500, extent=20.0)
    prof = embedding.profile_from_metric(grid)
    np.testing.assert_allclose(prof.hcirc, prof.s, rtol=0.0, atol=1e-12)
    np.testing.assert_allclose(prof.hprime, 1.0, rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("t", [-0.5, -2.0])
def test_cap_profile_matches_scaled_sine(t):
    grid = cap_grid(t=t)
    prof = embedding.profile_from_metric(grid)
    a = math.sqrt(-2.0 * t)
    assert float(np.abs(prof.hcirc - a * np.sin(prof.s / a)).max()) < 1e-6
    # the slope closes to 0 at the equator
    assert prof.hprime[-1] == pytest.approx(0.0, abs=5e-3)


def test_profile_rejects_past_equator_caps():
    grid = exact.sample_grid(exact.sphere(), -0.5, n=800, extent=2.0)
    with pytest.raises(DomainError, match=r"^metric is not realizable .*\(past an equator\)$"):
        embedding.profile_from_metric(grid)


def test_profile_needs_radial_chart():
    grid = exact.sample_grid(exact.rosenau(), -1.0, n=200, x_lo=-5.0, x_hi=5.0)
    with pytest.raises(DomainError):
        embedding.profile_from_metric(grid)


def test_profile_validation_rejects_malformed_arrays():
    s = np.array([0.0, 1.0, 2.0, 3.0])
    h = np.array([0.0, 0.9, 1.5, 1.9])
    hp = np.array([1.0, 0.8, 0.5, 0.3])
    embedding.RevolutionProfile(s=s, hcirc=h, hprime=hp)
    with pytest.raises(DomainError):
        embedding.RevolutionProfile(s=s[:3], hcirc=h, hprime=hp)
    with pytest.raises(DomainError):
        embedding.RevolutionProfile(s=s + 1.0, hcirc=h, hprime=hp)
    with pytest.raises(DomainError):
        embedding.RevolutionProfile(s=s, hcirc=h + 0.1, hprime=hp)
    with pytest.raises(DomainError):
        embedding.RevolutionProfile(s=np.array([0.0, 2.0, 1.0, 3.0]), hcirc=h, hprime=hp)


def test_embed_propagates_obstructions():
    s = np.array([0.0, 1.0, 2.0, 3.0])
    too_steep = embedding.RevolutionProfile(
        s=s, hcirc=np.array([0.0, 1.2, 2.4, 3.6]), hprime=np.array([1.2, 1.2, 1.2, 1.2])
    )
    with pytest.raises(DomainError, match=r"^metric is not realizable .*\(circles outgrow the flat rate\)"):
        embedding.embed(too_steep)
    past_equator = embedding.RevolutionProfile(
        s=s, hcirc=np.array([0.0, 0.9, 0.5, 0.2]), hprime=np.array([1.0, 0.2, -0.5, -0.2])
    )
    with pytest.raises(DomainError, match=r"^metric is not realizable .*\(past an equator\)$"):
        embedding.embed(past_equator)


def test_embedded_cigar_shape():
    _, prof = cigar_profile_fixture()
    surf = embedding.embed(prof)
    assert surf.z[0] == 0.0 and surf.r[0] == 0.0
    assert np.all(np.diff(surf.z) >= 0.0)
    assert np.all(surf.r < 1.0)
    # meridian approaches the unit cylinder at unit height rate
    k = int(np.searchsorted(surf.s, 3.0))
    tail_rate = (surf.z[-1] - surf.z[k]) / (surf.s[-1] - surf.s[k])
    assert tail_rate == pytest.approx(1.0, abs=1e-4)


def test_embedding_is_isometric_round_trip():
    _, prof = cigar_profile_fixture(n=600, extent=30.0)
    surf = embedding.embed(prof)
    assert np.array_equal(surf.r, prof.hcirc)
    rebuilt = np.gradient(surf.r, surf.s)
    assert float(np.abs(rebuilt - prof.hprime).max()) < 1e-12
    slope = np.clip(prof.hprime, 0.0, 1.0)
    zprime = np.sqrt(1.0 - slope**2)
    assert float(np.abs(slope**2 + zprime**2 - 1.0).max()) < 1e-15


def test_flat_embeds_as_the_plane():
    grid = exact.sample_grid(exact.flat(), 0.0, n=500, extent=20.0)
    surf = embedding.embed(embedding.profile_from_metric(grid))
    assert np.all(surf.z == 0.0)


def test_level_lengths_on_the_cigar():
    _, prof = cigar_profile_fixture()
    surf = embedding.embed(prof)
    lengths = embedding.level_lengths(surf, [1.0, 2.0, 3.0])
    expected = [5.64203536, 6.19330175, 6.27094765]
    np.testing.assert_allclose(lengths, expected, rtol=1e-6)
    assert np.all(np.diff(lengths) > 0.0)
    assert np.all(lengths < TWO_PI)


def test_level_lengths_grow_to_the_equator():
    surf = embedding.embed(embedding.profile_from_metric(cap_grid()))
    heights = np.linspace(0.0, float(surf.z[-1]), 9)
    lengths = embedding.level_lengths(surf, heights)
    assert np.all(np.diff(lengths) >= 0.0)
    assert lengths[0] == 0.0
    assert lengths[-1] == pytest.approx(TWO_PI, rel=1e-6)


def test_level_lengths_range_errors():
    _, prof = cigar_profile_fixture(n=600, extent=30.0)
    surf = embedding.embed(prof)
    with pytest.raises(DomainError, match=r"^heights must lie within the embedded range \[0, "):
        embedding.level_lengths(surf, [float(surf.z[-1]) + 1.0])
    with pytest.raises(DomainError, match=r"^heights must lie within the embedded range \[0, "):
        embedding.level_lengths(surf, [-0.5])


def test_level_lengths_reject_plane_graphs():
    grid = exact.sample_grid(exact.flat(), 0.0, n=500, extent=20.0)
    surf = embedding.embed(embedding.profile_from_metric(grid))
    with pytest.raises(DomainError, match="^surface is a plane graph with z = 0 everywhere"):
        embedding.level_lengths(surf, [0.0])


@pytest.mark.parametrize(
    "r0,target",
    [(4.0, TWO_PI), (1.0, 2.0 * TWO_PI)],
)
def test_circumference_and_width_match_soliton_scale(r0, target):
    extent = 50.0 if r0 == 4.0 else 100.0
    _, prof = cigar_profile_fixture(r0=r0, extent=extent)
    surf = embedding.embed(prof)
    c, w = embedding.circumference_and_width(surf)
    assert w == c
    assert c == pytest.approx(target, rel=1e-2)
    assert c == pytest.approx(target, rel=1e-5)


def test_circumference_agrees_with_circle_length_limit():
    grid, prof = cigar_profile_fixture()
    surf = embedding.embed(prof)
    c, _ = embedding.circumference_and_width(surf)
    geo = geometry.invariant_report(grid).circumference
    assert c == pytest.approx(geo, rel=1e-2)
    assert np.all(surf.r < c / TWO_PI)


def test_circumference_divergence_sentinel_on_the_plane():
    grid = exact.sample_grid(exact.flat(), 0.0, n=500, extent=20.0)
    surf = embedding.embed(embedding.profile_from_metric(grid))
    c, w = embedding.circumference_and_width(surf)
    assert math.isinf(c) and math.isinf(w)


def test_unit_circumference_pins_tip_curvature():
    # the soliton with circumference 2 pi has tip curvature exactly 4
    grid, prof = cigar_profile_fixture()
    c, _ = embedding.circumference_and_width(embedding.embed(prof))
    assert c == pytest.approx(TWO_PI, rel=1e-2)
    tip = float(geometry.scalar_curvature(grid)[0])
    assert tip == pytest.approx(4.0, abs=1e-6)


def test_surface_validation_rejects_malformed_arrays():
    s = np.array([0.0, 1.0, 2.0])
    r = np.array([0.0, 0.8, 1.5])
    z = np.array([0.0, 0.5, 1.2])
    embedding.EmbeddedSurface(s=s, r=r, z=z)
    with pytest.raises(DomainError):
        embedding.EmbeddedSurface(s=s, r=r + 0.1, z=z)
    with pytest.raises(DomainError):
        embedding.EmbeddedSurface(s=s, r=r, z=z - 0.1)
    with pytest.raises(DomainError):
        embedding.EmbeddedSurface(s=s, r=r, z=np.array([0.0, 1.0, 0.5]))
    with pytest.raises(DomainError):
        embedding.EmbeddedSurface(s=s, r=r, z=z[:2])
