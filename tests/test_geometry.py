import dataclasses
import math

import numpy as np
import pytest

from geomflow import exact, geometry
from geomflow.errors import DomainError
from geomflow.grids import CYLINDER, RADIAL, RELIABLE_MARGIN, ConformalGrid

TWO_PI = 2.0 * math.pi


def cigar_grid(n=2000, extent=50.0, t=0.0):
    return exact.sample_grid(exact.cigar(4.0), t, n=n, extent=extent)


def flat_grid(n=2000, extent=50.0):
    return exact.sample_grid(exact.flat(), 0.0, n=n, extent=extent)


def at(grid, profile, coord):
    """A node profile such as geometry.s_profile, read at a chart coordinate."""
    return float(np.interp(coord, grid.nodes, profile(grid)))


@pytest.mark.parametrize(
    "spec, t, kwargs, tol",
    [
        (exact.cigar(4.0), 0.0, dict(extent=50.0), 2e-3),
        (exact.cigar(4.0), -0.5, dict(extent=25.0), 6e-3),
        (exact.ds_soliton(0.7, 3.0), 0.25, dict(extent=50.0), 2e-3),
        (exact.sphere(), -1.0, dict(extent=30.0), 2e-3),
        (exact.rosenau(), -1.0, dict(extent=12.0), 1e-3),
        (exact.flat(), 0.0, dict(extent=50.0), 1e-14),
    ],
)
def test_curvature_field_matches_closed_form(spec, t, kwargs, tol):
    g = exact.sample_grid(spec, t, n=2000, **kwargs)
    r_hat = geometry.scalar_curvature(g)
    r_exact = exact.r_profile(spec, g.nodes, t)
    mask = g.reliable_mask()
    assert np.max(np.abs(r_hat[mask] - r_exact[mask])) < tol


@pytest.mark.parametrize(
    "spec, times, kwargs",
    [
        (exact.sphere(), (-3.0, -1.0, -0.25), dict(extent=10.0)),
        (exact.cigar(4.0), (-1.0, 0.0, 2.0), dict(extent=20.0)),
        (exact.rosenau(), (-4.0, -1.0, -0.1), dict(extent=12.0)),
    ],
)
def test_block_laplacian_and_curvature_rows_are_bitwise_the_row_results(spec, times, kwargs):
    # whole rows: the radial axis row and the one-sided end rows are compared too
    grids = [exact.sample_grid(spec, t, n=301, **kwargs) for t in times]
    nodes, h, chart = grids[0].nodes, grids[0].h, grids[0].chart
    U = np.stack([g.u for g in grids])
    W = np.log(U)
    lap = geometry.laplacian_field(W, nodes, h, chart)
    r = geometry.curvature_field(W, U, nodes, h, chart)
    for k in range(len(times)):
        assert np.array_equal(lap[k], geometry.laplacian_field(W[k], nodes, h, chart))
        assert np.array_equal(r[k], geometry.curvature_field(W[k], U[k], nodes, h, chart))


def test_axis_curvature_resolved_to_1e_6():
    assert abs(geometry.scalar_curvature(cigar_grid())[0] - 4.0) < 1e-6
    g = exact.sample_grid(exact.sphere(), -1.0, n=2000, extent=30.0)
    assert abs(geometry.scalar_curvature(g)[0] - 1.0) < 1e-6
    bump = geometry.curvature_bump_grid()
    assert abs(geometry.scalar_curvature(bump)[0] - 2.0 / 2.25) < 1e-6


@pytest.mark.parametrize(
    "spec, t, kwargs",
    [
        (exact.cigar(4.0), 0.0, dict(extent=50.0)),
        (exact.rosenau(), -1.0, dict(extent=12.0)),
    ],
)
def test_curvature_field_converges_at_order_two(spec, t, kwargs):
    errs = []
    for n in (500, 999):  # exact h halving
        g = exact.sample_grid(spec, t, n=n, **kwargs)
        r_hat = geometry.scalar_curvature(g)
        r_exact = exact.r_profile(spec, g.nodes, t)
        sl = g.reliable_slice()
        errs.append(float(np.max(np.abs(r_hat[sl] - r_exact[sl]))))
    assert 3.0 <= errs[0] / errs[1] <= 5.0


def test_geodesic_radius_cigar_closed_form():
    g = cigar_grid()
    assert at(g, geometry.s_profile, 1.0) == pytest.approx(math.asinh(1.0), rel=2e-4)
    assert geometry.s_profile(g)[-1] == pytest.approx(math.asinh(50.0), rel=1e-6)


def test_circle_length_and_ball_area_flat_exact():
    g = flat_grid()
    assert at(g, geometry.circle_length_profile, 7.0) == pytest.approx(TWO_PI * 7.0, rel=1e-12)
    rho = float(g.nodes[400])
    assert geometry.ball_area_profile(g)[400] == pytest.approx(math.pi * rho**2, rel=1e-12)
    assert at(g, geometry.ball_area_profile, 7.0) == pytest.approx(math.pi * 49.0, rel=1e-5)


def test_ball_area_cigar_closed_form():
    g = cigar_grid()
    assert at(g, geometry.ball_area_profile, 1.0) == pytest.approx(math.pi * math.log(2.0), rel=5e-4)


def test_total_curvature_cigar_quadrature_and_flux():
    g = cigar_grid()
    rep = geometry.invariant_report(g)
    assert abs(rep.tau - TWO_PI * 2500.0 / 2501.0) < 1e-3
    rho_r = float(g.nodes[-1 - RELIABLE_MARGIN])
    assert abs(rep.extras["tau_flux"] - TWO_PI * rho_r**2 / (1.0 + rho_r**2)) < 2e-6
    assert rep.extras["tau_disagreement"] < 1e-3
    assert rep.warnings == ()


def test_total_curvature_bump_hits_target():
    rep = geometry.invariant_report(geometry.curvature_bump_grid())
    assert abs(rep.tau - math.pi) < 1e-3
    assert abs(rep.extras["tau_flux"] - math.pi) < 1e-5
    assert rep.warnings == ()


def test_total_curvature_cylinder_sausage():
    g = exact.sample_grid(exact.rosenau(), -1.0, n=2000, extent=20.0)
    rep = geometry.invariant_report(g)
    # both cone-point caps contribute pi, the smooth part the rest
    assert abs(rep.tau - TWO_PI) < 1e-3
    assert abs(rep.extras["tau_flux"] - TWO_PI) < 1e-3
    assert rep.extras["tau_disagreement"] < 1e-3


def test_aperture_cigar():
    rep = geometry.invariant_report(cigar_grid())
    assert abs(rep.aperture) < 0.05
    assert rep.hartman_defect_length == abs(rep.aperture - rep.extras["aperture_hartman"])
    assert rep.hartman_defect_length < 1e-3
    assert rep.extras["aperture_ratio_raw"] > 1.0  # raw ratio at radius 4.6 is far from 0
    assert not any("aperture" in w for w in rep.warnings)


def test_aperture_flat():
    rep = geometry.invariant_report(flat_grid())
    assert rep.aperture == pytest.approx(TWO_PI, abs=1e-9)
    assert rep.extras["aperture_hartman"] == pytest.approx(TWO_PI, abs=1e-12)
    assert rep.hartman_defect_length < 1e-9


def test_aperture_cone():
    rep = geometry.invariant_report(geometry.curvature_bump_grid())
    assert abs(rep.aperture - math.pi) < 1e-3
    assert abs(rep.extras["aperture_hartman"] - math.pi) < 1e-3
    assert rep.hartman_defect_length < 1e-3
    assert not any("aperture" in w for w in rep.warnings)


def test_aperture_needs_radial_chart():
    # a cylinder has two ends: the report leaves every open-end limit unset
    g = exact.sample_grid(exact.rosenau(), -1.0, n=64, extent=8.0)
    rep = geometry.invariant_report(g)
    assert rep.aperture is None and rep.circumference is None and rep.avr is None
    assert rep.hartman_defect_length is None and rep.hartman_defect_area is None
    assert sorted(rep.extras) == ["tau_disagreement", "tau_flux"]


def test_volume_ratio_cigar():
    rep = geometry.invariant_report(cigar_grid())
    assert -1e-6 < rep.avr < 2e-3
    assert 0.3 < rep.extras["avr_ratio_raw"] < 0.45  # raw ratio cannot see the limit
    assert rep.extras["bg_defect"] < 1e-9
    assert not any("ball-volume" in w for w in rep.warnings)


def test_volume_ratio_flat():
    rep = geometry.invariant_report(flat_grid())
    assert abs(rep.avr - 1.0) < 1e-9
    assert abs(rep.extras["avr_ratio_raw"] - 1.0) < 1e-12
    assert rep.extras["bg_defect"] < 1e-12


def test_circumference_cigar():
    rep = geometry.invariant_report(cigar_grid())
    assert abs(rep.circumference - TWO_PI) < 1e-4
    assert rep.extras["circumference_raw"] < rep.circumference  # still climbing at the edge
    assert not any("circle lengths" in w for w in rep.warnings)


def test_circumference_flat_diverges():
    assert math.isinf(geometry.invariant_report(flat_grid()).circumference)


def test_circumference_cone_diverges_via_slope_trigger():
    bump = geometry.curvature_bump_grid()
    ell = geometry.circle_length_profile(bump)
    i_r = bump.n - 1 - RELIABLE_MARGIN
    i_half = bump.index_of(bump.extent / 2.0)
    assert ell[i_r] / ell[i_half] < 1.5  # dyadic ratio alone misses this cone
    assert math.isinf(geometry.invariant_report(bump).circumference)


def test_circumference_warns_when_not_monotone():
    g = exact.sample_grid(exact.sphere(), -1.0, n=2000, extent=30.0)
    rep = geometry.invariant_report(g)
    assert any("circle lengths are not monotone" in w for w in rep.warnings)


def test_average_curvature_cigar_closed_form():
    g = cigar_grid()
    expect = 2.0 * math.tanh(2.0) ** 2 / math.log(math.cosh(2.0))
    assert geometry.average_curvature_k(g, 2.0) == pytest.approx(expect, rel=1e-3)
    with pytest.raises(DomainError, match=r"^r=100.0 exceeds the reliable geodesic radius \S+$"):
        geometry.average_curvature_k(g, 100.0)
    with pytest.raises(DomainError, match="^average curvature needs r > 0$"):
        geometry.average_curvature_k(g, 0.0)


def test_average_curvature_flat_is_zero():
    assert abs(geometry.average_curvature_k(flat_grid(), 10.0)) < 1e-12


def test_sup_rk_cigar_radial():
    val = geometry.sup_r_times_k(cigar_grid())
    assert 2.7 < val < 3.0


def test_cylinder_cigar_fixture_matches_closed_form():
    g = geometry.cigar_cylinder_grid()
    assert g.chart == CYLINDER
    r_hat = geometry.scalar_curvature(g)
    s0 = math.asinh(math.exp(float(g.nodes[0])))
    s = s0 + geometry.s_profile(g)
    mask = g.reliable_mask()
    assert np.max(np.abs(r_hat[mask] - 4.0 / np.cosh(s[mask]) ** 2)) < 2e-3
    assert at(g, geometry.circle_length_profile, 10.0) == pytest.approx(TWO_PI, rel=1e-8)


def test_cylinder_cigar_r_times_k_reaches_radius_20():
    g = geometry.cigar_cylinder_grid()
    s0 = math.asinh(math.exp(float(g.nodes[0])))
    expect = 40.0 * math.tanh(20.0) ** 2 / math.log(math.cosh(20.0))
    got = 20.0 * geometry.average_curvature_k(g, 20.0 - s0)
    assert got == pytest.approx(expect, rel=1e-3)
    assert 1.9 < got < 2.1
    sup = geometry.sup_r_times_k(g)
    assert 2.8 < sup < 2.95


def test_invariant_report_cigar_fields_and_defects():
    rep = geometry.invariant_report(cigar_grid())
    assert list(rep.to_row()) == list(geometry.FIELD_ORDER)
    assert rep.t == 0.0
    assert abs(rep.tau - TWO_PI * 2500.0 / 2501.0) < 1e-3
    assert abs(rep.r_max - 4.0) < 1e-6
    floor = max(rep.extras["aperture_hartman"], TWO_PI / 100.0)
    assert rep.hartman_defect_length < 0.05 * floor
    assert rep.hartman_defect_area < 0.05 * floor
    assert rep.warnings == ()


def test_invariant_report_cone_defects():
    rep = geometry.invariant_report(geometry.curvature_bump_grid())
    floor = max(rep.extras["aperture_hartman"], TWO_PI / 100.0)
    assert rep.hartman_defect_length < 0.05 * floor
    assert rep.hartman_defect_area < 0.05 * floor
    assert abs(rep.aperture - math.pi) < 1e-3
    assert math.isinf(rep.circumference)


def test_invariant_report_cylinder_marks_open_limits():
    g = exact.sample_grid(exact.rosenau(), -1.0, n=2000, extent=20.0)
    rep = geometry.invariant_report(g)
    assert rep.aperture is None and rep.circumference is None
    assert rep.avr is None
    assert rep.hartman_defect_length is None and rep.hartman_defect_area is None
    assert abs(rep.tau - TWO_PI) < 1e-3
    assert abs(rep.r_max - 1.0 / math.tanh(1.0)) < 1e-3


def test_compact_positive_input_warns_on_total_curvature():
    g = exact.sample_grid(exact.sphere(), -1.0, n=2000, extent=30.0)
    rep = geometry.invariant_report(g)
    assert rep.tau > TWO_PI
    assert any("exceeds 2*pi" in w for w in rep.warnings)


def test_noncompact_inputs_do_not_warn_on_total_curvature():
    for rep in (
        geometry.invariant_report(cigar_grid()),
        geometry.invariant_report(geometry.curvature_bump_grid()),
    ):
        assert not any("exceeds" in w for w in rep.warnings)


def test_constant_rescaling_covariance():
    g = cigar_grid()
    g2 = dataclasses.replace(g, u=4.0 * g.u)  # homothety g -> 4g: lengths double, R quarters
    # log(4u) vs log(u) roundoff is amplified by 1/(h^2 u) in the far field
    assert np.allclose(
        geometry.scalar_curvature(g2), 0.25 * geometry.scalar_curvature(g), rtol=1e-6, atol=1e-8
    )
    rep, rep2 = geometry.invariant_report(g), geometry.invariant_report(g2)
    assert rep2.tau == pytest.approx(rep.tau, rel=1e-9)
    assert rep2.aperture == pytest.approx(rep.aperture, rel=1e-9)
    assert rep2.avr == pytest.approx(rep.avr, rel=1e-9)
    assert geometry.sup_r_times_k(g2) == pytest.approx(0.5 * geometry.sup_r_times_k(g), rel=1e-9)
    assert geometry.s_profile(g2)[-1] == pytest.approx(2.0 * geometry.s_profile(g)[-1], rel=1e-12)
    assert geometry.ball_area_profile(g2)[-1] == pytest.approx(
        4.0 * geometry.ball_area_profile(g)[-1], rel=1e-12
    )


@pytest.mark.parametrize(
    "op, expect",
    [
        (lambda g: geometry.s_profile(g)[-1], math.asinh(20.0)),
        (lambda g: geometry.ball_area_profile(g)[-1], math.pi * math.log(401.0)),
        (lambda g: geometry.invariant_report(g).tau, TWO_PI * 400.0 / 401.0),
    ],
)
def test_quadrature_ops_converge_at_order_two(op, expect):
    errs = []
    for n in (501, 1001):
        g = exact.sample_grid(exact.cigar(4.0), 0.0, n=n, extent=20.0)
        errs.append(abs(op(g) - expect))
    assert 3.0 <= errs[0] / errs[1] <= 5.0


def test_curvature_bump_grid_properties():
    bump = geometry.curvature_bump_grid()
    assert bump.u[0] == pytest.approx(1.0, abs=1e-15)
    assert np.all(np.diff(bump.u) < 0.0)
    r = geometry.scalar_curvature(bump)
    assert float(r[bump.reliable_mask()].min()) > -1e-6
    assert float(r[:200].min()) > 1e-3  # bump region is genuinely curved


# Reference: the per-invariant estimators that invariant_report replaced, one
# function per invariant, each building its own profiles.
def _outer(grid):
    return grid.n - 1 - RELIABLE_MARGIN


def _tail(grid, width_divisor, minimum):
    i_r = _outer(grid)
    width = max(minimum, grid.n // width_divisor)
    return slice(max(1, i_r - width + 1), i_r + 1)


def _centered(w, h, i):
    return (w[i + 1] - w[i - 1]) / (2.0 * h)


def reference_total_curvature(grid, r_field):
    w, h = np.log(grid.u), grid.h
    if grid.chart == RADIAL:
        quad = math.pi * np.trapezoid(r_field * grid.u * grid.nodes, grid.nodes)
        i_r = _outer(grid)
        i_half = max(2, grid.index_of(grid.extent / 2.0))
        flux = -math.pi * grid.nodes[i_r] * _centered(w, h, i_r)
        flux_half = -math.pi * grid.nodes[i_half] * _centered(w, h, i_half)
    else:
        quad = math.pi * np.trapezoid(r_field * grid.u, grid.nodes)
        i_lo, i_r = RELIABLE_MARGIN, _outer(grid)
        span = i_r - i_lo
        j_lo, j_r = i_lo + span // 4, i_r - span // 4
        flux = -math.pi * (_centered(w, h, i_r) - _centered(w, h, i_lo))
        flux_half = -math.pi * (_centered(w, h, j_r) - _centered(w, h, j_lo))
    warnings = []
    if abs(flux - flux_half) > 1e-2 * max(abs(flux), abs(quad), 1e-30):
        warnings.append("boundary flux not stabilized at the sampled extent")
    return float(quad), float(flux), float(abs(quad - flux)), warnings


def reference_aperture(grid, tau):
    s, ell = geometry.s_profile(grid), geometry.circle_length_profile(grid)
    win = _tail(grid, 50, 7)
    direct = float(np.polyfit(s[win], ell[win], 1)[0])
    hartman = TWO_PI - tau
    i_r = _outer(grid)
    warnings = []
    if abs(direct - hartman) > 0.05 * max(abs(hartman), TWO_PI / 100.0):
        warnings.append("direct aperture and 2*pi - tau disagree beyond 5%")
    return direct, float(hartman), float(ell[i_r] / s[i_r]), warnings


def reference_circumference(grid, slope):
    ell = geometry.circle_length_profile(grid)
    i_r = _outer(grid)
    i_half = max(1, grid.index_of(grid.extent / 2.0))
    raw = float(ell[i_r])
    warnings = []
    drops = np.diff(ell[grid.reliable_slice()])
    if drops.size and float(drops.min()) < -1e-9 * max(raw, 1.0):
        warnings.append("circle lengths are not monotone; limit estimate unreliable")
    if ell[i_r] / max(ell[i_half], 1e-300) > 1.5 or slope > TWO_PI / 20.0:
        return math.inf, raw, warnings
    return float(ell[i_r] + (ell[i_r] - ell[i_half]) / 3.0), raw, warnings


def reference_volume_ratio(grid):
    s, area = geometry.s_profile(grid), geometry.ball_area_profile(grid)
    win = _tail(grid, 40, 9)
    s_w = s[win] - float(np.mean(s[win]))
    second = 2.0 * float(np.polyfit(s_w, area[win], 2)[0])
    i_r = _outer(grid)
    ratio = area[1 : i_r + 1] / (math.pi * s[1 : i_r + 1] ** 2)
    increments = np.diff(ratio)
    bg_defect = float(max(0.0, increments.max())) if increments.size else 0.0
    warnings = []
    if bg_defect > 1e-6:
        warnings.append("ball-volume ratio is not monotone (curvature sign?)")
    return second / TWO_PI, float(ratio[-1]), second, bg_defect, warnings


def reference_report(grid):
    r_field = geometry.scalar_curvature(grid)
    tau, flux, disagreement, warnings = reference_total_curvature(grid, r_field)
    mask = grid.reliable_mask()
    fields = dict(t=grid.t, tau=tau, r_max=float(r_field[mask].max()))
    extras = {"tau_flux": flux, "tau_disagreement": disagreement}
    if grid.chart != RADIAL:
        fields.update(
            aperture=None, circumference=None, avr=None,
            hartman_defect_length=None, hartman_defect_area=None,
        )
        return fields, tuple(warnings), extras
    direct, hartman, ap_raw, ap_warn = reference_aperture(grid, tau)
    circ, circ_raw, circ_warn = reference_circumference(grid, direct)
    avr, avr_raw, second, bg_defect, avr_warn = reference_volume_ratio(grid)
    warnings += ap_warn + circ_warn + avr_warn
    if float(r_field[mask].min()) > -1e-6 and tau > TWO_PI + 1e-2:
        warnings.append(
            "total curvature exceeds 2*pi: input is not a complete noncompact "
            "positive-curvature surface"
        )
    fields.update(
        aperture=direct,
        circumference=circ,
        avr=avr,
        hartman_defect_length=float(abs(direct - hartman)),
        hartman_defect_area=float(abs(second - hartman)),
    )
    extras.update(
        aperture_hartman=hartman,
        aperture_ratio_raw=ap_raw,
        avr_ratio_raw=avr_raw,
        avr_second_derivative=second,
        bg_defect=bg_defect,
        circumference_raw=circ_raw,
    )
    return fields, tuple(warnings), extras


def _negative_cone():
    bump = geometry.curvature_bump_grid()
    return ConformalGrid(bump.chart, bump.nodes, 1.0 / bump.u, 0.0)


@pytest.mark.parametrize(
    "make",
    [
        lambda: cigar_grid(),
        lambda: cigar_grid(t=0.3),
        lambda: flat_grid(),
        lambda: exact.sample_grid(exact.sphere(), -1.0, n=2000, extent=30.0),
        lambda: exact.sample_grid(exact.ds_soliton(0.7, 3.0), 0.25, n=2000, extent=50.0),
        lambda: exact.sample_grid(exact.rosenau(), -1.0, n=2000, extent=20.0),
        lambda: cigar_grid(extent=1.0),
        geometry.curvature_bump_grid,
        geometry.cigar_cylinder_grid,
        # the coarsest layouts, and the aperture and Bishop-Gromov warnings
        lambda: cigar_grid(n=16),
        lambda: exact.sample_grid(exact.rosenau(), -1.0, n=16, extent=8.0),
        _negative_cone,
    ],
    ids=[
        "cigar", "cigar-t0.3", "flat", "sphere", "dssoliton", "rosenau", "cigar-extent1",
        "bump", "cigar-cylinder", "cigar-n16", "rosenau-n16", "negative-cone",
    ],
)
def test_invariant_report_equals_the_per_invariant_reference(make):
    grid = make()
    rep = geometry.invariant_report(grid)
    fields, warnings, extras = reference_report(grid)
    assert {name: getattr(rep, name) for name in fields} == fields
    assert rep.warnings == warnings
    assert rep.extras == extras
    # Python floats, as the reference's: the CSV writer renders their repr
    assert all(type(getattr(rep, k)) is type(v) for k, v in fields.items())
    assert all(type(rep.extras[k]) is type(v) for k, v in extras.items())
