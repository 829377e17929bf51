import math

import numpy as np
import pytest

from geomflow import exact, geometry
from geomflow.errors import DomainError, ExtentError
from geomflow.grids import CYLINDER, RELIABLE_MARGIN

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
    res = geometry.total_curvature(g)
    assert abs(res.value - TWO_PI * 2500.0 / 2501.0) < 1e-3
    rho_r = float(g.nodes[-1 - RELIABLE_MARGIN])
    assert abs(res.flux - TWO_PI * rho_r**2 / (1.0 + rho_r**2)) < 2e-6
    assert res.disagreement < 1e-3
    assert res.warnings == ()


def test_total_curvature_bump_hits_target():
    res = geometry.total_curvature(geometry.curvature_bump_grid())
    assert abs(res.value - math.pi) < 1e-3
    assert abs(res.flux - math.pi) < 1e-5
    assert res.warnings == ()


def test_total_curvature_cylinder_sausage():
    g = exact.sample_grid(exact.rosenau(), -1.0, n=2000, extent=20.0)
    res = geometry.total_curvature(g)
    # both cone-point caps contribute pi, the smooth part the rest
    assert abs(res.value - TWO_PI) < 1e-3
    assert abs(res.flux - TWO_PI) < 1e-3
    assert res.disagreement < 1e-3


def test_aperture_cigar():
    ap = geometry.aperture(cigar_grid())
    assert abs(ap.direct) < 0.05
    assert abs(ap.direct - ap.hartman) < 1e-3
    assert ap.ratio_at_radius > 1.0  # raw ratio at radius 4.6 is far from 0
    assert ap.warnings == ()


def test_aperture_flat():
    ap = geometry.aperture(flat_grid())
    assert ap.direct == pytest.approx(TWO_PI, abs=1e-9)
    assert ap.hartman == pytest.approx(TWO_PI, abs=1e-12)
    assert ap.gap < 1e-9


def test_aperture_cone():
    ap = geometry.aperture(geometry.curvature_bump_grid())
    assert abs(ap.direct - math.pi) < 1e-3
    assert abs(ap.hartman - math.pi) < 1e-3
    assert ap.gap < 1e-3
    assert ap.warnings == ()


def test_aperture_needs_radial_chart():
    g = exact.sample_grid(exact.rosenau(), -1.0, n=64, extent=8.0)
    with pytest.raises(DomainError):
        geometry.aperture(g)
    with pytest.raises(DomainError):
        geometry.asymptotic_volume_ratio(g)
    with pytest.raises(DomainError):
        geometry.circumference_at_infinity(g)


def test_volume_ratio_cigar():
    res = geometry.asymptotic_volume_ratio(cigar_grid())
    assert -1e-6 < res.value < 2e-3
    assert 0.3 < res.ratio_at_radius < 0.45  # raw ratio cannot see the limit
    assert res.bg_defect < 1e-9
    assert res.warnings == ()


def test_volume_ratio_flat():
    res = geometry.asymptotic_volume_ratio(flat_grid())
    assert abs(res.value - 1.0) < 1e-9
    assert abs(res.ratio_at_radius - 1.0) < 1e-12
    assert res.bg_defect < 1e-12


def test_circumference_cigar():
    res = geometry.circumference_at_infinity(cigar_grid())
    assert abs(res.value - TWO_PI) < 1e-4
    assert res.raw < res.value  # circle lengths still climbing at the edge
    assert res.warnings == ()


def test_circumference_flat_diverges():
    assert math.isinf(geometry.circumference_at_infinity(flat_grid()).value)


def test_circumference_cone_diverges_via_slope_trigger():
    bump = geometry.curvature_bump_grid()
    ell = geometry.circle_length_profile(bump)
    i_r = bump.n - 1 - RELIABLE_MARGIN
    i_half = bump.index_of(bump.extent / 2.0)
    assert ell[i_r] / ell[i_half] < 1.5  # dyadic ratio alone misses this cone
    assert math.isinf(geometry.circumference_at_infinity(bump).value)


def test_circumference_warns_when_not_monotone():
    g = exact.sample_grid(exact.sphere(), -1.0, n=2000, extent=30.0)
    res = geometry.circumference_at_infinity(g)
    assert any("monotone" in w for w in res.warnings)


def test_average_curvature_cigar_closed_form():
    g = cigar_grid()
    expect = 2.0 * math.tanh(2.0) ** 2 / math.log(math.cosh(2.0))
    assert geometry.average_curvature_k(g, 2.0) == pytest.approx(expect, rel=1e-3)
    with pytest.raises(ExtentError):
        geometry.average_curvature_k(g, 100.0)
    with pytest.raises(ExtentError):
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
    g2 = g.with_u(4.0 * g.u)  # homothety g -> 4g: lengths double, R quarters
    # log(4u) vs log(u) roundoff is amplified by 1/(h^2 u) in the far field
    assert np.allclose(
        geometry.scalar_curvature(g2), 0.25 * geometry.scalar_curvature(g), rtol=1e-6, atol=1e-8
    )
    assert geometry.total_curvature(g2).value == pytest.approx(
        geometry.total_curvature(g).value, rel=1e-9
    )
    assert geometry.aperture(g2).direct == pytest.approx(geometry.aperture(g).direct, rel=1e-9)
    assert geometry.asymptotic_volume_ratio(g2).value == pytest.approx(
        geometry.asymptotic_volume_ratio(g).value, rel=1e-9
    )
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
        (lambda g: geometry.total_curvature(g).value, TWO_PI * 400.0 / 401.0),
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
