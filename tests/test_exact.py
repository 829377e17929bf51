import math

import numpy as np
import pytest

from geomflow import exact
from geomflow.errors import DomainError
from geomflow.grids import CYLINDER, RADIAL, ConformalGrid

# hand-frozen closed-form values
ROSENAU_U_00_M1 = 0.46211715726000974   # tanh(1/2)
ROSENAU_R_00_M1 = 0.8509181282393216    # 1/sinh(1)
ROSENAU_RMAX_M1 = 1.3130352854993312    # coth(1)

RADIAL_COORDS = np.linspace(0.0, 30.0, 101)
CYLINDER_COORDS = np.linspace(-25.0, 25.0, 101)

ALL_CASES = [
    (exact.cigar(4.0), RADIAL_COORDS, (-1.0, 0.0, 1.5)),
    (exact.cigar(2.5), RADIAL_COORDS, (-1.0, 0.0, 1.5)),
    (exact.ds_soliton(2.0, 1.0), RADIAL_COORDS, (-1.0, 0.0, 1.5)),
    (exact.ds_soliton(0.7, 3.0), RADIAL_COORDS, (-1.0, 0.0, 1.5)),
    (exact.flat(), RADIAL_COORDS, (-1.0, 0.0, 1.5)),
    (exact.sphere(), RADIAL_COORDS, (-2.0, -0.5, -1e-2)),
    (exact.rosenau(), CYLINDER_COORDS, (-2.0, -0.5, -1e-2)),
]


@pytest.mark.parametrize(
    "spec, point, t, expect_u, expect_r",
    [
        (exact.rosenau(), np.array([0.0]), -1.0, ROSENAU_U_00_M1, ROSENAU_R_00_M1),
        (exact.cigar(4.0), np.array([1.0]), 0.0, 0.5, 2.0),
        (exact.cigar(4.0), np.array([0.0]), -0.25, math.e, 4.0),
        (exact.cigar(4.0), np.array([1.0]), -0.25, 1.0 / (1.0 + math.exp(-1.0)), 4.0 / (1.0 + math.e)),
        (exact.sphere(), np.array([1.0]), -1.0, 2.0, 1.0),
        (exact.sphere(), np.array([0.0]), -0.5, 4.0, 2.0),
        (exact.flat(), np.array([3.0]), 5.0, 1.0, 0.0),
        (exact.ds_soliton(2.0, 1.0), np.array([0.0]), 0.0, 1.0, 4.0),
        (exact.ds_soliton(2.0, 1.0), np.array([1.0]), 0.0, 0.5, 2.0),
    ],
)
def test_frozen_point_values(spec, point, t, expect_u, expect_r):
    # point: the chart coordinate (rho or x) as a one-element array
    assert float(exact.u_profile(spec, point, t)[0]) == pytest.approx(expect_u, rel=1e-14)
    assert float(exact.r_profile(spec, point, t)[0]) == pytest.approx(
        expect_r, rel=1e-14, abs=1e-14
    )


@pytest.mark.parametrize("spec, coords, ts", ALL_CASES)
def test_time_derivative_is_minus_r_times_u(spec, coords, ts):
    for t in ts:
        u = exact.u_profile(spec, coords, t)
        r = exact.r_profile(spec, coords, t)
        dudt = exact.dudt_profile(spec, coords, t)
        assert np.allclose(dudt, -r * u, rtol=1e-12, atol=1e-300)


@pytest.mark.parametrize("spec, coords, ts", ALL_CASES)
def test_time_derivative_matches_finite_difference(spec, coords, ts):
    eps = 1e-5
    for t in ts:
        if t + eps >= spec.existence_interval()[1]:
            continue
        fd = (exact.u_profile(spec, coords, t + eps) - exact.u_profile(spec, coords, t - eps)) / (2 * eps)
        dudt = exact.dudt_profile(spec, coords, t)
        assert np.allclose(fd, dudt, rtol=1e-6, atol=1e-14)


@pytest.mark.parametrize(
    "spec, coords, ts", ALL_CASES + [(exact.rosenau(), CYLINDER_COORDS, (-2.0, -5e-4))]
)
def test_profile_at_several_times_is_bitwise_one_row_per_time(spec, coords, ts):
    # the stepper pins both stage times with one call; each row must equal the single-time profile
    rows = exact.log_u_profile(spec, coords, ts)
    assert rows.shape == (len(ts), coords.size)
    for row, t in zip(rows, ts):
        assert np.array_equal(row, exact.log_u_profile(spec, coords, t))
    # the scans sample u into their block workspace
    out = np.empty((len(ts), coords.size))
    assert exact.u_profile(spec, coords, ts, out) is out
    for row, t in zip(out, ts):
        assert np.array_equal(row, exact.u_profile(spec, coords, t))


def test_rosenau_even_in_x():
    x = np.linspace(0.0, 20.0, 50)
    spec = exact.rosenau()
    for t in (-3.0, -0.2):
        assert np.array_equal(exact.u_profile(spec, x, t), exact.u_profile(spec, -x, t))
        assert np.array_equal(exact.r_profile(spec, x, t), exact.r_profile(spec, -x, t))


def test_rosenau_rmax_is_supremum():
    assert exact.rosenau_rmax(-1.0) == pytest.approx(ROSENAU_RMAX_M1, rel=1e-15)
    x = np.linspace(-30.0, 30.0, 401)
    for t in (-2.0, -1.0, -0.1):
        r = exact.r_profile(exact.rosenau(), x, t)
        rmax = exact.rosenau_rmax(t)
        assert np.all(r <= rmax * (1 + 1e-12))
        assert r.max() >= rmax * (1 - 1e-6)  # approached at the ends
    with pytest.raises(DomainError):
        exact.rosenau_rmax(0.0)


def test_rosenau_far_field_is_finite_and_stable():
    x = np.array([0.0, 50.0, 300.0, 600.0])
    with np.errstate(over="raise", invalid="raise"):
        u = exact.u_profile(exact.rosenau(), x, -1.0)
        r = exact.r_profile(exact.rosenau(), x, -1.0)
    assert np.all(u > 0.0) and np.all(np.isfinite(u))
    assert u[-1] < 1e-200
    assert r[-1] == pytest.approx(ROSENAU_RMAX_M1, rel=1e-12)


ROSENAU_EXTENTS = [20.0, 300.0, 709.0, 740.0, 1000.0, 1400.0]
ROSENAU_EXTREME_TIMES = (-1000.0, -800.0, -700.0, -300.0, -64.0, -32.0005, -2.0, -1.0, -0.3, -1e-3, -1e-6, -1e-12)


def _rosenau_extreme_nodes(extent):
    return np.sort(np.concatenate((np.linspace(-extent, extent, 81), [0.37 - extent, 1e-9, 0.37])))


def _assert_matches_reference(value, ref, rtol):
    """Within rtol of ref wherever ref is a normal float64, and below the normal
    range wherever it is not."""
    tiny = np.finfo(float).tiny
    if abs(ref) < tiny:
        assert abs(value) < tiny
    else:
        assert abs(value / ref - 1) <= rtol


@pytest.mark.parametrize("extent", ROSENAU_EXTENTS)
def test_rosenau_rows_match_an_extended_precision_reference(extent):
    # charts past the exp range (k > 0) and times down to -1000: within 1e-13 of
    # sinh(-t) / (cosh x + cosh t)
    mpmath = pytest.importorskip("mpmath")
    x = _rosenau_extreme_nodes(extent)
    rows = exact.u_profile(exact.rosenau(), x, ROSENAU_EXTREME_TIMES)
    with mpmath.workdps(40):
        for t, row in zip(ROSENAU_EXTREME_TIMES, rows):
            for xi, ui in zip(x.tolist(), row.tolist()):
                ref = mpmath.sinh(-mpmath.mpf(t)) / (mpmath.cosh(xi) + mpmath.cosh(t))
                assert ui >= 0.0
                _assert_matches_reference(ui, ref, 1e-13)


@pytest.mark.parametrize("extent", ROSENAU_EXTENTS)
def test_rosenau_curvature_and_rate_match_an_extended_precision_reference(extent):
    # R = (1 + cosh t cosh x) / (sinh(-t) (cosh x + cosh t)) and du/dt = -R u, which
    # stay in log space, on the same charts and times as the rows
    mpmath = pytest.importorskip("mpmath")
    x = _rosenau_extreme_nodes(extent)
    with mpmath.workdps(40):
        for t in ROSENAU_EXTREME_TIMES:
            r = exact.r_profile(exact.rosenau(), x, t)
            dudt = exact.dudt_profile(exact.rosenau(), x, t)
            for xi, ri, di in zip(x.tolist(), r.tolist(), dudt.tolist()):
                ch = mpmath.cosh(xi) + mpmath.cosh(t)
                num = 1 + mpmath.cosh(t) * mpmath.cosh(xi)
                _assert_matches_reference(ri, num / (mpmath.sinh(-mpmath.mpf(t)) * ch), 1e-12)
                _assert_matches_reference(di, -num / ch**2, 1e-12)


@pytest.mark.parametrize(
    "spec, times",
    [
        (exact.sphere(), (-50.0, -1.0, -1e-6)),
        (exact.cigar(4.0), (-3.0, 0.0, 0.5, 1.0)),
        (exact.ds_soliton(), (-5.0, 0.0, 2.0)),
    ],
)
def test_radial_rows_match_an_extended_precision_reference(spec, times):
    # rho from the axis to 1e30, where every u here is a normal float64
    mpmath = pytest.importorskip("mpmath")
    rho = np.concatenate((np.linspace(0.0, 30.0, 61), np.geomspace(1e-9, 1e30, 79)))
    rows = exact.u_profile(spec, rho, times)
    with mpmath.workdps(40):
        p = {key: mpmath.mpf(value) for key, value in spec.p.items()}
        beta, delta = (p["r0"] / 2, 4 / p["r0"]) if "r0" in p else (p.get("beta"), p.get("delta"))
        for t, row in zip(times, rows):
            for r, ui in zip(rho.tolist(), row.tolist()):
                r2 = mpmath.mpf(r) ** 2
                if spec.family == exact.SPHERE:
                    ref = -8 * mpmath.mpf(t) / (1 + r2) ** 2
                else:
                    ref = (2 / beta) / (r2 + delta * mpmath.exp(2 * beta * t))
                _assert_matches_reference(ui, ref, 1e-15)


@pytest.mark.parametrize("spec", [exact.rosenau(), exact.sphere()])
def test_ancient_families_reject_nonnegative_time(spec):
    lo, hi = spec.existence_interval()
    assert hi == 0.0 and lo == -math.inf
    for t in (0.0, 1e-9, 2.0):
        with pytest.raises(DomainError):
            exact.u_profile(spec, np.array([0.0, 1.0]), t)
    exact.u_profile(spec, np.array([0.0, 1.0]), -1e-9)


@pytest.mark.parametrize("spec", [exact.rosenau(), exact.sphere()])
def test_times_at_the_singular_time_to_float64_precision_are_rejected(spec):
    x = np.array([0.0, 1.0, 30.0])
    # curvature ~ 1/|t| would overflow; the check says so instead of emitting inf
    for t in (-2.2e-309, -1e-300, -1e-160):
        with pytest.raises(DomainError, match="singular time"):
            exact.u_profile(spec, x, t)
    # nearer the singular time than 1e-17, exp(-2|t|) rounds to 1: still finite, no warning
    r = exact.r_profile(spec, x, -1e-20)
    assert np.all(np.isfinite(r)) and np.all(r >= 1e19)


def test_soliton_shift_stays_where_its_square_is_a_float64():
    # the cigar's shift is e^{4t}: dudt squares it, which overflows past e^{354}
    x = np.array([0.0, 1.0, 30.0])
    for t in (-87.0, 87.0):
        assert np.all(np.isfinite(exact.dudt_profile(exact.cigar(4.0), x, t)))
    for t in (-89.0, 89.0):
        with pytest.raises(DomainError, match="time shift"):
            exact.dudt_profile(exact.cigar(4.0), x, t)


@pytest.mark.parametrize("spec", [exact.cigar(4.0), exact.ds_soliton(1.0, 2.0), exact.flat()])
def test_eternal_families_accept_any_time(spec):
    lo, hi = spec.existence_interval()
    assert lo == -math.inf and hi == math.inf
    for t in (-5.0, 0.0, 5.0):
        exact.u_profile(spec, np.array([0.0, 1.0]), t)


def test_cigar_is_a_gradient_soliton():
    r0 = 3.0
    a = exact.cigar(r0)
    b = exact.ds_soliton(beta=r0 / 2.0, delta=4.0 / r0)
    rho = np.linspace(0.0, 12.0, 40)
    for t in (-2.0, 0.0, 1.0):
        assert np.allclose(exact.u_profile(a, rho, t), exact.u_profile(b, rho, t), rtol=1e-14)
        assert np.allclose(exact.r_profile(a, rho, t), exact.r_profile(b, rho, t), rtol=1e-14)


def test_soliton_center_curvature_is_steady():
    spec = exact.ds_soliton(2.0, 1.0)
    o = np.array([0.0])
    for t in (-3.0, 0.0, 2.0):
        assert float(exact.r_profile(spec, o, t)[0]) == pytest.approx(4.0, rel=1e-14)


def test_sphere_curvature_is_uniform():
    rho = np.linspace(0.0, 10.0, 30)
    for t in (-4.0, -1.0, -0.25):
        r = exact.r_profile(exact.sphere(), rho, t)
        assert np.allclose(r, 1.0 / (-t), rtol=1e-15)


def test_parameter_validation():
    with pytest.raises(DomainError):
        exact.cigar(0.0)
    with pytest.raises(DomainError):
        exact.ds_soliton(beta=-1.0)
    with pytest.raises(DomainError):
        exact.cigar(math.inf)
    with pytest.raises(DomainError):
        exact.ds_soliton(delta=math.nan)
    with pytest.raises(DomainError):
        exact.ExactSolutionSpec("Cigar", (("bogus", 1.0),))
    # the soliton is centred at the chart origin: it takes no centre parameters
    with pytest.raises(DomainError, match=r"^DSSoliton does not take params \['x0'\]$"):
        exact.spec_from_name("dssoliton", x0=0.0)
    with pytest.raises(DomainError):
        exact.ExactSolutionSpec("Oval")


def test_spec_from_name_roundtrip():
    assert exact.spec_from_name("cigar", r0=2.0) == exact.cigar(2.0)
    assert exact.spec_from_name("ROSENAU") == exact.rosenau()
    assert exact.spec_from_name("DSSoliton", beta=1.0, delta=2.0) == exact.ds_soliton(1.0, 2.0)
    with pytest.raises(DomainError):
        exact.spec_from_name("cigarillo")


def test_sample_grid_radial():
    g = exact.sample_grid(exact.cigar(4.0), 0.0, n=64, extent=10.0)
    assert g.chart == RADIAL and g.n == 64
    assert g.nodes[0] == 0.0 and g.extent == 10.0
    assert g.provenance == exact.cigar(4.0)
    assert g.t == 0.0
    with pytest.raises(DomainError, match="^radial sampling needs an extent > 0 with a finite width, got 0.0$"):
        exact.sample_grid(exact.cigar(4.0), 0.0, n=64, extent=0.0)


def test_sample_grid_cylinder():
    g = exact.sample_grid(exact.rosenau(), -1.0, n=64, extent=8.0)
    assert g.chart == CYLINDER
    assert g.nodes[0] == -8.0 and g.nodes[-1] == 8.0
    # sampling is symmetric about x = 0; a grid takes any uniform layout of the closed form
    nodes = np.linspace(-2.0, 6.0, 64)
    g = ConformalGrid(CYLINDER, nodes, exact.u_profile(exact.rosenau(), nodes, -1.0), -1.0, exact.rosenau())
    assert g.nodes[0] == -2.0 and g.nodes[-1] == 6.0 and g.h == 8.0 / 63
    # a width 2 * extent beyond float64 range is rejected before np.linspace overflows (and warns)
    with pytest.raises(DomainError, match="^cylinder sampling needs an extent > 0 with a finite width, got 1e"):
        exact.sample_grid(exact.rosenau(), -1.0, n=64, extent=1e308)
