import numpy as np
import pytest

from geomflow.errors import DomainError
from geomflow.grids import (
    CYLINDER,
    MAX_NODE,
    RADIAL,
    RELIABLE_MARGIN,
    U_NOISE_FLOOR,
    ConformalGrid,
    check_layout,
    check_positive,
    cumulative_trapezoid,
    trust_mask,
)


def make_grid(n=32, chart=RADIAL, extent=3.0, u=None):
    if chart == RADIAL:
        nodes = np.linspace(0.0, extent, n)
    else:
        nodes = np.linspace(-extent, extent, n)
    if u is None:
        u = np.ones(n)
    return ConformalGrid(chart=chart, nodes=nodes, u=u, t=0.0)


def test_basic_properties():
    g = make_grid(n=41, extent=4.0)
    assert g.n == 41
    assert g.extent == 4.0
    assert g.h == pytest.approx(0.1)
    with pytest.raises(ValueError):
        g.u[0] = 2.0  # arrays are frozen together with the dataclass


def test_rejects_nonuniform_nodes():
    nodes = np.linspace(0.0, 1.0, 32) ** 2
    with pytest.raises(DomainError):
        ConformalGrid(chart=RADIAL, nodes=nodes, u=np.ones(32), t=0.0)


def test_rejects_decreasing_nodes():
    nodes = np.linspace(1.0, 0.0, 32)
    with pytest.raises(DomainError):
        ConformalGrid(chart=RADIAL, nodes=nodes, u=np.ones(32), t=0.0)


def test_layout_keeps_the_squared_spacing_normal_and_squared_nodes_finite():
    root_tiny = float(np.sqrt(np.finfo(float).tiny))
    assert check_layout(RADIAL, np.arange(16) * (1.01 * root_tiny)) == 1.01 * root_tiny
    with pytest.raises(DomainError, match="spacing"):
        check_layout(RADIAL, np.arange(16) * (0.99 * root_tiny))
    assert MAX_NODE * MAX_NODE < np.inf
    check_layout(CYLINDER, np.linspace(-MAX_NODE, MAX_NODE, 16))
    for nodes in (np.linspace(0.0, 1.01 * MAX_NODE, 16), np.linspace(-1.01 * MAX_NODE, 0.0, 16)):
        with pytest.raises(DomainError, match="within"):
            check_layout(RADIAL if nodes[0] == 0.0 else CYLINDER, nodes)


def test_radial_must_start_at_axis():
    nodes = np.linspace(0.5, 3.0, 32)
    with pytest.raises(DomainError):
        ConformalGrid(chart=RADIAL, nodes=nodes, u=np.ones(32), t=0.0)


@pytest.mark.parametrize("bad", [0.0, -1.0, np.nan, np.inf, -0.0, -np.inf])
def test_rejects_nonpositive_or_nonfinite_u(bad):
    u = np.ones(32)
    u[7] = bad
    message = "^conformal factor must be finite and positive$"
    with pytest.raises(DomainError, match=message):
        make_grid(u=u)
    # the same rule on a trajectory's (snapshots, nodes) array
    block = np.ones((3, 32))
    block[1, 7] = bad
    with pytest.raises(DomainError, match=message):
        check_positive(block)


def test_check_positive_accepts_every_finite_positive_value():
    check_positive(np.array([5e-324, 1e-300, 1.0, np.finfo(float).max]))


def test_rejects_short_and_mismatched_grids():
    with pytest.raises(DomainError):
        make_grid(n=8)
    with pytest.raises(DomainError):
        ConformalGrid(chart=RADIAL, nodes=np.linspace(0, 1, 32), u=np.ones(31), t=0.0)
    with pytest.raises(DomainError):
        ConformalGrid(chart="sphere", nodes=np.linspace(0, 1, 32), u=np.ones(32), t=0.0)


def test_reliable_slice_margins():
    g = make_grid(n=40, chart=RADIAL)
    sl = g.reliable_slice()
    assert sl.start == 0 and sl.stop == 40 - RELIABLE_MARGIN
    g = make_grid(n=40, chart=CYLINDER)
    sl = g.reliable_slice()
    assert sl.start == RELIABLE_MARGIN and sl.stop == 40 - RELIABLE_MARGIN


def test_reliable_mask_drops_noise_floor():
    u = np.ones(40)
    u[10] = 0.5 * U_NOISE_FLOOR
    g = make_grid(n=40, u=u)
    mask = g.reliable_mask()
    assert not mask[10]
    assert mask[0] and mask[11]
    assert not mask[-1]  # outer margin


def test_reliable_mask_degenerate_keeps_best_node():
    u = np.full(40, 0.1 * U_NOISE_FLOOR)
    u[3] = 0.9 * U_NOISE_FLOOR
    g = make_grid(n=40, u=u)
    mask = g.reliable_mask()
    assert mask.sum() == 1 and mask[3]


@pytest.mark.parametrize("chart", [RADIAL, CYLINDER])
def test_trust_mask_of_a_block_is_the_mask_of_each_row(chart):
    block = 10.0 ** np.random.default_rng(5).uniform(-9.0, 0.0, size=(4, 40))
    block[2] = 1e-9  # no node reaches the floor: the row keeps its argmax
    block[2, 17] = 2e-9
    masks = trust_mask(block, chart, 1e-5)
    for row, mask in zip(block, masks):
        assert np.array_equal(mask, trust_mask(row, chart, 1e-5))
    assert np.flatnonzero(masks[2]).tolist() == [17]


def test_one_trust_rule_with_two_floors():
    # grid statistics keep u down to U_NOISE_FLOOR, curvature statistics on
    # flows only down to CURVATURE_TRUST_FLOOR; both apply the same margin
    from geomflow.solver import CURVATURE_TRUST_FLOOR

    u = np.ones(40)
    u[10] = 0.1 * CURVATURE_TRUST_FLOOR
    g = make_grid(n=40, chart=CYLINDER, u=u)
    trusted = trust_mask(g.u, g.chart, CURVATURE_TRUST_FLOOR)
    assert U_NOISE_FLOOR < u[10]
    assert g.reliable_mask()[10] and not trusted[10]
    for mask in (g.reliable_mask(), trusted):
        assert not mask[:RELIABLE_MARGIN].any() and not mask[-RELIABLE_MARGIN:].any()


def test_grid_shares_read_only_input_and_copies_writable_input():
    nodes = np.linspace(0.0, 3.0, 32)
    u = np.ones(32)
    g = ConformalGrid(chart=RADIAL, nodes=nodes, u=u, t=0.0)
    u[0] = 2.0
    assert g.u[0] == 1.0
    again = ConformalGrid(chart=RADIAL, nodes=g.nodes, u=g.u, t=1.0)
    assert again.u is g.u and again.nodes is g.nodes


def test_index_of():
    g = make_grid(n=31, extent=3.0)
    assert g.index_of(0.0) == 0
    assert g.index_of(3.0) == 30
    assert g.index_of(1.04) == 10  # nearest node at 1.0
    with pytest.raises(DomainError, match=r"^coordinate 3.5 outside \[0.0, 3.0\]$"):
        g.index_of(3.5)


@pytest.mark.parametrize("n", [2, 17, 3085])
def test_cumulative_trapezoid_is_bit_identical_to_scipy(n):
    from scipy import integrate

    rng = np.random.default_rng(n)
    x = np.cumsum(rng.uniform(0.1, 1.0, n))
    y = rng.normal(size=n)
    assert np.array_equal(cumulative_trapezoid(y, x), integrate.cumulative_trapezoid(y, x, initial=0.0))
