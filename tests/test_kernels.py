import math
from fractions import Fraction as F

import numpy as np
import pytest

from wedgewalk import (
    ParameterError,
    StochasticKernel,
    WedgeSpec,
    build_vase_grid,
    build_wedge_lattice,
    linear_shape,
    power_shape,
    projected_vase_rates,
    projected_wedge_chain,
    vase_rate_matrix,
    wedge_kernel,
)

from rows_reference import kernel_from_rows, layer_sites, row_arrays, row_displacement


def make_wedge(alpha, layers, mode="auto"):
    spec = WedgeSpec(alpha=alpha, layers=layers)
    lat = build_wedge_lattice(spec)
    return spec, lat, wedge_kernel(lat, spec, mode=mode)


def test_inner_rows_quarter_pi():
    spec, lat, P = make_wedge(math.pi / 4, 4)
    row = P.rows[lat.index(2, 0)]
    assert row == {lat.index(3, 0): F(1, 4), lat.index(1, 0): F(1, 4),
                   lat.index(2, 1): F(1, 4), lat.index(2, -1): F(1, 4)}


def test_inner_rows_sixth_pi():
    spec, lat, P = make_wedge(math.pi / 6, 4)
    row = P.rows[lat.index(2, 0)]
    assert row[lat.index(3, 0)] == F(1, 8)
    assert row[lat.index(1, 0)] == F(1, 8)
    assert row[lat.index(2, 1)] == F(3, 8)
    assert row[lat.index(2, -1)] == F(3, 8)


def test_boundary_row():
    spec, lat, P = make_wedge(math.pi / 4, 4)
    row = P.rows[lat.index(2, 2)]
    assert row == {lat.index(3, 2): F(1, 4), lat.index(3, 3): F(1, 4),
                   lat.index(2, 1): F(1, 4), lat.index(2, 2): F(1, 4)}
    low = P.rows[lat.index(2, -2)]
    assert low[lat.index(3, -3)] == F(1, 4)
    assert low[lat.index(2, -1)] == F(1, 4)


def test_apex_row_and_absorption():
    spec, lat, P = make_wedge(math.pi / 3, 4)
    r = spec.apex_hold
    row = P.rows[lat.index(0, 0)]
    assert row[lat.index(1, 0)] == r and row[lat.index(1, 1)] == r
    assert row[lat.index(0, 0)] == 1 - 3 * r
    assert P.absorbing_mask()[lat.index(4, 1)]


@pytest.mark.parametrize("alpha", [0.3, 0.61, 1.1, 1.4])
def test_float_rows_stochastic(alpha):
    # row-sum validation happens in the constructor; just build them
    make_wedge(alpha, 6, mode="float")
    projected_wedge_chain(6, alpha, mode="float")


@pytest.mark.parametrize("alpha", [math.pi / 6, math.pi / 4, math.pi / 3])
def test_float_special_angle_rows_round_the_exact_rows(alpha):
    # sin^2 is taken exactly, not as math.sin(alpha) ** 2 (1 ulp low)
    P = make_wedge(alpha, 8, mode="float")[2]
    Pr = make_wedge(alpha, 8, mode="rational")[2]
    assert P.rows == [{j: float(v) for j, v in r.items()} for r in Pr.rows]
    # the radial entries sin^2/2 (2i -+ 1)/(2i + 1) are rounded once
    for N in (8, 30):
        Q = projected_wedge_chain(N, alpha, mode="float")
        assert Q.rows == [{j: float(v) for j, v in r.items()}
                          for r in projected_wedge_chain(N, alpha).rows]


def test_rational_mode_requires_special_angle():
    spec = WedgeSpec(alpha=0.5, layers=4)
    lat = build_wedge_lattice(spec)
    with pytest.raises(ParameterError):
        wedge_kernel(lat, spec, mode="rational")


def test_projected_chain_values():
    Q = projected_wedge_chain(4, math.pi / 4)
    assert Q.rows[1] == {0: F(1, 12), 1: F(1, 2), 2: F(5, 12)}
    Q6 = projected_wedge_chain(4, math.pi / 6)
    assert Q6.rows[2] == {1: F(3, 40), 2: F(3, 4), 3: F(7, 40)}
    assert Q6.rows[4] == {4: F(1)}


def test_projected_chain_harmonic_exact():
    Q = projected_wedge_chain(20, math.pi / 3)
    for i in range(1, 20):
        total = sum(v * F(1, 2 * j + 1) for j, v in Q.rows[i].items())
        assert total == F(1, 2 * i + 1)


@pytest.mark.parametrize("alpha", [math.pi / 6, math.pi / 4, math.pi / 3, 0.5, 1.2])
def test_boundary_reflection_argument(alpha):
    # mean displacement of a boundary row points at 2a - pi/2
    spec = WedgeSpec(alpha=alpha, layers=5)
    lat = build_wedge_lattice(spec)
    P = wedge_kernel(lat, spec, mode="float")
    a, b = row_displacement(P, lat.index(3, 3))
    dx = float(a) * math.cos(alpha)
    dy = float(b) * math.sin(alpha)
    assert abs(dy - math.tan(2 * alpha - math.pi / 2) * dx) <= 1e-12


def test_vase_rates_cone():
    grid = build_vase_grid(linear_shape(1.0), 4, 4)
    Q = vase_rate_matrix(grid)
    i = grid.index(2, 0)
    row = Q.rows[i]
    assert row[grid.index(3, 0)] == pytest.approx(0.5, abs=1e-12)
    assert row[grid.index(1, 0)] == pytest.approx(0.5, abs=1e-12)
    # conical shapes carry no vertical skew (up to abscissa solve noise)
    assert row[grid.index(2, 1)] == pytest.approx(0.5, abs=1e-11)
    assert row[grid.index(2, -1)] == pytest.approx(0.5, abs=1e-11)
    bd = Q.rows[grid.index(2, 2)]
    assert bd[grid.index(2, 1)] == pytest.approx(0.5, abs=1e-11)
    assert bd[grid.index(3, 2)] == pytest.approx(0.5, abs=1e-12)
    assert bd[grid.index(3, 3)] == pytest.approx(0.5, abs=1e-12)


def test_vase_rate_asymmetry_matches_drift():
    # widening-slowly shape: advancing rate beats retreating rate, the
    # discrete signature of the outward drift h'/h > 0
    grid = build_vase_grid(power_shape(2.0), 64, 66)
    Q = vase_rate_matrix(grid)
    k = 64  # layer at x = 1
    row = Q.rows[grid.index(k, 0)]
    fwd = row[grid.index(k + 1, 0)]
    back = row[grid.index(k - 1, 0)]
    assert fwd > back > 0


def test_vase_zero_mean():
    grid = build_vase_grid(power_shape(2.0), 16, 16)
    Q = vase_rate_matrix(grid)
    xs = grid.abscissas
    for k in range(2, 15):
        row = Q.rows[grid.index(k, 0)]
        drift = sum(v * (xs[grid.layer[j]] - xs[k]) for j, v in row.items()
                    if grid.y[j] == 0)
        assert abs(drift) <= 1e-13


def test_projected_vase_rates_cone():
    grid = build_vase_grid(linear_shape(1.0), 4, 4)
    Qp = projected_vase_rates(grid)
    assert Qp.rows[1][2] == pytest.approx(5 / 3 * 0.5, abs=1e-12)
    assert Qp.rows[1][0] == pytest.approx(1 / 3 * 0.5, abs=1e-12)
    assert Qp.rows[4] == {}


def test_projected_vase_ratio_tends_to_one():
    grid = build_vase_grid(linear_shape(1.0), 1, 400)
    Qp = projected_vase_rates(grid)
    k = 399
    up = Qp.rows[k][k + 1]
    dn = Qp.rows[k][k - 1]
    assert up / dn == pytest.approx(1.0, abs=0.01)


def test_wedge_consistency_of_vase_projection():
    # conical vase: the projected jump chain must carry the same up/down
    # odds (2k+3)/(2k-1) as the wedge's radial chain
    alpha = math.pi / 6
    grid = build_vase_grid(linear_shape(math.tan(alpha)), 8, 8)
    Qp = projected_vase_rates(grid)
    chain = projected_wedge_chain(8, alpha, mode="float")
    for k in range(1, 8):
        odds_vase = Qp.rows[k][k + 1] / Qp.rows[k][k - 1]
        odds_wedge = chain.rows[k][k + 1] / chain.rows[k][k - 1]
        assert odds_vase == pytest.approx(odds_wedge, rel=1e-9)
        assert odds_vase == pytest.approx((2 * k + 3) / (2 * k - 1), rel=1e-9)


def _without_holds(P):
    """P's float CSR matrix with the self-loops of its transient rows removed
    and those rows renormalised; absorbing rows stay {i: 1}."""
    import scipy.sparse as sp

    A = P.to_csr()
    hold = np.where(P.absorbing_mask(), 0.0, A.diagonal())
    A = A - sp.diags(hold)
    return sp.diags(1.0 / np.asarray(A.sum(axis=1)).ravel()) @ A


@pytest.mark.parametrize("alpha", [math.pi / 6, math.pi / 4, math.pi / 3, 0.3, 0.9, 1.2])
def test_cone_vase_jump_chain_is_the_wedge_walk_without_its_holds(alpha):
    # the linear:tan(alpha) vase cross-checks the two builders; its jump
    # chain is the wedge walk itself, so it is not an independent check of
    # the last-side curve C_alpha.  1e-10 covers the abscissa bisection
    # (3.0e-11 at alpha = 1.2, M = 40)
    for M in (5, 40):
        spec = WedgeSpec(alpha=alpha, layers=M)
        W = wedge_kernel(build_wedge_lattice(spec), spec, mode="float")
        J = vase_rate_matrix(build_vase_grid(linear_shape(math.tan(alpha)), M, M)).jump_chain()
        absorbing = W.absorbing_mask()
        assert np.array_equal(J.absorbing_mask(), absorbing)
        assert np.array_equal(J.layers, W.layers) and np.array_equal(J.y, W.y)
        got, want = J.to_csr(), _without_holds(W)
        assert (got[absorbing] != want[absorbing]).nnz == 0
        assert abs(got - want).max() <= 1e-10


def test_nonconical_vertical_rates_are_skewed():
    grid = build_vase_grid(power_shape(2.0), 16, 16)
    Q = vase_rate_matrix(grid)
    row = Q.rows[grid.index(3, 1)]
    up = row[grid.index(3, 2)]
    dn_from_above = Q.rows[grid.index(3, 2)][grid.index(3, 1)]
    assert up != pytest.approx(0.5, abs=1e-6)
    # the skew is a bond flow: opposing rates on one bond still sum to 1
    assert up + dn_from_above == pytest.approx(1.0, abs=1e-12)
    plain = vase_rate_matrix(grid, exact_projection=False)
    prow = plain.rows[grid.index(3, 1)]
    assert prow[grid.index(3, 2)] == pytest.approx(0.5, abs=1e-15)


def test_rational_validation_is_exact():
    # 1 - 10^-30 is 1.0 as a float; the integer row check still sees it
    short = F(1, 2) - F(1, 10 ** 30)
    with pytest.raises(ParameterError, match="not 1"):
        kernel_from_rows([{0: F(1, 2), 1: short}, {1: F(1)}], "rational")
    with pytest.raises(ParameterError, match="negative"):
        kernel_from_rows([{0: F(3, 2), 1: F(-1, 2)}, {1: F(1)}], "rational")
    with pytest.raises(ParameterError, match="row 1"):
        kernel_from_rows([{0: F(1)}, {}], "rational")
    # an empty row over the denominator 0 holds no probability either
    with pytest.raises(ParameterError, match="row 1 sums to 0, not 1"):
        StochasticKernel((np.array([0, 1, 1]), np.array([0]), ([1], [1, 0])),
                         mode="rational")
    kernel_from_rows([{0: F(1, 3), 1: F(2, 3)}, {1: 1}], "rational")


def test_rational_row_sums_give_an_empty_row_zero():
    # an empty row between two rows that sum to 1 sums to 0, not to the
    # next row's first numerator
    with pytest.raises(ParameterError, match="^row 1 sums to 0, not 1$"):
        StochasticKernel((np.array([0, 1, 1, 2]), np.array([0, 0]), ([1, 1], [1, 1, 1])),
                         mode="rational")
    # so does an empty last row
    with pytest.raises(ParameterError, match="^row 1 sums to 0, not 1$"):
        StochasticKernel((np.array([0, 1, 1]), np.array([0]), ([1], [1, 1])), mode="rational")
    # a negative numerator in a row that sums to its denominator
    with pytest.raises(ParameterError, match="^negative probability in row 1$"):
        StochasticKernel((np.array([0, 1, 3]), np.array([0, 0, 1]), ([1, -1, 2], [1, 1])),
                         mode="rational")
    K = StochasticKernel((np.array([0, 2, 3]), np.array([0, 1, 1]), ([1, 2, 5], [3, 5])),
                         mode="rational")
    assert K.rows == [{0: F(1, 3), 1: F(2, 3)}, {1: F(1)}]


def test_float_validation_keeps_its_tolerance():
    kernel_from_rows([{0: 0.5, 1: 0.5 + 5e-13}, {1: 1.0}], "float")
    with pytest.raises(ParameterError, match="row 0"):
        kernel_from_rows([{0: 0.5, 1: 0.5 + 5e-12}, {1: 1.0}], "float")
    with pytest.raises(ParameterError, match="negative probability in row 1"):
        kernel_from_rows([{0: 1.0}, {0: 1.5, 1: -0.5}], "float")
    with pytest.raises(ParameterError, match="row 0 sums to nan"):
        kernel_from_rows([{0: math.nan, 1: 0.5}, {1: 1.0}], "float")


def _reference_wedge_rows(lattice, spec, mode):
    """The wedge kernel's dict rows, one site at a time: the independent
    side of the check on ``wedge_kernel``'s arrays."""
    if mode == "rational":
        s2, r, one = spec.sin_sq, F(spec.apex_hold), F(1)
    else:
        s2 = math.sin(spec.alpha) ** 2 if spec.sin_sq is None else float(spec.sin_sq)
        r, one = float(spec.apex_hold), 1.0
    p, q = s2 / 2, (1 - s2) / 2
    idx = lattice.index
    rows = []
    for (k, y) in layer_sites(lattice.spec.layers):
        if k == spec.layers:
            rows.append({idx(k, y): one})
        elif k == 0:
            row = {idx(1, -1): r, idx(1, 0): r, idx(1, 1): r}
            if 1 - 3 * r != 0:
                row[idx(0, 0)] = 1 - 3 * r
            rows.append(row)
        elif y == k:
            rows.append({idx(k + 1, k): p, idx(k + 1, k + 1): p,
                         idx(k, k - 1): q, idx(k, k): q})
        elif y == -k:
            rows.append({idx(k + 1, -k): p, idx(k + 1, -k - 1): p,
                         idx(k, -k + 1): q, idx(k, -k): q})
        else:
            rows.append({idx(k + 1, y): p, idx(k - 1, y): p,
                         idx(k, y + 1): q, idx(k, y - 1): q})
    return rows


def _reference_radial_rows(spec, mode):
    N = spec.layers
    if mode == "rational":
        s2, r, one = spec.sin_sq, F(spec.apex_hold), F(1)
        step = lambda a, b: s2 / 2 * F(a, b)
    elif spec.sin_sq is None:
        s2, r, one = math.sin(spec.alpha) ** 2, float(spec.apex_hold), 1.0
        step = lambda a, b: s2 / 2 * (a / b)
    else:                           # the exact entries, rounded once
        s2, r, one = float(spec.sin_sq), float(spec.apex_hold), 1.0
        step = lambda a, b: float(spec.sin_sq / 2 * F(a, b))
    rows = [{1: 3 * r, **({0: 1 - 3 * r} if 1 - 3 * r != 0 else {})}]
    for i in range(1, N):
        rows.append({i - 1: step(2 * i - 1, 2 * i + 1), i: 1 - s2,
                     i + 1: step(2 * i + 3, 2 * i + 1)})
    return rows + [{N: one}]


def assert_same_arrays(got, want, mode):
    """Equal CSR arrays: the same index dtypes and entries, the same Python
    ints in rational mode and the same bits in float mode."""
    for a, b in zip(got[:2], want[:2]):
        assert a.dtype == b.dtype == np.int64 and np.array_equal(a, b)
    if mode == "rational":
        assert got[2] == want[2]
        assert all(type(v) is int for part in got[2] for v in part)
    else:
        assert got[2].dtype == want[2].dtype == np.float64
        assert np.array_equal(got[2].view(np.int64), want[2].view(np.int64))


def _check_builders(alpha, N, mode, apex_hold=None):
    spec = WedgeSpec(alpha=alpha, layers=N, apex_hold=apex_hold)
    lat = build_wedge_lattice(spec)
    P = wedge_kernel(lat, spec, mode=mode)
    want = _reference_wedge_rows(lat, spec, mode)
    assert_same_arrays(P.arrays, row_arrays(want, exact=mode == "rational"), mode)
    assert P.rows == want
    Q = projected_wedge_chain(N, alpha, apex_hold=apex_hold, mode=mode)
    want = _reference_radial_rows(spec, mode)
    assert_same_arrays(Q.arrays, row_arrays(want, exact=mode == "rational"), mode)
    assert Q.rows == want


@pytest.mark.parametrize("mode", ["rational", "float"])
@pytest.mark.parametrize("alpha", [math.pi / 6, math.pi / 4, math.pi / 3])
def test_builders_match_the_dict_row_reference(alpha, mode):
    for N in (2, 5, 8, 20):
        _check_builders(alpha, N, mode)
    hold = F(1, 5) if mode == "rational" else 0.2         # apex holds 2/5
    _check_builders(alpha, 8, mode, apex_hold=hold)
    _check_builders(alpha, 2, mode, apex_hold=hold)


def test_builders_match_the_dict_row_reference_off_the_special_angles():
    for N in (2, 5, 8, 20):
        _check_builders(0.9, N, "float")
    _check_builders(0.9, 3, "float", apex_hold=0.1)


def test_dict_rows_are_built_on_first_access():
    spec, lat, P = make_wedge(math.pi / 6, 6)
    assert "rows" not in vars(P)
    rows = P.rows
    assert P.rows is rows and rows[lat.index(0, 0)] == {
        lat.index(1, y): F(1, 3) for y in (-1, 0, 1)}
