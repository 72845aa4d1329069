import math
from fractions import Fraction as F

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
    read_triplets,
    vase_rate_matrix,
    wedge_kernel,
    write_triplets,
)
from wedgewalk.kernels import row_displacement


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
    assert P.is_absorbing(lat.index(4, 1))
    with pytest.raises(ParameterError):
        wedge_kernel(lat, spec, absorb_at=5)


@pytest.mark.parametrize("alpha", [0.3, 0.61, 1.1, 1.4])
def test_float_rows_stochastic(alpha):
    # row-sum validation happens in the constructor; just build them
    make_wedge(alpha, 6, mode="float")
    projected_wedge_chain(6, alpha, mode="float")


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
    row = Q.off_rows[i]
    assert row[grid.index(3, 0)] == pytest.approx(0.5, abs=1e-12)
    assert row[grid.index(1, 0)] == pytest.approx(0.5, abs=1e-12)
    # conical shapes carry no vertical skew (up to abscissa solve noise)
    assert row[grid.index(2, 1)] == pytest.approx(0.5, abs=1e-11)
    assert row[grid.index(2, -1)] == pytest.approx(0.5, abs=1e-11)
    bd = Q.off_rows[grid.index(2, 2)]
    assert bd[grid.index(2, 1)] == pytest.approx(0.5, abs=1e-11)
    assert bd[grid.index(3, 2)] == pytest.approx(0.5, abs=1e-12)
    assert bd[grid.index(3, 3)] == pytest.approx(0.5, abs=1e-12)


def test_vase_rate_asymmetry_matches_drift():
    # widening-slowly shape: advancing rate beats retreating rate, the
    # discrete signature of the outward drift h'/h > 0
    grid = build_vase_grid(power_shape(2.0), 64, 66)
    Q = vase_rate_matrix(grid)
    k = 64  # layer at x = 1
    row = Q.off_rows[grid.index(k, 0)]
    fwd = row[grid.index(k + 1, 0)]
    back = row[grid.index(k - 1, 0)]
    assert fwd > back > 0


def test_vase_zero_mean():
    grid = build_vase_grid(power_shape(2.0), 16, 16)
    Q = vase_rate_matrix(grid)
    xs = grid.abscissas
    for k in range(2, 15):
        row = Q.off_rows[grid.index(k, 0)]
        drift = sum(v * (xs[kk] - xs[k]) for (kk, yy), v in
                    ((grid.sites[j], v) for j, v in row.items()) if yy == 0)
        assert abs(drift) <= 1e-13


def test_projected_vase_rates_cone():
    grid = build_vase_grid(linear_shape(1.0), 4, 4)
    Qp = projected_vase_rates(grid)
    assert Qp.off_rows[1][2] == pytest.approx(5 / 3 * 0.5, abs=1e-12)
    assert Qp.off_rows[1][0] == pytest.approx(1 / 3 * 0.5, abs=1e-12)
    assert Qp.off_rows[4] == {}


def test_projected_vase_ratio_tends_to_one():
    grid = build_vase_grid(linear_shape(1.0), 1, 400)
    Qp = projected_vase_rates(grid)
    k = 399
    up = Qp.off_rows[k][k + 1]
    dn = Qp.off_rows[k][k - 1]
    assert up / dn == pytest.approx(1.0, abs=0.01)


def test_wedge_consistency_of_vase_projection():
    # conical vase: the projected jump chain must carry the same up/down
    # odds (2k+3)/(2k-1) as the wedge's radial chain
    alpha = math.pi / 6
    grid = build_vase_grid(linear_shape(math.tan(alpha)), 8, 8)
    Qp = projected_vase_rates(grid)
    chain = projected_wedge_chain(8, alpha, mode="float")
    for k in range(1, 8):
        odds_vase = Qp.off_rows[k][k + 1] / Qp.off_rows[k][k - 1]
        odds_wedge = chain.rows[k][k + 1] / chain.rows[k][k - 1]
        assert odds_vase == pytest.approx(odds_wedge, rel=1e-9)
        assert odds_vase == pytest.approx((2 * k + 3) / (2 * k - 1), rel=1e-9)


def test_nonconical_vertical_rates_are_skewed():
    grid = build_vase_grid(power_shape(2.0), 16, 16)
    Q = vase_rate_matrix(grid)
    row = Q.off_rows[grid.index(3, 1)]
    up = row[grid.index(3, 2)]
    dn_from_above = Q.off_rows[grid.index(3, 2)][grid.index(3, 1)]
    assert up != pytest.approx(0.5, abs=1e-6)
    # the skew is a bond flow: opposing rates on one bond still sum to 1
    assert up + dn_from_above == pytest.approx(1.0, abs=1e-12)
    plain = vase_rate_matrix(grid, exact_projection=False)
    prow = plain.off_rows[grid.index(3, 1)]
    assert prow[grid.index(3, 2)] == pytest.approx(0.5, abs=1e-15)


def test_triplet_roundtrip(tmp_path):
    spec, lat, P = make_wedge(math.pi / 4, 3)
    path = tmp_path / "kernel.txt"
    write_triplets(P, path)
    kind, mode, rows = read_triplets(path)
    assert kind == "stochastic" and mode == "rational"
    for i, row in enumerate(P.rows):
        assert rows[i] == row

    Pf = wedge_kernel(lat, spec, mode="float")
    write_triplets(Pf, path)
    _, mode, rows = read_triplets(path)
    assert mode == "float"
    assert rows[lat.index(1, 0)][lat.index(2, 0)] == Pf.rows[lat.index(1, 0)][lat.index(2, 0)]

    grid = build_vase_grid(power_shape(2.0), 4, 4)
    Q = vase_rate_matrix(grid)
    write_triplets(Q, path)
    kind, _, rows = read_triplets(path)
    assert kind == "rate-matrix"
    assert rows[grid.index(1, 0)] == Q.off_rows[grid.index(1, 0)]


def test_rational_validation_is_exact():
    # 1 - 10^-30 is 1.0 as a float; the integer row check still sees it
    short = F(1, 2) - F(1, 10 ** 30)
    with pytest.raises(ParameterError, match="not 1"):
        StochasticKernel(states=(0, 1), mode="rational",
                         rows=[{0: F(1, 2), 1: short}, {1: F(1)}])
    with pytest.raises(ParameterError, match="negative"):
        StochasticKernel(states=(0, 1), mode="rational",
                         rows=[{0: F(3, 2), 1: F(-1, 2)}, {1: F(1)}])
    with pytest.raises(ParameterError, match="row 1"):
        StochasticKernel(states=(0, 1), mode="rational", rows=[{0: F(1)}, {}])
    StochasticKernel(states=(0, 1), mode="rational",
                     rows=[{0: F(1, 3), 1: F(2, 3)}, {1: 1}])


def test_float_validation_keeps_its_tolerance():
    StochasticKernel(states=(0, 1), mode="float",
                     rows=[{0: 0.5, 1: 0.5 + 5e-13}, {1: 1.0}])
    with pytest.raises(ParameterError, match="row 0"):
        StochasticKernel(states=(0, 1), mode="float",
                         rows=[{0: 0.5, 1: 0.5 + 5e-12}, {1: 1.0}])
    with pytest.raises(ParameterError, match="negative probability in row 1"):
        StochasticKernel(states=(0, 1), mode="float",
                         rows=[{0: 1.0}, {0: 1.5, 1: -0.5}])
    with pytest.raises(ParameterError, match="row 0 sums to nan"):
        StochasticKernel(states=(0, 1), mode="float",
                         rows=[{0: math.nan, 1: 0.5}, {1: 1.0}])
