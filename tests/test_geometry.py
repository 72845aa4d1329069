import math

import numpy as np
import pytest

from wedgewalk import (
    ParameterError,
    WedgeSpec,
    build_vase_grid,
    build_wedge_lattice,
    linear_shape,
    parse_angle,
    power_shape,
    shape_from_spec,
    tabulated_shape,
)
from wedgewalk.geometry import bisect_increasing


def test_wedge_site_count_small():
    spec = WedgeSpec(alpha=math.pi / 4, layers=2)
    lat = build_wedge_lattice(spec)
    assert lat.n_sites == 9
    assert list(zip(lat.layer.tolist(), lat.y.tolist())) == [
        (0, 0), (1, -1), (1, 0), (1, 1), (2, -2), (2, -1), (2, 0), (2, 1), (2, 2)]


@pytest.mark.parametrize("n", [2, 3, 7, 20, 41])
def test_wedge_site_count_square(n):
    lat = build_wedge_lattice(WedgeSpec(alpha=0.5, layers=n))
    assert lat.n_sites == (n + 1) ** 2


def test_positions():
    lat = build_wedge_lattice(WedgeSpec(alpha=math.pi / 4, layers=3))
    z = lat.positions[lat.index(1, 1)]
    assert z == pytest.approx(math.cos(math.pi / 4) + 1j * math.sin(math.pi / 4))
    lat6 = build_wedge_lattice(WedgeSpec(alpha=math.pi / 6, layers=3))
    z = lat6.positions[lat6.index(2, -1)]
    assert z == pytest.approx(2 * math.cos(math.pi / 6) - 1j * math.sin(math.pi / 6))


def test_positions_injective():
    lat = build_wedge_lattice(WedgeSpec(alpha=0.7, layers=12))
    assert len(set(np.round(lat.positions, 12))) == lat.n_sites


def test_invalid_specs():
    with pytest.raises(ParameterError):
        WedgeSpec(alpha=0.0, layers=5)
    with pytest.raises(ParameterError):
        WedgeSpec(alpha=math.pi / 2, layers=5)
    with pytest.raises(ParameterError):
        WedgeSpec(alpha=0.5, layers=1)
    with pytest.raises(ParameterError):
        WedgeSpec(alpha=0.5, layers=5, apex_hold=0.5)
    with pytest.raises(ParameterError):
        build_wedge_lattice(WedgeSpec(alpha=0.5, layers=5)).index(2, 3)


def test_parse_angle():
    assert parse_angle("pi/6") == pytest.approx(math.pi / 6)
    assert parse_angle("pi/4") == pytest.approx(math.pi / 4)
    assert parse_angle("0.61") == pytest.approx(0.61)
    assert parse_angle(0.61) == pytest.approx(0.61)


def test_default_apex_hold():
    # capped at 1/3 when cos^2(a)/2 exceeds it
    spec = WedgeSpec(alpha=math.pi / 6, layers=4)
    assert float(spec.apex_hold) == pytest.approx(1 / 3)
    spec = WedgeSpec(alpha=math.pi / 3, layers=4)
    assert float(spec.apex_hold) == pytest.approx(1 / 8)


def test_vase_linear_closed_form():
    grid = build_vase_grid(linear_shape(1.0), resolution=4, layers=4)
    assert np.allclose(grid.abscissas, np.arange(5) / 4, atol=1e-11)
    assert np.allclose(grid.angles, math.pi / 4, atol=1e-11)


def test_vase_square_closed_form():
    grid = build_vase_grid(power_shape(2.0), resolution=4, layers=4)
    assert np.allclose(grid.abscissas, np.sqrt(np.arange(5)) / 2, atol=1e-11)


@pytest.mark.parametrize("beta", [0.5, 1.0, 1.5, 2.0, 3.0])
def test_vase_levels_reproduced(beta):
    n, k = 8, 8
    grid = build_vase_grid(power_shape(beta), n, k)
    shape = grid.shape
    for j in range(k + 1):
        assert abs(shape(grid.abscissas[j]) - j / n) <= 1e-10
    assert np.all(np.diff(grid.abscissas) > 0)


def test_cone_angles_match_slope():
    alpha = 0.63
    grid = build_vase_grid(linear_shape(math.tan(alpha)), resolution=6, layers=6)
    assert np.allclose(grid.angles, alpha, atol=1e-10)


def test_tabulated_shape_roundtrip():
    xs = np.linspace(0, 2, 21)
    hs = xs ** 2
    shape = tabulated_shape(xs, hs)
    grid = build_vase_grid(shape, resolution=5, layers=5)
    # interpolation is exact enough on a dense quadratic table
    assert np.allclose(grid.abscissas, np.sqrt(np.arange(6) / 5), atol=1e-3)
    with pytest.raises(ParameterError):
        tabulated_shape([0, 1, 2], [0, 1, 0.5])


def test_shape_from_spec_tokens():
    assert shape_from_spec("linear:2.0")(1.5) == pytest.approx(3.0)
    assert shape_from_spec("power:2")(3.0) == pytest.approx(9.0)
    with pytest.raises(ParameterError):
        shape_from_spec("sine:1")


def test_unreachable_level():
    xs = np.linspace(0, 1, 11)
    shape = tabulated_shape(xs, xs.copy())
    shape.domain_hint = 1.0
    with pytest.raises(ParameterError):
        build_vase_grid(shape, resolution=2, layers=4)   # needs h = 2


def test_bisect_increasing():
    assert bisect_increasing(lambda x: x ** 3, 8.0) == pytest.approx(2.0, abs=1e-11)
    assert bisect_increasing(math.sinh, 0.0, lo=0.0) == pytest.approx(0.0, abs=1e-12)


def test_bisect_stops_where_no_float_lies_between():
    # adjacent floats near 1e7 lie 1.9e-9 apart, wider than the tolerance
    assert bisect_increasing(lambda x: x, 1e7 + 1e-9, tol=1e-12) == pytest.approx(
        1e7, abs=4e-9)


def test_shape_validation():
    s = power_shape(2.0)
    s.validate(np.linspace(0.1, 2.0, 7))
    bad = shape_from_spec("power:2")
    bad.h_prime = lambda x: 1.0   # wrong derivative
    with pytest.raises(ParameterError):
        bad.validate([0.5, 1.0])


def test_shape_from_spec_table_file(tmp_path):
    path = tmp_path / "shape.csv"
    xs = np.linspace(0, 2, 21)
    rows = ["x,h"] + [f"{x},{x * x}" for x in xs]
    path.write_text("\n".join(rows))
    shape = shape_from_spec(f"table:{path}")
    assert shape(1.0) == pytest.approx(1.0, abs=1e-9)


def _reference_sites(N, alpha):
    """Sites, planar positions and layers, one site at a time."""
    sites = [(k, y) for k in range(N + 1) for y in range(-k, k + 1)]
    ca, sa = math.cos(alpha), math.sin(alpha)
    return (tuple(sites), np.array([k * ca + 1j * y * sa for (k, y) in sites]),
            np.array([k for (k, _) in sites], dtype=np.int32))


@pytest.mark.parametrize("N", [1, 2, 30, 100])
def test_lattice_arrays_are_the_site_loop(N):
    sites, _, layers = _reference_sites(N, 0.7)
    grid = build_vase_grid(power_shape(2.0), N, N)
    assert tuple(zip(grid.layer.tolist(), grid.y.tolist())) == sites
    assert grid.layer.dtype == grid.y.dtype == np.int32
    if N < 2:
        return                          # a wedge has at least two layers
    for alpha in (math.pi / 6, math.pi / 4, 0.7):
        sites, positions, layers = _reference_sites(N, alpha)
        lat = build_wedge_lattice(WedgeSpec(alpha=alpha, layers=N))
        assert tuple(zip(lat.layer.tolist(), lat.y.tolist())) == sites
        assert lat.positions.dtype == positions.dtype
        assert np.array_equal(lat.positions.view(np.int64), positions.view(np.int64))
        assert lat.layer.dtype == lat.y.dtype == np.int32
        assert np.array_equal(lat.layer, layers)
