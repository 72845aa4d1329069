import math
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wedgewalk import (
    MarkovLink,
    ParameterError,
    ShapeError,
    StochasticKernel,
    WedgeSpec,
    build_link,
    build_vase_grid,
    build_wedge_lattice,
    filter_sample,
    harmonic_residual,
    intertwining_residual,
    linear_shape,
    power_shape,
    projected_vase_rates,
    projected_wedge_chain,
    semigroup_residual,
    vase_rate_matrix,
    wedge_kernel,
)
from wedgewalk.geometry import site_index
from wedgewalk.kernels import _layer_rates, _row_arrays


def wedge_ops(alpha, n, mode="auto"):
    spec = WedgeSpec(alpha=alpha, layers=n)
    lat = build_wedge_lattice(spec)
    P = wedge_kernel(lat, spec, mode=mode)
    Q = projected_wedge_chain(n, alpha, mode=mode)
    return lat, P, Q, build_link(lat)


def test_link_rows():
    link = build_link(3)
    assert link.rows[0] == {site_index(0, 0): F(1)}
    assert link.rows[2] == {site_index(2, y): F(1, 5) for y in range(-2, 3)}
    for row in link.rows:
        assert sum(row.values()) == 1


def test_link_arrays_match_the_dict_row_reference():
    for K in (2, 5, 30):
        link = build_link(K)
        want = [{site_index(k, y): F(1, 2 * k + 1) for y in range(-k, k + 1)}
                for k in range(K + 1)]
        (ip, ix, exact), (wip, wix, wexact) = link.arrays, _row_arrays(want, exact=True)
        assert np.array_equal(ip, wip) and np.array_equal(ix, wix) and exact == wexact
        # the float form divides the exact arrays; the dict view is not built
        assert np.array_equal(link.to_csr().toarray(), dense_rows(want, link.n_target))
        assert "rows" not in vars(link)


@pytest.mark.parametrize("alpha", [math.pi / 6, math.pi / 4, math.pi / 3])
def test_wedge_identity_exact(alpha):
    lat, P, Q, link = wedge_ops(alpha, 25)
    rep = intertwining_residual(link, P, Q, mode="stochastic")
    assert rep.exact_zero and rep.residual == 0.0


def test_wedge_identity_powers():
    # one-step exactness propagates; assert n = 2 and 3 directly
    from wedgewalk.intertwining import _exact, _exact_matmul, _exact_maxdiff

    lat, P, Q, link = wedge_ops(math.pi / 4, 8)
    Pr, Qr = _exact("P", P.arrays, P.n_states), _exact("Q", Q.arrays, Q.n_states)
    LP = QL = _exact("link", link.arrays, link.n_target)
    for n in range(1, 4):
        LP = _exact_matmul(LP, Pr)
        QL = _exact_matmul(Qr, QL)
        if n >= 2:
            assert _exact_maxdiff(LP, QL) == 0


def test_perturbed_kernel_residual_is_the_exact_fraction():
    # moving eps of mass between two targets of one row at layer 2 shifts
    # link.P by eps/5 in that fiber's row and leaves Q.link alone
    from wedgewalk.intertwining import _exact, _exact_matmul, _exact_maxdiff

    N, eps = 100, F(1, 10 ** 6)
    lat, P, Q, link = wedge_ops(math.pi / 6, N)
    rows = [dict(r) for r in P.rows]
    row = rows[lat.index(2, 0)]
    row[lat.index(2, 1)] -= eps
    row[lat.index(2, -1)] += eps
    Pe = StochasticKernel(states=P.states, rows=rows, mode=P.mode)
    L = _exact("link", link.arrays, link.n_target)
    d = _exact_maxdiff(_exact_matmul(L, _exact("P", Pe.arrays, Pe.n_states)),
                       _exact_matmul(_exact("Q", Q.arrays, Q.n_states), L))
    assert d == F(1, 5000000)
    rep = intertwining_residual(link, Pe, Q, mode="stochastic")
    assert rep.residual == float(F(1, 5000000))
    assert rep.exact_zero is False and rep.passed is False


def test_rational_verify_converts_each_operator_once(monkeypatch, tmp_path, capsys):
    from wedgewalk import cli, intertwining, kernels

    real, seen = kernels._row_arrays, []

    def counting(rows, exact=False):
        seen.append(len(rows))
        return real(rows, exact)

    monkeypatch.setattr(kernels, "_row_arrays", counting)
    monkeypatch.setattr(intertwining, "_row_arrays", counting)
    assert cli.main(["verify-intertwining", "--alpha", "pi/6", "--mode", "rational",
                     "--layers", "20", "--output", str(tmp_path / "r.json")]) == 0
    capsys.readouterr()
    # P, Q and the link are built as arrays; only the harmonic vector
    # 1/(2i+1) (21 rows) is converted from dict rows
    assert seen == [21]


def test_exact_check_refuses_numbers_beyond_int64():
    # one fiber of two sites; the planar kernel's first row has a
    # denominator above 2^63, so its numerator 2^63 leaves the int64 range
    big = 2 ** 63 + 1
    link = MarkovLink(n_source=1, n_target=2, rows=[{0: F(1, 2), 1: F(1, 2)}])
    Q = StochasticKernel(states=(0,), rows=[{0: F(1)}], mode="rational")
    P = StochasticKernel(states=(0, 1), mode="rational",
                         rows=[{0: F(1, big), 1: F(big - 1, big)}, {1: F(1)}])
    with pytest.raises(ParameterError, match=r"^P: exact numerators"):
        intertwining_residual(link, P, Q, mode="stochastic")
    # every numerator fits, but the lcm of two coprime 40-bit denominators
    # that one link row meets makes the product overflow
    d1, d2 = 2 ** 40 + 1, 2 ** 40 - 1
    P = StochasticKernel(states=(0, 1), mode="rational",
                         rows=[{0: F(1, d1), 1: F(d1 - 1, d1)},
                               {0: F(1, d2), 1: F(d2 - 1, d2)}])
    with pytest.raises(ParameterError, match=r"^link\.P: exact product"):
        intertwining_residual(link, P, Q, mode="stochastic")
    # both products fit, but bringing Q.link's denominator 2 up to
    # link.P's 2 (2^62 - 1) scales its row by 2^62 - 1 and the difference
    # would overflow
    d = 2 ** 62 - 1
    P = StochasticKernel(states=(0, 1), mode="rational",
                         rows=[{0: F(1, d), 1: F(d - 1, d)}] * 2)
    with pytest.raises(ParameterError, match=r"^link\.P - Q\.link: exact difference"):
        intertwining_residual(link, P, Q, mode="stochastic")


@pytest.mark.parametrize("alpha", [0.4, 0.7853981, 1.3])
def test_wedge_identity_float(alpha):
    lat, P, Q, link = wedge_ops(alpha, 20, mode="float")
    rep = intertwining_residual(link, P, Q, mode="stochastic")
    assert rep.residual <= 1e-12


def test_vase_identity_float():
    grid = build_vase_grid(power_shape(2.0), 16, 16)
    link = build_link(grid)
    rep = intertwining_residual(link, vase_rate_matrix(grid),
                                projected_vase_rates(grid), mode="rates")
    assert rep.residual <= 1e-12


def test_vase_identity_defect_of_plain_rates():
    # with unskewed vertical rates the identity fails only on own-fiber
    # entries, by (2k-1)(c_k-d_k)/(2k+1)^2 at the boundary sites and
    # 2(c_k-d_k)/(2k+1)^2 at interior sites
    grid = build_vase_grid(power_shape(2.0), 8, 8)
    link = build_link(grid)
    Q2 = vase_rate_matrix(grid, exact_projection=False)
    Q1 = projected_vase_rates(grid)
    L = link.to_csr()
    R = (L @ Q2.to_csr() - Q1.to_csr() @ L).toarray()
    cot = grid.cot_angles()
    for k in range(1, 8):
        c, d = _layer_rates(cot, k)
        u = 2 * k + 1
        assert R[k, grid.index(k, k)] == pytest.approx(
            (2 * k - 1) * (d - c) / (u * u), abs=1e-13)
        if k >= 2:
            assert R[k, grid.index(k, 0)] == pytest.approx(
                -2 * (d - c) / (u * u), abs=1e-13)
        off = [abs(R[k, grid.index(kk, y)])
               for kk in range(9) if kk not in (k,)
               for y in range(-kk, kk + 1)]
        assert max(off) <= 1e-13


def test_conical_vase_identity_needs_no_skew():
    grid = build_vase_grid(linear_shape(math.tan(0.7)), 10, 10)
    link = build_link(grid)
    rep = intertwining_residual(link, vase_rate_matrix(grid, exact_projection=False),
                                projected_vase_rates(grid), mode="rates")
    assert rep.residual <= 1e-10


def test_corrupted_row_detected():
    lat, P, Q, link = wedge_ops(math.pi / 4, 6, mode="float")
    eps = 1e-6
    i = lat.index(2, 0)
    rows = [dict(r) for r in P.rows]       # a kernel converts its rows once
    rows[i][lat.index(3, 0)] += eps
    rows[i][lat.index(1, 0)] -= eps
    P = StochasticKernel(states=P.states, rows=rows, mode=P.mode)
    rep = intertwining_residual(link, P, Q, mode="stochastic")
    assert rep.residual >= eps / (2 * 2 + 1) * 0.99


def test_shape_mismatch():
    lat, P, Q, link = wedge_ops(math.pi / 4, 6)
    small = build_link(4)
    with pytest.raises(ShapeError):
        intertwining_residual(small, P, Q, mode="stochastic")
    with pytest.raises(ShapeError):
        intertwining_residual(link, P, Q, mode="rates")


def test_semigroup_residual_vase():
    grid = build_vase_grid(power_shape(2.0), 12, 12)
    link = build_link(grid)
    out = semigroup_residual(link, vase_rate_matrix(grid),
                             projected_vase_rates(grid), times=[0.1, 1.0])
    assert all(v <= 1e-10 for v in out.values())


def test_filter_sample_endpoints():
    link = build_link(6)
    rng = np.random.default_rng(0)
    assert filter_sample(link, 0, rng) == site_index(0, 0)
    with pytest.raises(ParameterError):
        filter_sample(link, 9, rng)


def test_filter_sample_uniformity():
    k = 4
    link = build_link(6)
    rng = np.random.default_rng(42)
    fiber = sorted(link.rows[k])
    counts = {i: 0 for i in fiber}
    n = 100000
    for _ in range(n):
        counts[filter_sample(link, k, rng)] += 1
    p = 1.0 / (2 * k + 1)
    sigma = math.sqrt(n * p * (1 - p))
    for i in fiber:
        assert abs(counts[i] - n * p) <= 4 * sigma


def test_filter_sample_split_seeds_differ():
    link = build_link(6)
    k = 4
    draws = [(filter_sample(link, k, np.random.default_rng((7, j, 0))),
              filter_sample(link, k, np.random.default_rng((7, j, 1))))
             for j in range(2000)]
    frac_equal = sum(a == b for a, b in draws) / len(draws)
    p = 1.0 / (2 * k + 1)
    assert abs(frac_equal - p) <= 4 * math.sqrt(p * (1 - p) / len(draws))


@pytest.mark.parametrize("alpha", [math.pi / 4, math.pi / 3])
def test_harmonic_residual_exact(alpha):
    Q = projected_wedge_chain(200, alpha)
    assert harmonic_residual(Q) == 0.0


def test_harmonic_fails_at_apex():
    Q = projected_wedge_chain(6, math.pi / 4)
    row = Q.rows[0]
    total = sum(v * F(1, 2 * j + 1) for j, v in row.items())
    assert total != F(1, 1)


def test_harmonic_residual_float():
    Q = projected_wedge_chain(100, 0.9, mode="float")
    assert harmonic_residual(Q) <= 1e-14


def test_residual_report_json():
    import json

    lat, P, Q, link = wedge_ops(math.pi / 4, 5)
    rep = intertwining_residual(link, P, Q, mode="stochastic")
    rec = json.loads(rep.to_json())
    assert set(rec) == {"identity", "mode", "size", "residual", "pass"}
    assert rec["pass"] is True


# ---------------------------------------------------------------------------
# the float form of every operator is its CSR conversion
# ---------------------------------------------------------------------------

def dense_rows(rows, n_cols):
    D = np.zeros((len(rows), n_cols))
    for i, row in enumerate(rows):
        for j, v in row.items():
            D[i, j] = float(v)
    return D


@settings(max_examples=30, deadline=None)
@given(alpha=st.floats(0.05, math.pi / 2 - 0.05), n=st.integers(2, 12))
def test_wedge_csr_and_residual_random_angle(alpha, n):
    lat, P, Q, link = wedge_ops(alpha, n, mode="float")
    for op, n_cols in ((P, P.n_states), (Q, Q.n_states), (link, link.n_target)):
        assert np.array_equal(op.to_csr().toarray(), dense_rows(op.rows, n_cols))
    rep = intertwining_residual(link, P, Q, mode="stochastic")
    assert rep.residual <= 1e-12


# vase_rate_matrix accepts every power shape with beta in [0.7, 4] at K <= 12
@settings(max_examples=20, deadline=None)
@given(beta=st.floats(0.7, 4.0), K=st.integers(2, 12))
def test_vase_csr_generator_and_residuals_random_power(beta, K):
    grid = build_vase_grid(power_shape(beta), K, K)
    link = build_link(grid)
    Q2, Q1 = vase_rate_matrix(grid), projected_vase_rates(grid)
    for Q in (Q2, Q1):
        expected = dense_rows(Q.off_rows, Q.n_states)
        np.fill_diagonal(expected, [-sum(r.values()) for r in Q.off_rows])
        G = Q.to_csr().toarray()
        assert np.array_equal(G, expected)
        assert np.abs(G.sum(axis=1)).max() <= 1e-12
    rep = intertwining_residual(link, Q2, Q1, mode="rates")
    assert rep.residual <= 1e-12
    semis = semigroup_residual(link, Q2, Q1, times=[0.1, 1.0])
    assert max(semis.values()) <= 1e-10
