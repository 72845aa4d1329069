import math
import random
from fractions import Fraction as F

import numpy as np
import pytest

from wedgewalk import (
    ParameterError,
    SolverError,
    StochasticKernel,
    WedgeSpec,
    build_wedge_lattice,
    fit_green_constant,
    green_closed_form_1d,
    green_vector,
    hit_probability,
    nagasawa_reverse,
    projected_wedge_chain,
    wedge_kernel,
)
from wedgewalk.green_reversal import _rational_green
from wedgewalk.kernels import row_displacement


def _reference_rational_green(rows, transient, source_pos):
    """Dense Fraction Gaussian elimination on (I - T)^T g = e_src, natural
    order: the independent side of the exact-solver cross-check."""
    n = len(transient)
    pos = {s: i for i, s in enumerate(transient)}
    A = [[F(0)] * n for _ in range(n)]
    for i, s in enumerate(transient):
        A[i][i] += 1
        for j, v in rows[s].items():
            if j in pos:
                A[pos[j]][i] -= F(v)     # transpose
    b = [F(0)] * n
    b[source_pos] = F(1)
    for col in range(n):
        piv = A[col][col]
        for r in range(col + 1, n):
            f = A[r][col]
            if f != 0:
                f = f / piv
                for c in range(col, n):
                    A[r][c] -= f * A[col][c]
                b[r] -= f * b[col]
    x = [F(0)] * n
    for r in range(n - 1, -1, -1):
        acc = b[r] - sum(A[r][c] * x[c] for c in range(r + 1, n))
        x[r] = acc / A[r][r]
    return x


def _green_system(kernel, source):
    mask = kernel.absorbing_mask()
    transient = [i for i in range(kernel.n_states) if not mask[i]]
    return kernel.rows, transient, transient.index(source)


def _scrambled_kernel(n=14, seed=7):
    """Rational kernel whose rows reach all over the state space (no band);
    the last two states absorb, and every other row feeds one of them."""
    rng = random.Random(seed)
    rows = []
    for i in range(n - 2):
        targets = set(rng.sample(range(n), 4)) | {rng.choice([n - 2, n - 1])}
        weights = {j: rng.randint(1, 9) for j in targets}
        total = sum(weights.values())
        rows.append({j: F(w, total) for j, w in weights.items()})
    rows += [{n - 2: F(1)}, {n - 1: F(1)}]
    return StochasticKernel(states=tuple(range(n)), rows=rows, mode="rational")


def path_sum_green(kernel, source, n_states, tail=1e-12):
    """Brute-force oracle: g = sum_n (delta_source P^n) over transient states,
    truncated once the remaining transient mass falls below ``tail``."""
    P = kernel.to_csr().toarray()
    absorbing = kernel.absorbing_mask()
    mu = np.zeros(n_states)
    mu[source] = 1.0
    g = np.zeros(n_states)
    for _ in range(1000000):
        g[~absorbing] += mu[~absorbing]
        mu = mu @ P
        mu[absorbing] = 0.0
        if mu.sum() < tail:
            break
    return g


def test_green_1d_matches_path_enumeration():
    Q = projected_wedge_chain(2, math.pi / 4, apex_hold=F(1, 8), mode="float")
    g = green_vector(Q, 0)
    oracle = path_sum_green(Q, 0, Q.n_states)
    assert g.visits[1] == pytest.approx(oracle[1], abs=1e-10)
    assert g.visits[0] == pytest.approx(oracle[0], abs=1e-10)
    assert g.visits[2] == 0.0


def test_green_closed_form_values():
    assert green_closed_form_1d(2, 1) == F(6, 5)
    assert green_closed_form_1d(2, 2) == 0
    with pytest.raises(ParameterError):
        green_closed_form_1d(2, 3)


def test_green_ratio_constant_and_prefactor():
    N = 50
    alpha = math.pi / 6
    Q = projected_wedge_chain(N, alpha, mode="float")
    g = green_vector(Q, 0)
    fit = fit_green_constant(g, N)
    assert fit["relative_spread"] <= 1e-10
    s2 = math.sin(alpha) ** 2
    # the solved vector scales the closed-form shape by 1/sin^2, not 1/cos^2
    assert fit["constant"] * s2 == pytest.approx(1.0, abs=1e-9)
    assert abs(fit["constant"] * (1 - s2) - 1.0) > 0.5


def test_green_factorization_rational():
    # planar visits are constant across each fiber and equal the radial
    # visits split uniformly: g2(k, y) (2k+1) = g1(k), exactly
    for alpha in (math.pi / 6, math.pi / 4, math.pi / 3):
        for N in (5, 14):
            spec = WedgeSpec(alpha=alpha, layers=N)
            lat = build_wedge_lattice(spec)
            P = wedge_kernel(lat, spec)
            Q = projected_wedge_chain(N, alpha)
            g2 = green_vector(P, (0, 0))
            g1 = green_vector(Q, 0)
            for k in range(N):
                for y in range(-k, k + 1):
                    assert g2.visits[lat.index(k, y)] * (2 * k + 1) == g1.visits[k]


@pytest.mark.parametrize("alpha", [math.pi / 6, math.pi / 4, math.pi / 3])
def test_banded_exact_green_matches_dense_elimination(alpha):
    for N in (2, 5, 8):
        spec = WedgeSpec(alpha=alpha, layers=N)
        lat = build_wedge_lattice(spec)
        P = wedge_kernel(lat, spec)
        for source in (lat.index(0, 0), lat.index(1, 1)):
            system = _green_system(P, source)
            assert _rational_green(*system) == _reference_rational_green(*system)
        Q = projected_wedge_chain(N, alpha)
        system = _green_system(Q, 0)
        assert _rational_green(*system) == _reference_rational_green(*system)


def test_exact_green_matches_dense_elimination_without_a_band():
    P = _scrambled_kernel()
    for source in (0, 5, 11):
        system = _green_system(P, source)
        assert _rational_green(*system) == _reference_rational_green(*system)
    g = green_vector(P, 5)
    want = green_vector(StochasticKernel(states=P.states, mode="float",
                                         rows=[{j: float(v) for j, v in r.items()}
                                               for r in P.rows]), 5)
    assert np.allclose(g.as_floats(), want.as_floats(), rtol=1e-12, atol=0)


def test_exact_green_zero_pivot_is_a_solver_error():
    # states 0 and 1 swap forever and never reach the absorbing state 2
    P = StochasticKernel(states=(0, 1, 2), mode="rational",
                         rows=[{1: F(1)}, {0: F(1)}, {2: F(1)}])
    with pytest.raises(SolverError):
        green_vector(P, 0)


def test_green_factorization_float():
    N = 12
    spec = WedgeSpec(alpha=0.9, layers=N)
    lat = build_wedge_lattice(spec)
    P = wedge_kernel(lat, spec, mode="float")
    Q = projected_wedge_chain(N, 0.9, mode="float")
    g2 = green_vector(P, (0, 0))
    g1 = green_vector(Q, 0)
    for k in range(1, N):
        for y in range(-k, k + 1):
            got = g2.visits[lat.index(k, y)]
            want = g1.visits[k] / (2 * k + 1)
            assert got == pytest.approx(want, rel=1e-10)


def test_green_source_must_be_transient():
    Q = projected_wedge_chain(4, math.pi / 4, mode="float")
    with pytest.raises(ParameterError):
        green_vector(Q, 4)


def test_reversed_kernel_table_rational():
    N = 8
    spec = WedgeSpec(alpha=math.pi / 6, layers=N)
    lat = build_wedge_lattice(spec)
    P = wedge_kernel(lat, spec)
    rev = nagasawa_reverse(P, green_vector(P, (0, 0)))
    s2 = F(1, 4)
    for k in range(2, N):
        for y in range(-k + 1, k):
            row = rev.kernel.rows[lat.index(k, y)]
            assert row[lat.index(k, y + 1)] == (1 - s2) / 2
            assert row[lat.index(k, y - 1)] == (1 - s2) / 2
            assert row[lat.index(k - 1, y)] == s2 / 2 * F(N - k + 1, N - k)
            # the outward factor vanishes one layer below absorption, so the
            # entry is dropped entirely there
            assert row.get(lat.index(k + 1, y), F(0)) == s2 / 2 * F(N - k - 1, N - k)


def test_reversed_kernel_table_float():
    N = 30
    spec = WedgeSpec(alpha=math.pi / 6, layers=N)
    lat = build_wedge_lattice(spec)
    P = wedge_kernel(lat, spec, mode="float")
    rev = nagasawa_reverse(P, green_vector(P, (0, 0)))
    s2 = 0.25
    worst = 0.0
    for k in range(2, N):
        row = rev.kernel.rows[lat.index(k, 0)]
        worst = max(worst,
                    abs(row[lat.index(k - 1, 0)] - s2 / 2 * (N - k + 1) / (N - k)),
                    abs(row.get(lat.index(k + 1, 0), 0.0)
                        - s2 / 2 * (N - k - 1) / (N - k)),
                    abs(row[lat.index(k, 1)] - (1 - s2) / 2))
    assert worst <= 1e-12


def test_reversal_recovers_forward_in_the_large_n_limit():
    # the (N-k+1)/(N-k) corrections tend to one far from the absorbing layer
    N = 400
    spec = WedgeSpec(alpha=math.pi / 4, layers=N)
    lat = build_wedge_lattice(spec)
    P = wedge_kernel(lat, spec, mode="float")
    rev = nagasawa_reverse(P, green_vector(P, (0, 0)))
    row = rev.kernel.rows[lat.index(5, 0)]
    fwd = P.rows[lat.index(5, 0)]
    for j, v in fwd.items():
        assert row[j] == pytest.approx(v, rel=1e-2)


def test_reversed_initial_law_uniform():
    N = 8
    spec = WedgeSpec(alpha=math.pi / 6, layers=N)
    lat = build_wedge_lattice(spec)
    P = wedge_kernel(lat, spec)
    rev = nagasawa_reverse(P, green_vector(P, (0, 0)))
    weights = [rev.initial_exact[lat.index(N, y)] for y in range(-N, N + 1)]
    assert all(w == F(1, 2 * N + 1) for w in weights)


def enumerate_forward_paths(kernel, lat, stop_layer, max_len):
    """All apex-started trajectories that first reach the stop layer within
    max_len steps, with their exact probabilities."""
    apex = lat.index(0, 0)
    out = []
    stack = [((apex,), F(1))]
    while stack:
        path, prob = stack.pop()
        cur = path[-1]
        if lat.sites[cur][0] >= stop_layer:
            out.append((path, prob))
            continue
        if len(path) > max_len:
            continue
        for j, p in kernel.rows[cur].items():
            stack.append((path + (j,), prob * p))
    return out


def test_pathwise_reversal_identity_exact():
    # P_forward(w) = P_init(w_L) . prod p_hat(reversed steps) . kill-at-apex,
    # checked exactly over every forward path of length <= 8 at N = 3
    N = 3
    spec = WedgeSpec(alpha=math.pi / 4, layers=N)   # apex_hold 1/4, holding mass 1/4
    lat = build_wedge_lattice(spec)
    P = wedge_kernel(lat, spec)
    green = green_vector(P, (0, 0))
    rev = nagasawa_reverse(P, green)
    paths = enumerate_forward_paths(P, lat, N, max_len=8)
    assert len(paths) > 50
    checked = 0
    for path, p_fwd in paths:
        rpath = path[::-1]
        prob = rev.initial_exact[rpath[0]]
        for a, b in zip(rpath, rpath[1:]):
            prob *= rev.kernel.rows[a].get(b, F(0))
        prob *= rev.kernel.rows[rpath[-1]][rev.kill_index]
        assert prob == p_fwd
        checked += 1
    assert checked == len(paths)


def _reflect_across_normal(a, b, s2):
    # components (a, b) in the (cos, sin) basis; reflection across the
    # inward boundary normal stays rational in sin^2
    c2 = 1 - s2
    return 2 * (a - b) * s2 - a, -2 * (a - b) * c2 - b


@pytest.mark.parametrize("alpha_s2", [(math.pi / 6, F(1, 4)), (math.pi / 3, F(3, 4))])
def test_reversed_boundary_row_mirrors_reflection(alpha_s2):
    # stripping the depth-correction factors, the reversed boundary row's
    # mean displacement is the forward one mirrored about the boundary normal
    alpha, s2 = alpha_s2
    N = 7
    spec = WedgeSpec(alpha=alpha, layers=N)
    lat = build_wedge_lattice(spec)
    P = wedge_kernel(lat, spec)
    rev = nagasawa_reverse(P, green_vector(P, (0, 0)))
    k = 3
    i = lat.index(k, k)
    a_f, b_f = row_displacement(P, i)
    row = dict(rev.kernel.rows[i])
    row[lat.index(k - 1, k - 1)] *= F(N - k, N - k + 1)
    row[lat.index(k + 1, k)] *= F(N - k, N - k - 1)
    a_r = sum(p * (lat.sites[j][0] - k) for j, p in row.items())
    b_r = sum(p * (lat.sites[j][1] - k) for j, p in row.items())
    assert (a_r, b_r) == _reflect_across_normal(a_f, b_f, s2)


def test_hit_probability_edges():
    Q = projected_wedge_chain(50, math.pi / 4, mode="float")
    assert hit_probability(Q, 10, targets=[10], blockers=[20]) == 1.0
    assert hit_probability(Q, 20, targets=[10], blockers=[20]) == 0.0
    p = hit_probability(Q, 5, targets=[2], blockers=[30])
    h = lambda i: 1 / (2 * i + 1)
    assert p == pytest.approx((h(5) - h(30)) / (h(2) - h(30)), abs=1e-12)


def test_green_csv_export(tmp_path):
    N = 5
    spec = WedgeSpec(alpha=math.pi / 6, layers=N)
    lat = build_wedge_lattice(spec)
    P = wedge_kernel(lat, spec, mode="float")
    g = green_vector(P, (0, 0))
    path = tmp_path / "green.csv"
    g.to_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "layer,transverse,visits"
    assert len(lines) == 1 + lat.n_sites
