import math
import random
from fractions import Fraction as F

import numpy as np
import pytest

from wedgewalk import (
    GreenVector,
    ParameterError,
    SolverError,
    UnreachableStateError,
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
from wedgewalk import green_reversal, kernels
from wedgewalk.green_reversal import _lifted_green

from rows_reference import green_csv_reference, kernel_from_rows, layer_sites, row_displacement


def _reference_rational_green(rows, transient, source_pos):
    """Dense Fraction Gaussian elimination on (I - T)^T g = e_src, natural
    order: the exact Green vector where the radial lift declines, and the
    independent side of the lift's cross-check."""
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


def _transient(kernel):
    mask = kernel.absorbing_mask()
    return [i for i in range(kernel.n_states) if not mask[i]]


def _reference_green(kernel, source) -> GreenVector:
    """The exact Green vector of a rational kernel from ``source``, by the
    dense reference elimination on its dict rows."""
    transient = _transient(kernel)
    visits = [F(0)] * kernel.n_states
    for s, v in zip(transient, _reference_rational_green(kernel.rows, transient,
                                                         transient.index(source))):
        visits[s] = v
    return GreenVector(source=source, absorbing=kernel.absorbing_mask(), visits=visits,
                       mode="rational", layers=kernel.layers, y=kernel.y)


def _assert_refused_exactly_and_solved_in_float(exact, source):
    """The lift declines ``source`` of the rational kernel ``exact``: the
    exact solve is refused, and its float copy's sparse solve meets the
    dense reference to 1e-12 relative."""
    with pytest.raises(ParameterError, match="radial lift"):
        green_vector(exact, source)
    transient = _transient(exact)
    got = green_vector(_float_kernel(exact), source).as_floats()[transient]
    want = np.array([float(v) for v in _reference_green(exact, source).visits])[transient]
    assert np.allclose(got, want, rtol=1e-12, atol=0)


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
    return kernel_from_rows(rows, "rational")


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


@pytest.mark.parametrize("layers", [2, 3, 8, 9, 50, 51])
@pytest.mark.parametrize("nan_at", [None, 1, -1])
def test_fitted_constant_is_numpys_median_to_the_bit(layers, nan_at):
    # odd and even counts of ratios (layers - 1 of them), with and without a NaN
    visits = [0.0, *np.random.default_rng(layers).random(layers - 1)]
    if nan_at is not None:
        visits[nan_at] = math.nan
    g = GreenVector(source=0, absorbing=np.zeros(layers + 1, bool), visits=visits + [0.0])
    fit = fit_green_constant(g, layers)
    want = np.median(fit["ratios"])
    assert (math.isnan(fit["constant"]) and math.isnan(want)) if nan_at is not None \
        else fit["constant"].hex() == float(want).hex()


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


def test_green_of_a_kernel_without_layers_is_refused_exactly_and_solved_in_float():
    # rows that reach all over the state space have no radial chain
    P = _scrambled_kernel()
    for source in (0, 5, 11):
        _assert_refused_exactly_and_solved_in_float(P, source)


def test_exact_green_zero_pivot_is_a_solver_error():
    # states 0 and 1 swap forever and never reach the absorbing state 2: the
    # exact solve is refused, and the float solve meets the singular system
    P = kernel_from_rows([{1: F(1)}, {0: F(1)}, {2: F(1)}], "rational")
    with pytest.raises(ParameterError, match="radial lift"):
        green_vector(P, 0)
    with pytest.raises(SolverError, match="singular"):
        green_vector(_float_kernel(P), 0)


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


def _reversal_by_definition(P, green):
    """Rows and absorption weights of p_hat(x, y) = g(y) p(y, x) / g(x),
    from P's dict rows, in the float order of operations (g(y) p) / g(x)
    with sums taken over y ascending."""
    n, g, mask = P.n_states, green.visits, green.absorbing
    rows, weights = [], [0] * n
    for x in range(n):
        col = {y: P.rows[y][x] for y in range(n) if not mask[y] and P.rows[y].get(x, 0) != 0}
        if mask[x]:
            weights[x] = sum(g[y] * p for y, p in col.items())
            rows.append({y: g[y] * p / weights[x] for y, p in col.items()}
                        if weights[x] else {x: 1})
        else:
            rows.append({y: g[y] * p / g[x] for y, p in col.items()})
            if x == green.source:
                rows[x][n] = 1 - sum(rows[x].values())
    return rows + [{n: 1}], weights


def _float_kernel(P):
    return kernel_from_rows([{j: float(v) for j, v in r.items()} for r in P.rows], "float",
                            layers=P.layers, y=P.y)


def _reversal_cases():
    """Rational kernels with their exact Green vectors, float copies and
    sources: wedge kernels from the apex, whose vector is lifted, and the
    scrambled kernel from two sources with an extra absorbing state that no
    row reaches, whose vector is the dense reference's."""
    for alpha in (math.pi / 6, math.pi / 4, math.pi / 3):
        for N in (8, 30):
            spec = WedgeSpec(alpha=alpha, layers=N)
            lat = build_wedge_lattice(spec)
            P = wedge_kernel(lat, spec)
            yield P, green_vector(P, (0, 0)), wedge_kernel(lat, spec, mode="float"), 0
    P = _scrambled_kernel()
    P = kernel_from_rows(P.rows + [{P.n_states: F(1)}], "rational")
    for source in (0, 5):
        yield P, _reference_green(P, source), _float_kernel(P), source


@pytest.mark.parametrize("mode", ["rational", "float"])
def test_reversed_rows_are_the_definition(mode):
    for exact, exact_green, approx, source in _reversal_cases():
        P, green = ((exact, exact_green) if mode == "rational"
                    else (approx, green_vector(approx, source)))
        rev = nagasawa_reverse(P, green)
        rows, weights = _reversal_by_definition(P, green)
        assert rev.kernel.mode == mode
        assert rev.kernel.rows == rows
        assert rev.initial_exact == weights
        assert rev.kill_index == P.n_states
    # the scrambled kernel's extra state: no weight, and a row that holds
    extra = P.n_states - 1
    assert rev.kernel.rows[extra] == {extra: 1} and rev.initial_exact[extra] == 0


def test_reversed_float_arrays_round_the_exact_rows():
    # the unreduced integer rows divide to float(Fraction), correctly rounded
    for exact, exact_green, _, _ in _reversal_cases():
        rev = nagasawa_reverse(exact, exact_green)
        assert kernels._float_arrays(rev.kernel)[2].tolist() == \
            [float(v) for row in rev.kernel.rows for _, v in sorted(row.items())]


@pytest.mark.parametrize("mode", ["rational", "float"])
def test_reversal_of_an_unreached_transient_state_is_refused(mode):
    # state 1 is transient, but the walk from 0 never visits it
    rows = [{2: F(1, 2), 0: F(1, 2)}, {0: F(1)}, {2: F(1)}]
    P = kernel_from_rows(rows, "rational")
    if mode == "rational":              # no layers, so no lift: the reference
        with pytest.raises(ParameterError, match="radial lift"):
            green_vector(P, 0)
        green = _reference_green(P, 0)
    else:
        P = _float_kernel(P)
        green = green_vector(P, 0)
    assert green.visits[1] == 0
    with pytest.raises(UnreachableStateError, match="state 1 "):
        nagasawa_reverse(P, green)


def enumerate_forward_paths(kernel, lat, stop_layer, max_len):
    """All apex-started trajectories that first reach the stop layer within
    max_len steps, with their exact probabilities."""
    apex = lat.index(0, 0)
    out = []
    stack = [((apex,), F(1))]
    while stack:
        path, prob = stack.pop()
        cur = path[-1]
        if lat.layer[cur] >= stop_layer:
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
    a_r = sum(p * (int(lat.layer[j]) - k) for j, p in row.items())
    b_r = sum(p * (int(lat.y[j]) - k) for j, p in row.items())
    assert (a_r, b_r) == _reflect_across_normal(a_f, b_f, s2)


def test_hit_probability_edges():
    Q = projected_wedge_chain(50, math.pi / 4, mode="float")
    assert hit_probability(Q, 10, targets=[10], blockers=[20]) == 1.0
    assert hit_probability(Q, 20, targets=[10], blockers=[20]) == 0.0
    p = hit_probability(Q, 5, targets=[2], blockers=[30])
    h = lambda i: 1 / (2 * i + 1)
    assert p == pytest.approx((h(5) - h(30)) / (h(2) - h(30)), abs=1e-12)
    assert "rows" not in vars(Q)        # the solve reads the CSR arrays


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


def test_green_csv_is_the_state_loop_writer(tmp_path):
    # byte for byte against the writer that loops over the site labels:
    # the radial vector of the green subcommand, and planar vectors
    got, want = tmp_path / "got.csv", tmp_path / "want.csv"
    for alpha, N in ((math.pi / 6, 50), (0.9, 12)):
        g = green_vector(projected_wedge_chain(N, alpha, mode="float"), 0)
        g.to_csv(got)
        green_csv_reference(g, range(N + 1), want)
        assert got.read_bytes() == want.read_bytes()
    for alpha, mode in ((math.pi / 6, "float"), (math.pi / 3, "rational"), (0.9, "float")):
        spec = WedgeSpec(alpha=alpha, layers=6)
        g = green_vector(wedge_kernel(build_wedge_lattice(spec), spec, mode=mode), (0, 0))
        g.to_csv(got)
        green_csv_reference(g, layer_sites(6), want)
        assert got.read_bytes() == want.read_bytes()


def _wedge_system(alpha, N):
    spec = WedgeSpec(alpha=alpha, layers=N)
    lat = build_wedge_lattice(spec)
    P = wedge_kernel(lat, spec)
    mask = P.absorbing_mask()
    return lat, P, mask, [i for i in range(P.n_states) if not mask[i]]


@pytest.mark.parametrize("alpha", [math.pi / 6, math.pi / 4, math.pi / 3])
def test_apex_green_is_lifted_from_the_radial_chain(alpha):
    for N in (2, 5, 8, 14):
        lat, P, mask, transient = _wedge_system(alpha, N)
        lifted = _lifted_green(P, mask, transient, lat.index(0, 0))
        assert lifted is not None
        g = green_vector(P, (0, 0))
        assert [g.visits[s] for s in transient] == lifted
        assert "rows" not in vars(P)        # the lift reads the CSR arrays
        assert lifted == _reference_rational_green(P.rows, transient, 0)


@pytest.mark.parametrize("alpha", [math.pi / 6, math.pi / 4, math.pi / 3])
def test_apex_green_lifts_at_every_depth(alpha):
    # every rational Green vector that green and reverse ask for is the
    # lift's: the apex of the wedge kernel and of its radial chain
    for N in range(2, 41):
        spec = WedgeSpec(alpha=alpha, layers=N)
        for P in (wedge_kernel(build_wedge_lattice(spec), spec),
                  projected_wedge_chain(N, alpha)):
            mask = P.absorbing_mask()
            assert P.mode == "rational"
            assert _lifted_green(P, mask, np.flatnonzero(~mask), 0) is not None


@pytest.mark.parametrize("alpha, N, planar", [
    (math.pi / 6, 30, True), (math.pi / 6, 60, True), (math.pi / 3, 30, True),
    (math.pi / 3, 60, True), (math.pi / 6, 50, False), (math.pi / 6, 200, False),
    (math.pi / 4, 50, False), (math.pi / 4, 200, False)])
def test_float_lift_is_the_exact_vector_to_rounding(alpha, N, planar):
    # the recurrence on the float kernel against the exact rational vector;
    # state 0 is the apex of both chains
    def kernel(mode):
        if not planar:
            return projected_wedge_chain(N, alpha, mode=mode)
        spec = WedgeSpec(alpha=alpha, layers=N)
        return wedge_kernel(build_wedge_lattice(spec), spec, mode=mode)

    P = kernel("float")
    got, want = green_vector(P, 0), green_vector(kernel("rational"), 0)
    mask = P.absorbing_mask()
    transient = np.flatnonzero(~mask)
    assert _lifted_green(P, mask, transient, 0) == [got.visits[s] for s in transient]
    exact = np.array([float(v) for v in want.visits])
    assert np.abs(got.as_floats()[transient] / exact[transient] - 1).max() <= 2e-15
    assert not got.as_floats()[mask].any()


def test_float_lift_is_refused_off_the_intertwining_and_off_the_apex():
    # an eps-perturbed row leaves the radial chain as it was, and a source
    # that shares its layer has no radial chain: both take the sparse solve
    spec = WedgeSpec(alpha=math.pi / 6, layers=8)
    lat = build_wedge_lattice(spec)
    P = wedge_kernel(lat, spec, mode="float")
    mask = P.absorbing_mask()
    rows = [dict(r) for r in P.rows]
    rows[lat.index(2, 0)][lat.index(2, 1)] -= 1e-6
    rows[lat.index(2, 0)][lat.index(2, -1)] += 1e-6
    Pe = kernel_from_rows(rows, "float", layers=P.layers, y=P.y)
    transient = np.flatnonzero(~mask)
    for kernel, source in ((Pe, 0), (P, lat.index(1, 1))):
        assert _lifted_green(kernel, mask, transient, source) is None
        e = (transient == source).astype(float)
        want = green_reversal._transient_solve(kernel.to_csr()[transient], transient, e,
                                               transpose=True)
        g = green_vector(kernel, source)
        assert [g.visits[s] for s in transient] == want.tolist()


def test_green_of_a_layered_kernel_that_is_not_intertwined():
    # eps of mass moved between two targets of one row leaves the radial
    # chain as it was, but the planar visits are no longer uniform on the
    # fibers: the certificate refuses the lift, so the exact solve is refused
    # and the float solve takes the sparse LU
    lat, P, mask, transient = _wedge_system(math.pi / 6, 8)
    eps = F(1, 10 ** 6)
    rows = [dict(r) for r in P.rows]
    rows[lat.index(2, 0)][lat.index(2, 1)] -= eps
    rows[lat.index(2, 0)][lat.index(2, -1)] += eps
    Pe = kernel_from_rows(rows, P.mode, layers=P.layers, y=P.y)
    assert _lifted_green(Pe, mask, transient, 0) is None
    _assert_refused_exactly_and_solved_in_float(Pe, 0)
    want = _reference_rational_green(rows, transient, 0)
    assert want[lat.index(2, 1)] != want[lat.index(2, -1)]


def test_green_from_a_non_apex_source_takes_the_elimination():
    # (1, 1) shares its layer, so it has no radial chain: only the float
    # sparse LU solves from it
    lat, P, mask, transient = _wedge_system(math.pi / 4, 6)
    source = lat.index(1, 1)
    assert _lifted_green(P, mask, transient, source) is None
    _assert_refused_exactly_and_solved_in_float(P, source)


def test_lift_is_refused_when_absorption_is_unreachable(monkeypatch):
    # layer 1 holds a (which feeds the apex and layer 2) and the pair b <-> c,
    # a closed class that never absorbs.  The fiber-uniform lift g = (3, 2,
    # 2, 2) solves g (I - T) = e_src, but so does g + t (0, 0, 1, 1): the
    # system is singular, so the exact solve is refused and the float one is
    # a SolverError
    layers, y = np.array(layer_sites(2)).T
    rows = [{0: F(1, 2), 1: F(1, 2)}, {0: F(1, 4), 1: F(1, 4), 4: F(1, 2)},
            {3: F(1)}, {2: F(1)}] + [{j: F(1)} for j in range(4, 9)]
    P = kernel_from_rows(rows, "rational", layers=layers, y=y)
    with pytest.raises(ParameterError, match="radial lift"):
        green_vector(P, (0, 0))
    with pytest.raises(SolverError, match="singular"):
        green_vector(_float_kernel(P), (0, 0))
    monkeypatch.setattr(green_reversal, "_reach_back",
                        lambda rows, cols, seed: np.ones(seed.size, dtype=bool))
    mask = P.absorbing_mask()
    assert _lifted_green(P, mask, [0, 1, 2, 3], 0) == [3, 2, 2, 2]
