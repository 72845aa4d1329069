import concurrent.futures
import math
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wedgewalk import (
    ParameterError,
    PathAggregate,
    Side,
    SimulationTimeout,
    StochasticKernel,
    WedgeSpec,
    bessel3_hit,
    build_vase_grid,
    build_wedge_lattice,
    chi_square,
    discrete_hit_prob,
    exact_exit_law,
    green_vector,
    hit_probability,
    kolmogorov_critical,
    ks_statistic,
    last_side_curve,
    nagasawa_reverse,
    power_shape,
    projected_vase_rates,
    projected_wedge_chain,
    run_paths,
    sample_path,
    seesaw,
    strip_seesaw_samples,
    vase_rate_matrix,
    wedge_kernel,
)
from wedgewalk import simulation

from rows_reference import kernel_from_rows


def wedge(alpha, m, mode="float"):
    spec = WedgeSpec(alpha=alpha, layers=m)
    lat = build_wedge_lattice(spec)
    return lat, wedge_kernel(lat, spec, mode=mode)


def test_worker_layout_invariance():
    lat, P = wedge(math.pi / 6, 10)
    a1 = run_paths(P, "apex", stop=10, n_paths=12000, seed=5, workers=1,
                   block_size=2048)
    a2 = run_paths(P, "apex", stop=10, n_paths=12000, seed=5, workers=2,
                   block_size=2048)
    assert np.array_equal(a1.exit_side, a2.exit_side)
    assert np.array_equal(a1.steps_hist, a2.steps_hist)
    assert a1.steps_sum == a2.steps_sum


def test_pool_starts_no_more_workers_than_blocks(monkeypatch):
    # a fork pool starts all of its workers at once, so the size is capped
    # by the number of blocks; the stand-in pool runs the blocks in-process
    sizes = []

    class InlinePool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    lat, P = wedge(math.pi / 6, 4)
    agg = run_paths(P, "apex", stop=4, n_paths=300, seed=2, workers=5000,
                    block_size=200)
    assert sizes == [2]
    assert agg.n_paths == 300


def test_block_size_changes_stream_but_not_contract():
    lat, P = wedge(math.pi / 6, 8)
    a = run_paths(P, "apex", stop=8, n_paths=5000, seed=1, block_size=1024)
    b = run_paths(P, "apex", stop=8, n_paths=5000, seed=1, block_size=1024)
    assert np.array_equal(a.exit_side, b.exit_side)   # bit-exact reruns


def test_start_on_stop_layer_exits_immediately():
    lat, P = wedge(math.pi / 4, 6)
    agg = run_paths(P, ("fiber", 6), stop=6, n_paths=4000, seed=3)
    assert agg.steps_sum == 0 and agg.steps_max == 0
    # exit counts coincide with the initial fiber draw
    assert np.array_equal(agg.exit_counts(), agg.initial)
    dist = agg.exit_distribution(6)
    assert dist.total == 4000


def test_uniform_hitting_wedge():
    lat, P = wedge(math.pi / 6, 12)
    agg = run_paths(P, "apex", stop=12, n_paths=30000, seed=7)
    dist = agg.exit_distribution(12)
    out = chi_square(dist.counts)
    assert out["p_value"] > 0.001


def test_exit_symmetry():
    lat, P = wedge(math.pi / 4, 8)
    agg = run_paths(P, "apex", stop=8, n_paths=40000, seed=11)
    counts = agg.exit_counts()
    for y in range(1, 9):
        a = counts[lat.index(8, y)]
        b = counts[lat.index(8, -y)]
        sigma = math.sqrt(a + b)
        assert abs(a - b) <= 4 * sigma + 1


def test_a_start_outside_the_kernel_is_a_parameter_error():
    lat, P = wedge(math.pi / 6, 4)
    Q = projected_wedge_chain(4, math.pi / 6, mode="float")
    for kernel, start in ((P, (5, 0)), (P, (2, 3)), (P, (-1, 0)), (P, ("fiber", 5)),
                          (P, ("fiber", -1)), (P, 25), (P, -1), (Q, ("fiber", 2)),
                          (Q, (1, 0))):
        with pytest.raises(ParameterError):
            simulation._start_distribution(kernel, start)
    with pytest.raises(ParameterError):
        run_paths(P, (5, 0), stop=4, n_paths=10)


def test_sample_path_record():
    lat, P = wedge(math.pi / 6, 5)
    rec = sample_path(P, "apex", stop=5, rng=np.random.default_rng(0))
    assert P.layers[rec.exit_state] == 5
    assert rec.steps >= 5
    assert rec.last_side in (Side.UPPER, Side.LOWER, Side.UNDEFINED)


def test_last_side_curve_symmetry():
    # reflection symmetry pairs sites y and -y, so the conditional upper
    # probabilities of mirrored *sites* sum to one; equal-width bins of the
    # 2M+1 discrete positions are deliberately not mirror images, so the
    # check lives at site level
    M = 16
    lat, P = wedge(math.pi / 6, M)
    agg = run_paths(P, "apex", stop=M, n_paths=60000, seed=13)
    curve = last_side_curve(agg, M, bins=8)
    assert curve.undefined_fraction <= 0.001
    assert all(b.n > 0 for b in curve.bins)
    assert [b.s_lo for b in curve.bins] == [j / 8 for j in range(8)]

    def p_upper(y):
        row = agg.exit_side[lat.index(M, y)]
        n = row[Side.UPPER] + row[Side.LOWER]
        return row[Side.UPPER] / n, math.sqrt(0.25 / n)

    for y in (2, 7, 12, 16):
        p_hi, se_hi = p_upper(y)
        p_lo, se_lo = p_upper(-y)
        assert p_hi + p_lo == pytest.approx(1.0, abs=4 * math.hypot(se_hi, se_lo))
    p_mid, se_mid = p_upper(0)
    assert p_mid == pytest.approx(0.5, abs=4 * se_mid)


def test_curve_export(tmp_path):
    lat, P = wedge(math.pi / 6, 8)
    agg = run_paths(P, "apex", stop=8, n_paths=5000, seed=2)
    curve = last_side_curve(agg, 8, bins=4)
    rec = curve.to_json_dict()
    assert set(rec) == {"undefined_fraction", "bins"}   # the record holds the run's params
    assert len(rec["bins"]) == 4
    assert {"s_lo", "s_hi", "n", "p_hat", "stderr", "mean_s"} <= set(rec["bins"][0])
    path = tmp_path / "curve.csv"
    curve.to_csv(path)
    assert len(path.read_text().strip().splitlines()) == 5


def test_vase_jump_chain_uniform_hitting():
    grid = build_vase_grid(power_shape(2.0), 10, 10)
    P = vase_rate_matrix(grid).jump_chain()
    agg = run_paths(P, "apex", stop=10, n_paths=30000, seed=17)
    dist = agg.exit_distribution(10)
    out = chi_square(dist.counts)
    assert out["p_value"] > 0.001


def test_vase_plain_rates_show_the_bias():
    # without the projection-exact skew the exit law is visibly non-uniform
    grid = build_vase_grid(power_shape(2.0), 10, 10)
    P = vase_rate_matrix(grid, exact_projection=False).jump_chain()
    agg = run_paths(P, "apex", stop=10, n_paths=30000, seed=17)
    dist = agg.exit_distribution(10)
    out = chi_square(dist.counts)
    assert out["p_value"] < 1e-6


def test_reversed_chain_simulation():
    N = 10
    lat, P = wedge(math.pi / 6, N)
    rev = nagasawa_reverse(P, green_vector(P, (0, 0)))
    agg = run_paths(rev.kernel, rev.initial_law, stop=None, n_paths=20000, seed=23)
    # every reversed path dies at the kill state
    assert agg.exit_counts()[rev.kill_index] == 20000
    # initial draws reproduce the uniform absorption law
    init = np.array([agg.initial[lat.index(N, y)] for y in range(-N, N + 1)])
    assert init.sum() == 20000
    assert chi_square(init)["p_value"] > 0.001


def test_reversed_path_length_law_matches_forward():
    # reversing a trajectory preserves its length, so the step histograms of
    # the forward run and the reversed run agree in law
    N = 10
    lat, P = wedge(math.pi / 6, N)
    fwd = run_paths(P, "apex", stop=N, n_paths=20000, seed=29)
    rev = nagasawa_reverse(P, green_vector(P, (0, 0)))
    bwd = run_paths(rev.kernel, rev.initial_law, stop=None, n_paths=20000, seed=31)
    f = fwd.steps_hist[fwd.steps_hist + bwd.steps_hist > 0]
    b = bwd.steps_hist[fwd.steps_hist + bwd.steps_hist > 0]
    # two-sample chi-square on shared bit-length bins
    exp = (f + b) / 2.0
    stat = float((((f - exp) ** 2 + (b - exp) ** 2) / np.maximum(exp, 1)).sum())
    from scipy.special import gammaincc
    p = float(gammaincc((len(f) - 1) / 2, stat / 2))
    assert p > 0.001
    # and their means are close
    mf = fwd.steps_sum / fwd.n_paths
    mb = bwd.steps_sum / bwd.n_paths
    assert mb == pytest.approx(mf, rel=0.05)


def test_step_cap_timeout():
    lat, P = wedge(math.pi / 6, 10)
    with pytest.raises(SimulationTimeout) as info:
        run_paths(P, "apex", stop=10, n_paths=100, seed=1, step_cap=5)
    err = info.value
    assert isinstance(err.partial, PathAggregate)
    assert err.partial.n_paths + err.active == 100
    assert err.active == 100          # layer 10 is out of reach in 5 steps


def test_step_cap_partial_counts_the_absorbed_paths():
    lat, P = wedge(math.pi / 6, 3)
    partials = []
    for workers in (1, 2):
        with pytest.raises(SimulationTimeout) as info:
            run_paths(P, "apex", stop=3, n_paths=3000, seed=4, workers=workers,
                      block_size=1024, step_cap=6)
        err = info.value
        agg = err.partial
        assert 0 < agg.n_paths < 3000 and err.active > 0
        assert agg.n_paths + err.active == 3000
        assert int(agg.exit_side.sum()) == agg.n_paths
        assert int(agg.steps_hist.sum()) == agg.n_paths
        assert agg.steps_max <= 6
        assert int(agg.initial.sum()) == 3000
        partials.append((agg, err.active))
    (a1, n1), (a2, n2) = partials
    assert n1 == n2 and np.array_equal(a1.exit_side, a2.exit_side)


def _line_kernel():
    """The deterministic walk 0 -> 1 -> ... -> 5, absorbed at 5, so a path
    from state i takes 5 - i steps; state 1 lies on the lower side and
    state 3 on the upper one."""
    rows = [{i + 1: 1.0} for i in range(5)] + [{5: 1.0}]
    return kernel_from_rows(rows, "float", layers=np.array([2, 1, 2, 3, 2, 2]),
                            y=np.array([0, -1, 0, 3, 1, 1]))


def _line_expected(initial, cap):
    """The aggregate of the line walk from the start counts ``initial``,
    with the paths longer than ``cap`` left active."""
    steps = 5 - np.arange(6)
    done = initial * (steps <= cap)
    hist = np.zeros(64, dtype=np.int64)
    np.add.at(hist, [int(s).bit_length() for s in steps], done)
    # from states 0..3 the last side met is the upper one at state 3
    exit_5 = [done[4:].sum(), done[:4].sum(), 0]
    return hist, int(done @ steps), int(steps[done > 0].max(initial=0)), exit_5


def test_step_accounting_is_exact_for_odd_and_even_path_lengths():
    K = _line_kernel()
    agg = run_paths(K, np.full(6, 1 / 6), stop=None, n_paths=6000, seed=37,
                    block_size=1000)
    assert agg.initial.min() > 0 and agg.n_paths == 6000
    hist, ssum, smax, exit_5 = _line_expected(agg.initial, 5)
    assert np.array_equal(agg.steps_hist, hist)
    assert (agg.steps_sum, agg.steps_max) == (ssum, smax) and smax == 5
    assert agg.exit_side[5].tolist() == exit_5
    assert agg.exit_side[:5].sum() == 0


@pytest.mark.parametrize("cap", [0, 1, 2, 3, 4])
def test_step_cap_is_exact_in_single_steps(cap):
    # the paths of length at most the cap are absorbed, the others active
    K = _line_kernel()
    with pytest.raises(SimulationTimeout) as info:
        run_paths(K, np.full(6, 1 / 6), stop=None, n_paths=6000, seed=41,
                  block_size=1000, step_cap=cap)
    err, agg = info.value, info.value.partial
    hist, ssum, smax, exit_5 = _line_expected(agg.initial, cap)
    assert err.active == int(agg.initial[:5 - cap].sum())
    assert agg.n_paths == 6000 - err.active == int(agg.initial[5 - cap:].sum())
    assert np.array_equal(agg.steps_hist, hist)
    assert (agg.steps_sum, agg.steps_max) == (ssum, smax) and smax == cap
    assert agg.exit_side[5].tolist() == exit_5


@pytest.mark.parametrize("bad", [{"block_size": -5}, {"block_size": 0},
                                 {"step_cap": -1}],
                         ids=["block_size=-5", "block_size=0", "step_cap=-1"])
def test_run_paths_refuses_a_bad_block_size_or_step_cap(bad):
    # block_size=-5 made no blocks and claimed 100 paths with no exits,
    # block_size=0 raised a bare ValueError and step_cap=-1 disabled the cap
    lat, P = wedge(math.pi / 6, 4)
    with pytest.raises(ParameterError):
        run_paths(P, "apex", stop=4, n_paths=100, **bad)


@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=str)
def test_run_paths_refuses_a_start_distribution_that_is_not_finite(bad):
    lat, P = wedge(math.pi / 6, 4)
    p = np.full(P.n_states, 1.0 / P.n_states)
    p[3] = bad
    with pytest.raises(ParameterError):
        run_paths(P, p, stop=4, n_paths=100)


def test_step_cap_zero_walks_no_step():
    lat, P = wedge(math.pi / 6, 4)
    with pytest.raises(SimulationTimeout) as info:
        run_paths(P, "apex", stop=4, n_paths=100, step_cap=0)
    assert info.value.active == 100 and info.value.partial.n_paths == 0


def test_discrete_hit_prob_formula():
    Q = projected_wedge_chain(250, math.pi / 4, mode="float")
    h = lambda i: 1.0 / (2 * i + 1)
    got = discrete_hit_prob(Q, 50, 25, 200)
    want = (h(50) - h(200)) / (h(25) - h(200))
    assert got == pytest.approx(want, abs=1e-12)
    with pytest.raises(ParameterError):
        discrete_hit_prob(Q, 10, 10, 20)


def test_discrete_hit_prob_far_ceiling():
    Q = projected_wedge_chain(10000, math.pi / 4, mode="float")
    got = discrete_hit_prob(Q, 2, 1, 10000)
    h = lambda i: 1.0 / (2 * i + 1)
    exact = (h(2) - h(10000)) / (h(1) - h(10000))
    assert got == pytest.approx(exact, abs=1e-8)
    assert got == pytest.approx(3 / 5, abs=1e-3)


@pytest.mark.parametrize("chain", ["vase", "wedge"])
def test_discrete_hit_prob_is_the_hitting_solve(chain):
    # the scale-function ratio against the absorbing solve, on the c10 vase
    # chain at beta = 1.5 and on the wedge radial chain
    if chain == "vase":
        grid = build_vase_grid(power_shape(1.5), 50, 201)
        Q = projected_vase_rates(grid).jump_chain()
    else:
        Q = projected_wedge_chain(250, math.pi / 6, mode="float")
    for start, lower, upper in ((50, 25, 200), (2, 1, 200), (199, 0, 200)):
        got = discrete_hit_prob(Q, start, lower, upper)
        assert got == pytest.approx(hit_probability(Q, start, [lower], [upper]),
                                    rel=0, abs=1e-13)


def test_discrete_hit_prob_off_a_birth_death_chain_is_the_solve():
    # a jump over a neighbour and a state that cannot step up both leave
    # the recurrence and take the solve
    rows = [{0: F(1)}, {0: F(1, 4), 2: F(1, 4), 3: F(1, 2)}, {1: F(1, 2), 3: F(1, 2)},
            {2: F(1, 3), 4: F(2, 3)}, {4: F(1)}]
    walled = [{0: F(1)}, {0: F(1, 2), 2: F(1, 2)}, {1: F(1, 2), 3: F(1, 2)},
              {2: F(1)}, {4: F(1)}]
    for K in (kernel_from_rows(rows, "float"), kernel_from_rows(walled, "float")):
        assert discrete_hit_prob(K, 2, 0, 4) == hit_probability(K, 2, [0], [4])
    assert discrete_hit_prob(K, 2, 0, 4) == pytest.approx(1.0, abs=1e-15)
    with pytest.raises(ParameterError):
        discrete_hit_prob(K, 2, 0, 5)


def test_discrete_vs_bessel():
    Q = projected_wedge_chain(250, math.pi / 6, mode="float")
    got = discrete_hit_prob(Q, 50, 25, 200)
    assert abs(got - bessel3_hit(50, 25, 200)) <= 0.02


def test_seesaw_values():
    assert seesaw(2.5) == pytest.approx(0.5)
    assert seesaw(3.5) == pytest.approx(0.5)
    xs = np.random.default_rng(0).normal(0, 3, 1000)
    assert np.allclose(seesaw(xs), seesaw(xs + 2))
    assert np.allclose(seesaw(xs), seesaw(-xs))
    assert np.all((seesaw(xs) >= 0) & (seesaw(xs) <= 1))


def test_seesaw_uniformity_ks():
    s = strip_seesaw_samples(1.0, 100000, seed=3)
    d = ks_statistic(s)
    assert d < kolmogorov_critical(0.001, 100000)


def test_seesaw_rejects_bad_t():
    with pytest.raises(ParameterError):
        strip_seesaw_samples(0.0, 10)


def test_empirical_distribution_validation():
    from wedgewalk import EmpiricalDistribution

    with pytest.raises(ParameterError):
        EmpiricalDistribution(labels=[1, 2], counts=np.array([3, 4]), total=8, seed=0)


# ---------------------------------------------------------------------------
# the sampler against the exact law of (exit state, last side)
# ---------------------------------------------------------------------------

def _assert_matches_exact_law(kernel, start, stop, n_paths, seed):
    law = exact_exit_law(kernel, start, stop)
    assert law.shape == (kernel.n_states, 3)
    assert abs(law.sum() - 1.0) <= 5e-13 and law.min() >= 0.0   # the solve's mass defect
    agg = run_paths(kernel, start, stop=stop, n_paths=n_paths, seed=seed)
    # no path ends in a cell of no mass; the rest are scored cell by cell
    cells = law.ravel() > 0
    assert agg.exit_side.ravel()[~cells].sum() == 0
    out = chi_square(agg.exit_side.ravel()[cells], law.ravel()[cells])
    assert out["p_value"] > 0.001, out


def test_exact_exit_law_is_sampled_at_pi_over_6():
    _assert_matches_exact_law(wedge(math.pi / 6, 30)[1], "apex", 30, 100000, 67)


def test_exact_exit_law_is_sampled_at_alpha_0_9():
    _assert_matches_exact_law(wedge(0.9, 30)[1], "apex", 30, 100000, 47)


def test_exact_exit_law_is_sampled_on_the_vase_jump_chain():
    P = vase_rate_matrix(build_vase_grid(power_shape(2.0), 20, 20)).jump_chain()
    _assert_matches_exact_law(P, "apex", 20, 100000, 53)


def test_exact_exit_law_is_sampled_on_the_reversed_chain():
    # the reversed walk from the exit layer, stopped where it first meets
    # layer 15 (the kill state, which it cannot reach first, stays a stop),
    # and run on to its kill state
    lat, P = wedge(math.pi / 6, 30)
    rev = nagasawa_reverse(P, green_vector(P, (0, 0)))
    stop = (rev.kernel.layers == 15) | rev.kernel.absorbing_mask()
    _assert_matches_exact_law(rev.kernel, rev.initial_law, stop, 100000, 59)
    _assert_matches_exact_law(rev.kernel, rev.initial_law, None, 100000, 61)


def test_exact_exit_law_of_the_reversed_chain_needs_no_extra_stops():
    # the kill state is a transient self-loop that no path meets before
    # layer 15: the solve keeps to the pairs the start law reaches
    lat, P = wedge(math.pi / 6, 30)
    rev = nagasawa_reverse(P, green_vector(P, (0, 0)))
    K, mid = rev.kernel, rev.kernel.layers == 15
    assert np.array_equal(exact_exit_law(K, rev.initial_law, mid),
                          exact_exit_law(K, rev.initial_law, mid | K.absorbing_mask()))
    # every start state already lies at or above layer 15
    law = exact_exit_law(K, rev.initial_law, 15)
    assert np.allclose(law.sum(axis=1), rev.initial_law, rtol=0, atol=1e-15)


def test_exact_exit_law_of_the_line_walk():
    # from a fixed start, from a stop state and from a start law
    K = _line_kernel()
    want = np.zeros((6, 3))
    want[5, Side.UPPER] = 1.0
    assert np.array_equal(exact_exit_law(K, 0), want)
    want[5] = [1.0, 0.0, 0.0]
    assert np.array_equal(exact_exit_law(K, 5), want)
    want[5] = [0.5, 0.5, 0.0]
    law = exact_exit_law(K, np.array([0.5, 0, 0, 0, 0.25, 0.25]))
    assert np.allclose(law, want, rtol=0, atol=1e-15)


# ---------------------------------------------------------------------------
# bit-identity of the sampler step against the two-step compare-and-sum
# ---------------------------------------------------------------------------

def _squared_rows(kernel, stopm):
    """Each row's two-step outcomes, built row by row: for each target t in
    order, t alone with p(i, t) if t stops the walk, else (t, u) with
    p(i, t) p(t, u) for each target u of row t in order.  Returns the
    cumulative probabilities padded with 2.0, the row's last one replaced
    by 2.0 too (never compared), and each outcome's first and second state
    (-1 after a stop), padded with -1."""
    P = kernel.to_csr()
    rows = []
    for i in range(kernel.n_states):
        out = []
        for e in range(P.indptr[i], P.indptr[i + 1]):
            t, p = P.indices[e], P.data[e]
            if stopm[t]:
                out.append((p, t, -1))
            else:
                out += [(p * P.data[f], t, P.indices[f])
                        for f in range(P.indptr[t], P.indptr[t + 1])]
        rows.append(out)
    W = max(map(len, rows))
    cum = np.full((kernel.n_states, W), 2.0)
    mid = np.full((kernel.n_states, W), -1, dtype=np.int64)
    end = np.full((kernel.n_states, W), -1, dtype=np.int64)
    for i, out in enumerate(rows):
        p, mid[i, :len(out)], end[i, :len(out)] = zip(*out)
        cum[i, :len(out) - 1] = np.cumsum(p)[:-1]
    return cum, mid, end


def _reference_run_block(cum, mid, end, stopm, side, start_idx, start_cdf, n, seed,
                         block_id, track):
    """One block of the sampler with the (paths, W) compare-and-sum over
    the squared rows: the same block stream as ``run_paths``, one draw per
    live path and double step."""
    rng = simulation._block_rng(seed, block_id)
    S = stopm.size
    if start_cdf is not None:
        state = np.searchsorted(start_cdf, rng.random(n), side="right").astype(np.int64)
        state = np.minimum(state, S - 1)
    else:
        state = np.full(n, start_idx, dtype=np.int64)
    exit_side = np.zeros((S, 3), dtype=np.int64)
    initial = np.zeros(S, dtype=np.int64)
    np.add.at(initial, state, 1)
    hist = np.zeros(64, dtype=np.int64)
    sums = [0, 0]                 # steps_sum, steps_max

    def stop(done, state, last, t):
        np.add.at(exit_side, (state[done], last[done]), 1)
        nd = int(done.sum())
        if nd:
            hist[int(t).bit_length()] += nd
            sums[0] += t * nd
            sums[1] = max(sums[1], t)
        return state[~done], last[~done]

    def meet(state, last):
        if track:
            s = side[state]
            np.copyto(last, s, where=s != 0)

    last = np.zeros(n, dtype=np.int8)
    meet(state, last)
    t = 0
    while state.size:
        state, last = stop(stopm[state], state, last, t)
        if not state.size:
            break
        u = rng.random(state.size)
        j = (u[:, None] >= cum[state]).sum(axis=1)
        state, after = mid[state, j], end[state, j]
        meet(state, last)
        halfway = after < 0
        state, last = stop(halfway, state, last, t + 1)
        state = after[~halfway]
        meet(state, last)
        t += 2
    return exit_side, initial, hist, sums[0], sums[1]


def _assert_same_as_reference(kernel, start, stop, n_paths, seed, block_size,
                              track=True):
    observers = ("exit", "last_side", "steps") if track else ("exit", "steps")
    agg = run_paths(kernel, start, stop=stop, observers=observers,
                    n_paths=n_paths, seed=seed, block_size=block_size)
    stopm = simulation._resolve_stop(kernel, stop)
    cum, mid, end = _squared_rows(kernel, stopm)
    side = simulation._side_array(kernel)
    start_idx, start_cdf = simulation._start_distribution(kernel, start)
    blocks = [_reference_run_block(cum, mid, end, stopm, side, start_idx, start_cdf,
                                   min(block_size, n_paths - lo), seed, b, track)
              for b, lo in enumerate(range(0, n_paths, block_size))]
    exit_side, initial, hist, ssum, smax = zip(*blocks)
    assert np.array_equal(agg.exit_side, sum(exit_side))
    assert np.array_equal(agg.initial, sum(initial))
    assert np.array_equal(agg.steps_hist, sum(hist))
    assert (agg.steps_sum, agg.steps_max) == (sum(ssum), max(smax))
    if track:
        assert agg.exit_side[:, Side.UPPER:].sum() > 0


def test_sampler_matches_compare_and_sum_on_the_wedge():
    lat, P = wedge(math.pi / 6, 10)
    _assert_same_as_reference(P, "apex", 10, 5000, 3, 2048)


def test_sampler_matches_compare_and_sum_on_the_vase_jump_chain():
    grid = build_vase_grid(power_shape(2.0), 10, 10)
    P = vase_rate_matrix(grid).jump_chain()
    _assert_same_as_reference(P, "apex", 10, 5000, 5, 2048)


def test_sampler_matches_compare_and_sum_on_the_reversed_chain():
    lat, P = wedge(math.pi / 6, 8)
    rev = nagasawa_reverse(P, green_vector(P, (0, 0)))
    _assert_same_as_reference(rev.kernel, rev.initial_law, None, 3000, 7, 1024)


def test_sampler_matches_compare_and_sum_from_a_fiber():
    lat, P = wedge(math.pi / 4, 8)
    _assert_same_as_reference(P, ("fiber", 3), 8, 3000, 9, 1024)


def _ragged_kernel():
    """Rows of every width 1..7, with absorbing rows every ninth state and
    layers and transverse indices (k, y) that put some states on a
    reflecting side."""
    rng = np.random.default_rng(12)
    n = 45
    layers, y = np.arange(n) // 7 + 1, np.arange(n) % 7 - 3
    absorbing = [i for i in range(n) if i % 9 == 8]
    rows = []
    for i in range(n):
        w = 1 + i % 7
        if i in absorbing:
            rows.append({i: 1.0})
        elif w == 1:
            rows.append({min(a for a in absorbing if a > i): 1.0})
        else:
            cols = set(rng.choice(n, size=w - 1, replace=False).tolist())
            cols.add(int(rng.choice(absorbing)))
            while len(cols) < w:
                cols.add(int(rng.integers(n)))
            p = rng.random(len(cols)) + 0.05
            p /= p.sum()
            rows.append(dict(zip(sorted(cols), p.tolist())))
    return kernel_from_rows(rows, "float", layers=layers, y=y)


def test_sampler_matches_compare_and_sum_on_ragged_rows():
    K = _ragged_kernel()
    widths = {len(r) for r in K.rows}
    assert widths == set(range(1, 8))
    start = np.full(K.n_states, 1.0 / K.n_states)
    for track in (True, False):
        _assert_same_as_reference(K, start, None, 4000, 11, 1500, track=track)
    _assert_same_as_reference(K, 2, None, 4000, 13, 1500)


def test_apex_start_needs_an_apex_label():
    Q = projected_wedge_chain(6, math.pi / 6, mode="float")
    agg = run_paths(Q, "apex", stop=np.arange(Q.n_states) >= 6, n_paths=50)
    assert agg.initial[0] == 50
    with pytest.raises(ParameterError):
        run_paths(_ragged_kernel(), "apex", n_paths=10)


def test_sampler_matches_compare_and_sum_through_split_buckets():
    # at alpha = 0.9 the thresholds are no multiples of 1/64, so the buckets
    # are 7 bits wide, many are still split, and the steps through them read
    # the threshold records
    lat, P = wedge(0.9, 8)
    bits, entry, guide, records = _step_tables(P, 8)
    live = ~np.repeat(P.layers >= 8, 3)
    assert bits == 7
    assert (guide.reshape(len(live), -1)[live] <= -1 - 2 * entry.size).mean() > 0.02
    _assert_same_as_reference(P, "apex", 8, 5000, 19, 2048)


def _chained_kernel(extra):
    """Two absorbing side states and a state whose row {0.002, 0.002, 0.996}
    puts the four distinct thresholds of its squared row into its first
    bucket at 4 and at 6 bits; ``extra`` states with thirds split four more
    cells each."""
    layers, y = [1, 1, 1] + [2] * extra, [1, -1, 0] + list(range(extra))
    rows = [{0: 1.0}, {1: 1.0}, {0: 0.002, 1: 0.002, 2: 0.996}]
    rows += [{0: 1 / 3, 1: 1 / 3, 3 + y: 1 / 3} for y in range(extra)]
    # the site (1, 0) is state site_index(1, 0) = 2, as a start below
    return kernel_from_rows(rows, "float", layers=np.array(layers), y=np.array(y))


@pytest.mark.parametrize("extra,bits", [(0, 4), (1, 6)])
def test_sampler_matches_compare_and_sum_through_chained_records(extra, bits):
    K = _chained_kernel(extra)
    tables = _step_tables(K)
    split = -1 - 2 * tables[1].size
    assert tables[0] == bits
    assert (tables[3][:, 2] <= split).any()          # a record names the next
    _assert_same_as_reference(K, (1, 0), None, 2000, 23, 700)


@pytest.mark.parametrize("extra", [0, 1])
def test_step_compares_the_drawn_word_with_each_threshold(extra, monkeypatch):
    # the first words are drawn one below and at each threshold of the
    # squared row of {0.002, 0.002, 0.996}; the zero words after them send a
    # path to state 0
    K = _chained_kernel(extra)
    T = _thresholds(K)[0][2, :4]
    m = np.stack([T - 1, T], axis=1).ravel().astype(np.uint64)

    class Words:
        def __init__(self, seed, block_id):
            self.bit_generator, self.left = self, m << np.uint64(11)

        def random_raw(self, n):
            out = np.append(self.left, np.zeros(n, dtype=np.uint64))[:n]
            self.left = self.left[n:]
            return out

    monkeypatch.setattr(simulation, "_block_rng", Words)
    agg = run_paths(K, (1, 0), n_paths=8)
    # one step to state 0 and two to state 1, two steps to state 0 twice
    # and to state 1 twice, and the path that stayed at state 2 goes on to
    # state 0 in a third step
    assert agg.exit_side[0, Side.UPPER] == 4 and agg.exit_side[1, Side.LOWER] == 4
    assert (agg.steps_sum, agg.steps_max) == (14, 3)
    assert agg.steps_hist[:3].tolist() == [0, 3, 5]


@settings(max_examples=15, deadline=None)
@given(alpha=st.floats(0.3, 1.5), hold=st.floats(0.02, 1 / 3),
       M=st.integers(2, 6), n_paths=st.integers(1, 500),
       block_size=st.integers(50, 500), seed=st.integers(0, 2 ** 32),
       track=st.booleans())
def test_sampler_matches_compare_and_sum_on_random_wedges(alpha, hold, M, n_paths,
                                                          block_size, seed, track):
    spec = WedgeSpec(alpha=alpha, layers=M, apex_hold=hold)
    P = wedge_kernel(build_wedge_lattice(spec), spec, mode="float")
    # a tracked run also asserts that some path met a side, which a handful
    # of paths need not do
    _assert_same_as_reference(P, "apex", M, n_paths, seed, block_size,
                              track=track and n_paths >= 100)


# ---------------------------------------------------------------------------
# the exact integer step tables
# ---------------------------------------------------------------------------

def _step_tables(kernel, stop=None):
    return simulation.padded_kernel(kernel, simulation._side_array(kernel),
                                    simulation._resolve_stop(kernel, stop))


def _resolve(tables, a, m):
    """The entry that the guide and the threshold records give a path at
    pairs ``a`` drawing the 53-bit ``m``."""
    bits, entry, guide, records = tables
    split = -1 - 2 * entry.size
    e = guide[(a << bits) + (m >> (53 - bits))].astype(np.int64)
    while (s := e <= split).any():
        rec = records[split - e[s]]
        e[s] = np.where(m[s] >= rec[:, 0], rec[:, 2], rec[:, 1])
    return e


def _thresholds(kernel, stop=None):
    """Each squared row's compared cumulative probabilities in 2**-53 units
    and its outcomes' states, from ``_squared_rows``."""
    cum, mid, end = _squared_rows(kernel, simulation._resolve_stop(kernel, stop))
    return np.ceil(cum[:, :-1] * 2.0 ** 53).astype(np.int64), mid, end


def _column_compare(kernel, stop, bits, a, m):
    """The same entry by counting the squared row's thresholds at or below
    m and following the pair's side through both moves."""
    T, mid, end = _thresholds(kernel, stop)
    side = simulation._side_array(kernel)
    stopm = simulation._resolve_stop(kernel, stop)
    j = (m[:, None] >= T[a // 3]).sum(axis=1)
    x, z = mid[a // 3, j], end[a // 3, j]
    first = 3 * x + np.where(side[x] != 0, side[x], a % 3)
    pair = 3 * z + np.where(side[z] != 0, side[z], first % 3)
    return np.where(z < 0, ~(first + 3 * kernel.n_states),
                    np.where(stopm[z], ~pair, pair << bits))


def _named_kernel(name):
    if name == "vase":
        return vase_rate_matrix(build_vase_grid(power_shape(2.0), 8, 8)).jump_chain()
    if name == "ragged":
        return _ragged_kernel()
    if name.startswith("chained"):
        return _chained_kernel(int(name[-1]))
    return wedge({"pi/6": math.pi / 6, "pi/4": math.pi / 4}.get(name, 0.9), 8)[1]


@pytest.mark.parametrize("name", ["pi/6", "pi/4", "0.9", "vase", "ragged",
                                  "chained-0", "chained-1"])
def test_guide_table_is_the_column_compare(name):
    K = _named_kernel(name)
    tables = _step_tables(K)
    bits, entry, guide = tables[:3]
    T = _thresholds(K)[0]
    a = np.arange(entry.size)
    # the first and last draw of every bucket, every threshold and the draw
    # just below it
    edge = np.arange(2 ** bits + 1, dtype=np.int64) << (53 - bits)
    draws = np.concatenate([np.broadcast_to(np.append(edge[:-1], edge[1:] - 1),
                                            (a.size, 2 * 2 ** bits)),
                            T[a // 3], T[a // 3] - 1], axis=1)
    draws = np.minimum(draws, 2 ** 53 - 1)
    pairs = np.repeat(a, draws.shape[1])
    assert np.array_equal(_resolve(tables, pairs, draws.ravel()),
                          _column_compare(K, None, bits, pairs, draws.ravel()))
    # a bucket is split exactly where a threshold lies strictly inside it
    inside = np.zeros((K.n_states, 2 ** bits), dtype=bool)
    for b in range(2 ** bits):
        inside[:, b] = ((T > edge[b]) & (T < edge[b + 1])).any(axis=1)
    split = guide.reshape(entry.size, -1) <= -1 - 2 * entry.size
    assert np.array_equal(split, np.repeat(inside, 3, axis=0))


def _split_cells(T, bits):
    """The number of ``bits``-wide cells with a threshold strictly inside."""
    edge = np.arange(2 ** bits + 1, dtype=np.int64) << (53 - bits)
    return sum(((T > edge[b]) & (T < edge[b + 1])).any(axis=1).sum()
               for b in range(2 ** bits))


@pytest.mark.parametrize("name,bits", [("pi/6", 6), ("pi/4", 4), ("pi/3", 6),
                                       ("0.9", 7), ("vase", 7)])
def test_bucket_width_follows_the_share_of_split_cells(name, bits):
    # 4 bits when at most 1 in 32 of the 4-bit cells would be split, else 6
    # when at most 1 in 32 of the 6-bit cells would be, else 7
    if name == "vase":
        K = vase_rate_matrix(build_vase_grid(power_shape(2.0), 20, 20)).jump_chain()
    else:
        K = wedge({"pi/6": math.pi / 6, "pi/4": math.pi / 4,
                   "pi/3": math.pi / 3}.get(name, 0.9), 30)[1]
    T = _thresholds(K)[0]
    few4, few6 = (32 * _split_cells(T, b) <= K.n_states << b for b in (4, 6))
    assert bits == (4 if few4 else 6 if few6 else 7)
    assert _step_tables(K)[0] == bits


@pytest.mark.parametrize("n,bits", [(43690, 7), (43691, 6)])
def test_a_7_bit_guide_stays_within_2_24_entries(n, bits):
    # state i moves to i + 1, i + 2 and the absorbing state n - 1 with 1/3
    # each, so the squared rows put six thresholds strictly inside 6-bit
    # cells; 3 n 2**7 entries pass 2**24 at n = 43691
    i = np.arange(n - 3)
    cols = np.stack([i + 1, i + 2, np.full(n - 3, n - 1)], axis=1).ravel()
    arrays = (np.concatenate([np.arange(0, 3 * (n - 3) + 1, 3),
                              3 * (n - 3) + np.arange(2, 5)]),
              np.concatenate([cols, [n - 2, n - 1, n - 1, n - 1]]),
              np.concatenate([np.full(3 * (n - 3), 1 / 3), [1 / 3, 2 / 3, 1.0, 1.0]]))
    K = StochasticKernel(arrays, mode="float")
    assert _step_tables(K)[0] == bits


@pytest.mark.parametrize("alpha", [math.pi / 4, math.pi / 3])
def test_special_angle_guide_has_no_split_bucket(alpha):
    # every two-step probability is a multiple of 1/16 at pi/4 and of 1/64
    # at pi/3, so each threshold falls on a bucket edge of the 4- and the
    # 6-bit buckets and no step reads a threshold record
    bits, entry, guide, records = _step_tables(wedge(alpha, 30)[1])
    assert bits == (4 if alpha == math.pi / 4 else 6) and len(records) == 0
    assert guide.min() >= -2 * entry.size


def test_integer_threshold_is_the_float_compare():
    ks = (1, 3, 2 ** 49, 2 ** 50 + 1, 2 ** 52 + 3, 2 ** 53 - 1)
    cs = [k * 2.0 ** -53 for k in ks]
    cs += [np.nextafter(c, 2.0) for c in cs] + [np.nextafter(c, 0.0) for c in cs]
    cs += [0.12499999999999997, 0.125, 1 / 3]
    # states 0 and 1 absorb, so a double step from state i >= 2 stops on its
    # first half at pair 0 or 3
    rows = [{0: 1.0}, {1: 1.0}] + [{0: c, 1: 1.0 - c} for c in cs]
    K = kernel_from_rows(rows, "float")
    tables = _step_tables(K)
    top = 2 ** 53 - 1                      # the largest draw m
    half = 3 * K.n_states
    for i, c in enumerate(cs, start=2):
        base = int(c * 2.0 ** 53)
        m = np.array([0, top] + list(range(max(base - 2, 0), min(base + 3, top + 1))))
        want = np.where(m * 2.0 ** -53 >= c, ~(3 + half), ~(0 + half))
        assert np.array_equal(_resolve(tables, np.full(m.size, 3 * i), m), want), c


def test_raw_block_word_is_the_uniform():
    def gen():
        return simulation._block_rng(4, 2)

    a, b = gen(), gen()
    u = np.concatenate([a.random(5), a.random(1000)])
    raw = np.concatenate([b.bit_generator.random_raw(5),
                          b.bit_generator.random_raw(1000)])
    assert np.array_equal(u, (raw >> 11) * 2.0 ** -53)
