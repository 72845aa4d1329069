"""Acceptance suite: one test per acceptance criterion, each printing a
PASS/FAIL line with the measured quantity.  All tolerances are fixed here.

Criterion 8 is known to fail as stated: the simulated last-visited-side
curve follows the map-composed candidate watts_closed(sc_inverse(s)), not
watts_closed(s); the test reports the scores of both candidates.  See
README "Findings".
"""

import math
from fractions import Fraction as F

import numpy as np

import wedgewalk as ww

SPECIAL_ANGLES = {"pi/6": math.pi / 6, "pi/4": math.pi / 4, "pi/3": math.pi / 3}


def _criterion(num, ok, desc):
    print(f"ACCEPTANCE {num:02d} [{'PASS' if ok else 'FAIL'}] {desc}")
    assert ok, f"criterion {num}: {desc}"


# -- 1 ----------------------------------------------------------------------

def test_c01_exact_wedge_intertwining():
    N = 200
    worst_float = 0.0
    all_exact = True
    for name, alpha in SPECIAL_ANGLES.items():
        spec = ww.WedgeSpec(alpha=alpha, layers=N)
        lat = ww.build_wedge_lattice(spec)
        link = ww.build_link(lat)
        rep = ww.intertwining_residual(
            link, ww.wedge_kernel(lat, spec, mode="rational"),
            ww.projected_wedge_chain(N, alpha, mode="rational"), mode="stochastic")
        all_exact = all_exact and rep.exact_zero
        repf = ww.intertwining_residual(
            link, ww.wedge_kernel(lat, spec, mode="float"),
            ww.projected_wedge_chain(N, alpha, mode="float"), mode="stochastic")
        worst_float = max(worst_float, repf.residual)
    ok = all_exact and worst_float <= 1e-12
    _criterion(1, ok, f"wedge link identity N={N}: rational exact={all_exact}, "
                      f"float residual {worst_float:.2e} <= 1e-12")


# -- 2 ----------------------------------------------------------------------

def test_c02_exact_vase_intertwining():
    grid = ww.build_vase_grid("power:2", 32, 32)
    link = ww.build_link(grid)
    Q2 = ww.vase_rate_matrix(grid)
    Q1 = ww.projected_vase_rates(grid)
    rep = ww.intertwining_residual(link, Q2, Q1, mode="rates")
    semi = ww.semigroup_residual(link, Q2, Q1, times=[0.1, 1.0])
    ok = rep.residual <= 1e-12 and all(v <= 1e-10 for v in semi.values())
    _criterion(2, ok, f"vase rate identity h=x^2 N=K=32: residual "
                      f"{rep.residual:.2e} <= 1e-12, semigroup "
                      f"{max(semi.values()):.2e} <= 1e-10")


# -- 3 ----------------------------------------------------------------------

def test_c03_uniform_hitting():
    alpha = math.pi / 6
    M = 30
    spec = ww.WedgeSpec(alpha=alpha, layers=M)
    lat = ww.build_wedge_lattice(spec)
    P = ww.wedge_kernel(lat, spec, mode="float")
    agg = ww.run_paths(P, "apex", stop=M, n_paths=100000, seed=2026)
    wedge_chi = ww.chi_square(agg.exit_distribution(M).counts)

    grid = ww.build_vase_grid("power:2", 20, 20)
    Pv = ww.vase_rate_matrix(grid).jump_chain()
    aggv = ww.run_paths(Pv, "apex", stop=20, n_paths=100000, seed=2027)
    vase_chi = ww.chi_square(aggv.exit_distribution(20).counts)

    ok = wedge_chi["p_value"] > 0.001 and vase_chi["p_value"] > 0.001
    _criterion(3, ok, f"uniform hitting: wedge p={wedge_chi['p_value']:.3f} "
                      f"(61 sites), vase p={vase_chi['p_value']:.3f} (41 sites), "
                      f"both > 0.001")


# -- 4 ----------------------------------------------------------------------

def test_c04_green_shape_and_prefactor():
    N = 50
    alpha = math.pi / 6
    Q = ww.projected_wedge_chain(N, alpha, mode="float")
    g = ww.green_vector(Q, 0)
    fit = ww.fit_green_constant(g, N)
    s2 = math.sin(alpha) ** 2
    inv_sin = abs(fit["constant"] * s2 - 1.0)
    inv_cos = abs(fit["constant"] * (1 - s2) - 1.0)
    ok = fit["relative_spread"] <= 1e-10
    _criterion(4, ok, f"radial Green shape N={N}: spread "
                      f"{fit['relative_spread']:.2e} <= 1e-10; fitted constant "
                      f"{fit['constant']:.6f} vs 1/sin^2 (off {inv_sin:.1e}) "
                      f"vs 1/cos^2 (off {inv_cos:.1e})")


# -- 5 ----------------------------------------------------------------------

def _reversed_table_residual(alpha, N):
    spec = ww.WedgeSpec(alpha=alpha, layers=N)
    lat = ww.build_wedge_lattice(spec)
    P = ww.wedge_kernel(lat, spec, mode="float")
    rev = ww.nagasawa_reverse(P, ww.green_vector(P, (0, 0)))
    s2 = math.sin(alpha) ** 2
    c2 = 1 - s2
    worst = 0.0
    for k in range(2, N):
        for y in (0, k - 1, -(k - 1)):
            row = rev.kernel.rows[lat.index(k, y)]
            worst = max(
                worst,
                abs(row[lat.index(k - 1, y)] - s2 / 2 * (N - k + 1) / (N - k)),
                abs(row.get(lat.index(k + 1, y), 0.0)
                    - s2 / 2 * (N - k - 1) / (N - k)),
                abs(row[lat.index(k, y + 1)] - c2 / 2),
                abs(row[lat.index(k, y - 1)] - c2 / 2))
    return worst


def _reversed_table_exact(alpha, N):
    spec = ww.WedgeSpec(alpha=alpha, layers=N)
    lat = ww.build_wedge_lattice(spec)
    P = ww.wedge_kernel(lat, spec, mode="rational")
    rev = ww.nagasawa_reverse(P, ww.green_vector(P, (0, 0)))
    s2 = spec.sin_sq
    for k in range(2, N):
        row = rev.kernel.rows[lat.index(k, 0)]
        if row[lat.index(k - 1, 0)] != s2 / 2 * F(N - k + 1, N - k):
            return False
        if row.get(lat.index(k + 1, 0), F(0)) != s2 / 2 * F(N - k - 1, N - k):
            return False
        if row[lat.index(k, 1)] != (1 - s2) / 2:
            return False
    return True


def _pathwise_identity_exact():
    N = 3
    spec = ww.WedgeSpec(alpha=math.pi / 4, layers=N)
    lat = ww.build_wedge_lattice(spec)
    P = ww.wedge_kernel(lat, spec, mode="rational")
    rev = ww.nagasawa_reverse(P, ww.green_vector(P, (0, 0)))
    apex = lat.index(0, 0)
    stack = [((apex,), F(1))]
    n_paths = 0
    while stack:
        path, prob = stack.pop()
        cur = path[-1]
        if lat.layer[cur] >= N:
            rpath = path[::-1]
            q = rev.initial_exact[rpath[0]]
            for a, b in zip(rpath, rpath[1:]):
                q *= rev.kernel.rows[a].get(b, F(0))
            q *= rev.kernel.rows[rpath[-1]][rev.kill_index]
            if q != prob:
                return False, n_paths
            n_paths += 1
            continue
        if len(path) > 8:
            continue
        for j, p in P.rows[cur].items():
            stack.append((path + (j,), prob * p))
    return True, n_paths


def test_c05_nagasawa_reversal():
    table_float = _reversed_table_residual(math.pi / 6, 30)
    table_exact = _reversed_table_exact(math.pi / 6, 8)
    path_ok, n_paths = _pathwise_identity_exact()

    # reversed-simulation consistency: reversed runs start from the
    # absorption law and die at the apex; their starting sites must match
    # the forward walk's exit law
    M = 30
    spec = ww.WedgeSpec(alpha=math.pi / 6, layers=M)
    lat = ww.build_wedge_lattice(spec)
    P = ww.wedge_kernel(lat, spec, mode="float")
    rev = ww.nagasawa_reverse(P, ww.green_vector(P, (0, 0)))
    bwd = ww.run_paths(rev.kernel, rev.initial_law, stop=None,
                       n_paths=100000, seed=2028)
    all_killed = bwd.exit_counts()[rev.kill_index] == 100000
    rev_exit = np.array([bwd.initial[lat.index(M, y)] for y in range(-M, M + 1)])
    chi_uniform = ww.chi_square(rev_exit)
    fwd = ww.run_paths(P, "apex", stop=M, n_paths=100000, seed=2029)
    fwd_exit = np.array(
        [fwd.exit_counts()[lat.index(M, y)] for y in range(-M, M + 1)])
    both = fwd_exit + rev_exit
    exp = both / 2.0
    stat = float((((fwd_exit - exp) ** 2 + (rev_exit - exp) ** 2)
                  / np.maximum(exp, 1e-9)).sum())
    from scipy.special import gammaincc
    two_sample_p = float(gammaincc((len(both) - 1) / 2.0, stat / 2.0))

    ok = (table_float <= 1e-12 and table_exact and path_ok
          and all_killed and chi_uniform["p_value"] > 0.001
          and two_sample_p > 0.001)
    _criterion(5, ok, f"time reversal: table residual {table_float:.2e} <= 1e-12 "
                      f"(exact in rational: {table_exact}); pathwise identity "
                      f"exact on {n_paths} paths; reversed-sim uniform "
                      f"p={chi_uniform['p_value']:.3f}, forward/reversed "
                      f"two-sample p={two_sample_p:.3f}")


# -- 6 ----------------------------------------------------------------------

def test_c06_bessel3_projection():
    Q = ww.projected_wedge_chain(250, math.pi / 4, mode="float")
    d1 = abs(ww.discrete_hit_prob(Q, 50, 25, 200) - ww.bessel3_hit(50, 25, 200))
    Q2 = ww.projected_wedge_chain(500, math.pi / 4, mode="float")
    d2 = abs(ww.discrete_hit_prob(Q2, 100, 50, 400) - ww.bessel3_hit(100, 50, 400))
    ratio = d2 / d1
    ok = d1 <= 0.02 and 0.35 <= ratio <= 0.65
    _criterion(6, ok, f"radial vs scale-1/x hitting: |diff| {d1:.5f} <= 0.02, "
                      f"doubled-index ratio {ratio:.3f} in [0.35, 0.65]")


# -- 7 ----------------------------------------------------------------------

def test_c07_three_way_curve_identity():
    worst = 0.0
    for a in [round(0.1 * i, 1) for i in range(1, 10)]:
        c = ww.watts_closed(a)
        h = ww.watts_via_hypergeometric(a)
        v = ww.watts_via_integral(a)
        worst = max(worst, abs(c - h), abs(c - v), abs(h - v))
    ok = worst <= 1e-8
    _criterion(7, ok, f"closed/hypergeometric/integral curves: max pairwise "
                      f"{worst:.2e} <= 1e-8")


# -- 8 ----------------------------------------------------------------------

def _score_curve(agg, lat, M, bins, candidate):
    """Per-bin z-scores of the empirical conditional side frequencies against
    a candidate curve, predicted as the exit-count-weighted mixture of the
    candidate over each bin's discrete exit positions."""
    up = np.zeros(bins)
    tot = np.zeros(bins)
    pred = np.zeros(bins)
    for y in range(-M, M + 1):
        s = (y / M + 1.0) / 2.0
        j = min(int(s * bins), bins - 1)
        row = agg.exit_side[lat.index(M, y)]
        n = row[ww.Side.UPPER] + row[ww.Side.LOWER]
        up[j] += row[ww.Side.UPPER]
        tot[j] += n
        pred[j] += n * candidate(s)
    hits = []
    zs = []
    for j in range(bins):
        p_hat = up[j] / tot[j]
        p_pred = pred[j] / tot[j]
        se = math.sqrt(max(p_hat * (1 - p_hat), 1e-12) / tot[j])
        z = abs(p_hat - p_pred) / se
        zs.append(z)
        hits.append(z <= 3.0)
    return sum(hits), zs


def test_c08_watts_monte_carlo():
    alpha = math.pi / 6
    M = 60
    bins = 20
    spec = ww.WedgeSpec(alpha=alpha, layers=M)
    lat = ww.build_wedge_lattice(spec)
    P = ww.wedge_kernel(lat, spec, mode="float")
    agg = ww.run_paths(P, "apex", stop=M, n_paths=1000000, seed=2030, workers=2)

    closed_hits, closed_z = _score_curve(agg, lat, M, bins, ww.watts_closed)
    composed_hits, composed_z = _score_curve(agg, lat, M, bins, ww.watts_composed)
    print(f"  candidate scores over {bins} bins (within 3 binomial SE):")
    print(f"    watts_closed(s):             {closed_hits}/{bins}  "
          f"max|z| {max(closed_z):.1f}")
    print(f"    watts_closed(sc_inverse(s)): {composed_hits}/{bins}  "
          f"max|z| {max(composed_z):.1f}")

    ok = closed_hits >= 18
    _criterion(8, ok, f"last-side curve vs watts_closed(s): {closed_hits}/20 "
                      f"bins within 3 SE (need >= 18); arbitration: composed "
                      f"candidate scores {composed_hits}/20")


# -- 9 ----------------------------------------------------------------------

def test_c09_vase_generator_convergence():
    shape = ww.power_shape(2.0)
    f = lambda x: math.exp(-x)
    fp = lambda x: -math.exp(-x)
    fpp = lambda x: math.exp(-x)
    res = {n: ww.generator_residual(shape, f, fp, fpp, 1.0, n)
           for n in (64, 128, 256)}
    r1 = res[128] / res[64]
    r2 = res[256] / res[128]
    ok = 0.3 <= r1 <= 0.7 and 0.3 <= r2 <= 0.7
    _criterion(9, ok, f"projected generator residuals at x=1: "
                      f"{res[64]:.2e} -> {res[128]:.2e} -> {res[256]:.2e}, "
                      f"ratios {r1:.3f}, {r2:.3f} in [0.3, 0.7]")


# -- 10 ---------------------------------------------------------------------

def test_c10_bessel_dimension_corollary():
    beta = 1.5
    shape = ww.power_shape(beta)
    grid = ww.build_vase_grid(shape, 50, 201)
    chain = ww.projected_vase_rates(grid).jump_chain()
    got = ww.discrete_hit_prob(chain, 50, 25, 200)
    phi = lambda k: ww.scale_function(shape, grid.abscissas[k])
    want = (phi(50) - phi(200)) / (phi(25) - phi(200))
    diff = abs(got - want)

    # beta = 1 must reproduce the wedge radial chain's hitting probability
    grid1 = ww.build_vase_grid(ww.power_shape(1.0), 50, 201)
    chain1 = ww.projected_vase_rates(grid1).jump_chain()
    got1 = ww.discrete_hit_prob(chain1, 50, 25, 200)
    wedge = ww.discrete_hit_prob(
        ww.projected_wedge_chain(201, math.pi / 4, mode="float"), 50, 25, 200)
    reduce_diff = abs(got1 - wedge)

    ok = diff <= 0.02 and reduce_diff <= 1e-9
    _criterion(10, ok, f"x^1.5 vase: |hit - scale ratio| {diff:.5f} <= 0.02 "
                       f"(phi ~ x^(1-2b)); beta=1 reduction off by "
                       f"{reduce_diff:.1e}")


# -- 11 ---------------------------------------------------------------------

def test_c11_strip_seesaw():
    n = 100000
    crit = ww.kolmogorov_critical(0.001, n)
    dists = {}
    for t in (0.25, 1.0, 4.0):
        s = ww.strip_seesaw_samples(t, n, seed=2031)
        dists[t] = ww.ks_statistic(s)
    ok = all(d < crit for d in dists.values())
    worst = max(dists.values())
    _criterion(11, ok, f"seesaw fold uniformity at t=0.25,1,4: max KS "
                       f"{worst:.5f} < {crit:.5f} (0.1% level, n={n})")
