import math

import numpy as np
import pytest

from wedgewalk import (
    ParameterError,
    Quadrature,
    QuadratureError,
    bessel3_hit,
    chi_square,
    generator_residual,
    kolmogorov_critical,
    ks_statistic,
    ks_test,
    linear_shape,
    power_shape,
    regularized_beta,
    scale_function,
    sc_deriv,
    sc_inverse,
    sc_map,
    watts_closed,
    watts_composed,
    watts_via_hypergeometric,
    watts_via_integral,
)
from wedgewalk.analytics import B_THIRD, chi_square_sf, log_beta


def test_beta_constants_from_log_gamma():
    # B(1/3,1/3) = Gamma(1/3)^2 / Gamma(2/3), cross-checked through the
    # reflection value Gamma(1/3)Gamma(2/3) = 2 pi / sqrt(3)
    g13 = math.exp(math.lgamma(1 / 3))
    g23 = math.exp(math.lgamma(2 / 3))
    assert g13 * g23 == pytest.approx(2 * math.pi / math.sqrt(3), rel=1e-14)
    assert B_THIRD == pytest.approx(g13 * g13 / g23, rel=1e-14)


def quad_incomplete_beta(a, x):
    """Independent oracle: direct quadrature of t^{a-1}(1-t)^{a-1} with the
    endpoint substitution t = v^{1/(1-a)}-style power flattening."""
    q = Quadrature(tolerance=1e-12)
    m = min(x, 0.5)
    p = 1.0 / a                       # t = v^p removes the t^{a-1} singularity
    total = q.integrate(lambda v: p * (1 - v ** p) ** (a - 1.0), 0.0, m ** a)
    if x > 0.5:
        total += q.integrate(lambda w: p * (1 - w ** p) ** (a - 1.0),
                             (1 - x) ** a, 0.5 ** a)
    return total / math.exp(log_beta(a, a))


@pytest.mark.parametrize("x", [0.05, 0.3, 0.5, 0.77, 0.99])
def test_regularized_beta_against_quadrature(x):
    assert regularized_beta(2 / 3, 2 / 3, x) == pytest.approx(
        quad_incomplete_beta(2 / 3, x), abs=1e-10)
    assert regularized_beta(1 / 3, 1 / 3, x) == pytest.approx(
        quad_incomplete_beta(1 / 3, x), abs=1e-10)


def test_watts_closed_basics():
    assert watts_closed(0.0) == 0.0
    assert watts_closed(1.0) == 1.0
    assert watts_closed(0.5) == pytest.approx(0.5, abs=1e-14)
    v = watts_closed(0.25)
    assert 0.0 < v < 0.5
    assert watts_closed(0.25) + watts_closed(0.75) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ParameterError):
        watts_closed(1.2)


def test_watts_symmetry_sweep():
    for s in np.linspace(0.01, 0.99, 37):
        assert watts_closed(s) + watts_closed(1 - s) == pytest.approx(1.0, abs=1e-12)


def test_watts_monotone():
    grid = np.linspace(0.0, 1.0, 1001)
    vals = [watts_closed(s) for s in grid]
    assert np.all(np.diff(vals) > 0)


def test_three_way_identity():
    for a in np.arange(0.1, 0.95, 0.1):
        c = watts_closed(a)
        h = watts_via_hypergeometric(a)
        v = watts_via_integral(a)
        assert abs(c - h) <= 1e-8
        assert abs(c - v) <= 1e-8
        assert abs(h - v) <= 1e-8


def test_hypergeometric_small_and_large_arguments():
    assert watts_via_hypergeometric(1e-6) == pytest.approx(0.0, abs=1e-3)
    assert watts_via_hypergeometric(0.5) == pytest.approx(0.5, abs=1e-8)
    # near one, the reflected branch takes over
    assert watts_via_hypergeometric(0.97) == pytest.approx(watts_closed(0.97),
                                                           abs=1e-8)


def test_integral_form_limits():
    assert watts_via_integral(0.999) > 0.98
    assert watts_via_integral(0.5) == pytest.approx(0.5, abs=1e-8)
    with pytest.raises(ParameterError):
        watts_via_integral(0.0)


def test_sc_map_basics():
    assert sc_map(0.0) == 0.0
    assert sc_map(1.0) == 1.0
    assert sc_map(0.5) == pytest.approx(0.5, abs=1e-12)
    for a in (0.1, 0.37, 0.92):
        assert sc_map(a) + sc_map(1 - a) == pytest.approx(1.0, abs=1e-12)
    grid = np.linspace(0, 1, 1001)
    vals = [sc_map(a) for a in grid]
    assert np.all(np.diff(vals) > 0)


@pytest.mark.parametrize("a", [0.05, 0.3, 0.5, 0.8, 0.97])
def test_sc_map_is_incomplete_beta_third(a):
    # dual route: scipy's incomplete beta vs direct quadrature of the map's
    # integrand
    assert sc_map(a) == pytest.approx(quad_incomplete_beta(1 / 3, a), abs=1e-10)


def test_sc_inverse_roundtrip():
    assert sc_inverse(sc_map(0.3)) == pytest.approx(0.3, abs=1e-9)
    assert sc_inverse(0.0) == 0.0 and sc_inverse(1.0) == 1.0
    with pytest.raises(ParameterError):
        sc_inverse(1.5)


def test_sc_deriv_matches_difference_quotient():
    a, e = 0.4, 1e-6
    fd = (sc_map(a + e) - sc_map(a - e)) / (2 * e)
    assert sc_deriv(a) == pytest.approx(fd, rel=1e-7)


def test_watts_composed_agrees_at_fixed_points():
    assert watts_composed(0.5) == pytest.approx(0.5, abs=1e-9)
    assert watts_composed(0.9) > 0.5 > watts_composed(0.1)
    # away from the fixed points the composed curve differs strongly
    assert abs(watts_composed(0.25) - watts_closed(0.25)) > 0.1


def test_bessel3_hit():
    assert bessel3_hit(25, 25, 200) == 1.0
    assert bessel3_hit(50, 25, 200) == pytest.approx(3 / 7, abs=1e-15)
    assert bessel3_hit(2, 1, 1e15) == pytest.approx(0.5, abs=1e-12)
    with pytest.raises(ParameterError):
        bessel3_hit(10, 20, 30)


def test_scale_function_closed_forms():
    cot2 = 1.0 / math.tan(0.61) ** 2
    for x in (0.5, 2.0, 7.0):
        got = scale_function(linear_shape(math.tan(0.61)), x)
        assert got == pytest.approx(cot2 * (1 - 1 / x), abs=1e-10)
    # h = x^1.5: integral of u^-3 from 1 to x
    got = scale_function(power_shape(1.5), 4.0)
    assert got == pytest.approx((1 - 4.0 ** -2) / 2, abs=1e-10)
    assert scale_function(power_shape(1.5), 1.0) == 0.0
    with pytest.raises(ParameterError):
        scale_function(power_shape(1.5), 0.0)


def test_scale_consistency_with_bessel3():
    shape = linear_shape(math.tan(0.8))
    phi = lambda x: scale_function(shape, x)
    x, a, b = 3.0, 1.5, 9.0
    ratio = (phi(x) - phi(b)) / (phi(a) - phi(b))
    assert ratio == pytest.approx(bessel3_hit(x, a, b), abs=1e-12)


def test_generator_residual_bessel_case():
    shape = linear_shape(1.0)
    f = lambda x: x * x
    fp = lambda x: 2 * x
    fpp = lambda x: 2.0
    r64 = generator_residual(shape, f, fp, fpp, 1.0, 64)
    r256 = generator_residual(shape, f, fp, fpp, 1.0, 256)
    assert r256 < r64 < 0.1


def test_generator_residual_halves():
    shape = power_shape(2.0)
    f = lambda x: math.exp(-x)
    fp = lambda x: -math.exp(-x)
    fpp = lambda x: math.exp(-x)
    r32 = generator_residual(shape, f, fp, fpp, 1.0, 32)
    r64 = generator_residual(shape, f, fp, fpp, 1.0, 64)
    assert 0.3 <= r64 / r32 <= 0.7


def test_generator_residual_constant_function():
    shape = power_shape(2.0)
    zero = lambda x: 0.0
    r = generator_residual(shape, lambda x: 3.0, zero, zero, 1.0, 32)
    assert r == 0.0


def test_generator_residual_near_apex_error():
    with pytest.raises(ParameterError):
        generator_residual(power_shape(2.0), lambda x: x, lambda x: 1.0,
                           lambda x: 0.0, 0.05, 8)


def test_chi_square_exact_uniform():
    out = chi_square(np.full(20, 50))
    assert out["statistic"] == 0.0
    assert out["p_value"] == pytest.approx(1.0)


def test_chi_square_merging():
    # expected count 2 per bin forces adjacent merging
    counts = np.array([2, 1, 3, 2, 2, 2, 1, 3, 2, 2])
    out = chi_square(counts)
    assert out["bins"] < 10
    assert out["merged_from"] == 10


def test_chi_square_detects_bias():
    counts = np.array([100, 100, 100, 100, 300])
    out = chi_square(counts)
    assert out["p_value"] < 1e-6


def test_ks_on_own_grid():
    n = 1000
    samples = (np.arange(1, n + 1) - 0.5) / n
    assert ks_statistic(samples) <= 0.5 / n + 1e-12


def test_kolmogorov_distribution():
    # classical table values of the Kolmogorov statistic
    assert kolmogorov_critical(0.05, 1) == pytest.approx(1.3581, abs=1e-4)
    assert kolmogorov_critical(0.01, 1) == pytest.approx(1.6276, abs=1e-4)
    c = kolmogorov_critical(0.05, 10000)
    assert c == pytest.approx(1.3581 / 100, rel=1e-3)


def test_gof_calibration_uniform():
    # median p-value over 20 seeded uniform runs sits in the bulk
    ps = []
    for seed in range(20):
        rng = np.random.default_rng(seed)
        counts, _ = np.histogram(rng.random(100000), bins=50, range=(0, 1))
        ps.append(chi_square(counts)["p_value"])
    assert 0.2 < float(np.median(ps)) < 0.8


def test_ks_test_pvalue_reasonable():
    rng = np.random.default_rng(5)
    out = ks_test(rng.random(20000))
    assert out["p_value"] > 0.001


def test_quadrature_tolerance_enforced():
    import warnings

    q = Quadrature(tolerance=1e-10, node_budget=3)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        with pytest.raises(QuadratureError):
            # highly oscillatory integrand cannot meet the budget
            q.integrate(lambda x: math.sin(1000 * x * x), 0.0, 30.0)


def test_sc_map_is_incomplete_beta_third_on_a_grid():
    from scipy.special import betainc

    for a in np.linspace(0.01, 0.99, 50):
        assert sc_map(a) == pytest.approx(betainc(1 / 3, 1 / 3, a), abs=1e-14)


def test_scale_function_closed_forms_to_rounding():
    # the integral runs from 1 down to x when x < 1
    cot2 = 1.0 / math.tan(0.61) ** 2
    for x in (0.3, 0.5, 0.9, 1.7, 4.0, 30.0):
        assert scale_function(power_shape(1.5), x) == pytest.approx(
            (1 - x ** -2) / 2, abs=1e-13)
        assert scale_function(linear_shape(math.tan(0.61)), x) == pytest.approx(
            cot2 * (1 - 1 / x), abs=1e-13)


def test_three_way_identity_on_the_cli_grid():
    # the grid of `wedgewalk watts --grid 99`
    worst = 0.0
    for i in range(1, 100):
        a = i / 100
        c, h, v = watts_closed(a), watts_via_hypergeometric(a), watts_via_integral(a)
        worst = max(worst, abs(c - h), abs(c - v), abs(h - v))
    assert worst <= 1e-13


def test_quadrature_never_evaluates_an_endpoint():
    # log and 1/sqrt raise at 0 and at 1; 1/sqrt is also unbounded at 0
    q = Quadrature()
    assert q.integrate(lambda x: math.log(x * (1.0 - x)), 0.0, 1.0) == \
        pytest.approx(-2.0, abs=1e-13)
    assert q.integrate(lambda x: 1.0 / math.sqrt(x), 0.0, 1.0) == \
        pytest.approx(2.0, abs=1e-13)
    assert q.integrate(lambda x: math.log(1.0 - x), 1.0, 0.0) == \
        pytest.approx(1.0, abs=1e-13)
    # one panel per interval: the kink of |x| at 0 becomes an endpoint
    assert q.integrate(abs, -1.0, 2.0, points=[0.0]) == pytest.approx(2.5, abs=1e-15)


def test_quadrature_node_tables_are_built_once_per_level():
    from wedgewalk.analytics import _tanh_sinh_level

    q = Quadrature()
    for fn, a, b in ((lambda x: math.log(x * (1.0 - x)), 0.0, 1.0),
                     (math.exp, -1.0, 2.0)):
        first = q.integrate(fn, a, b)
        built = _tanh_sinh_level.cache_info().misses
        assert [q.integrate(fn, a, b) for _ in range(3)] == [first] * 3
        assert _tanh_sinh_level.cache_info().misses == built
    assert not _tanh_sinh_level(1.0)[1].flags.writeable


def test_quadrature_refuses_a_non_finite_or_unresolved_sum():
    with pytest.raises(QuadratureError, match="non-finite"):
        Quadrature().integrate(lambda x: math.nan, 0.0, 1.0)
    with pytest.raises(QuadratureError, match="non-finite"):
        Quadrature().integrate(lambda x: 1e308 / x, 0.0, 1.0)
    # nodes stop an ulp short of 1, where the mass of 1/sqrt(1-x) is 1e-8
    with pytest.raises(QuadratureError, match="error estimate"):
        Quadrature().integrate(lambda x: 1.0 / math.sqrt(1.0 - x), 0.0, 1.0)


# ---------------------------------------------------------------------------
# the closed forms against scipy.special and 40-digit mpmath
# ---------------------------------------------------------------------------

BETA_GRID = [*np.linspace(0.0, 1.0, 2001).tolist(), 1e-12, 1.0 - 1e-9]


@pytest.mark.parametrize("a,b", [(1 / 3, 1 / 3), (2 / 3, 2 / 3), (0.5, 2.5)])
def test_regularized_beta_against_scipy_and_mpmath(a, b):
    import mpmath
    from scipy.special import betainc

    ours = np.array([regularized_beta(a, b, x) for x in BETA_GRID])
    assert np.abs(ours - betainc(a, b, np.array(BETA_GRID))).max() <= 2e-15
    with mpmath.workdps(40):
        for i in [*range(0, 2001, 20), 2001, 2002]:
            exact = float(mpmath.betainc(a, b, 0, BETA_GRID[i], regularized=True))
            assert abs(ours[i] - exact) <= 2e-15, BETA_GRID[i]


@pytest.mark.parametrize("a,b", [(0.0, 1.0), (1.0, -0.5), (math.nan, 1.0), (1.0, math.inf)])
def test_regularized_beta_refuses_parameters_not_finite_and_positive(a, b):
    with pytest.raises(ParameterError, match="finite a, b > 0"):
        regularized_beta(a, b, 0.5)


def test_sc_inverse_against_scipy():
    # bound relative to the nearer end of the argument, where the inverse
    # is solved; 1 - 1e-9 maps within an ulp of 1
    from scipy.special import betaincinv

    ps = np.array([*np.linspace(0.0, 1.0, 2001), 1e-12, 1e-6, 1 - 1e-6, 1 - 1e-9])
    ours = np.array([sc_inverse(p) for p in ps])
    err = np.abs(ours - betaincinv(1 / 3, 1 / 3, ps))
    assert np.all(err <= 1e-12 * np.minimum(ps, 1 - ps))


def test_watts_composed_against_scipy():
    from scipy.special import betainc, betaincinv

    s = np.linspace(0.0, 1.0, 2001)
    want = betainc(2 / 3, 2 / 3, betaincinv(1 / 3, 1 / 3, s))
    assert np.abs(np.array([watts_composed(x) for x in s]) - want).max() <= 4e-15


def _chi_square_tail_exact(stat, df):
    import mpmath

    with mpmath.workdps(40):
        return float(mpmath.gammainc(mpmath.mpf(df) / 2, mpmath.mpf(stat) / 2,
                                     mpmath.inf, regularized=True))


def test_chi_square_tail_against_gammaincc():
    # gammaincc itself strays by up to 1.7e-12 in the far tail at df = 2000;
    # where it and the closed form part by more than 1e-12, the closed form
    # must lie within 1e-12 of 40-digit mpmath and nearer to it
    from scipy.special import gammaincc

    for df in [*range(1, 81), 199, 600, 2000]:
        stats = np.linspace(0.0, 3 * df + 50, 301)
        for stat, want in zip(stats.tolist(), gammaincc(df / 2, stats / 2).tolist()):
            if want <= 1e-200:
                continue
            got = chi_square_sf(stat, df)
            if abs(got - want) > 1e-12 * want:
                exact = _chi_square_tail_exact(stat, df)
                assert abs(got - exact) <= min(1e-12 * exact, abs(want - exact)), (df, stat)


@pytest.mark.parametrize("df", [1, 2, 3, 80, 199, 2000])
def test_chi_square_tail_against_mpmath(df):
    for stat in np.linspace(0.0, 3 * df + 50, 13)[1:].tolist():
        exact = _chi_square_tail_exact(stat, df)
        if exact > 1e-200:
            assert chi_square_sf(stat, df) == pytest.approx(exact, rel=1e-12, abs=0)
    assert chi_square_sf(0.0, df) == 1.0
    assert chi_square_sf(math.inf, df) == 0.0 and math.isnan(chi_square_sf(math.nan, df))
