"""Closed forms and special functions: the incomplete-beta crossing curve,
its hypergeometric and excursion-integral equivalents, the triangle mapping,
diffusion scale functions, generator residuals, and goodness-of-fit tests.

Every endpoint-singular integral is tamed by a power substitution before
quadrature (u = v^3 at exponent -2/3 endpoints, u = 1/w in the far field), so
the quadrature engine sees bounded integrands, some with an infinite slope at
an endpoint (the hypergeometric one at v = 1, the far excursion piece at
w = 0), which its tanh-sinh rule handles.  Gamma/beta constants come from
log-gamma, not typed-in decimals.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from math import exp, lgamma, pi, sqrt
from operator import mul
from typing import Callable

import numpy as np

from .errors import ParameterError, QuadratureError
from .geometry import MAX_LAYERS, layer_abscissas, segment_angles, shape_from_spec
from .kernels import _layer_rates


def log_beta(a: float, b: float) -> float:
    return lgamma(a) + lgamma(b) - lgamma(a + b)


B_THIRD = exp(log_beta(1.0 / 3.0, 1.0 / 3.0))          # B(1/3, 1/3)
GAMMA_TWO_THIRDS = exp(lgamma(2.0 / 3.0))


@functools.lru_cache(maxsize=256)
def _panel_level(edges: tuple, h: float):
    """The nodes new at step h on the panels between ``edges`` and their
    weights, as tuples of floats shared by every later call: each node is
    placed by its distance d from the nearer endpoint (the left one where
    t < 0) and dropped where it rounds onto it."""
    lo, hi = np.array(edges[:-1])[:, None], np.array(edges[1:])[:, None]
    t = np.arange(h - 4.0, 4.0, 2 * h)
    e = np.exp(-pi * np.sinh(abs(t)))
    d = (hi - lo) * e / (1 + e)
    x = np.where(t < 0, lo + d, hi - d)
    keep = (x != lo) & (x != hi)
    w = pi * (hi - lo) * np.cosh(t) * e / (1 + e) ** 2
    return tuple(x[keep].tolist()), tuple(w[keep].tolist())


@dataclass
class Quadrature:
    """Tanh-sinh quadrature (Takahasi & Mori 1974) with an enforced
    absolute-error budget: one panel x = c + r tanh(pi/2 sinh t), t in (-4, 4),
    per interval between ``a``, ``b`` and ``points``.  Nodes are placed by
    their distance from the nearer endpoint and dropped where they round onto
    it, so no endpoint is evaluated.  Each level halves the step in t and keeps
    the earlier nodes, until two levels agree within max(tolerance/10,
    1e-12 |I|) and within ``tolerance``, or else ``QuadratureError``.  A
    level's nodes and weights are built once per interval and shared by every
    later call over it; the integrand is called one node at a time and the
    products are summed in node order."""

    tolerance: float = 1e-10
    node_budget: int = 600      # integrand evaluations per call: one panel to step 1/64

    def integrate(self, fn: Callable[[float], float], a: float, b: float,
                  points=None) -> float:
        if a > b:
            return -self.integrate(fn, b, a, points)
        edges = tuple(sorted({a, b, *(p for p in points or () if a < p < b)}))
        total, err, used, h = 0.0, math.inf, 0, 4.0
        while err > max(self.tolerance / 10, 1e-12 * abs(total)) or err > self.tolerance:
            x, w = _panel_level(edges, h)
            used += len(x)
            if used > self.node_budget:
                break
            new = total / 2 + h * sum(map(mul, w, map(fn, x)))
            if not math.isfinite(new):
                raise QuadratureError(f"non-finite sum {new}")
            err, total, h = (abs(new - total) if h < 1 else math.inf), new, h / 2
        if err > self.tolerance:
            raise QuadratureError(
                f"error estimate {err} above tolerance {self.tolerance}")
        return total


_QUAD = Quadrature()


def regularized_beta(a: float, b: float, x: float) -> float:
    """I_x(a, b) on [0, 1] for finite a, b > 0: the continued fraction of
    the incomplete beta function (DiDonato & Morris 1992, ACM TOMS 18),
    evaluated on I_{1-x}(b, a) = 1 - I_x(a, b) from x = (a+1)/(a+b+2) on,
    where the fraction converges fastest."""
    if not (0.0 < a < math.inf and 0.0 < b < math.inf):
        raise ParameterError(f"need finite a, b > 0, got {(a, b)}")
    if not 0.0 <= x <= 1.0:
        raise ParameterError(f"x must lie in [0, 1], got {x}")
    if x in (0.0, 1.0):
        return x
    if x >= (a + 1.0) / (a + b + 2.0):
        return 1.0 - _beta_fraction(b, a, 1.0 - x)
    return _beta_fraction(a, b, x)


def _beta_fraction(a: float, b: float, x: float) -> float:
    """x^a (1-x)^b / (a B(a, b)) times 1/(1 + d_1/(1 + d_2/(1 + ...))).  The
    depth where the fraction settles comes from the modified Lentz method
    (Press et al. 2007, sec. 5.2); the fraction is then summed backward from
    that depth, which rounds far less than Lentz's running product."""
    coefs, tiny, c, e = [], 1e-300, 1.0, 0.0   # d_1, d_2, ...; Lentz's C_j, 1/D_j
    for j in range(1, 10_000):
        m = j // 2
        coefs.append(-(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1.0)) if j % 2
                     else m * (b - m) * x / ((a + 2 * m - 1.0) * (a + 2 * m)))
        e = 1.0 + coefs[-1] * e
        e = 1.0 / (e if abs(e) > tiny else tiny)
        c = 1.0 + coefs[-1] / c
        c = c if abs(c) > tiny else tiny
        if abs(c * e - 1.0) <= 2.3e-16:
            break
    else:
        raise ParameterError(f"incomplete beta fraction unsettled at {(a, b, x)}")
    tail = 0.0
    for dj in reversed(coefs):
        tail = dj / (1.0 + tail)
    log_front = a * math.log(x) + b * math.log1p(-x) - log_beta(a, b)
    return exp(log_front) / (a * (1.0 + tail))


# ---------------------------------------------------------------------------
# the last-visited-side curve, three ways
# ---------------------------------------------------------------------------

def watts_closed(s: float) -> float:
    """Regularized incomplete beta I_s(2/3, 2/3); symmetric about 1/2."""
    return regularized_beta(2.0 / 3.0, 2.0 / 3.0, s)


def hyp2f1_near_one_third(z: float) -> float:
    """2F1(1, 4/3; 5/3; z) for z in [0, 1) via the Euler integral with the
    t -> 1 singularity removed by 1 - t = v^3."""
    if not 0.0 <= z < 1.0:
        raise ParameterError(f"need z in [0,1), got {z}")
    integrand = lambda v: 3.0 * (1.0 - v ** 3) ** (1.0 / 3.0) \
        / (1.0 - z * (1.0 - v ** 3))
    val = _QUAD.integrate(integrand, 0.0, 1.0)
    return val / exp(log_beta(4.0 / 3.0, 1.0 / 3.0))


def watts_via_hypergeometric(a: float) -> float:
    """(pi sqrt(3) / (3 Gamma(2/3)^3)) (a(1-a))^{2/3} 2F1(1, 4/3; 5/3; a).

    Arguments above 1/2 route through the s <-> 1-s symmetry, away from the
    hypergeometric singularity at z = 1.
    """
    if not 0.0 <= a <= 1.0:
        raise ParameterError(f"need a in [0,1], got {a}")
    if a in (0.0, 1.0):
        return float(a)
    if a > 0.5:
        return 1.0 - watts_via_hypergeometric(1.0 - a)
    pref = pi * sqrt(3.0) / (3.0 * GAMMA_TWO_THIRDS ** 3)
    return pref * (a * (1.0 - a)) ** (2.0 / 3.0) * hyp2f1_near_one_third(a)


def watts_via_integral(a: float) -> float:
    """The excursion-measure form: the hitting mass of the far reflecting
    side, collapsed to F'(a)^{-1} (sqrt(3)/(2 pi B(1/3,1/3)))
    int_1^inf du / ((u(u-1))^{2/3} (u - a)).

    The half-plane harmonic measure (a Cauchy kernel) and the excursion
    height weighting are already folded into this single integral; the
    u -> 1 endpoint is flattened by u = 1 + v^3 and the far field mapped to
    (0, 1/2] by u = 1/w.
    """
    if not 0.0 < a < 1.0:
        raise ParameterError(f"need a in (0,1), got {a}")
    near = lambda v: 3.0 * (1.0 + v ** 3) ** (-2.0 / 3.0) / (1.0 + v ** 3 - a)
    far = lambda w: w ** (1.0 / 3.0) * (1.0 - w) ** (-2.0 / 3.0) / (1.0 - a * w)
    J = _QUAD.integrate(near, 0.0, 1.0) + _QUAD.integrate(far, 0.0, 0.5)
    return (sqrt(3.0) / (2.0 * pi)) * (a * (1.0 - a)) ** (2.0 / 3.0) * J


# ---------------------------------------------------------------------------
# the triangle boundary map
# ---------------------------------------------------------------------------

def sc_map(a: float) -> float:
    """F(a) = int_0^a u^{-2/3}(1-u)^{-2/3} du / B(1/3,1/3) = I_a(1/3, 1/3), the
    real restriction of the half-plane-to-triangle map; fixes 0, 1/2, 1."""
    if not 0.0 <= a <= 1.0:
        raise ParameterError(f"need a in [0,1], got {a}")
    return regularized_beta(1.0 / 3.0, 1.0 / 3.0, a)


def sc_deriv(a: float) -> float:
    if not 0.0 < a < 1.0:
        raise ParameterError(f"need a in (0,1), got {a}")
    return (a * (1.0 - a)) ** (-2.0 / 3.0) / B_THIRD


def sc_inverse(x: float) -> float:
    """Monotone inverse of sc_map on [0, 1], the inverse incomplete beta of
    I_a(1/3, 1/3).  It is solved in the nearer tail, by sc_map(1 - a) =
    1 - sc_map(a), with Newton steps on u = a^(1/3), where sc_map is nearly
    linear (d sc_map/du = 3 (1-a)^(-2/3) / B(1/3, 1/3)), each step kept
    inside a bisection bracket that the signs of the residuals shrink."""
    if not 0.0 <= x <= 1.0:
        raise ParameterError(f"need x in [0,1], got {x}")
    if x > 0.5:
        return 1.0 - sc_inverse(1.0 - x)
    lo, hi = 0.0, 0.5 ** (1.0 / 3.0)
    u = min(x * B_THIRD / 3.0, hi)             # sc_map(a) ~ 3 a^(1/3) / B near 0
    for _ in range(100):
        a = u ** 3
        if a == 0.0:
            return 0.0
        r = sc_map(a) - x
        lo, hi = (lo, u) if r > 0 else (u, hi)
        step = r * B_THIRD * (1.0 - a) ** (2.0 / 3.0) / 3.0
        if abs(step) <= 1e-15 * u:
            return (u - step) ** 3
        u = u - step if lo < u - step < hi else 0.5 * (lo + hi)
    return u ** 3


def watts_composed(s: float) -> float:
    """watts_closed evaluated at the map preimage of the exit position."""
    return watts_closed(sc_inverse(s))


# ---------------------------------------------------------------------------
# diffusion scale functions and generator checks
# ---------------------------------------------------------------------------

def bessel3_hit(x: float, a: float, b: float) -> float:
    """(1/x - 1/b)/(1/a - 1/b): scale-1/x hitting probability of a before b."""
    if not 0 < a <= x <= b:
        raise ParameterError(f"need 0 < a <= x <= b, got {(a, x, b)}")
    return (1.0 / x - 1.0 / b) / (1.0 / a - 1.0 / b)


def scale_function(shape, x: float) -> float:
    """phi(x) = int_1^x du / h(u)^2, vanishing at 1."""
    shape = shape_from_spec(shape)
    if x <= 0:
        raise ParameterError("scale function needs x > 0")
    if x == 1.0:
        return 0.0
    integrand = lambda u: 1.0 / shape(u) ** 2
    try:
        return _QUAD.integrate(integrand, 1.0, x)
    except QuadratureError as exc:
        raise QuadratureError(
            f"scale integral failed on [1, {x}]; divergent near the apex? "
            f"({exc})") from exc


def generator_residual(shape, f, f_prime, f_second, x: float, resolution: int) -> float:
    """|N^2 (Qproj f)(x_k) - ((h'/h) f' + f''/2)(x_k)|, the consistency error
    of the projected generator at the abscissa x_k of the grid layer nearest x.

    First-order in 1/N for smooth f; the residual at a constant f is exactly
    zero because projected rate rows sum to zero.
    """
    shape = shape_from_spec(shape)
    N = int(resolution)
    if N < 1:
        raise ParameterError(f"resolution must be at least 1, got {resolution}")
    if not 0 < x < math.inf:
        raise ParameterError("x must be positive and finite")
    level = N * shape(x)
    if level > MAX_LAYERS:
        raise ParameterError(f"x = {x} lies beyond layer {MAX_LAYERS} at this resolution")
    k = round(level)
    if k < 2:
        raise ParameterError("x too close to the apex for this resolution")
    # only the three layers that the residual reads: k - 1, k and k + 1
    xs = layer_abscissas(shape, N, (k - 1, k, k + 1))
    x = float(xs[1])                      # the limit is taken where Qproj acts
    try:
        c, d = _layer_rates(1.0 / np.tan(segment_angles(xs, N)), 1)
    except ParameterError:
        raise ParameterError(f"degenerate boundary angle near layer {k}") from None
    up = (2 * k + 3) / (2 * k + 1) * c
    dn = (2 * k - 1) / (2 * k + 1) * d
    qf = up * (f(xs[2]) - f(xs[1])) + dn * (f(xs[0]) - f(xs[1]))
    limit = shape.h_prime(x) / shape(x) * f_prime(x) + 0.5 * f_second(x)
    return abs(N ** 2 * qf - limit)


# ---------------------------------------------------------------------------
# goodness of fit
# ---------------------------------------------------------------------------

def _merge_small_bins(counts: np.ndarray, expected: np.ndarray):
    """Merge adjacent bins until every expected count reaches 5."""
    cs, es = [], []
    acc_c = acc_e = 0.0
    for c, e in zip(counts, expected):
        acc_c += c
        acc_e += e
        if acc_e >= 5.0:
            cs.append(acc_c)
            es.append(acc_e)
            acc_c = acc_e = 0.0
    if acc_e > 0:
        if es:
            cs[-1] += acc_c
            es[-1] += acc_e
        else:
            cs, es = [acc_c], [acc_e]
    return np.array(cs), np.array(es)


def _stirling_error(x: float) -> float:
    """log Gamma(x + 1) - log(sqrt(2 pi x) (x/e)^x) for x > 0."""
    if x <= 15.0:
        return lgamma(x + 1.0) - (x + 0.5) * math.log(x) + x - 0.5 * math.log(2 * pi)
    s = 1.0 / (x * x)
    return (1 / 12 - (1 / 360 - (1 / 1260 - (1 / 1680 - s / 1188) * s) * s) * s) / x


def _deviance(x: float, y: float) -> float:
    """x log(x/y) + y - x for x, y > 0; by its series in v = (x-y)/(x+y)
    where x and y are within a factor 3, which loses no digits to the
    cancellation."""
    if abs(x - y) >= 0.5 * (x + y):
        return x * math.log(x / y) + y - x
    v = (x - y) / (x + y)
    total, term, j = (x - y) * v, 2.0 * x * v, 1
    while True:
        term *= v * v
        new = total + term / (2 * j + 1)
        if new == total:
            return total
        total, j = new, j + 1


def _poisson_term(x: float, y: float) -> float:
    """e^{-y} y^x / Gamma(x + 1) for x >= 0, y > 0, by Loader's (2000)
    saddle-point form, which neither underflows early nor loses digits
    where x and y are large."""
    if x == 0.0:
        return exp(-y)
    return exp(-_stirling_error(x) - _deviance(x, y)) / sqrt(2 * pi * x)


def chi_square_sf(stat: float, df: int) -> float:
    """Upper tail Q(df/2, stat/2) of the chi-square law with integer df.
    With y = stat/2 and h = df/2 - floor(df/2), it is the finite sum
    [h > 0] erfc(sqrt y) + sum_{j < floor(df/2)} e^{-y} y^(j+h) / Gamma(j+h+1).
    The terms are taken from the largest one, at j + h nearest y, outward by
    their ratios, until they no longer move the sum."""
    if stat <= 0.0:
        return 1.0
    if not stat < math.inf:                   # inf, or nan from an empty expected bin
        return 0.0 if stat == math.inf else math.nan
    y, k, h = stat / 2.0, df // 2, (df % 2) / 2.0
    head = math.erfc(sqrt(y)) if h else 0.0
    if k == 0:
        return head
    top = min(k - 1, max(0, math.floor(y - h)))
    peak = _poisson_term(top + h, y)
    total, term = peak, peak
    for j in range(top, 0, -1):              # down: t(j-1) = t(j) (j+h) / y
        term *= (j + h) / y
        if total + term == total:
            break
        total += term
    term = peak
    for j in range(top + 1, k):               # up: t(j) = t(j-1) y / (j+h)
        term *= y / (j + h)
        if total + term == total:
            break
        total += term
    return head + total


def chi_square(counts, expected=None) -> dict:
    """Chi-square statistic and upper-tail p-value (``chi_square_sf``).
    Bins expecting fewer than 5 are merged with a report."""
    counts = np.asarray(counts, dtype=float)
    n = counts.sum()
    if expected is None:
        expected = np.full(counts.size, n / counts.size)
    else:
        expected = np.asarray(expected, dtype=float) * n / np.sum(expected)
    merged_from = counts.size
    counts, expected = _merge_small_bins(counts, expected)
    if counts.size < 2:
        raise ParameterError("too few bins after merging")
    stat = float(((counts - expected) ** 2 / expected).sum())
    df = counts.size - 1
    pvalue = chi_square_sf(stat, df)
    return {"statistic": stat, "df": df, "p_value": pvalue,
            "bins": counts.size, "merged_from": merged_from}


def ks_statistic(samples) -> float:
    """One-sample Kolmogorov-Smirnov distance from the uniform law on [0,1]."""
    u = np.sort(np.asarray(samples, dtype=float))
    n = u.size
    grid = np.arange(1, n + 1) / n
    return float(max((grid - u).max(), (u - (grid - 1.0 / n)).max()))


def kolmogorov_critical(alpha: float, n: int) -> float:
    """Critical KS distance at level alpha for sample size n (asymptotic)."""
    from scipy.special import kolmogi

    if not 0 < alpha < 1:
        raise ParameterError("alpha in (0,1)")
    return float(kolmogi(alpha)) / math.sqrt(n)


def ks_test(samples) -> dict:
    """KS distance and its asymptotic p-value from the Kolmogorov survival
    function."""
    from scipy.special import kolmogorov

    d = ks_statistic(samples)
    n = len(samples)
    return {"distance": d, "n": n,
            "p_value": float(kolmogorov(d * math.sqrt(n)))}


# ---------------------------------------------------------------------------
# curve export
# ---------------------------------------------------------------------------

def export_watts_curves(path, n_grid: int = 99) -> None:
    """CSV of (s, watts_closed, watts_composed): the two candidate laws for
    the last-visited-side curve against the exit fraction."""
    import csv
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["s", "watts_closed", "watts_composed"])
        for i in range(1, n_grid + 1):
            s = i / (n_grid + 1)
            w.writerow([s, watts_closed(s), watts_composed(s)])
