"""Discrete state spaces: the wedge lattice and the vase grid.

The wedge of half-angle ``alpha`` is meshed by the rectangular lattice with
horizontal pitch cos(alpha) and vertical pitch sin(alpha); the surviving
lattice points are indexed by (layer k, transverse y) with |y| <= k, so layer
k holds 2k+1 sites and the truncated lattice holds (N+1)^2 sites in total.

A vase is the symmetric planar domain bounded by |Im z| <= h(Re z) for a
strictly increasing shape function h with h(0) = 0.  Its grid places layer k
at the abscissa where h passes the level k/N, with transverse pitch 1/N.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import ParameterError

# Half-angles whose squared sine is rational; these admit exact arithmetic
# throughout the kernel algebra.
EXACT_SIN_SQ = {
    "pi/6": Fraction(1, 4),
    "pi/4": Fraction(1, 2),
    "pi/3": Fraction(3, 4),
}
_EXACT_RADIANS = {
    "pi/6": math.pi / 6,
    "pi/4": math.pi / 4,
    "pi/3": math.pi / 3,
}


def parse_angle(token) -> float:
    """Accept literal radians or one of the tokens pi/6, pi/4, pi/3."""
    if isinstance(token, str):
        t = token.strip().replace(" ", "")
        if t in _EXACT_RADIANS:
            return _EXACT_RADIANS[t]
        try:
            return float(t)
        except ValueError:
            raise ParameterError(f"cannot parse angle {token!r}") from None
    return float(token)


def exact_sin_sq(alpha: float) -> Optional[Fraction]:
    """Return sin^2(alpha) as a Fraction when alpha is a special angle."""
    for name, rad in _EXACT_RADIANS.items():
        if abs(alpha - rad) < 1e-12:
            return EXACT_SIN_SQ[name]
    return None


@dataclass(frozen=True)
class WedgeSpec:
    """Parameters of the reflected wedge walk.

    alpha      half-angle of the wedge, in (0, pi/2)
    layers     truncation layer index N >= 2
    apex_hold  probability of each apex move; holding mass is 1 - 3*apex_hold
    """

    alpha: float
    layers: int
    apex_hold: Optional[Fraction | float] = None

    def __post_init__(self):
        if not 0.0 < self.alpha < math.pi / 2:
            raise ParameterError(f"alpha must lie in (0, pi/2), got {self.alpha}")
        if self.layers < 2:
            raise ParameterError(f"layers must be >= 2, got {self.layers}")
        if self.apex_hold is None:
            # Mirror the vertical rate when admissible, cap so 1-3r stays >= 0.
            s2 = exact_sin_sq(self.alpha)
            if s2 is not None:
                r = min(Fraction(1, 3), (1 - s2) / 2)
            else:
                r = min(1.0 / 3.0, math.cos(self.alpha) ** 2 / 2.0)
            object.__setattr__(self, "apex_hold", r)
        r = self.apex_hold
        if not (0 < r and 3 * r <= 1):
            raise ParameterError(f"apex_hold must satisfy 0 < 3r <= 1, got {r}")

    @property
    def sin_sq(self) -> Optional[Fraction]:
        return exact_sin_sq(self.alpha)

    @property
    def float_sin_sq(self) -> float:
        """sin^2(alpha), rounded from its exact value at the special angles."""
        s2 = self.sin_sq
        return math.sin(self.alpha) ** 2 if s2 is None else float(s2)


def site_index(k: int, y: int) -> int:
    """Layer-major enumeration: layers 0..k-1 hold k^2 sites."""
    return k * k + (y + k)


MAX_LAYERS = 2 ** 31 - 1           # the largest that the int32 layer arrays hold


def _layer_major(layers: int):
    """Layer and transverse int32 arrays ``(k, y)`` of the sites
    0 <= k <= layers, |y| <= k, in ``site_index`` order."""
    k = np.repeat(np.arange(layers + 1, dtype=np.int32), 2 * np.arange(layers + 1) + 1)
    return k, (np.arange(k.size) - k.astype(np.int64) * (k + 1)).astype(np.int32)


class _Sites:
    """The sites (k, y), |y| <= k, of layers 0 .. K in ``site_index`` order:
    site i is (``layer[i]``, ``y[i]``)."""

    @property
    def n_sites(self) -> int:
        return self.layer.size

    def index(self, k: int, y: int) -> int:
        if not (0 <= k <= self.layer[-1] and abs(y) <= k):
            raise ParameterError(f"site {(k, y)} outside the {type(self).__name__}")
        return site_index(k, y)


@dataclass(frozen=True)
class WedgeLattice(_Sites):
    """All sites of the truncated wedge; site i lies at ``positions[i]``."""

    spec: WedgeSpec
    layer: np.ndarray = field(repr=False)
    y: np.ndarray = field(repr=False)
    positions: np.ndarray = field(repr=False)


def build_wedge_lattice(spec: WedgeSpec) -> WedgeLattice:
    """Enumerate the truncated wedge lattice; (N+1)^2 sites, injective embedding."""
    k, y = _layer_major(spec.layers)
    positions = k * math.cos(spec.alpha) + 1j * (y * math.sin(spec.alpha))
    return WedgeLattice(spec=spec, layer=k, y=y, positions=positions)


# ---------------------------------------------------------------------------
# shape functions
# ---------------------------------------------------------------------------

@dataclass
class ShapeFunction:
    """A vase profile: h(0)=0, h>0 and strictly increasing on (0, domain]."""

    h: Callable[[float], float]
    h_prime: Optional[Callable[[float], float]] = None
    domain_hint: Optional[float] = None
    label: str = "custom"

    def __call__(self, x: float) -> float:
        try:                        # refused where it overflows or is not finite
            if math.isfinite(v := self.h(x)):
                return v
        except OverflowError:
            pass
        raise ParameterError(f"shape {self.label} is not finite at x={x}")

    def derivative(self, x: float, eps: float = 1e-6) -> float:
        if self.h_prime is not None:
            return self.h_prime(x)
        # fall back to a central difference; adequate away from the apex
        e = eps * max(1.0, abs(x))
        return (self.h(x + e) - self.h(x - e)) / (2 * e)

    def validate(self, xs: Sequence[float], rel_tol: float = 1e-6) -> None:
        """Check h(0)=0, positivity, monotonicity and h' consistency by
        finite differences at the sampled points."""
        if abs(self.h(0.0)) > 1e-300:
            raise ParameterError("shape must satisfy h(0) = 0")
        prev_x, prev_v = None, None
        for x in xs:
            v = self.h(x)
            if x > 0 and v <= 0:
                raise ParameterError(f"shape must be positive at x={x}")
            if prev_x is not None and x > prev_x and v <= prev_v:
                raise ParameterError("shape must be strictly increasing")
            prev_x, prev_v = x, v
            if self.h_prime is not None and x > 0:
                e = 1e-6 * max(1.0, x)
                fd = (self.h(x + e) - self.h(x - e)) / (2 * e)
                hp = self.h_prime(x)
                if abs(fd - hp) > rel_tol * max(1.0, abs(hp)) * 100:
                    raise ParameterError(
                        f"h_prime inconsistent with h at x={x}: {hp} vs fd {fd}")


def linear_shape(slope: float) -> ShapeFunction:
    if slope <= 0:
        raise ParameterError("linear shape needs a positive slope")
    return ShapeFunction(h=lambda x: slope * x, h_prime=lambda x: slope,
                         label=f"linear:{slope}")


def power_shape(beta: float) -> ShapeFunction:
    if not 0 < beta < math.inf:
        raise ParameterError("power shape needs a positive finite exponent")
    return ShapeFunction(h=lambda x: x ** beta,
                         h_prime=lambda x: beta * x ** (beta - 1.0),
                         label=f"power:{beta}")


def tabulated_shape(xs: Sequence[float], hs: Sequence[float]) -> ShapeFunction:
    """Monotone-cubic interpolation through a strictly increasing table."""
    from scipy.interpolate import PchipInterpolator

    xs = np.asarray(xs, dtype=float)
    hs = np.asarray(hs, dtype=float)
    if xs.ndim != 1 or xs.shape != hs.shape or xs.size < 3:
        raise ParameterError("tabulated shape needs matching 1-D arrays, >= 3 points")
    if xs[0] != 0.0 or hs[0] != 0.0:
        raise ParameterError("tabulated shape must start at (0, 0)")
    if np.any(np.diff(xs) <= 0) or np.any(np.diff(hs) <= 0):
        raise ParameterError("tabulated shape must be strictly increasing")
    interp = PchipInterpolator(xs, hs)
    deriv = interp.derivative()
    return ShapeFunction(h=lambda x: float(interp(x)),
                         h_prime=lambda x: float(deriv(x)),
                         domain_hint=float(xs[-1]), label="table")


def shape_from_spec(spec) -> ShapeFunction:
    """Parse a configuration token: 'linear:SLOPE', 'power:BETA',
    'table:FILE.csv' (two columns x, h(x)), or a (xs, hs) pair."""
    if isinstance(spec, ShapeFunction):
        return spec
    if isinstance(spec, str):
        kind, _, arg = spec.partition(":")
        if kind in ("linear", "power"):
            try:
                value = float(arg or (1.0 if kind == "linear" else 2.0))
            except ValueError:
                value = math.nan
            if not math.isfinite(value):
                raise ParameterError(f"shape spec {spec!r}: {arg!r} is not a finite number")
            return linear_shape(value) if kind == "linear" else power_shape(value)
        if kind == "table":
            import csv
            xs, hs = [], []
            try:
                with open(arg) as fh:
                    for row in csv.reader(fh):
                        try:
                            x, h = float(row[0]), float(row[1])
                        except (IndexError, ValueError):
                            continue    # header or blank line
                        xs.append(x)
                        hs.append(h)
            except OSError as exc:
                raise ParameterError(f"cannot read shape table {arg!r}: {exc}") from exc
            return tabulated_shape(xs, hs)
        raise ParameterError(f"unknown shape spec {spec!r}")
    xs, hs = spec
    return tabulated_shape(xs, hs)


# ---------------------------------------------------------------------------
# vase grid
# ---------------------------------------------------------------------------

def bisect_increasing(fn: Callable[[float], float], target: float,
                      lo: float = 0.0, hi: Optional[float] = None,
                      tol: float = 1e-12, max_expand: int = 200) -> float:
    """Solve fn(x) = target for increasing fn by expansion bracketing + bisection."""
    if hi is None:
        hi = max(lo, 1e-9)
    n = 0
    while fn(hi) < target:
        hi = 2.0 * hi + 0.1
        n += 1
        if n > max_expand:
            raise ParameterError(f"level {target} not reachable by the shape")
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):             # no float between them: as close as it gets
            break
        if fn(mid) < target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@dataclass(frozen=True)
class VaseGrid(_Sites):
    """Vase discretization: layer k sits at abscissa x_k where h(x_k) = k/N.

    ``angles[k]`` is the inclination of the boundary segment between layers
    k and k+1: tan(angles[k]) = (1/N) / (x_{k+1} - x_k).  Sites are (k, y)
    with |y| <= k, embedded at x_k + i y/N; ``layers`` is the top layer K.
    """

    shape: ShapeFunction
    resolution: int
    layers: int
    abscissas: np.ndarray = field(repr=False)   # x_0 .. x_K
    angles: np.ndarray = field(repr=False)      # alpha_0 .. alpha_{K-1}

    # built on first read: the radial operators need no site arrays
    @cached_property
    def layer(self) -> np.ndarray:
        return _layer_major(self.layers)[0]

    @cached_property
    def y(self) -> np.ndarray:
        return _layer_major(self.layers)[1]

    def cot_angles(self) -> np.ndarray:
        return 1.0 / np.tan(self.angles)


def build_vase_grid(shape, resolution: int, layers: int) -> VaseGrid:
    """Root-find the abscissas x_k = h^{-1}(k/N), k = 0..K, and the K
    boundary-segment angles between consecutive layers."""
    shape = shape_from_spec(shape)
    if not (1 <= resolution < math.inf and 1 <= layers <= MAX_LAYERS):
        raise ParameterError(f"need finite resolution >= 1 and layers in [1, {MAX_LAYERS}]")
    N, K = int(resolution), int(layers)
    xs = layer_abscissas(shape, N, range(K + 1))
    return VaseGrid(shape=shape, resolution=N, layers=K,
                    abscissas=xs, angles=segment_angles(xs, N))


def layer_abscissas(shape: ShapeFunction, resolution: int, layers) -> np.ndarray:
    """x_k = h^{-1}(k/N) for the increasing layers ``layers``, each bisected
    up from the one before (from 0 for the first) and checked to reproduce
    its level to 1e-10, relative to the level past 1."""
    xs = np.empty(len(layers))
    lo, hint = 0.0, shape.domain_hint
    for i, k in enumerate(layers):
        level = k / resolution
        if hint is not None and shape(hint) < level - 1e-15:
            raise ParameterError(f"shape cannot reach level {level}")
        if k > 0:
            lo = bisect_increasing(shape, level, lo=lo, hi=hint if hint else None, tol=1e-12)
        if abs(shape(lo) - level) > 1e-10 * max(1.0, level):
            raise ParameterError(f"abscissa solve failed at k={k}")
        xs[i] = lo
    return xs


def segment_angles(xs: np.ndarray, resolution: int) -> np.ndarray:
    """Inclinations of the boundary segments between consecutive layers at
    the abscissas ``xs``: tan(angle) = (1/N) / (x_{k+1} - x_k)."""
    gaps = np.diff(xs)
    if np.any(gaps <= 0):
        raise ParameterError("abscissas not strictly increasing; shape not monotone?")
    return np.arctan((1.0 / resolution) / gaps)
