"""Transition operators: the reflected wedge walk, its radial projection,
and the continuous-time vase chain with its projection.

Value modes
-----------
For the special half-angles (sin^2 alpha rational) kernels can be built over
exact ``Fraction`` entries, which turns the algebraic identity checks in
:mod:`wedgewalk.intertwining` into exact zero/nonzero verdicts.  Float mode
targets 1e-12 residual tolerances.

The half-angle pi/4 makes the wedge mesh coincide with the ordinary square
lattice; a triangular mesh would play the same role at pi/6.
"""

from __future__ import annotations

import functools
import math
import operator
from fractions import Fraction

import numpy as np

from .errors import ParameterError
from .geometry import VaseGrid, WedgeLattice, WedgeSpec, site_index

RATIONAL = "rational"
FLOAT = "float"


def _resolve_mode(mode: str, s2_exact) -> str:
    if mode == "auto":
        return RATIONAL if s2_exact is not None else FLOAT
    if mode == RATIONAL and s2_exact is None:
        raise ParameterError("rational mode needs sin^2(alpha) rational "
                             "(alpha in {pi/6, pi/4, pi/3})")
    if mode not in (RATIONAL, FLOAT):
        raise ParameterError(f"unknown value mode {mode!r}")
    return mode


def _check_stochastic(arrays, mode: str, what: str = "row"):
    """``arrays``, the CSR arrays of an operator in ``mode``.  Raises
    ``ParameterError`` unless every row is a probability vector: exactly
    (integer numerators summing to the row denominator) in rational mode,
    to 1e-12 in float mode."""
    indptr, _, values = arrays
    n = len(indptr) - 1
    if mode == RATIONAL:
        nums, dens = values
        bounds = indptr.tolist()
        # a row's sum; reduceat would give an empty row its next entry
        sums = np.where(np.diff(indptr) > 0, np.add.reduceat(
            np.array(nums + [0], dtype=object), indptr[:-1]), 0).tolist()
        if sums != dens or min(nums, default=0) < 0 or 0 in dens:
            for i, d in enumerate(dens):
                if min(nums[bounds[i]:bounds[i + 1]], default=0) < 0:
                    raise ParameterError(f"negative probability in {what} {i}")
                if sums[i] != d or d == 0:
                    raise ParameterError(
                        f"{what} {i} sums to {Fraction(sums[i], d or 1)}, not 1")
        return arrays
    row_of = np.repeat(np.arange(n), np.diff(indptr))
    negative = np.bincount(row_of[values < 0], minlength=n) > 0
    sums = np.bincount(row_of, weights=values, minlength=n)
    bad = negative | ~(np.abs(sums - 1.0) <= 1e-12)      # NaN sums fail too
    if bad.any():
        i = int(np.argmax(bad))
        if negative[i]:
            raise ParameterError(f"negative probability in {what} {i}")
        raise ParameterError(f"{what} {i} sums to {float(sums[i])!r}")
    return arrays


def _pattern_arrays(patterns, kind, layer, mode: str):
    """CSR arrays, in the form of ``mode``, of rows that each
    follow one of the ``patterns``.  ``patterns[c]`` lists pattern c's entries
    in column order as ``(a, b, value)``; row s of ``kind[s] == c`` holds
    ``value`` at column ``s + a + b * layer[s]``.  Exact values go over the
    lcm of their pattern's denominators.  A float value may be one number
    or one value per row."""
    lengths = np.array([len(p) for p in patterns])
    indptr = np.concatenate([[0], np.cumsum(lengths[kind])])
    row = np.repeat(np.arange(len(kind)), lengths[kind])
    code = (np.cumsum(lengths) - lengths)[kind][row] + np.arange(indptr[-1]) - indptr[row]
    a, b, values = zip(*(entry for p in patterns for entry in p))
    indices = row + np.array(a)[code] + np.array(b)[code] * layer[row]
    if mode == FLOAT:               # (entries,), or (entries, rows) with a per-row value
        table = np.array(np.broadcast_arrays(*values), dtype=float)
        return indptr, indices, table[code] if table.ndim == 1 else table[code, row]
    dens = [math.lcm(*[v.denominator for _, _, v in p]) for p in patterns]
    nums = [v.numerator * (d // v.denominator)
            for p, d in zip(patterns, dens) for _, _, v in p]
    return indptr, indices, (np.array(nums, dtype=object)[code].tolist(),
                             np.array(dens, dtype=object)[kind].tolist())


def _float_arrays(op):
    """Float CSR arrays of an operator: its kept ones in float mode, its
    exact numerators divided by their row denominators in rational mode
    (correctly rounded, as ``float(Fraction)``)."""
    if op.mode == FLOAT:
        return op.arrays
    indptr, indices, (nums, dens) = op.arrays
    dens = np.repeat(np.array(dens, dtype=object), np.diff(indptr))
    return indptr, indices, np.array(list(map(operator.truediv, nums, dens)))


def _entry_values(op) -> list:
    """An operator's stored entries, row by row: Fractions in rational
    mode, floats in float mode."""
    indptr, _, values = op.arrays
    if op.mode != RATIONAL:
        return values.tolist()
    dens = np.repeat(np.array(values[1], dtype=object), np.diff(indptr))
    return list(map(Fraction, values[0], dens))


def _rows(indptr):
    return np.repeat(np.arange(len(indptr) - 1), np.diff(indptr))


def _coalesce(key, vals, presorted=False):
    """The distinct ``key``s, ascending, and the sum of each one's ``vals``:
    exactly in int64, and in float in the order given (not pairwise, as
    ``np.add.reduceat`` sums).  ``presorted`` says that ``key`` ascends."""
    if not presorted:
        order = np.argsort(key, kind="stable")      # sorted runs merge in linear time
        key, vals = key[order], vals[order]
    new = np.diff(key, prepend=-1) != 0
    data = np.zeros(np.count_nonzero(new), dtype=vals.dtype)
    np.add.at(data, np.cumsum(new) - 1, vals)
    return key[new], data


def _csr(arrays, n_cols: int):
    """scipy CSR matrix of float CSR arrays."""
    import scipy.sparse as sp

    indptr, indices, data = arrays
    return sp.csr_matrix((data, indices, indptr), shape=(len(indptr) - 1, n_cols))


def _check_rates(arrays, mode=FLOAT, what: str = "row"):
    """Float CSR arrays of off-diagonal rates.  Raises ``ParameterError``
    if a row stores a diagonal entry or a negative or non-finite rate."""
    indptr, indices, data = arrays
    row = np.repeat(np.arange(len(indptr) - 1), np.diff(indptr))
    for bad, kind in ((indices == row, "diagonal entry stored"), (data < 0, "negative rate"),
                      (~np.isfinite(data), "non-finite rate")):
        if bad.any():
            raise ParameterError(f"{kind} in {what} {row[np.argmax(bad)]}")
    return arrays


class _CSROperator:
    """An operator on the states 0 .. n-1, kept as checked CSR ``arrays``
    ``(indptr, indices, values)`` with the columns of each row ascending.
    ``values`` is a float array in float mode; in rational mode it is a
    pair of Python-int lists ``(numerators, dens)``, row i's numerators
    over the positive denominator ``dens[i]``."""

    what, check = "row", staticmethod(_check_stochastic)

    # a list of {column: value}; bench/spans.py counts entries through it
    @functools.cached_property
    def rows(self) -> list:
        bounds, cols = self.arrays[0].tolist(), self.arrays[1].tolist()
        values = _entry_values(self)
        return [dict(zip(cols[lo:hi], values[lo:hi]))
                for lo, hi in zip(bounds, bounds[1:])]

    @property
    def n_states(self) -> int:
        return len(self.arrays[0]) - 1


def _state(op, state) -> int:
    """Index of ``state``, given as an index or as a site (k, y) of a planar
    operator; ``ParameterError`` if the operator has no such state."""
    if isinstance(state, tuple):
        k, y = state
        if op.y is None or not (0 <= k <= op.layers.max() and abs(y) <= k):
            raise ParameterError(f"site {state} outside the operator's sites")
        return site_index(k, y)
    if not 0 <= int(state) < op.n_states:
        raise ParameterError(f"state {state} outside the operator's states")
    return int(state)


class StochasticKernel(_CSROperator):
    """Sparse row-stochastic operator given by its CSR ``arrays``.  State i
    lies on layer ``layers[i]`` at transverse index ``y[i]``: a planar site
    (k, y) is state ``site_index(k, y)``; ``y`` is None on a radial chain,
    and both are None on a kernel with no layered states."""

    def __init__(self, arrays, *, mode, layers=None, y=None):
        self.mode, self.layers, self.y = mode, layers, y
        self.arrays = self.check(arrays, mode, self.what)

    def absorbing_mask(self) -> np.ndarray:
        """Rows holding only their own state (no row is empty)."""
        indptr, indices, _ = self.arrays
        return (np.diff(indptr) == 1) & (indices[indptr[:-1]] == np.arange(self.n_states))

    def to_csr(self):
        return _csr(_float_arrays(self), self.n_states)


class RateMatrix(_CSROperator):
    """Sparse conservative rate matrix: CSR ``arrays`` of the off-diagonal
    rates and ``exit_rates``, the negated diagonal.  ``layers`` and ``y``
    place the states as in ``StochasticKernel``."""

    mode, check = FLOAT, staticmethod(_check_rates)

    def __init__(self, arrays, *, exit_rates, layers=None, y=None):
        self.layers, self.y = layers, y
        self.arrays = self.check(arrays, self.mode, self.what)
        self.exit_rates = np.asarray(exit_rates, dtype=float)
        if self.exit_rates.shape != (self.n_states,):
            raise ParameterError(f"{self.n_states} states need one exit rate each, "
                                 f"not an array of shape {self.exit_rates.shape}")

    def generator(self):
        """CSR arrays of the full generator, the diagonal ``-exit_rates``
        included."""
        (indptr, cols, rates), n = self.arrays, self.n_states
        key = np.concatenate([_rows(indptr) * n + cols, np.arange(n) * (n + 1)])
        key, data = _coalesce(key, np.concatenate([rates, -self.exit_rates]))
        return np.searchsorted(key, np.arange(n + 1) * n), key % n, data

    def jump_chain(self) -> StochasticKernel:
        """Embedded discrete chain: each row's rates over its exit rate;
        zero-rate rows become absorbing."""
        indptr, indices, data = self.arrays
        n, rate = self.n_states, np.repeat(self.exit_rates, np.diff(indptr))
        move, stay = rate != 0, np.flatnonzero(self.exit_rates == 0)
        row = np.concatenate([np.repeat(np.arange(n), np.diff(indptr))[move], stay])
        order = np.argsort(row, kind="stable")    # a staying row holds one entry
        arrays = (np.concatenate([[0], np.cumsum(np.bincount(row, minlength=n))]),
                  np.concatenate([indices[move], stay])[order],
                  np.concatenate([data[move] / rate[move], np.ones(stay.size)])[order])
        return StochasticKernel(arrays, mode=FLOAT, layers=self.layers, y=self.y)


# ---------------------------------------------------------------------------
# wedge operators
# ---------------------------------------------------------------------------

def _wedge_values(spec: WedgeSpec, mode: str):
    """``mode`` resolved, with sin^2(alpha), the apex move r and 1: Fractions
    in rational mode, floats otherwise."""
    mode = _resolve_mode(mode, spec.sin_sq)
    if mode == RATIONAL:
        return mode, spec.sin_sq, Fraction(spec.apex_hold), Fraction(1)
    return mode, spec.float_sin_sq, float(spec.apex_hold), 1.0


def wedge_kernel(lattice: WedgeLattice, spec: WedgeSpec,
                 mode: str = "auto") -> StochasticKernel:
    """One-step kernel of the reflected wedge walk, absorbed at layer N.

    Inner sites move horizontally with probability sin^2(a)/2 each way and
    vertically with cos^2(a)/2 each way.  A site on the upper boundary moves
    to (k+1, k) and (k+1, k+1) with sin^2(a)/2 each, steps down with
    cos^2(a)/2 and holds with cos^2(a)/2; the lower boundary mirrors this.
    The apex spreads mass r to the three sites of layer 1.
    """
    N = spec.layers
    mode, s2, r, one = _wedge_values(spec, mode)
    p, q = s2 / 2, (1 - s2) / 2
    if lattice.n_sites != (N + 1) ** 2:
        raise ParameterError(f"the lattice does not have {N} layers")
    # patterns by row kind, entries (a, b, value) at column s + a + b k, in
    # column order (site_index puts (k, y) at k^2 + y + k)
    hold = 1 - 3 * r
    apex = ([(0, 0, hold)] if hold != 0 else []) + [(c, 0, r) for c in (1, 2, 3)]
    patterns = [[(0, 0, one)],                                    # absorbed
                apex,
                [(-1, 0, q), (0, 0, q), (2, 2, p), (3, 2, p)],   # y = k
                [(0, 0, q), (1, 0, q), (1, 2, p), (2, 2, p)],    # y = -k
                [(0, -2, p), (-1, 0, q), (1, 0, q), (2, 2, p)]]  # inner
    layer, y = lattice.layer, lattice.y
    kind = np.select([layer == N, layer == 0, y == layer, y == -layer], [0, 1, 2, 3], 4)
    return StochasticKernel(_pattern_arrays(patterns, kind, layer, mode), mode=mode,
                            layers=layer, y=y)


def projected_wedge_chain(layers: int, alpha: float,
                          apex_hold=None, mode: str = "auto") -> StochasticKernel:
    """Radial birth-death chain on {0..N}: down sin^2(a)/2 (2i-1)/(2i+1),
    hold cos^2(a), up sin^2(a)/2 (2i+3)/(2i+1); state N absorbing."""
    spec = WedgeSpec(alpha=alpha, layers=layers, apex_hold=apex_hold)
    N = layers
    mode, s2, r, one = _wedge_values(spec, mode)
    if spec.sin_sq is None:
        step = lambda a, b: s2 / 2 * (a / b)
    else:                           # the exact entry, rounded once in float mode
        cast = Fraction if mode == RATIONAL else float
        step = lambda a, b: cast(spec.sin_sq / 2 * Fraction(a, b))
    hold = 1 - 3 * r
    patterns = [([(0, 0, hold)] if hold != 0 else []) + [(1, 0, 3 * r)]]
    patterns += [[(-1, 0, step(2 * i - 1, 2 * i + 1)), (0, 0, 1 - s2),
                  (1, 0, step(2 * i + 3, 2 * i + 1))] for i in range(1, N)]
    patterns.append([(0, 0, one)])
    return StochasticKernel(_pattern_arrays(patterns, np.arange(N + 1),
                                            np.zeros(N + 1, dtype=np.int64), mode),
                            mode=mode, layers=np.arange(N + 1, dtype=np.int32))


# ---------------------------------------------------------------------------
# vase operators
# ---------------------------------------------------------------------------

def _layer_rates(cot: np.ndarray, k):
    """Forward/backward horizontal rates at layer(s) k from the two adjacent
    boundary-segment slopes."""
    ck, cm = cot[k], cot[k - 1]
    bad = ~(np.isfinite(ck) & np.isfinite(cm) & (ck > 0) & (cm > 0))
    if bad.any():
        raise ParameterError("degenerate boundary angle near layer "
                             f"{np.atleast_1d(k)[np.atleast_1d(bad)][0]}")
    s = ck + cm
    return 1.0 / (ck * s), 1.0 / (cm * s)


def _vase_layer_rates(grid: VaseGrid, apex_rate: float):
    """Per-layer horizontal rates (c_k, d_k), zero at the apex and the top."""
    if apex_rate <= 0:
        raise ParameterError("apex_rate must be positive")
    c, d = np.zeros(grid.layers + 1), np.zeros(grid.layers + 1)
    c[1:-1], d[1:-1] = _layer_rates(grid.cot_angles(), np.arange(1, grid.layers))
    return c, d


def vase_rate_matrix(grid: VaseGrid, apex_rate: float = 1.0 / 6.0,
                     exact_projection: bool = True) -> RateMatrix:
    """Jump rates of the vase chain, absorbed at the top layer K.

    Horizontal rates at layer k are c_k = [cot(a_k)(cot(a_k)+cot(a_{k-1}))]^{-1}
    forward and d_k = [cot(a_{k-1})(cot(a_k)+cot(a_{k-1}))]^{-1} backward, a
    zero-mean isotropic choice.  Boundary sites step inward vertically, and
    advance to both (k+1, k) and (k+1, k+1) at rate c_k.

    With ``exact_projection`` the vertical rates carry a skew of size
    (c_k - d_k)(2y+1)/(2(2k+1)) on the bond (y, y+1), the unique
    nearest-neighbour choice making the fiber-averaging identity with
    :func:`projected_vase_rates` hold entrywise at every resolution.  The
    skew vanishes identically for conical shapes (c_k = d_k) and is O(1/N)
    otherwise.  ``exact_projection=False`` keeps plain 1/2 vertical rates,
    which leaves an O(1/N) identity defect at the fiber edges and a
    boundary flux bias that does not vanish in the scaling limit.
    """
    c, d = _vase_layer_rates(grid, apex_rate)
    k, y = grid.layer, grid.y
    inside, c, d = (0 < k) & (k < grid.layers), c[k], d[k]
    up = down = np.full(k.size, 0.5)
    if exact_projection:            # the skew on the bonds (y, y+1) and (y-1, y)
        skew = lambda yb: (c - d) * (2 * yb + 1) / (2 * (2 * k + 1))
        up, down = 0.5 + skew(y), 0.5 - skew(y - 1)
        low = inside & (((y < k) & (up < 0)) | ((y > -k) & (down < 0)))
        if low.any():
            raise ParameterError(f"vertical rate negative at layer {k[low][0]}; grid "
                                 "too coarse for this shape near the apex")
    # patterns by row kind in column order, as in wedge_kernel
    r = apex_rate
    patterns = [[],                                                # absorbed
                [(1, 0, r), (2, 0, r), (3, 0, r)],                 # apex
                [(-1, 0, down), (2, 2, c), (3, 2, c)],             # y = k
                [(1, 0, up), (1, 2, c), (2, 2, c)],                # y = -k
                [(0, -2, d), (-1, 0, down), (1, 0, up), (2, 2, c)]]  # inner
    kind = np.select([k == grid.layers, k == 0, y == k, y == -k], [0, 1, 2, 3], 4)
    # exit rates summed as listed: up, down, forward, back
    exit_rates = np.select([kind == 4, kind == 2, kind == 3, kind == 1],
                           [((up + down) + c) + d, (down + c) + c, (up + c) + c, (r + r) + r])
    return RateMatrix(_pattern_arrays(patterns, kind, k, FLOAT), exit_rates=exit_rates,
                      layers=k, y=y)


def projected_vase_rates(grid: VaseGrid, apex_rate: float = 1.0 / 6.0) -> RateMatrix:
    """Projected birth-death rates on the abscissas x_0..x_K, top absorbing."""
    c, d = _vase_layer_rates(grid, apex_rate)
    k = np.arange(grid.layers + 1)
    up, down = (2 * k + 3) / (2 * k + 1) * c, (2 * k - 1) / (2 * k + 1) * d
    up[0], down[0] = 3.0 * apex_rate, 0.0
    kind = np.select([k == grid.layers, k == 0], [0, 1], 2)
    return RateMatrix(_pattern_arrays([[], [(1, 0, up)], [(-1, 0, down), (1, 0, up)]],
                                      kind, k, FLOAT),
                      exit_rates=down + up, layers=k.astype(np.int32))
