"""Transition operators: the reflected wedge walk, its radial projection,
and the continuous-time vase chain with its projection.

Value modes
-----------
For the special half-angles (sin^2 alpha rational) kernels can be built over
exact rational entries, int64 numerators over one denominator per row, which
turns the identity checks in :mod:`wedgewalk.intertwining` into exact
zero/nonzero verdicts.  Float mode targets 1e-12 residual tolerances.

The half-angle pi/4 makes the wedge mesh coincide with the ordinary square
lattice; a triangular mesh would play the same role at pi/6.
"""

from __future__ import annotations

import functools
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
    """``arrays``, the CSR arrays of an operator in ``mode``, exact values
    converted by ``_ints``.  Raises ``ParameterError`` unless every row is a
    probability vector: exactly (integer numerators summing to the row
    denominator) in rational mode, to 1e-12 in float mode."""
    indptr, indices, values = arrays
    n = len(indptr) - 1
    if mode == RATIONAL:
        values = entries, dens = tuple(map(_ints, values))
        # sums past 2^63 by 32-bit halves (reduceat gives an empty row its next entry)
        (hi, lo), full = np.zeros((2, n), dtype=entries.dtype), np.flatnonzero(np.diff(indptr))
        hi[full] = np.add.reduceat(entries >> 32, indptr[full])
        lo[full] = np.add.reduceat(entries & 0xFFFFFFFF, indptr[full])
        hi, lo = hi + (lo >> 32), lo & 0xFFFFFFFF
        bad = (hi != dens >> 32) | (lo != dens & 0xFFFFFFFF) | (dens == 0)
        total = lambda i: f"{Fraction((int(hi[i]) << 32) + int(lo[i]), int(dens[i]) or 1)}, not 1"
    else:
        entries, sums = values, np.bincount(_rows(indptr), weights=values, minlength=n)
        bad = ~(np.abs(sums - 1.0) <= 1e-12)                 # NaN sums fail too
        total = lambda i: repr(float(sums[i]))
    negative = np.zeros(n, dtype=bool)
    negative[np.searchsorted(indptr, np.flatnonzero(entries < 0), "right") - 1] = True
    if (bad | negative).any():
        i = int(np.argmax(bad | negative))
        if negative[i]:
            raise ParameterError(f"negative probability in {what} {i}")
        raise ParameterError(f"{what} {i} sums to {total(i)}")
    return indptr, indices, values


def _ints(x):
    """The integers ``x`` in int64, or all as Python ints (object) if one leaves it."""
    try:
        return np.asarray(x, dtype=np.int64)
    except OverflowError:           # no numpy int64 may stay, which could wrap
        return np.frompyfunc(int, 1, 1)(np.array(x, dtype=object))


def _row_lcm(x, indptr, what: str, times=1):
    """``times`` each row's lcm of the positive ``x`` (first axis) over the CSR ``indptr``, no
    row empty.  ``ParameterError``, ``what`` first, if int64 ``x`` give one beyond int64 (a
    wrapped lcm is no positive common multiple of its row); Python ints (object) are exact."""
    m = np.lcm.reduceat(x, indptr[:-1], axis=0)
    if x.dtype != object and (not ((m > 0) & (m <= (2 ** 63 - 1) // times)).all()
                              or (m[_rows(indptr)] % x).any()):
        raise ParameterError(f"{what}: exact row denominators exceed the int64 range")
    return m * times


def _pattern_arrays(patterns, kind, layer, mode: str):
    """CSR arrays, in the form of ``mode``, of rows that each
    follow one of the ``patterns``.  ``patterns[c]`` lists pattern c's entries
    in column order as ``(a, b, value)``; row s of ``kind[s] == c`` holds
    ``value`` at column ``s + a + b * layer[s]``.  A value is one number or
    one per row: a float, or a Fraction or a pair of int arrays (numerators,
    denominators), reduced and put over the lcm of its pattern's ones; a
    Fraction's parts go in as objects (numpy makes [2^63, 2^64) uint64, which int64 wraps)."""
    lengths = np.array([len(p) for p in patterns])
    indptr = np.concatenate([[0], np.cumsum(lengths[kind])])
    row = np.repeat(np.arange(len(kind)), lengths[kind])
    code = (np.cumsum(lengths) - lengths)[kind][row] + np.arange(indptr[-1]) - indptr[row]
    a, b, values = zip(*(entry for p in patterns for entry in p))
    indices = row + np.array(a)[code] + np.array(b)[code] * layer[row]
    pick = lambda table, i, r: table[i] if table.ndim == 1 else table[i, r]  # (entries[, rows])
    if mode == FLOAT:
        return indptr, indices, pick(np.array(np.broadcast_arrays(*values), float), code, row)
    num, den = (_ints(np.broadcast_arrays(*t)) for t in zip(*[map(np.array, (
        v.numerator, v.denominator), "OO") if isinstance(v, Fraction) else v for v in values]))
    g, bounds = np.gcd(num, den), np.append(0, np.cumsum(lengths))
    num, den = num // g, den // g
    dens = _row_lcm(den, bounds, "kernel")          # each pattern's, per row where it varies
    return indptr, indices, (pick(num * (dens[_rows(bounds)] // den), code, row),
                             pick(dens, kind, np.arange(len(kind))))


def _float_arrays(op):
    """Float CSR arrays of an operator: its kept ones in float mode, its
    exact numerators over their row denominators in rational mode, rounded
    as ``float(Fraction)`` (in numpy where both are exact floats, < 2^53)."""
    if op.mode == FLOAT:
        return op.arrays
    indptr, indices, (nums, dens) = op.arrays
    dens = np.repeat(dens, np.diff(indptr))
    data, wide = np.asarray(nums / dens, dtype=float), np.flatnonzero(dens >= 2 ** 53)
    data[wide] = list(map(operator.truediv, nums[wide].tolist(), dens[wide].tolist()))
    return indptr, indices, data


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
    ``values`` is a float array in float mode; in rational mode two int64
    arrays ``(numerators, dens)``, row i's numerators over the positive
    ``dens[i]``; Python ints (object) if one leaves int64, which the exact residual refuses."""

    what, check = "row", staticmethod(_check_stochastic)

    # a list of {column: value}; bench/spans.py counts entries through it
    @functools.cached_property
    def rows(self) -> list:
        indptr, cols, values = self.arrays
        bounds, cols = indptr.tolist(), cols.tolist()
        values = values.tolist() if self.mode != RATIONAL else list(map(     # Fractions
            Fraction, values[0].tolist(), np.repeat(values[1], np.diff(indptr)).tolist()))
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
    i, b = np.arange(N + 1), 2 * np.arange(N + 1) + 1
    if spec.sin_sq is None:
        step = lambda a: s2 / 2 * (a / b)
    else:           # sin^2/2 a/b as (p a, 2 q b), divided once in float mode (both exact)
        p, q = spec.sin_sq.numerator, 2 * spec.sin_sq.denominator
        step = lambda a: (p * a, q * b) if mode == RATIONAL else p * a / (q * b)
    hold = 1 - 3 * r
    patterns = [([(0, 0, hold)] if hold != 0 else []) + [(1, 0, 3 * r)],
                [(-1, 0, step(b - 2)), (0, 0, 1 - s2), (1, 0, step(b + 2))],
                [(0, 0, one)]]
    kind = np.select([i == 0, i == N], [0, 2], 1)
    return StochasticKernel(_pattern_arrays(patterns, kind, np.zeros(N + 1, dtype=np.int64),
                                            mode), mode=mode, layers=i.astype(np.int32))


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
