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
import itertools
import math
import operator
from fractions import Fraction
from typing import Optional

import numpy as np

from .errors import ParameterError
from .geometry import VaseGrid, WedgeLattice, WedgeSpec, _layer_major

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


def _row_arrays(rows, exact: bool = False):
    """CSR arrays ``(indptr, indices, values)`` of dict rows ``{column:
    value}``, columns sorted within each row.  ``values`` is a float array,
    or with ``exact`` a pair of Python-int lists ``(numerators, dens)``: row
    i's numerators over ``dens[i]``, the lcm of its denominators."""
    n = len(rows)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum([len(r) for r in rows], out=indptr[1:])
    nnz = int(indptr[-1])
    indices = np.fromiter((j for r in rows for j in r), dtype=np.int64, count=nnz)
    order = np.lexsort((indices, np.repeat(np.arange(n), np.diff(indptr))))
    if not exact:
        data = np.fromiter((float(v) for r in rows for v in r.values()),
                           dtype=float, count=nnz)
        return indptr, indices[order], data[order]
    dens = [math.lcm(*[v.denominator for v in r.values()]) for r in rows]
    nums = [v.numerator * (d // v.denominator)
            for r, d in zip(rows, dens) for v in r.values()]
    return indptr, indices[order], ([nums[e] for e in order.tolist()], dens)


def _check_stochastic(arrays, mode: str, what: str = "row"):
    """``arrays``, CSR arrays in the ``_row_arrays`` form of ``mode``.
    Raises ``ParameterError`` unless every row is a probability vector:
    exactly (integer numerators summing to the row denominator) in rational
    mode, to 1e-12 in float mode."""
    indptr, _, values = arrays
    n = len(indptr) - 1
    if mode == RATIONAL:
        nums, dens = values
        bounds = indptr.tolist()
        total = list(itertools.accumulate(nums, initial=0))
        sums = [total[hi] - total[lo] for lo, hi in zip(bounds, bounds[1:])]
        if sums != dens or min(nums, default=0) < 0:
            for i, d in enumerate(dens):
                if min(nums[bounds[i]:bounds[i + 1]], default=0) < 0:
                    raise ParameterError(f"negative probability in {what} {i}")
                if sums[i] != d:
                    raise ParameterError(
                        f"{what} {i} sums to {Fraction(sums[i], d)}, not 1")
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
    """CSR arrays, in the ``_row_arrays`` form of ``mode``, of rows that each
    follow one of the ``patterns``.  ``patterns[c]`` lists pattern c's entries
    in column order as ``(a, b, value)``; row s of ``kind[s] == c`` holds
    ``value`` at column ``s + a + b * layer[s]``.  Exact values go over the
    lcm of their pattern's denominators."""
    lengths = np.array([len(p) for p in patterns])
    indptr = np.concatenate([[0], np.cumsum(lengths[kind])])
    row = np.repeat(np.arange(len(kind)), lengths[kind])
    code = (np.cumsum(lengths) - lengths)[kind][row] + np.arange(indptr[-1]) - indptr[row]
    a, b, values = zip(*(entry for p in patterns for entry in p))
    indices = row + np.array(a)[code] + np.array(b)[code] * layer[row]
    if mode == FLOAT:
        return indptr, indices, np.array(values, dtype=float)[code]
    dens = [math.lcm(*[v.denominator for _, _, v in p]) for p in patterns]
    nums = [v.numerator * (d // v.denominator)
            for p, d in zip(patterns, dens) for _, _, v in p]
    return indptr, indices, (np.array(nums, dtype=object)[code].tolist(),
                             np.array(dens, dtype=object)[kind].tolist())


def _float_arrays(op):
    """Float ``_row_arrays`` of an operator: its kept ones in float mode, its
    exact numerators divided by their row denominators in rational mode
    (correctly rounded, as ``float(Fraction)``)."""
    if op.mode == FLOAT:
        return op.arrays
    indptr, indices, (nums, dens) = op.arrays
    dens = np.repeat(np.array(dens, dtype=object), np.diff(indptr))
    return indptr, indices, np.array(list(map(operator.truediv, nums, dens)))


def _csr(arrays, n_cols: int, diagonal=None):
    """Float CSR matrix of float ``_row_arrays``; ``diagonal`` (one value per
    row) is added on the diagonal."""
    import scipy.sparse as sp

    indptr, indices, data = arrays
    A = sp.csr_matrix((data, indices, indptr), shape=(len(indptr) - 1, n_cols))
    if diagonal is not None:
        A = A + sp.diags(np.asarray(diagonal, dtype=float), format="csr")
        A.sort_indices()
    return A


def _check_rates(arrays, mode=FLOAT, what: str = "row"):
    """Float ``_row_arrays`` of off-diagonal rates.  Raises ``ParameterError``
    if a row stores a diagonal entry or a negative or non-finite rate."""
    indptr, indices, data = arrays
    row = np.repeat(np.arange(len(indptr) - 1), np.diff(indptr))
    for bad, kind in ((indices == row, "diagonal entry stored"), (data < 0, "negative rate"),
                      (~np.isfinite(data), "non-finite rate")):
        if bad.any():
            raise ParameterError(f"{kind} in {what} {row[np.argmax(bad)]}")
    return arrays


class _CSROperator:
    """An operator kept as checked CSR ``arrays`` in the ``_row_arrays``
    form of its ``mode``.  Dict ``rows`` given to the constructor are
    converted once; otherwise ``rows``, a list of ``{column: value}``, is
    built from the arrays on first access."""

    what, check = "row", staticmethod(_check_stochastic)

    def _keep(self, rows, arrays):
        if arrays is None:
            arrays = _row_arrays(rows, exact=self.mode == RATIONAL)
            self.rows = rows
        self.arrays = self.check(arrays, self.mode, self.what)

    @functools.cached_property
    def rows(self) -> list:
        indptr, indices, values = self.arrays
        bounds, cols = indptr.tolist(), indices.tolist()
        if self.mode == RATIONAL:
            dens = np.repeat(np.array(values[1], dtype=object), np.diff(indptr))
            values = list(map(Fraction, values[0], dens))
        else:
            values = values.tolist()
        return [dict(zip(cols[lo:hi], values[lo:hi]))
                for lo, hi in zip(bounds, bounds[1:])]

    @functools.cached_property
    def index(self) -> dict:
        return {s: i for i, s in enumerate(self.states)}

    @property
    def n_states(self) -> int:
        return len(self.states)


class StochasticKernel(_CSROperator):
    """Sparse row-stochastic operator over an enumerated state space, given
    by dict ``rows`` ``{state_index: probability}`` or by CSR ``arrays``."""

    def __init__(self, states, rows=None, *, mode, layers=None, arrays=None):
        self.states, self.mode, self.layers = tuple(states), mode, layers
        self._keep(rows, arrays)

    def is_absorbing(self, i: int) -> bool:
        return bool(self.absorbing_mask()[i])

    def absorbing_mask(self) -> np.ndarray:
        """Rows holding only their own state (no row is empty)."""
        indptr, indices, _ = self.arrays
        return (np.diff(indptr) == 1) & (indices[indptr[:-1]] == np.arange(self.n_states))

    def to_csr(self):
        return _csr(_float_arrays(self), self.n_states)


class RateMatrix(_CSROperator):
    """Sparse conservative rate matrix: CSR ``arrays`` of the off-diagonal
    rates (``rows``, alias ``off_rows``, their dict view) and ``exit_rates``,
    the negated diagonal, by default each row's rates summed in dict order."""

    mode, check = FLOAT, staticmethod(_check_rates)

    def __init__(self, states, off_rows=None, layers=None, *, arrays=None,
                 exit_rates=None):
        self.states, self.layers = tuple(states), layers
        self._keep(off_rows, arrays)
        self.exit_rates = np.asarray([sum(r.values()) for r in self.rows]
                                     if exit_rates is None else exit_rates, dtype=float)

    off_rows = property(lambda self: self.rows)

    def to_csr(self):
        """The full generator, diagonal included."""
        return _csr(self.arrays, self.n_states, diagonal=-self.exit_rates)

    def is_absorbing(self, i: int) -> bool:
        return bool(self.arrays[0][i] == self.arrays[0][i + 1])

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
        return StochasticKernel(states=self.states, mode=FLOAT, layers=self.layers,
                                arrays=arrays)


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
                 absorb_at: Optional[int] = None, mode: str = "auto") -> StochasticKernel:
    """One-step kernel of the reflected wedge walk, absorbed at layer M.

    Inner sites move horizontally with probability sin^2(a)/2 each way and
    vertically with cos^2(a)/2 each way.  A site on the upper boundary moves
    to (k+1, k) and (k+1, k+1) with sin^2(a)/2 each, steps down with
    cos^2(a)/2 and holds with cos^2(a)/2; the lower boundary mirrors this.
    The apex spreads mass r to the three sites of layer 1.
    """
    N = spec.layers
    M = N if absorb_at is None else int(absorb_at)
    if not 2 <= M <= N:
        raise ParameterError(f"absorb_at must lie in [2, {N}], got {M}")
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
    layer = lattice.layers_of()
    y = np.arange(lattice.n_sites) - layer * (layer + 1)
    kind = np.select([layer >= M, layer == 0, y == layer, y == -layer], [0, 1, 2, 3], 4)
    return StochasticKernel(states=lattice.sites, mode=mode, layers=layer,
                            arrays=_pattern_arrays(patterns, kind, layer, mode))


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
    return StochasticKernel(states=tuple(range(N + 1)), mode=mode,
                            layers=np.arange(N + 1, dtype=np.int32),
                            arrays=_pattern_arrays(patterns, np.arange(N + 1),
                                                   np.zeros(N + 1, dtype=np.int64), mode))


def row_displacement(kernel: StochasticKernel, i: int):
    """Mean displacement of row i in (cos a, sin a) units: (sum p dk, sum p dy).

    Exact in rational mode.  The wedge embedding puts (k, y) at
    k cos(a) + i y sin(a), so the physical mean step is (a*cos, b*sin).
    """
    k0, y0 = kernel.states[i]
    a = b = Fraction(0) if kernel.mode == RATIONAL else 0.0
    for j, pr in kernel.rows[i].items():
        k1, y1 = kernel.states[j]
        a = a + pr * (k1 - k0)
        b = b + pr * (y1 - y0)
    return a, b


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


def _slot_arrays(cols, vals):
    """Float CSR arrays of rows given as slot tables: ascending columns, -1
    marking an unused slot, and their values."""
    used = cols >= 0
    return np.concatenate([[0], np.cumsum(used.sum(axis=1))]), cols[used], vals[used]


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
    k, y = _layer_major(grid.layers)
    s, inside, c, d = np.arange(k.size), (0 < k) & (k < grid.layers), c[k], d[k]
    up = down = np.full(k.size, 0.5)
    if exact_projection:            # the skew on the bonds (y, y+1) and (y-1, y)
        skew = lambda yb: (c - d) * (2 * yb + 1) / (2 * (2 * k + 1))
        up, down = 0.5 + skew(y), 0.5 - skew(y - 1)
        low = inside & (((y < k) & (up < 0)) | ((y > -k) & (down < 0)))
        if low.any():
            raise ParameterError(f"vertical rate negative at layer {k[low][0]}; grid "
                                 "too coarse for this shape near the apex")
    cols, vals = np.full((k.size, 4), -1), np.zeros((k.size, 4))
    # each row kind's entries in column order (site_index puts (k, y) at k^2 + y + k)
    inner = inside & (abs(y) < k)
    for rows, entries in (
            (k == 0, [(1, apex_rate), (2, apex_rate), (3, apex_rate)]),
            (inside & (y == k), [(s - 1, down), (s + 2 * k + 2, c), (s + 2 * k + 3, c)]),
            (inside & (y == -k), [(s + 1, up), (s + 2 * k + 1, c), (s + 2 * k + 2, c)]),
            (inner, [(s - 2 * k, d), (s - 1, down), (s + 1, up), (s + 2 * k + 2, c)])):
        for slot, (col, val) in enumerate(entries):
            cols[rows, slot] = np.broadcast_to(col, k.shape)[rows]
            vals[rows, slot] = np.broadcast_to(val, k.shape)[rows]
    # exit rates summed as the rows are listed: up, down, forward, back
    exit_rates = np.where(inner, ((up + down) + c) + d,
                          (vals[:, 0] + vals[:, 1]) + vals[:, 2])
    return RateMatrix(states=grid.sites, layers=k.astype(np.int32),
                      arrays=_slot_arrays(cols, vals), exit_rates=exit_rates)


def projected_vase_rates(grid: VaseGrid, apex_rate: float = 1.0 / 6.0) -> RateMatrix:
    """Projected birth-death rates on the abscissas x_0..x_K, top absorbing."""
    c, d = _vase_layer_rates(grid, apex_rate)
    k = np.arange(grid.layers + 1)
    cols = np.where((0 < k) & (k < grid.layers), [k - 1, k + 1], -1).T
    vals = np.array([(2 * k - 1) / (2 * k + 1) * d, (2 * k + 3) / (2 * k + 1) * c]).T
    cols[0], vals[0] = (1, -1), (3.0 * apex_rate, 0.0)
    return RateMatrix(states=tuple(range(k.size)), layers=k.astype(np.int32),
                      arrays=_slot_arrays(cols, vals), exit_rates=vals[:, 0] + vals[:, 1])


# ---------------------------------------------------------------------------
# serialization: sparse triplet text
# ---------------------------------------------------------------------------

def write_triplets(op, path) -> None:
    """Dump a kernel or rate matrix as text rows of
    ``from to numerator denominator`` (rational) or ``from to value`` (float)."""
    with open(path, "w") as fh:
        kind = "rate-matrix" if isinstance(op, RateMatrix) else "stochastic"
        fh.write(f"# {kind} {op.mode}\n")
        for i, row in enumerate(op.rows):
            for j, v in sorted(row.items()):
                fh.write(f"{i} {j} {v.numerator} {v.denominator}\n" if op.mode == RATIONAL
                         else f"{i} {j} {float(v)!r}\n")


def read_triplets(path):
    """Inverse of :func:`write_triplets`; returns (kind, mode, rows dict)."""
    with open(path) as fh:
        header = fh.readline().strip().lstrip("# ").split()
        kind, mode = header[0], header[1]
        rows = {}
        for line in fh:
            parts = line.split()
            i, j = int(parts[0]), int(parts[1])
            if mode == RATIONAL:
                v = Fraction(int(parts[2]), int(parts[3]))
            else:
                v = float(parts[2])
            rows.setdefault(i, {})[j] = v
    return kind, mode, rows
