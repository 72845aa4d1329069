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

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

import numpy as np

from .errors import ParameterError
from .geometry import VaseGrid, WedgeLattice, WedgeSpec

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


def _check_stochastic(rows, mode: str, what: str = "row") -> None:
    """Raise ``ParameterError`` unless every row is a probability vector:
    exactly (integer numerators summing to the row denominator) in rational
    mode, to 1e-12 in float mode."""
    exact = mode == RATIONAL
    indptr, _, values = _row_arrays(rows, exact=exact)
    if exact:
        nums, dens = values
        bounds = indptr.tolist()
        for i, d in enumerate(dens):
            row = nums[bounds[i]:bounds[i + 1]]
            if any(v < 0 for v in row):
                raise ParameterError(f"negative probability in {what} {i}")
            if sum(row) != d:
                raise ParameterError(
                    f"{what} {i} sums to {Fraction(sum(row), d)}, not 1")
        return
    row_of = np.repeat(np.arange(len(rows)), np.diff(indptr))
    negative = np.bincount(row_of[values < 0], minlength=len(rows)) > 0
    sums = np.bincount(row_of, weights=values, minlength=len(rows))
    bad = negative | ~(np.abs(sums - 1.0) <= 1e-12)      # NaN sums fail too
    if bad.any():
        i = int(np.argmax(bad))
        if negative[i]:
            raise ParameterError(f"negative probability in {what} {i}")
        raise ParameterError(f"{what} {i} sums to {float(sums[i])!r}")


def _csr_from_rows(rows, n_cols: int, diagonal=None):
    """Float CSR matrix of dict rows ``{column: value}``, with sorted column
    indices; ``diagonal`` (one value per row) is added on the diagonal."""
    import scipy.sparse as sp

    indptr, indices, data = _row_arrays(rows)
    A = sp.csr_matrix((data, indices, indptr), shape=(len(rows), n_cols))
    if diagonal is not None:
        A = A + sp.diags(np.asarray(diagonal, dtype=float), format="csr")
        A.sort_indices()
    return A


@dataclass
class StochasticKernel:
    """Sparse row-stochastic operator over an enumerated state space."""

    states: tuple
    rows: list            # list of {state_index: probability}
    mode: str
    layers: Optional[np.ndarray] = field(default=None, repr=False)

    def __post_init__(self):
        self.index = {s: i for i, s in enumerate(self.states)}
        self.validate()

    @property
    def n_states(self) -> int:
        return len(self.states)

    def validate(self):
        _check_stochastic(self.rows, self.mode)

    def is_absorbing(self, i: int) -> bool:
        row = self.rows[i]
        return len(row) == 1 and i in row

    def absorbing_mask(self) -> np.ndarray:
        return np.array([self.is_absorbing(i) for i in range(self.n_states)])

    def to_csr(self):
        return _csr_from_rows(self.rows, self.n_states)


@dataclass
class RateMatrix:
    """Sparse conservative rate matrix: stored off-diagonal rates >= 0,
    diagonal implicitly minus the off-diagonal row sum."""

    states: tuple
    off_rows: list        # list of {state_index: rate}, no diagonal entries
    layers: Optional[np.ndarray] = field(default=None, repr=False)

    def __post_init__(self):
        self.index = {s: i for i, s in enumerate(self.states)}
        for i, row in enumerate(self.off_rows):
            if i in row:
                raise ParameterError(f"diagonal entry stored in row {i}")
            if any(v < 0 for v in row.values()):
                raise ParameterError(f"negative rate in row {i}")

    @property
    def n_states(self) -> int:
        return len(self.states)

    def to_csr(self):
        """The full generator, diagonal included."""
        return _csr_from_rows(self.off_rows, self.n_states,
                             diagonal=[-sum(r.values()) for r in self.off_rows])

    def is_absorbing(self, i: int) -> bool:
        return not self.off_rows[i]

    def jump_chain(self) -> StochasticKernel:
        """Embedded discrete chain; zero-rate rows become absorbing."""
        rows = []
        for i, row in enumerate(self.off_rows):
            tot = sum(row.values())
            if tot == 0:
                rows.append({i: 1.0})
            else:
                rows.append({j: v / tot for j, v in row.items()})
        return StochasticKernel(states=self.states, rows=rows, mode=FLOAT,
                                layers=self.layers)


# ---------------------------------------------------------------------------
# wedge operators
# ---------------------------------------------------------------------------

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
    s2x = spec.sin_sq
    mode = _resolve_mode(mode, s2x)
    if mode == RATIONAL:
        s2 = s2x
        r = Fraction(spec.apex_hold)
    else:
        s2 = math.sin(spec.alpha) ** 2
        r = float(spec.apex_hold)
    c2 = 1 - s2
    p, q = s2 / 2, c2 / 2
    one = Fraction(1) if mode == RATIONAL else 1.0

    idx = lattice.index
    rows = []
    for (k, y) in lattice.sites:
        if k >= M:
            rows.append({idx(k, y): one})
        elif k == 0:
            row = {idx(1, -1): r, idx(1, 0): r, idx(1, 1): r}
            hold = 1 - 3 * r
            if hold != 0:
                row[idx(0, 0)] = hold
            rows.append(row)
        elif y == k:
            rows.append({idx(k + 1, k): p, idx(k + 1, k + 1): p,
                         idx(k, k - 1): q, idx(k, k): q})
        elif y == -k:
            rows.append({idx(k + 1, -k): p, idx(k + 1, -k - 1): p,
                         idx(k, -k + 1): q, idx(k, -k): q})
        else:
            rows.append({idx(k + 1, y): p, idx(k - 1, y): p,
                         idx(k, y + 1): q, idx(k, y - 1): q})
    return StochasticKernel(states=lattice.sites, rows=rows, mode=mode,
                            layers=lattice.layers_of())


def projected_wedge_chain(layers: int, alpha: float,
                          apex_hold=None, mode: str = "auto") -> StochasticKernel:
    """Radial birth-death chain on {0..N}: down sin^2(a)/2 (2i-1)/(2i+1),
    hold cos^2(a), up sin^2(a)/2 (2i+3)/(2i+1); state N absorbing."""
    spec = WedgeSpec(alpha=alpha, layers=layers, apex_hold=apex_hold)
    N = layers
    s2x = spec.sin_sq
    mode = _resolve_mode(mode, s2x)
    if mode == RATIONAL:
        s2, r = s2x, Fraction(spec.apex_hold)
        frac = lambda a, b: Fraction(a, b)
    else:
        s2, r = math.sin(alpha) ** 2, float(spec.apex_hold)
        frac = lambda a, b: a / b
    c2 = 1 - s2
    one = Fraction(1) if mode == RATIONAL else 1.0

    rows = []
    for i in range(N + 1):
        if i == N:
            rows.append({N: one})
        elif i == 0:
            row = {1: 3 * r}
            hold = 1 - 3 * r
            if hold != 0:
                row[0] = hold
            rows.append(row)
        else:
            rows.append({i - 1: s2 / 2 * frac(2 * i - 1, 2 * i + 1),
                         i: c2,
                         i + 1: s2 / 2 * frac(2 * i + 3, 2 * i + 1)})
    return StochasticKernel(states=tuple(range(N + 1)), rows=rows, mode=mode,
                            layers=np.arange(N + 1, dtype=np.int32))


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

def _layer_rates(cot: np.ndarray, k: int):
    """Forward/backward horizontal rates at layer k from the two adjacent
    boundary-segment slopes."""
    ck, cm = cot[k], cot[k - 1]
    if not (np.isfinite(ck) and np.isfinite(cm)) or ck <= 0 or cm <= 0:
        raise ParameterError(f"degenerate boundary angle near layer {k}")
    s = ck + cm
    return 1.0 / (ck * s), 1.0 / (cm * s)


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
    if apex_rate <= 0:
        raise ParameterError("apex_rate must be positive")
    K = grid.layers
    cot = grid.cot_angles()
    idx = grid.index

    def vertical(k, c, d, y_from, y_to):
        if not exact_projection:
            return 0.5
        ybond = min(y_from, y_to)       # bond (ybond, ybond+1)
        skew = (c - d) * (2 * ybond + 1) / (2 * (2 * k + 1))
        rate = 0.5 + skew if y_to > y_from else 0.5 - skew
        if rate < 0:
            raise ParameterError(
                f"vertical rate negative at layer {k}; grid too coarse for "
                "this shape near the apex")
        return rate

    rows = []
    for (k, y) in grid.sites:
        if k >= K:
            rows.append({})
            continue
        if k == 0:
            rows.append({idx(1, -1): apex_rate, idx(1, 0): apex_rate,
                         idx(1, 1): apex_rate})
            continue
        c, d = _layer_rates(cot, k)
        if y == k:
            rows.append({idx(k, k - 1): vertical(k, c, d, k, k - 1),
                         idx(k + 1, k): c, idx(k + 1, k + 1): c})
        elif y == -k:
            rows.append({idx(k, -k + 1): vertical(k, c, d, -k, -k + 1),
                         idx(k + 1, -k): c, idx(k + 1, -k - 1): c})
        else:
            rows.append({idx(k, y + 1): vertical(k, c, d, y, y + 1),
                         idx(k, y - 1): vertical(k, c, d, y, y - 1),
                         idx(k + 1, y): c, idx(k - 1, y): d})
    layers = np.array([k for (k, _) in grid.sites], dtype=np.int32)
    return RateMatrix(states=grid.sites, off_rows=rows, layers=layers)


def projected_vase_rates(grid: VaseGrid, apex_rate: float = 1.0 / 6.0) -> RateMatrix:
    """Projected birth-death rates on the abscissas x_0..x_K, top absorbing."""
    if apex_rate <= 0:
        raise ParameterError("apex_rate must be positive")
    K = grid.layers
    cot = grid.cot_angles()
    rows = []
    for k in range(K + 1):
        if k >= K:
            rows.append({})
        elif k == 0:
            rows.append({1: 3.0 * apex_rate})
        else:
            c, d = _layer_rates(cot, k)
            rows.append({k + 1: (2 * k + 3) / (2 * k + 1) * c,
                         k - 1: (2 * k - 1) / (2 * k + 1) * d})
    return RateMatrix(states=tuple(range(K + 1)), off_rows=rows,
                      layers=np.arange(K + 1, dtype=np.int32))


# ---------------------------------------------------------------------------
# serialization: sparse triplet text
# ---------------------------------------------------------------------------

def write_triplets(op, path) -> None:
    """Dump a kernel or rate matrix as text rows of
    ``from to numerator denominator`` (rational) or ``from to value`` (float)."""
    with open(path, "w") as fh:
        if isinstance(op, RateMatrix):
            fh.write("# rate-matrix float\n")
            for i, row in enumerate(op.off_rows):
                for j in sorted(row):
                    fh.write(f"{i} {j} {float(row[j])!r}\n")
        elif op.mode == RATIONAL:
            fh.write("# stochastic rational\n")
            for i, row in enumerate(op.rows):
                for j in sorted(row):
                    v = Fraction(row[j])
                    fh.write(f"{i} {j} {v.numerator} {v.denominator}\n")
        else:
            fh.write("# stochastic float\n")
            for i, row in enumerate(op.rows):
                for j in sorted(row):
                    fh.write(f"{i} {j} {float(row[j])!r}\n")


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
