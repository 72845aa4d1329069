"""Absorbing-chain Green functions and the time-reversed kernel.

The Green vector solves (I - P_transient)^T g = e_source, so g counts the
expected number of time steps spent at each state before absorption,
including steps taken through holding (self-loop) probabilities.  Feeding it
back through g(y) p(y, x) / g(x) produces the reversed chain, which runs from
the absorption layer back to the source and is killed there.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .errors import ParameterError, SolverError, UnreachableStateError
from .kernels import FLOAT, RATIONAL, StochasticKernel, _row_arrays

KILLED = "KILLED"


@dataclass
class GreenVector:
    """Expected visit counts before absorption; zero at absorbing states."""

    source: int
    absorbing: np.ndarray = field(repr=False)    # bool mask
    visits: list = field(repr=False)             # Fractions or floats, len n_states
    mode: str = FLOAT
    states: Optional[tuple] = None

    def as_floats(self) -> np.ndarray:
        return np.array([float(v) for v in self.visits])

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["layer", "transverse", "visits"])
            for s, v in zip(self.states, self.visits):
                if isinstance(s, tuple):
                    w.writerow([s[0], s[1], float(v)])
                else:
                    w.writerow([s, "", float(v)])


def _rational_green(rows, transient, source_pos):
    """Exact solve of (I - T)^T g = e_src by fraction-free elimination in
    natural order, inside the band.

    Each equation is scaled to integers.  Clearing column c from row r sets
    row_r = piv * row_r - f * row_c and divides out the row's gcd; a
    backward pass clears the upper band the same way, leaving
    g_i = b_i / a_ii.  The matrix is a diagonally dominant M-matrix, so no
    pivoting is needed, and fill-in stays inside the band (about 2N+1 wide
    for the layer-major wedge chains).
    """
    n = len(transient)
    pos = {s: i for i, s in enumerate(transient)}
    Tt = [{} for _ in range(n)]               # T transposed
    for c, s in enumerate(transient):
        for j, v in rows[s].items():
            if j in pos:
                Tt[pos[j]][c] = v
    indptr, indices, (nums, dens) = _row_arrays(Tt, exact=True)
    row_of = np.repeat(np.arange(n), np.diff(indptr))
    lo = int(np.max(row_of - indices, initial=0))
    hi = int(np.max(indices - row_of, initial=0))
    bounds, cols = indptr.tolist(), indices.tolist()
    A = []                                    # row i holds columns i-lo .. i+hi
    for i, d in enumerate(dens):              # equation i of I - T^T, times d
        A.append([0] * (lo + hi + 1))
        for e in range(bounds[i], bounds[i + 1]):
            A[i][cols[e] - i + lo] = -nums[e]
        A[i][lo] += d
    b = [d if i == source_pos else 0 for i, d in enumerate(dens)]

    def clear(r, col):
        at = col - r + lo                     # column col in row r
        f, piv = A[r][at], A[col][lo]
        if f:
            first = min(at, lo)
            new = [piv * v for v in A[r][first:]]
            k = at - first
            new[k:k + hi + 1] = [v - f * p for v, p
                                 in zip(new[k:k + hi + 1], A[col][lo:])]
            br = piv * b[r] - f * b[col]
            g = math.gcd(*new, br) or 1
            A[r][first:] = [v // g for v in new]
            b[r] = br // g

    for col in range(n):
        if A[col][lo] == 0:
            raise SolverError("singular system: absorption unreachable?")
        for r in range(col + 1, min(n, col + lo + 1)):
            clear(r, col)
    for col in range(n - 1, 0, -1):
        for r in range(max(0, col - hi), col):
            clear(r, col)
    return [Fraction(b[i], A[i][lo]) for i in range(n)]


def green_vector(kernel: StochasticKernel, source,
                 absorbing: Optional[np.ndarray] = None) -> GreenVector:
    """Expected visits to every state for the chain started at ``source``.

    Absorbing states default to the kernel's self-loop rows.  Float kernels
    go through a sparse LU solve; rational kernels through exact fraction-free
    elimination in the band.
    """
    if isinstance(source, tuple):
        source = kernel.index[source]
    mask = kernel.absorbing_mask() if absorbing is None else np.asarray(absorbing)
    if mask[source]:
        raise ParameterError("source must be transient")
    transient = [i for i in range(kernel.n_states) if not mask[i]]
    src_pos = transient.index(source)

    if kernel.mode == RATIONAL:
        g_tr = _rational_green(kernel.rows, transient, src_pos)
    else:
        import scipy.sparse as sp
        import scipy.sparse.linalg as splinalg

        P = kernel.to_csr()
        T = P[transient][:, transient]
        A = (sp.identity(len(transient), format="csc") - T).T.tocsc()
        e = np.zeros(len(transient))
        e[src_pos] = 1.0
        try:
            g_tr = splinalg.spsolve(A, e)
        except Exception as exc:  # pragma: no cover - scipy raises various types
            raise SolverError(f"green solve failed: {exc}") from exc
        if not np.all(np.isfinite(g_tr)):
            raise SolverError("green solve returned non-finite visit counts")
        g_tr = g_tr.tolist()
    visits = [Fraction(0) if kernel.mode == RATIONAL else 0.0] * kernel.n_states
    for s, v in zip(transient, g_tr):
        visits[s] = v
    return GreenVector(source=source, absorbing=mask, visits=visits,
                       mode=kernel.mode, states=kernel.states)


def green_closed_form_1d(layers: int, y: int):
    """Shape (2y+1)(1 - (2y+1)/(2N+1)) of the radial Green vector, up to one
    global constant.

    The candidate prefactors 1/cos^2 and 1/sin^2 are deliberately not
    applied; ``fit_green_constant`` reports how the solved vector scales
    against this shape so the constant is measured, not assumed.
    """
    N = layers
    if not 0 <= y <= N:
        raise ParameterError(f"need 0 <= y <= N, got y={y}")
    return Fraction(2 * y + 1) * (1 - Fraction(2 * y + 1, 2 * N + 1))


def fit_green_constant(green: GreenVector, layers: int) -> dict:
    """Ratio of solved radial Green values to the closed-form shape over
    1 <= y <= N-1, with the relative spread and both candidate constants."""
    N = layers
    ratios = np.array([float(green.visits[y]) / float(green_closed_form_1d(N, y))
                       for y in range(1, N)])
    const = float(np.median(ratios))
    spread = float(np.abs(ratios / const - 1.0).max())
    return {"constant": const, "relative_spread": spread, "ratios": ratios}


@dataclass
class ReversedChain:
    """Time reversal of an absorbed chain.

    The reversed state space appends one killed pseudo-state; runs start from
    ``initial_law`` (the forward absorption law) and end when the kill fires
    at the forward source.  ``initial_exact`` keeps the un-normalized
    absorption weights in the kernel's value type.
    """

    kernel: StochasticKernel
    initial_law: np.ndarray
    kill_index: int
    source: int
    initial_exact: Optional[list] = None


def nagasawa_reverse(kernel: StochasticKernel, green: GreenVector) -> ReversedChain:
    """Reversed kernel p_hat(x, y) = g(y) p(y, x) / g(x).

    Rows at forward-absorbing states use the absorption weight
    sum_y g(y) p(y, w) in place of g(w) and define the reversal's first step;
    the forward source row is sub-stochastic, with the deficit 1/g(source)
    routed to the killed pseudo-state.
    """
    n = kernel.n_states
    mask = green.absorbing
    g = green.visits
    rational = kernel.mode == RATIONAL and green.mode == RATIONAL
    zero = Fraction(0) if rational else 0.0
    one = Fraction(1) if rational else 1.0

    incoming = [dict() for _ in range(n)]
    for y in range(n):
        if mask[y]:
            continue
        for x, p in kernel.rows[y].items():
            if p != 0:
                incoming[x][y] = p

    kill = n
    rows = [dict() for _ in range(n)]
    initial = [zero] * n
    for x in range(n):
        if mask[x]:
            w_abs = sum(g[y] * p for y, p in incoming[x].items())
            initial[x] = w_abs
            if w_abs == 0:
                rows[x] = {x: one}          # unreachable absorbing state
                continue
            rows[x] = {y: g[y] * p / w_abs for y, p in incoming[x].items()}
        else:
            if g[x] == 0:
                raise UnreachableStateError(
                    f"state {kernel.states[x]} has zero visit count")
            row = {y: g[y] * p / g[x] for y, p in incoming[x].items() if not mask[y]}
            if x == green.source:
                deficit = one - sum(row.values())
                row[kill] = deficit
            rows[x] = row
    rows.append({kill: one})

    states = tuple(list(kernel.states) + [KILLED])
    layers = None
    if kernel.layers is not None:
        layers = np.append(kernel.layers, -1).astype(np.int32)
    mode = RATIONAL if rational else FLOAT
    rev = StochasticKernel(states=states, rows=rows, mode=mode, layers=layers)
    init = np.zeros(n + 1)
    for i, v in enumerate(initial):
        init[i] = float(v)
    tot = init.sum()
    if abs(tot - 1.0) > 1e-9:
        raise SolverError(f"absorption law sums to {tot}, green inconsistent")
    init /= tot
    return ReversedChain(kernel=rev, initial_law=init, kill_index=kill,
                         source=green.source, initial_exact=initial)


def hit_probability(kernel: StochasticKernel, start, targets: Sequence,
                    blockers: Sequence) -> float:
    """P(reach any target before any blocker), by absorbing linear solve."""
    import scipy.sparse as sp
    import scipy.sparse.linalg as splinalg

    if isinstance(start, tuple):
        start = kernel.index[start]
    tset = {kernel.index[t] if isinstance(t, tuple) else int(t) for t in targets}
    bset = {kernel.index[b] if isinstance(b, tuple) else int(b) for b in blockers}
    # absorbing states that are not targets can never lead to one
    for i in range(kernel.n_states):
        if kernel.is_absorbing(i) and i not in tset:
            bset.add(i)
    if start in tset:
        return 1.0
    if start in bset:
        return 0.0
    frozen = tset | bset
    transient = [i for i in range(kernel.n_states) if i not in frozen]
    pos = {s: i for i, s in enumerate(transient)}
    if start not in pos:
        raise ParameterError("start state is neither transient nor frozen")
    P = kernel.to_csr()
    T = P[transient][:, transient]
    rhs = np.zeros(len(transient))
    for i, s in enumerate(transient):
        row = kernel.rows[s]
        rhs[i] = sum(float(v) for j, v in row.items() if j in tset)
    A = (sp.identity(len(transient), format="csc") - T).tocsc()
    try:
        u = splinalg.spsolve(A, rhs)
    except Exception as exc:  # pragma: no cover
        raise SolverError(f"hit-probability solve failed: {exc}") from exc
    return float(u[pos[start]])
