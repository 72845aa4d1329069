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
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .errors import ParameterError, SolverError, UnreachableStateError
from .kernels import FLOAT, RATIONAL, StochasticKernel, _float_arrays, _row_arrays

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


def _rational_green(arrays, transient, source_pos):
    """Exact solve of (I - T)^T g = e_src, T the exact ``_row_arrays`` of a
    kernel restricted to ``transient``, by fraction-free elimination in
    natural order, inside the band.

    Each equation is scaled to integers.  Clearing column c from row r sets
    row_r = piv * row_r - f * row_c and divides out the row's gcd; a
    backward pass clears the upper band the same way, leaving
    g_i = b_i / a_ii.  The matrix is a diagonally dominant M-matrix, so no
    pivoting is needed, and fill-in stays inside the band (about 2N+1 wide
    for the layer-major wedge chains).
    """
    indptr, indices, (nums, dens) = arrays
    n = len(transient)
    pos = {s: i for i, s in enumerate(transient)}
    bounds, cols = indptr.tolist(), indices.tolist()
    eqs = [[] for _ in range(n)]              # equation i: column i of T
    for c, s in enumerate(transient):
        for e in range(bounds[s], bounds[s + 1]):
            i = pos.get(cols[e])
            if i is not None:
                eqs[i].append((c, nums[e], dens[s]))
    offsets = [c - i for i, eq in enumerate(eqs) for c, _, _ in eq]
    lo, hi = max(0, -min(offsets, default=0)), max(0, max(offsets, default=0))
    A, b = [], []                             # row i holds columns i-lo .. i+hi
    for i, eq in enumerate(eqs):              # equation i of I - T^T, times d
        d = math.lcm(*[den for _, _, den in eq])
        A.append([0] * (lo + hi + 1))
        for c, num, den in eq:
            A[i][c - i + lo] -= num * (d // den)
        A[i][lo] += d
        b.append(d if i == source_pos else 0)

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


def _reaches_absorption(kernel: StochasticKernel, mask) -> bool:
    """Whether every state has a path into ``mask``, which makes I - T
    invertible: g (I - T) = e_src then has one solution."""
    import scipy.sparse as sp

    indptr, indices, _ = kernel.arrays
    A = sp.csr_matrix((np.ones(len(indices)), indices, indptr), shape=(len(mask),) * 2)
    reach, grown = None, mask
    while not np.array_equal(reach, grown):
        reach, grown = grown, grown | (A @ grown > 0)
    return bool(reach.all())


def _lifted_green(kernel: StochasticKernel, mask, transient, source):
    """The Green vector from the apex (0, 0) of a layered rational kernel
    whose transient states are whole layers, or None.  It is lifted from the
    radial chain Q(k, k') = |F_k|^-1 sum over F_k x F_k' of P as g(k, y) =
    g1(k) / |F_k|, which holds when the uniform fiber link intertwines P
    with Q, and kept only if it solves g (I - T) = e_src exactly and I - T
    is invertible."""
    layers = kernel.layers
    if layers is None or kernel.states[source] != (0, 0) \
            or set(layers[mask].tolist()) & set(layers[~mask].tolist()):
        return None
    layer, (indptr, indices, (nums, dens)) = layers.tolist(), kernel.arrays
    bounds, cols = indptr.tolist(), indices.tolist()
    size, flows = Counter(layer), defaultdict(int)
    for s in transient:                       # numerator sums per (k, k', den)
        for e in range(bounds[s], bounds[s + 1]):
            flows[layer[s], layer[cols[e]], dens[s]] += nums[e]
    ks, t_ks = sorted(size), sorted({layer[s] for s in transient})
    radial = [defaultdict(Fraction) for _ in ks]
    for (k, k2, d), v in flows.items():
        radial[ks.index(k)][ks.index(k2)] += Fraction(v, d * size[k])
    try:
        g1 = _rational_green(_row_arrays(radial, exact=True), [ks.index(k) for k in t_ks],
                             t_ks.index(layer[source]))
    except SolverError:
        return None
    g = {k: v / size[k] for k, v in zip(t_ks, g1)}
    D = math.lcm(*[v.denominator for v in g.values()]) * math.lcm(*set(dens))
    w, flow = [0] * len(layer), [0] * len(layer)  # D g(s) / den(s), D (g T)(j)
    for s in transient:
        w[s] = g[layer[s]].numerator * (D // (g[layer[s]].denominator * dens[s]))
        for e in range(bounds[s], bounds[s + 1]):
            flow[cols[e]] += w[s] * nums[e]
    if any(w[j] * dens[j] - flow[j] != D * (j == source) for j in transient) \
            or not _reaches_absorption(kernel, mask):
        return None
    return [g[layer[s]] for s in transient]


def green_vector(kernel: StochasticKernel, source,
                 absorbing: Optional[np.ndarray] = None) -> GreenVector:
    """Expected visits to every state for the chain started at ``source``.

    Absorbing states default to the kernel's self-loop rows.  Float kernels
    go through a sparse LU solve.  A rational kernel started at its apex
    (0, 0), with whole layers transient, takes the vector lifted from its
    radial chain when that is certified exact; other rational solves are
    exact fraction-free elimination in the band.
    """
    if isinstance(source, tuple):
        source = kernel.index[source]
    mask = (kernel.absorbing_mask() if absorbing is None
            else np.asarray(absorbing, dtype=bool))
    if mask[source]:
        raise ParameterError("source must be transient")
    transient = [i for i in range(kernel.n_states) if not mask[i]]
    src_pos = transient.index(source)

    if kernel.mode == RATIONAL:
        g_tr = _lifted_green(kernel, mask, transient, source)
        if g_tr is None:
            g_tr = _rational_green(kernel.arrays, transient, src_pos)
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
    """Reversed kernel p_hat(x, y) = g(y) p(y, x) / g(x): row x is column x
    of P weighted by g, one transpose of P's arrays.

    Rows at forward-absorbing states use the absorption weight
    sum_y g(y) p(y, x) in place of g(x) and define the reversal's first step
    (an absorbing state that nothing reaches keeps the row {x: 1}); the
    forward source row is sub-stochastic, with the deficit 1/g(source)
    routed to the killed pseudo-state.  Rational rows hold w(y) num(y, x)
    over w(x) den(x), with the integer weights w(y) = D g(y) / den(y).
    """
    n, mask, g, source = kernel.n_states, green.absorbing, green.visits, green.source
    for x in np.flatnonzero(~mask).tolist():
        if g[x] == 0:
            raise UnreachableStateError(f"state {kernel.states[x]} has zero visit count")
    rational = kernel.mode == RATIONAL and green.mode == RATIONAL
    indptr, indices, values = kernel.arrays if rational else _float_arrays(kernel)
    nums, dens = values if rational else (values.tolist(), [1] * n)
    if rational:
        D = math.lcm(*{v.denominator for v in g}) * math.lcm(*set(dens))
        weight = [v.numerator * (D // (v.denominator * d)) for v, d in zip(g, dens)]
    else:
        weight = [float(v) for v in g]
    rows = np.repeat(np.arange(n), np.diff(indptr))
    keep = np.flatnonzero(~mask[rows] & (np.array(nums, dtype=object) != 0))
    keep = keep[np.argsort(indices[keep], kind="stable")]    # by column, rows ascending
    x_of, y_of = indices[keep], rows[keep]
    flow = [weight[y] * nums[e] for y, e in zip(y_of.tolist(), keep.tolist())]
    den = [w * d for w, d in zip(weight, dens)]
    bounds = np.searchsorted(x_of, np.arange(n + 1)).tolist()
    initial, ones = [Fraction(0) if rational else 0.0] * n, [n]    # ones: rows {x: 1}
    for x in np.flatnonzero(mask).tolist():
        den[x] = initial[x] = sum(flow[bounds[x]:bounds[x + 1]])
        if den[x] == 0:
            den[x] = 1
            ones.append(x)
        elif rational:
            initial[x] = Fraction(den[x], D)
    if not rational:
        flow = [f / den[x] for f, x in zip(flow, x_of.tolist())]
    kill = (den[source] if rational else 1.0) - sum(flow[bounds[source]:bounds[source + 1]])
    row_of = np.concatenate([x_of, [source], ones])
    order = np.argsort(row_of, kind="stable")       # the kill entry ends the source row
    entries = np.array(flow + [kill] + [1] * len(ones), dtype=object)[order].tolist()
    layers = None if kernel.layers is None else np.append(kernel.layers, -1).astype(np.int32)
    rev = StochasticKernel(
        states=kernel.states + (KILLED,), mode=RATIONAL if rational else FLOAT, layers=layers,
        arrays=(np.concatenate([[0], np.cumsum(np.bincount(row_of, minlength=n + 1))]),
                np.concatenate([y_of, [n], ones])[order],
                (entries, den + [1]) if rational else np.array(entries, dtype=float)))
    init = np.array([float(v) for v in initial] + [0.0])
    tot = init.sum()
    if abs(tot - 1.0) > 1e-9:
        raise SolverError(f"absorption law sums to {tot}, green inconsistent")
    init /= tot
    return ReversedChain(kernel=rev, initial_law=init, kill_index=n,
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
    bset.update(set(np.flatnonzero(kernel.absorbing_mask()).tolist()) - tset)
    if start in tset:
        return 1.0
    if start in bset:
        return 0.0
    frozen = tset | bset
    transient = [i for i in range(kernel.n_states) if i not in frozen]
    pos = {s: i for i, s in enumerate(transient)}
    if start not in pos:
        raise ParameterError("start state is neither transient nor frozen")
    P = kernel.to_csr()[transient]
    T = P[:, transient]
    rhs = np.asarray(P[:, sorted(tset)].sum(axis=1)).ravel()
    A = (sp.identity(len(transient), format="csc") - T).tocsc()
    try:
        u = splinalg.spsolve(A, rhs)
    except Exception as exc:  # pragma: no cover
        raise SolverError(f"hit-probability solve failed: {exc}") from exc
    return float(u[pos[start]])
