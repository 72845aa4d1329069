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
import warnings
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .errors import ParameterError, SolverError, UnreachableStateError
from .kernels import FLOAT, RATIONAL, StochasticKernel, _float_arrays, _state


@dataclass
class GreenVector:
    """Expected visit counts before absorption; zero at absorbing states.
    ``layers`` and ``y`` are the kernel's."""

    source: int
    absorbing: np.ndarray = field(repr=False)    # bool mask
    visits: list = field(repr=False)             # Fractions or floats, len n_states
    mode: str = FLOAT
    layers: Optional[np.ndarray] = field(default=None, repr=False)
    y: Optional[np.ndarray] = field(default=None, repr=False)

    def as_floats(self) -> np.ndarray:
        return np.array([float(v) for v in self.visits])

    def to_csv(self, path) -> None:
        """One line per state: its layer, transverse index and visits; on a
        radial chain, its index, an empty field and its visits."""
        n = len(self.visits)
        k, y = ((self.layers.tolist(), self.y.tolist()) if self.y is not None
                else (range(n), [""] * n))
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["layer", "transverse", "visits"])
            w.writerows(zip(k, y, self.as_floats().tolist()))


def _reach(indptr, indices, seed) -> np.ndarray:
    """The states that ``seed`` reaches along a CSR pattern ``(indptr,
    indices)``; one frontier search over the nonzeros.  Each frontier is
    deduplicated by a sort, not ``np.unique``, which loads ``numpy.ma``."""
    reach, new = seed.copy(), np.flatnonzero(seed)
    while new.size:
        n = indptr[new + 1] - indptr[new]                # the frontier's row lengths
        step = indices[np.repeat(indptr[new] + n - np.cumsum(n), n) + np.arange(n.sum())]
        step = np.sort(step[~reach[step]])
        new = step[np.diff(step, prepend=-1) != 0]
        reach[new] = True
    return reach


def _reach_back(rows, cols, seed) -> np.ndarray:
    """The states with a path into ``seed`` along the entries ``(rows, cols)``."""
    back = np.append(0, np.cumsum(np.bincount(cols, minlength=seed.size)))
    return _reach(back, rows[np.argsort(cols, kind="stable")], seed)


def _lifted_green(kernel: StochasticKernel, mask, transient, source):
    """The Green vector from a ``source`` alone on its layer (the apex
    (0, 0), or any state of a radial chain) of a layered kernel whose
    transient states are its lowest whole layers, or None.  It is lifted as
    g(k, y) = g1(k) / |F_k| from the radial chain Q(k, k') = |F_k|^-1 sum of
    P over F_k x F_k', with g1 solved down from the top transient layer by
    the birth-death flow identity g1(k) Q(k, k+1) - g1(k+1) Q(k+1, k) =
    [k >= source layer], in the kernel's value type.  It is kept only if
    I - T is invertible and g solves g (I - T) = e_src, exactly in rational
    mode and to 8 ulp of max g in float mode (the wedge chains show 1)."""
    if kernel.layers is None:
        return None
    ks, layer, size = np.unique(kernel.layers, return_inverse=True, return_counts=True)
    whole = np.bincount(layer[~mask], minlength=ks.size)
    m = np.count_nonzero(whole)                         # transient layers 0 .. m-1
    if size[layer[source]] != 1 or not np.array_equal(whole[:m], size[:m]):
        return None
    rational = kernel.mode == RATIONAL
    indptr, indices, values = kernel.arrays
    row = np.repeat(np.arange(len(mask)), np.diff(indptr))
    e = np.flatnonzero(~mask[row])                      # the transient rows' entries
    if rational:                                        # P over the common denominator d
        d, dens = math.lcm(*set(values[1])), np.array(values[1], dtype=object)
        p = np.array(values[0], dtype=object)[e] * (d // dens)[row[e]]
    else:
        d, p = 1, values[e]
    # h(k) = g1(k) / |F_k|, and up(k), down(k) sum d P from F_k one layer up, down
    rise = layer[indices[e]] - layer[row[e]]
    up, down = np.zeros(ks.size, dtype=p.dtype), np.zeros(ks.size, dtype=p.dtype)
    np.add.at(up, layer[row[e]][rise == 1], p[rise == 1])
    np.add.at(down, layer[row[e]][rise == -1], p[rise == -1])
    s, h = int(layer[source]), [Fraction(0) if rational else 0.0] * ks.size
    for k in range(m - 1, -1, -1):
        if up[k] == 0:
            return None
        h[k] = (d * (k >= s) + h[k + 1] * down[k + 1]) / up[k]
    g = np.array(h)
    if rational:            # the certificate in Python ints, on D g
        D = math.lcm(*[v.denominator for v in h])
        x, one, tol = np.array([int(v * D) for v in h], dtype=object)[layer], D, 0
    else:
        x, one, tol = g[layer], 1.0, 8 * np.spacing(g.max())
    flow = np.zeros(len(x), dtype=x.dtype)              # d (x T)(j) + d one [j = source]
    flow[source] = d * one
    np.add.at(flow, indices[e], x[row[e]] * p)
    residual = np.abs(d * x - flow)[transient].max()
    # every state reaching absorption makes I - T invertible: g is the solution
    if not residual <= tol or not _reach_back(row, indices, mask).all():
        return None
    return g[layer[transient]].tolist()


def green_vector(kernel: StochasticKernel, source) -> GreenVector:
    """Expected visits to every state for the chain started at ``source``.

    Absorbing states are the kernel's self-loop rows.  A source alone
    on its layer (the apex (0, 0), or any state of a radial chain), with
    whole layers transient, takes the vector lifted from the radial chain's
    birth-death recurrence when that is certified.  Other float solves are
    one sparse LU.  Rational mode has no other solve: where the lift
    declines, it raises ``ParameterError``.
    """
    source = _state(kernel, source)
    mask = kernel.absorbing_mask()
    if mask[source]:
        raise ParameterError("source must be transient")
    transient = np.flatnonzero(~mask)

    g_tr = _lifted_green(kernel, mask, transient, source)
    if g_tr is None and kernel.mode == RATIONAL:
        raise ParameterError(
            "an exact Green vector needs the radial lift: a source alone on its "
            "layer, whole transient layers, and a certified fiber-uniform "
            "solution from which every state reaches absorption; use float mode")
    if g_tr is None:
        e = (transient == source).astype(float)
        g_tr = _transient_solve(kernel.to_csr()[transient], transient, e,
                                transpose=True).tolist()
    visits = np.full(kernel.n_states, Fraction(0) if kernel.mode == RATIONAL else 0.0,
                     dtype=object)
    visits[transient] = g_tr
    return GreenVector(source=source, absorbing=mask, visits=visits.tolist(),
                       mode=kernel.mode, layers=kernel.layers, y=kernel.y)


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
    s, m = np.sort(ratios), len(ratios) // 2    # np.median would import numpy.ma
    const = float(s[-1] if np.isnan(s[-1]) else s[m] if len(s) % 2 else (s[m - 1] + s[m]) / 2)
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
            raise UnreachableStateError(f"state {x} has zero visit count")
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
    # the killed state n sits on layer -1
    append = lambda a, v: None if a is None else np.append(a, v).astype(np.int32)
    rev = StochasticKernel(
        (np.concatenate([[0], np.cumsum(np.bincount(row_of, minlength=n + 1))]),
         np.concatenate([y_of, [n], ones])[order],
         (entries, den + [1]) if rational else np.array(entries, dtype=float)),
        mode=RATIONAL if rational else FLOAT,
        layers=append(kernel.layers, -1), y=append(kernel.y, 0))
    init = np.array([float(v) for v in initial] + [0.0])
    tot = init.sum()
    if abs(tot - 1.0) > 1e-9:
        raise SolverError(f"absorption law sums to {tot}, green inconsistent")
    init /= tot
    return ReversedChain(kernel=rev, initial_law=init, kill_index=n,
                         source=green.source, initial_exact=initial)


def _transient_solve(rows, transient, b, transpose: bool = False) -> np.ndarray:
    """The absorbing-chain solve: x with (I - T) x = b, or (I - T)^T x = b
    with ``transpose``, where T = rows[:, transient] and ``rows`` are a
    float kernel's CSR rows at the ``transient`` states."""
    import scipy.sparse as sp
    import scipy.sparse.linalg as splinalg

    A = sp.identity(len(transient), format="csc") - rows[:, transient]
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error", splinalg.MatrixRankWarning)
            x = splinalg.spsolve((A.T if transpose else A).tocsc(), b)
    except splinalg.MatrixRankWarning as exc:
        raise SolverError("absorbing-chain solve failed: the system is singular, "
                          "so some transient state never reaches absorption") from exc
    except Exception as exc:  # pragma: no cover - scipy raises various types
        raise SolverError(f"absorbing-chain solve failed: {exc}") from exc
    if not np.all(np.isfinite(x)):
        raise SolverError("absorbing-chain solve returned non-finite values")
    return x


def hit_probability(kernel: StochasticKernel, start, targets: Sequence,
                    blockers: Sequence) -> float:
    """P(reach any target before any blocker), by absorbing linear solve.
    States are indices or sites (k, y) of a planar kernel."""
    start = _state(kernel, start)
    tset = sorted({_state(kernel, t) for t in targets})
    # absorbing states that are not targets can never lead to one
    frozen = kernel.absorbing_mask()
    frozen[tset + [_state(kernel, b) for b in blockers]] = True
    if start in tset:
        return 1.0
    if frozen[start]:
        return 0.0
    transient = np.flatnonzero(~frozen)
    P = kernel.to_csr()[transient]
    rhs = np.asarray(P[:, tset].sum(axis=1)).ravel()
    u = _transient_solve(P, transient, rhs)
    return float(u[np.searchsorted(transient, start)])
