"""Monte Carlo engine over stochastic kernels.

Paths are simulated in fixed-size blocks; block b draws from its own SFC64
stream seeded by (master seed, b), so aggregates are bit-identical for any
worker count and reproducible from (seed, parameters) alone.  Aggregation is
a sum of per-block integer counts, hence associative and order-independent.

All chains are stepped through one vectorized kernel representation.  A
path's state is the pair (site, last reflecting side), held as a signed
entry.  The walk on pairs is Markov, and it is stepped by its square: each
double step draws one raw 64-bit word per live path and gathers the entry
two steps on from a guide table (Chen & Asau 1974) by the pair and the
word's top 4, 6 or 7 bits.  One sign test per double step finds the paths
that stopped, on either half of it, or whose bucket a threshold splits; the
latter scan the row's exact-integer thresholds.  Step counts, the step cap
and the timeout stay exact in single steps.  Vase chains enter through
their embedded jump chain, whose hitting statistics coincide with the
continuous-time chain's.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ParameterError, SimulationTimeout
from . import green_reversal as _green
from .kernels import StochasticKernel, _csr, _float_arrays, _state

class Side(enum.IntEnum):
    UNDEFINED = 0
    UPPER = 1
    LOWER = 2


@dataclass
class EmpiricalDistribution:
    """Counts over bins."""

    counts: np.ndarray
    total: int

    def __post_init__(self):
        if int(self.counts.sum()) != self.total:
            raise ParameterError("counts do not sum to total")


@dataclass
class PathAggregate:
    """Summed per-block observations from ``run_paths``; ``layers`` and
    ``y`` are the kernel's."""

    layers: Optional[np.ndarray]
    y: Optional[np.ndarray]
    n_paths: int
    exit_side: np.ndarray        # (n_states, 3): columns Side.{UNDEFINED,UPPER,LOWER}
    initial: np.ndarray          # (n_states,)
    steps_hist: np.ndarray       # (64,) counts by bit-length of the step count
    steps_sum: int
    steps_max: int

    def exit_counts(self) -> np.ndarray:
        return self.exit_side.sum(axis=1)

    def exit_distribution(self, layer: int) -> EmpiricalDistribution:
        """Exit counts at the states of ``layer``, in state order."""
        if self.layers is None:
            raise ParameterError("exit distribution requested but kernel has no layer map")
        sel = np.flatnonzero(self.layers == layer)
        counts = self.exit_counts()[sel]
        return EmpiricalDistribution(counts=counts, total=int(counts.sum()))


def padded_kernel(kernel: StochasticKernel, side: np.ndarray, stop: np.ndarray):
    """Step tables of the walk on pairs ``a = 3 * state + last side``, two
    steps to a draw.

    ``side`` gives each state's reflecting side (0 for none) and ``stop`` the
    states where a walk ends.  Returns ``(bits, entry, guide, records)``.
    Being at pair a is the entry ``entry[a]``: ``a << bits`` to go on,
    ``~a`` when a's state stops the walk.  Row i's two-step outcomes are, for
    each target t of row i in order, t alone if t stops the walk, else each
    target u of row t in order, with probability p(i, t) or p(i, t) p(t, u).
    A move pairs its target with the target's own side, or with the pair's
    side if the target lies on none.  An outcome's entry is that of its
    last pair b, or ``~(b + 3 n)`` when the first step stopped the walk at b.
    A double step reads its block's raw word; ``m = raw >> 11`` gives the
    uniform ``m * 2**-53``, which is ``>= c`` exactly when ``m >= ceil(c *
    2**53)``.  Row i takes its j-th outcome when m reaches j of its
    cumulative probabilities (the last one is never compared, so rounding
    cannot run past the row).  The next entry is ``guide[(a << bits) + (raw
    >> 64 - bits)]`` unless a threshold falls inside the word's bucket; then
    it is ``split - 3 r - s`` with ``split = -1 - 2 * entry.size``, s the
    pair's side and r the record of the bucket's first outcome.  Each row
    with such a bucket keeps one record per outcome o, in row order, as a
    column of the int64 ``records``, shape (3, R): the threshold past o
    (2**53 for the row's last outcome), o's entry from pair side 0, and what
    each unit of pair side adds to it.  The step scans on from record r
    while m reaches the threshold past it.  Buckets are 4 bits wide if at
    most 1 in 32 of the 4-bit cells would hold a threshold, else 6 if at
    most 1 in 32 of the 6-bit cells would or the 7-bit guide would pass
    2**24 entries, else 7.  ``entry`` and ``guide`` are int32 when every
    guide index and entry fits, else int64.
    """
    indptr, indices, data = _float_arrays(kernel)
    n = kernel.n_states
    # outcome o moves to x, then to z, or stops halfway at z = x
    width = np.diff(indptr)
    ends = stop[indices]
    fan = np.where(ends, 1, width[indices])
    x, halfway = np.repeat(indices, fan), np.repeat(ends, fan)
    e2 = indptr[x] + np.arange(x.size) - np.repeat(np.cumsum(fan) - fan, fan)
    z = np.where(halfway, x, indices[e2])
    prob = np.repeat(data, fan) * np.where(halfway, 1.0, data[e2])
    row = np.repeat(np.repeat(np.arange(n), width), fan)
    del e2
    counts = np.bincount(row, minlength=n)
    first = np.cumsum(counts) - counts             # each row's first outcome
    W = int(counts.max())
    cum = np.zeros((n, W))
    cum[row, np.arange(row.size) - first[row]] = prob
    del prob, row
    cum = np.minimum(np.cumsum(cum, axis=1), 1.0, out=cum)   # a row's thresholds never fall
    cum[np.arange(W) >= counts[:, None] - 1] = 1.0
    T = np.ceil(cum[:, :W - 1] * 2.0 ** 53).astype(np.int64)
    del cum
    live = T < 2 ** 53             # 2**53 (past the row) is beyond every draw
    inside = lambda bits: np.nonzero(live & (T % (1 << 53 - bits) != 0))   # row-major

    def few_split(bits):           # at most 1 in 32 cells holds a threshold
        i, c = inside(bits)
        cells = np.count_nonzero(np.diff((i << bits) + (T[i, c] >> 53 - bits), prepend=-1))
        return 32 * cells <= n << bits

    bits = 4 if few_split(4) else 6 if few_split(6) or 3 * n << 7 > 2 ** 24 else 7
    # an outcome's entry from pair side s is code0 + s * step: the pair's
    # side carries only when neither move met a side
    fixed = np.where(side[z] != 0, side[z], side[x])
    going = ~(halfway | stop[z])
    code0 = 3 * z
    del x, z
    code0 += fixed
    code0[halfway] += 3 * n
    np.invert(code0, out=code0, where=~going)
    np.left_shift(code0, bits, out=code0, where=going)
    step = np.where(fixed != 0, 0, np.where(going, 1 << bits, -1))
    del fixed, going, halfway
    i, c = inside(bits)
    # the rows with a split bucket keep one record per outcome, in row order
    kept, row_of = np.unique(i, return_inverse=True)
    size = counts[kept]
    held = np.arange(W) < size[:, None]
    o = (first[kept, None] + np.arange(W))[held]
    past = np.column_stack([T[kept], np.full(kept.size, 2 ** 53)])[held]
    records = np.stack([past, code0[o], step[o]])
    del held, o, past
    split = -1 - 6 * n
    fits = 3 * n << bits <= 2 ** 31 and 6 * n + 3 * records.shape[1] <= 2 ** 31
    dtype = np.int32 if fits else np.int64
    code0, step = code0.astype(dtype), step.astype(dtype)
    pairs = np.arange(3 * n, dtype=dtype)
    entry = np.where(np.repeat(stop, 3), ~pairs, pairs << bits)
    # a bucket's entry is the outcome at its first draw: the count of the
    # row's thresholds at or below it, block by block of rows
    Q = 1 << bits
    guide = np.empty((n, 3, Q), dtype=dtype)
    rows = max(1, 2 ** 20 >> bits)
    for lo in range(0, n, rows):
        t = T[lo:lo + rows]
        at = np.minimum(-(-t >> (53 - bits)), Q)     # the first bucket past each
        at += np.arange(t.shape[0])[:, None] * (Q + 1)
        j = np.bincount(at.ravel(), minlength=t.shape[0] * (Q + 1)).reshape(-1, Q + 1)
        o = first[lo:lo + rows, None] + np.cumsum(j[:, :Q], axis=1)
        c0, st = code0[o], step[o]
        for s in range(3):
            guide[lo:lo + rows, s] = c0 + s * st
    # ... unless a threshold falls inside it: then the cell names the record
    # of the outcome that the first threshold inside ends
    b = T[i, c] >> (53 - bits)
    head = np.flatnonzero(np.diff((i << bits) + b, prepend=-1))
    r = (np.cumsum(size) - size)[row_of[head]] + c[head]
    guide[i[head], :, b[head]] = split - 3 * r[:, None] - np.arange(3)
    return bits, entry, guide.reshape(-1), records


def _side_array(kernel: StochasticKernel) -> np.ndarray:
    """Each state's reflecting side: upper at y = k >= 1, lower at y = -k <= -1."""
    side = np.zeros(kernel.n_states, dtype=np.int8)
    if kernel.y is not None:
        k, y = kernel.layers, kernel.y
        side[(k >= 1) & (y == k)] = Side.UPPER
        side[(k >= 1) & (y == -k)] = Side.LOWER
    return side


def _start_distribution(kernel: StochasticKernel, start):
    """Resolve a start spec to (fixed index | cdf array)."""
    if isinstance(start, np.ndarray):
        p = np.asarray(start, dtype=float)
        if p.size != kernel.n_states or not (abs(p.sum() - 1.0) <= 1e-9 and p.min() >= 0):
            raise ParameterError("start distribution invalid")
        return None, np.cumsum(p)
    if start == "apex":
        # the apex (0, 0) of a planar chain and state 0 of a radial one
        if kernel.layers is None or kernel.layers[0] != 0:
            raise ParameterError("start 'apex': the kernel's state 0 is not on layer 0")
        return 0, None
    return _state(kernel, start), None


def _resolve_stop(kernel: StochasticKernel, stop) -> np.ndarray:
    if stop is None:
        return kernel.absorbing_mask()
    if isinstance(stop, np.ndarray) and stop.dtype == bool:
        return stop
    if kernel.layers is None:
        raise ParameterError("layer stop requested but kernel has no layer map")
    return kernel.layers >= int(stop)


def _check_stops_reached(kernel: StochasticKernel, stop, start_idx, start_cdf):
    """Raises ``ParameterError`` naming a state that a walk can visit but
    that reaches no ``stop`` state by positive entries: a stored zero, such
    as an underflowed entry, is no move."""
    indptr, indices, data = _float_arrays(kernel)
    n = kernel.n_states
    row = np.repeat(np.arange(n), np.diff(indptr))
    keep = (data > 0) & ~stop[row]             # the moves of a walk not yet stopped
    row, col = row[keep], indices[keep]
    start = np.zeros(n, dtype=bool)
    start[start_idx if start_cdf is None else np.diff(start_cdf, prepend=0.0) > 0] = True
    visited = _green._reach(np.append(0, np.cumsum(np.bincount(row, minlength=n))), col, start)
    stuck = visited & ~_green._reach_back(row, col, stop)
    if stuck.any():
        raise ParameterError(f"state {np.argmax(stuck)} can be visited but reaches no "
                             "stop state: the walks would never stop")


SAMPLER = "sfc64-x2"   # the generator, two steps a word; named in every sampler record


def _block_rng(seed: int, block_id: int) -> np.random.Generator:
    """Block ``block_id``'s generator, whose ``random()`` is ``(raw >> 11) * 2**-53``."""
    return np.random.Generator(
        np.random.SFC64(np.random.SeedSequence(entropy=(seed, block_id))))


def _run_block(args):
    """Walk one block of paths, two steps per draw; returns its counts and
    the number of paths still active after ``step_cap`` steps (0 when all
    were absorbed)."""
    (bits, entry, guide, records, side, start_idx, start_cdf, n, seed,
     block_id, step_cap) = args
    rng = _block_rng(seed, block_id)
    S = side.size
    if start_cdf is not None:
        state = np.searchsorted(start_cdf, rng.random(n), side="right").astype(np.int64)
        state = np.minimum(state, S - 1)
    else:
        state = np.full(n, start_idx, dtype=np.int64)
    initial = np.bincount(state, minlength=S)
    hist = np.zeros(64, dtype=np.int64)
    ssum = smax = 0

    # a path is its entry; one sign test per double step finds the stops and
    # splits, and a stop at or below ``half`` came on the first half
    nxt = entry[3 * state + side[state]]
    split, half = -1 - 2 * entry.size, ~entry.size
    past, code0, step = records
    exits = [nxt[:0]]
    t = 0
    while True:
        if nxt.size and nxt[nxt.argmin()] < 0:
            neg = (nxt < 0).nonzero()[0]
            e = nxt[neg]
            if e[e.argmin()] <= split:         # split buckets: scan the records
                k = (e <= split).nonzero()[0]
                o, s = np.divmod(split - e[k], 3)
                m = (raw[neg[k]] >> 11).view(np.int64)
                while (on := m >= past.take(o)).any():
                    o += on
                e[k] = code0.take(o) + s * step.take(o)
                nxt[neg] = e
            # past an odd cap, a stop on the second half comes a step too late
            last = half if 2 * t > step_cap else -1
            e = e[e <= last]
            if e.size:
                exits.append(e)
                odd = int(np.count_nonzero(e <= half))
                for steps, k in ((2 * t - 1, odd), (2 * t, e.size - odd)):
                    if k:
                        hist[steps.bit_length()] += k
                        ssum += steps * k
                        smax = steps
                nxt = nxt[nxt > last]              # keeps the stream order
        if not nxt.size or 2 * t >= step_cap:
            break
        raw = rng.bit_generator.random_raw(nxt.size)
        nxt += (raw >> (64 - bits)).view(np.int64)
        nxt = guide.take(nxt)
        t += 1
    exit_side = np.bincount(~np.concatenate(exits), minlength=6 * S)
    return exit_side.reshape(2, S, 3).sum(axis=0), initial, hist, ssum, smax, int(nxt.size)


def run_paths(kernel: StochasticKernel, start, stop=None,
              n_paths: int = 1, seed: int = 0, workers: int = 1,
              block_size: int = 65536, step_cap: int = 10 ** 8) -> PathAggregate:
    """Simulate independent trajectories and aggregate exit site, last
    reflecting side and step counts.

    ``stop`` is an absorbing layer index, an explicit boolean mask, or None
    for the kernel's absorbing rows.  ``start`` is a site tuple, a state
    index, "apex", or an ndarray law over states.  A run in which some walk
    could never stop raises ``ParameterError``.  If paths are still active
    after ``step_cap`` steps, every block is still walked to the cap, then
    ``SimulationTimeout`` is raised with the absorbed paths' aggregate as
    ``partial`` and the number of active paths as ``active``.
    """
    if n_paths < 1:
        raise ParameterError("n_paths must be >= 1")
    if seed < 0:
        raise ParameterError("seed must be >= 0")
    if workers < 1:
        raise ParameterError("workers must be >= 1")
    if block_size < 1 or step_cap < 0:
        raise ParameterError("block_size must be >= 1 and step_cap >= 0")
    stopm = _resolve_stop(kernel, stop)
    start_idx, start_cdf = _start_distribution(kernel, start)
    _check_stops_reached(kernel, stopm, start_idx, start_cdf)
    side = _side_array(kernel)
    tables = padded_kernel(kernel, side, stopm)

    blocks = [(*tables, side, start_idx, start_cdf,
               min(block_size, n_paths - lo), seed, b, step_cap)
              for b, lo in enumerate(range(0, n_paths, block_size))]

    if workers > 1 and len(blocks) > 1:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=min(workers, len(blocks))) as ex:
            results = list(ex.map(_run_block, blocks))
    else:
        results = [_run_block(a) for a in blocks]

    S = kernel.n_states
    agg = PathAggregate(layers=kernel.layers, y=kernel.y, n_paths=0,
                        exit_side=np.zeros((S, 3), dtype=np.int64),
                        initial=np.zeros(S, dtype=np.int64),
                        steps_hist=np.zeros(64, dtype=np.int64),
                        steps_sum=0, steps_max=0)
    active = 0
    for exit_side, initial, hist, ssum, smax, live in results:
        agg.exit_side += exit_side
        agg.initial += initial
        agg.steps_hist += hist
        agg.steps_sum += ssum
        agg.steps_max = max(agg.steps_max, smax)
        active += live
    agg.n_paths = n_paths - active
    if active:
        raise SimulationTimeout(
            f"{active} paths still active after {step_cap} steps",
            partial=agg, active=active)
    return agg


def exact_exit_law(kernel: StochasticKernel, start, stop=None) -> np.ndarray:
    """The law of (exit state, last reflecting side) that ``run_paths``
    samples, as an (n_states, 3) array in the layout of
    ``PathAggregate.exit_side``.

    The walk on pairs (state, last side) is Markov: pair (i, s) moves to
    (t, side of t, or s if t lies on none) with p(i, t).  One sparse solve
    (I - T)^T x = mu on the transient pairs that the start law mu reaches
    gives the expected visits x to each, and the stop pairs receive mu plus
    x R.  It reads the kernel's CSR arrays, not the sampler's tables.
    """
    stopm = _resolve_stop(kernel, stop)
    side = _side_array(kernel)
    start_idx, start_cdf = _start_distribution(kernel, start)
    n = kernel.n_states
    indptr, indices, data = _float_arrays(kernel)
    ends = np.repeat(stopm, 3)
    bounds = np.append(0, np.cumsum(np.repeat(np.diff(indptr), 3) * ~ends))  # stops: no row
    pair = np.repeat(np.arange(3 * n), np.diff(bounds))
    e = indptr[pair // 3] + np.arange(pair.size) - bounds[pair]
    t = indices[e]
    P2 = _csr((bounds, 3 * t + np.where(side[t] != 0, side[t], pair % 3), data[e]), 3 * n)
    if start_cdf is None:
        start_cdf = (np.arange(n) >= start_idx).astype(float)
    mu = np.zeros(3 * n)
    mu[3 * np.arange(n) + side] = np.diff(start_cdf, prepend=0.0)
    transient = np.flatnonzero(_green._reach(P2.indptr, P2.indices, mu > 0) & ~ends)
    law = np.where(ends, mu, 0.0)
    if transient.size:
        rows = P2[transient]
        x = _green._transient_solve(rows, transient, mu[transient], transpose=True)
        law += rows.T @ x * ends
    return law.reshape(n, 3)


# ---------------------------------------------------------------------------
# last-visited-side curve
# ---------------------------------------------------------------------------

@dataclass
class CurveBin:
    s_lo: float
    s_hi: float
    n: int
    p_hat: Optional[float]
    stderr: Optional[float]
    mean_s: Optional[float]


@dataclass
class SideCurve:
    bins: list
    undefined_fraction: float

    def to_json_dict(self) -> dict:
        return {
            "undefined_fraction": self.undefined_fraction,
            "bins": [{"s_lo": b.s_lo, "s_hi": b.s_hi, "n": b.n,
                      "p_hat": b.p_hat, "stderr": b.stderr, "mean_s": b.mean_s}
                     for b in self.bins],
        }


def last_side_curve(aggregate: PathAggregate, stop_layer: int,
                    bins: int = 20) -> SideCurve:
    """Per-bin estimate of P(last side = upper | exit position bin).

    Exit sites map to the fraction s = (y/M + 1)/2 of the stopping segment;
    the upper side corresponds to s -> 1, so the curve increases.  Paths that
    never touched a reflecting side are excluded from the conditional
    estimates; their frequency is reported separately.  Empty bins carry
    ``None`` estimates rather than zeros.
    """
    M = stop_layer
    if bins < 2:
        raise ParameterError("need at least 2 bins")
    # exits at the sites (M, y); a radial chain has none
    sel = np.flatnonzero(aggregate.layers == M) if aggregate.y is not None else np.arange(0)
    s = (aggregate.y[sel] / M + 1.0) / 2.0 if sel.size else np.zeros(0)
    at = np.minimum((s * bins).astype(np.int64), bins - 1)       # each site's bin
    rows = aggregate.exit_side[sel]
    undef = int(rows[:, Side.UNDEFINED].sum())
    up = np.bincount(at, weights=rows[:, Side.UPPER], minlength=bins)
    lo = np.bincount(at, weights=rows[:, Side.LOWER], minlength=bins)
    s_weight = np.bincount(at, weights=s * (rows[:, Side.UPPER] + rows[:, Side.LOWER]),
                           minlength=bins)
    out = []
    for j in range(bins):
        n = int(up[j] + lo[j])
        if n == 0:
            out.append(CurveBin(j / bins, (j + 1) / bins, 0, None, None, None))
            continue
        p = up[j] / n
        se = float(np.sqrt(max(p * (1 - p), 1e-300) / n))
        out.append(CurveBin(j / bins, (j + 1) / bins, n, float(p), se,
                            float(s_weight[j] / n)))
    total = int(aggregate.exit_side.sum())
    return SideCurve(bins=out, undefined_fraction=undef / max(total, 1))


def discrete_hit_prob(one_dim_chain: StochasticKernel, start: int,
                      lower: int, upper: int) -> float:
    """P(reach ``lower`` before ``upper``) for a radial chain.  Where each
    state strictly between them steps only to its neighbours, and up with
    positive probability, it is the discrete scale-function ratio: rho(k)
    summed over start <= k < upper, over the same sum from ``lower``, with
    rho(k) the product of p(i, i-1) / p(i, i+1) over lower < i <= k.  Any
    other chain takes the solve of ``hit_probability``."""
    if not 0 <= lower < start < upper < one_dim_chain.n_states:
        raise ParameterError("need 0 <= lower < start < upper < the chain's states")
    indptr, indices, data = _float_arrays(one_dim_chain)
    row = np.repeat(np.arange(one_dim_chain.n_states), np.diff(indptr))
    step = indices - row
    up, down = (np.bincount(row[step == s], data[step == s], one_dim_chain.n_states)
                [lower + 1:upper] for s in (1, -1))
    if np.all(abs(step[indptr[lower + 1]:indptr[upper]]) <= 1) and up.all():
        rho = np.cumprod(np.append(1.0, down / up))
        if np.isfinite(rho.sum()):
            return float(rho[start - lower:].sum() / rho.sum())
    return _green.hit_probability(one_dim_chain, start, targets=[lower],
                                  blockers=[upper])


# ---------------------------------------------------------------------------
# strip seesaw
# ---------------------------------------------------------------------------

def seesaw(x):
    """Period-2 triangle fold: x - 2k on [2k, 2k+1], 2k+2 - x on [2k+1, 2k+2]."""
    z = np.mod(x, 2.0)
    return np.where(z <= 1.0, z, 2.0 - z)


def strip_seesaw_samples(t: float, n: int, seed: int = 0) -> np.ndarray:
    """Samples of seesaw(U + Y_t), U uniform on [0,1], Y_t centred Gaussian
    of variance t; distributed uniformly on [0,1] for every t."""
    if not 0 < t < np.inf:
        raise ParameterError("t must be positive and finite")
    if n < 1:
        raise ParameterError("need at least one sample")
    if seed < 0:
        raise ParameterError("seed must be >= 0")
    rng = np.random.Generator(
        np.random.Philox(seed=np.random.SeedSequence(entropy=(seed, 0x5EE5A))))
    u = rng.random(n)
    y = rng.normal(0.0, np.sqrt(t), n)
    return seesaw(u + y)
