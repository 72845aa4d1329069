"""Monte Carlo engine over stochastic kernels.

Paths are simulated in fixed-size blocks; block b draws from its own SFC64
stream seeded by (master seed, b), so aggregates are bit-identical for any
worker count and reproducible from (seed, parameters) alone.  Aggregation is
a sum of per-block integer counts, hence associative and order-independent.

All chains are stepped through one vectorized kernel representation.  A
path's state is the pair (site, last reflecting side), held as a signed
entry.  Each step draws one raw 64-bit word per live path and gathers the
next entry from a guide table (Chen & Asau 1974) by the pair and the word's
top 4 or 6 bits; one sign test per step finds the paths that stopped or
whose bucket a threshold splits, and the latter follow exact-integer
threshold records.  Vase chains enter through their embedded jump chain,
whose hitting statistics coincide with the continuous-time chain's.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import ParameterError, SimulationTimeout
from . import green_reversal as _green
from .kernels import StochasticKernel, _float_arrays, _state

class Side(enum.IntEnum):
    UNDEFINED = 0
    UPPER = 1
    LOWER = 2


@dataclass(frozen=True)
class PathRecord:
    """One observed trajectory: its exit state, the last reflecting side it
    touched (boundary contact = site with |y| = k >= 1), and its length."""

    exit_state: int
    last_side: Side
    steps: int


@dataclass
class EmpiricalDistribution:
    """Counts over labelled bins with full seed provenance."""

    labels: np.ndarray
    counts: np.ndarray
    total: int
    seed: int

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
    seed: int
    exit_side: np.ndarray        # (n_states, 3): columns Side.{UNDEFINED,UPPER,LOWER}
    initial: np.ndarray          # (n_states,)
    steps_hist: np.ndarray       # (64,) counts by bit-length of the step count
    steps_sum: int
    steps_max: int

    def exit_counts(self) -> np.ndarray:
        return self.exit_side.sum(axis=1)

    def exit_distribution(self, layer: int) -> EmpiricalDistribution:
        """Exit counts at the states of ``layer``, labelled by state index."""
        if self.layers is None:
            raise ParameterError("exit distribution requested but kernel has no layer map")
        sel = np.flatnonzero(self.layers == layer)
        counts = self.exit_counts()[sel]
        return EmpiricalDistribution(labels=sel, counts=counts, total=int(counts.sum()),
                                     seed=self.seed)


def padded_kernel(kernel: StochasticKernel, side: np.ndarray, stop: np.ndarray):
    """Step tables of the walk on pairs ``a = 3 * state + last side``.

    ``side`` gives each state's reflecting side (0 for none) and ``stop`` the
    states where a walk ends.  Returns ``(bits, entry, guide, records)``.
    Being at pair a is the int64 entry ``entry[a]``: ``a << bits`` to go on,
    ``~a`` when a's state stops the walk.  A step reads its block's raw word;
    ``m = raw >> 11`` gives the uniform ``m * 2**-53``, which is ``>= c``
    exactly when ``m >= ceil(c * 2**53)``.  Row i moves to its j-th target
    when m reaches j of its cumulative probabilities (the last one is never
    compared, so rounding cannot run past the row), paired with the target's
    own side, or with the pair's side if the target lies on none.  The next
    entry is ``guide[(a << bits) + (raw >> 64 - bits)]`` unless a threshold
    falls inside the word's bucket; then it is ``split - k`` with ``split =
    -1 - entry.size``, naming row k of ``records``: (threshold, entry for m
    below it, entry for m at or above it), the latter another record when
    the bucket holds a further threshold.  Buckets are 4 bits wide, or 6 when
    more than 1 in 32 of the 4-bit cells would hold a threshold.
    """
    indptr, indices, data = _float_arrays(kernel)
    n = kernel.n_states
    counts = np.diff(indptr)
    W = int(counts.max())
    row = np.repeat(np.arange(n), counts)
    pos = np.arange(len(data)) - indptr[row]
    cum = np.zeros((n, W))
    cum[row, pos] = data
    cum = np.cumsum(cum, axis=1)
    cum[np.arange(W) >= counts[:, None]] = 1.0
    T = np.ceil(cum[:, :W - 1] * 2.0 ** 53).astype(np.int64)
    # padding slots repeat the row's last target
    last = indices[indptr[1:] - 1]
    tgt = np.repeat(last[:, None], W, axis=1)
    tgt[row, pos] = indices
    tside = side.astype(np.int64)[tgt][:, None, :]
    kept = np.arange(3)[None, :, None]
    targets = 3 * tgt[:, None, :] + np.where(tside != 0, tside, kept)
    pairs = np.arange(3 * n)
    live = T < 2 ** 53             # 2**53 (padding) is beyond every draw
    i, c = np.nonzero(live & (T % 2 ** 49 != 0))   # row-major: equal cells adjacent
    split4 = np.count_nonzero(np.diff(i * 16 + (T[i, c] >> 49), prepend=-1))
    bits = 4 if 2 * split4 <= n else 6
    entry = np.where(np.repeat(stop, 3), ~pairs, pairs << bits)
    code = entry[targets]
    # a bucket's entry is the target at its first draw ...
    first = np.arange(1 << bits, dtype=np.int64) << (53 - bits)
    j = (T[:, None, :] <= first[:, None]).sum(axis=2)
    guide = np.take_along_axis(code, j[:, None, :], axis=2)
    # ... unless thresholds fall inside it: one record per threshold and pair,
    # chained in order through the bucket
    i, c = np.nonzero(live & (T % (1 << 53 - bits) != 0))
    v, b = T[i, c], T[i, c] >> (53 - bits)
    cell = (i << bits) + b
    chained = cell == np.append(cell[1:], -1)
    k = 3 * np.arange(len(v))[:, None] + np.arange(3)
    split = -1 - entry.size
    hi = np.where(chained[:, None], split - k - 3,
                  code[i, :, (T[i] <= v[:, None]).sum(axis=1)])
    records = np.stack([np.repeat(v, 3), code[i, :, c].ravel(), hi.ravel()], axis=1)
    head = cell != np.append(-1, cell[:-1])
    guide[i[head], :, b[head]] = split - k[head]
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
    if isinstance(start, tuple) and len(start) == 2 and start[0] == "fiber":
        k = int(start[1])
        lo, hi = _state(kernel, (k, -k)), _state(kernel, (k, k)) + 1
        p = np.zeros(kernel.n_states)
        p[lo:hi] = 1.0 / (2 * k + 1)
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


SAMPLER = "sfc64"      # the block generator, named in every sampler record


def _block_rng(seed: int, block_id: int) -> np.random.Generator:
    """Block ``block_id``'s generator, whose ``random()`` is ``(raw >> 11) * 2**-53``."""
    return np.random.Generator(
        np.random.SFC64(np.random.SeedSequence(entropy=(seed, block_id))))


def _run_block(args):
    """Walk one block of paths; returns its counts and the number of paths
    still active after ``step_cap`` steps (0 when all were absorbed)."""
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

    # a path is its entry; one sign test per step finds the stops and splits
    nxt = entry[3 * state + side[state]]
    split = -1 - entry.size
    exits = [nxt[:0]]
    t = 0
    while True:
        if nxt.size and nxt[nxt.argmin()] < 0:
            neg = (nxt < 0).nonzero()[0]
            e = nxt[neg]
            if e[e.argmin()] <= split:         # split buckets: read the records
                m = (raw[neg] >> 11).view(np.int64)
                while (s := (e <= split).nonzero()[0]).size:
                    rec = records.take(split - e[s], axis=0)
                    e[s] = np.where(m[s] >= rec[:, 0], rec[:, 2], rec[:, 1])
                nxt[neg] = e
                e = e[e < 0]
            if e.size:
                exits.append(e)
                hist[t.bit_length()] += e.size
                ssum += t * e.size
                smax = t
                nxt = nxt[nxt >= 0]                # keeps the stream order
        if not nxt.size or t == step_cap:
            break
        raw = rng.bit_generator.random_raw(nxt.size)
        nxt += (raw >> (64 - bits)).view(np.int64)
        nxt = guide.take(nxt)
        t += 1
    exit_side = np.bincount(~np.concatenate(exits), minlength=3 * S)
    return exit_side.reshape(S, 3), initial, hist, ssum, smax, int(nxt.size)


def run_paths(kernel: StochasticKernel, start, stop=None,
              observers: Sequence[str] = ("exit", "last_side", "steps"),
              n_paths: int = 1, seed: int = 0, workers: int = 1,
              block_size: int = 65536, step_cap: int = 10 ** 8) -> PathAggregate:
    """Simulate independent trajectories and aggregate exit site, last
    reflecting side and step counts.

    ``stop`` is an absorbing layer index, an explicit boolean mask, or None
    for the kernel's absorbing rows.  ``start`` is a site tuple, a state
    index, "apex", ("fiber", k) for a uniform fiber draw, or a distribution
    over states.  If paths are still active after ``step_cap`` steps, every
    block is still walked to the cap, then ``SimulationTimeout`` is raised
    with the absorbed paths' aggregate as ``partial`` and the number of
    active paths as ``active``.
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
    if not stopm.any():
        raise ParameterError("no stop states")
    side = _side_array(kernel)
    if "last_side" not in observers:
        side[:] = 0
    tables = padded_kernel(kernel, side, stopm)
    start_idx, start_cdf = _start_distribution(kernel, start)

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
    agg = PathAggregate(layers=kernel.layers, y=kernel.y, n_paths=0, seed=seed,
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


def sample_path(kernel: StochasticKernel, start, stop=None,
                rng: Optional[np.random.Generator] = None,
                step_cap: int = 10 ** 8) -> PathRecord:
    """Simulate a single trajectory; mainly a readable reference for the
    vectorized engine and a source of individual ``PathRecord`` values."""
    rng = rng or np.random.default_rng()
    stopm = _resolve_stop(kernel, stop)
    side = _side_array(kernel)
    start_idx, start_cdf = _start_distribution(kernel, start)
    if start_cdf is not None:
        state = int(np.searchsorted(start_cdf, rng.random(), side="right"))
    else:
        state = start_idx
    indptr, indices, data = _float_arrays(kernel)
    last = Side(int(side[state]))
    steps = 0
    while not stopm[state]:
        # the first target whose cumulative probability exceeds the draw,
        # or the last one when rounding leaves the sum below it
        lo, hi = indptr[state], indptr[state + 1]
        j = np.searchsorted(np.cumsum(data[lo:hi]), rng.random(), side="right")
        state = int(indices[lo + min(j, hi - lo - 1)])
        if side[state]:
            last = Side(int(side[state]))
        steps += 1
        if steps > step_cap:
            raise SimulationTimeout(f"path exceeded {step_cap} steps")
    return PathRecord(exit_state=state, last_side=last, steps=steps)


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
    stop_layer: int
    n_bins: int

    def to_json_dict(self) -> dict:
        return {
            "undefined_fraction": self.undefined_fraction,
            "bins": [{"s_lo": b.s_lo, "s_hi": b.s_hi, "n": b.n,
                      "p_hat": b.p_hat, "stderr": b.stderr, "mean_s": b.mean_s}
                     for b in self.bins],
        }

    def to_csv(self, path) -> None:
        import csv
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["s_lo", "s_hi", "n", "p_hat", "stderr", "mean_s"])
            for b in self.bins:
                w.writerow([b.s_lo, b.s_hi, b.n, b.p_hat, b.stderr, b.mean_s])


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
    return SideCurve(bins=out, undefined_fraction=undef / max(total, 1),
                     stop_layer=M, n_bins=bins)


def discrete_hit_prob(one_dim_chain: StochasticKernel, start: int,
                      lower: int, upper: int) -> float:
    """P(reach ``lower`` before ``upper``) for a radial chain, by linear solve."""
    if not 0 <= lower < start < upper:
        raise ParameterError("need 0 <= lower < start < upper")
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
