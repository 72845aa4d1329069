"""Monte Carlo engine over stochastic kernels.

Paths are simulated in fixed-size blocks; block b draws from its own
counter-based Philox stream seeded by (master seed, b), so aggregates are
bit-identical for any worker count and reproducible from (seed, parameters)
alone.  Aggregation is a sum of per-block integer counts, hence associative
and order-independent.

All chains are stepped through one vectorized kernel representation.  A
path's state is the pair (site, last reflecting side), so the target table
carries the side and tracking it costs nothing per step.  Each step draws
one uniform per live path and picks the target column j by counting the
row's cumulative thresholds at or below it, one contiguous threshold column
at a time.  Vase chains enter through their embedded jump chain, whose
hitting statistics coincide with the continuous-time chain's.
"""

from __future__ import annotations

import enum
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .errors import ParameterError, SimulationTimeout
from . import green_reversal as _green
from .kernels import StochasticKernel, _row_arrays


class Side(enum.IntEnum):
    UNDEFINED = 0
    UPPER = 1
    LOWER = 2


@dataclass(frozen=True)
class PathRecord:
    """One observed trajectory: where it exited, the last reflecting side it
    touched (boundary contact = site with |y| = k >= 1), and its length."""

    exit_site: tuple
    last_side: Side
    steps: int


@dataclass
class EmpiricalDistribution:
    """Counts over labelled bins with full seed provenance."""

    labels: list
    counts: np.ndarray
    total: int
    seed: int
    workers: int = 1

    def __post_init__(self):
        if int(self.counts.sum()) != self.total:
            raise ParameterError("counts do not sum to total")


@dataclass
class PathAggregate:
    """Summed per-block observations from ``run_paths``."""

    states: tuple
    n_paths: int
    seed: int
    exit_side: np.ndarray        # (n_states, 3): columns Side.{UNDEFINED,UPPER,LOWER}
    initial: np.ndarray          # (n_states,)
    steps_hist: np.ndarray       # (64,) counts by bit-length of the step count
    steps_sum: int
    steps_max: int
    params: dict = field(default_factory=dict)

    def exit_counts(self) -> np.ndarray:
        return self.exit_side.sum(axis=1)

    def exit_distribution(self, layer: int, layers: np.ndarray) -> EmpiricalDistribution:
        sel = np.nonzero(layers[: len(self.states)] == layer)[0]
        counts = self.exit_counts()[sel]
        return EmpiricalDistribution(labels=[self.states[i] for i in sel],
                                     counts=counts, total=int(counts.sum()),
                                     seed=self.seed)

    def merge(self, other: "PathAggregate") -> "PathAggregate":
        if other.states != self.states or other.seed != self.seed:
            raise ParameterError("cannot merge aggregates from different runs")
        return PathAggregate(states=self.states,
                             n_paths=self.n_paths + other.n_paths,
                             seed=self.seed,
                             exit_side=self.exit_side + other.exit_side,
                             initial=self.initial + other.initial,
                             steps_hist=self.steps_hist + other.steps_hist,
                             steps_sum=self.steps_sum + other.steps_sum,
                             steps_max=max(self.steps_max, other.steps_max),
                             params=self.params)


def padded_kernel(kernel: StochasticKernel, side: np.ndarray):
    """Step tables of the walk on pairs ``a = 3 * state + last side``.

    ``side`` gives each state's reflecting side (0 for none).  With W the
    widest row, returns ``(thresholds, targets)``: row c of the (W-1, 3n)
    array ``thresholds`` holds every pair's cumulative transition probability
    through its c-th target (1.0 past the end of a short row, which no
    uniform reaches); a pair whose uniform reaches j of its thresholds moves
    to ``targets[a * W + j]``, the target state paired with its own side, or
    with the pair's side if the target lies on none.  The row's last
    cumulative value is never compared, so j stays below W even when
    rounding leaves the row sum under a uniform.
    """
    indptr, indices, data = _row_arrays(kernel.rows)
    n = kernel.n_states
    counts = np.diff(indptr)
    W = int(counts.max())
    row = np.repeat(np.arange(n), counts)
    pos = np.arange(len(data)) - indptr[row]
    cum = np.zeros((n, W))
    cum[row, pos] = data
    cum = np.cumsum(cum, axis=1)
    cum[np.arange(W) >= counts[:, None]] = 1.0
    thresholds = np.repeat(cum[:, :W - 1].T, 3, axis=1)
    # padding slots repeat the row's last target
    last = indices[indptr[1:] - 1]
    tgt = np.repeat(last[:, None], W, axis=1)
    tgt[row, pos] = indices
    tside = side.astype(np.int64)[tgt][:, None, :]
    kept = np.arange(3)[None, :, None]
    targets = 3 * tgt[:, None, :] + np.where(tside != 0, tside, kept)
    return thresholds, targets.reshape(-1)


def _side_array(states) -> np.ndarray:
    side = np.zeros(len(states), dtype=np.int8)
    for i, s in enumerate(states):
        if isinstance(s, tuple):
            k, y = s
            if k >= 1 and y == k:
                side[i] = Side.UPPER
            elif k >= 1 and y == -k:
                side[i] = Side.LOWER
    return side


def _start_distribution(kernel: StochasticKernel, start):
    """Resolve a start spec to (fixed index | cdf array)."""
    if isinstance(start, np.ndarray):
        p = np.asarray(start, dtype=float)
        if p.size != kernel.n_states or abs(p.sum() - 1.0) > 1e-9 or p.min() < 0:
            raise ParameterError("start distribution invalid")
        return None, np.cumsum(p)
    if isinstance(start, tuple) and len(start) == 2 and start[0] == "fiber":
        k = int(start[1])
        p = np.zeros(kernel.n_states)
        for y in range(-k, k + 1):
            p[kernel.index[(k, y)]] = 1.0 / (2 * k + 1)
        return None, np.cumsum(p)
    if isinstance(start, tuple):
        return kernel.index[start], None
    if start == "apex":
        # planar chains label the apex (0, 0), radial chains 0
        for apex in ((0, 0), 0):
            if apex in kernel.index:
                return kernel.index[apex], None
        raise ParameterError("start 'apex': the kernel has no state (0, 0) or 0")
    return int(start), None


def _resolve_stop(kernel: StochasticKernel, stop) -> np.ndarray:
    if stop is None:
        return kernel.absorbing_mask()
    if isinstance(stop, np.ndarray) and stop.dtype == bool:
        return stop
    if kernel.layers is None:
        raise ParameterError("layer stop requested but kernel has no layer map")
    return kernel.layers >= int(stop)


def _run_block(args):
    """Walk one block of paths; returns its counts and the number of paths
    still active after ``step_cap`` steps (0 when all were absorbed)."""
    (thresholds, targets, stop, side, start_idx, start_cdf, n, seed, block_id,
     step_cap) = args
    rng = np.random.Generator(
        np.random.Philox(seed=np.random.SeedSequence(entropy=(seed, block_id))))
    S = side.size
    if start_cdf is not None:
        state = np.searchsorted(start_cdf, rng.random(n), side="right").astype(np.int64)
        state = np.minimum(state, S - 1)
    else:
        state = np.full(n, start_idx, dtype=np.int64)

    exit_side = np.zeros((S, 3), dtype=np.int64)
    initial = np.bincount(state, minlength=S)
    hist = np.zeros(64, dtype=np.int64)
    ssum = 0
    smax = 0

    pair = 3 * state + side[state]
    W = thresholds.shape[0] + 1
    t = 0
    while pair.size:
        done = stop[pair]
        if done.any():
            np.add.at(exit_side.reshape(-1), pair[done], 1)
            nd = int(done.sum())
            hist[int(t).bit_length()] += nd
            ssum += t * nd
            smax = max(smax, t)
            pair = pair[~done]
            if not pair.size:
                break
        if t == step_cap:
            break
        u = rng.random(pair.size)
        idx = pair * W
        for column in thresholds:
            idx += u >= column[pair]
        pair = targets[idx]
        t += 1
    return exit_side, initial, hist, ssum, smax, int(pair.size)


def run_paths(kernel: StochasticKernel, start, stop=None,
              observers: Sequence[str] = ("exit", "last_side", "steps"),
              n_paths: int = 1, seed: int = 0, workers: int = 1,
              block_size: int = 65536, step_cap: int = 10 ** 8,
              params: Optional[dict] = None) -> PathAggregate:
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
    stopm = _resolve_stop(kernel, stop)
    if not stopm.any():
        raise ParameterError("no stop states")
    side = _side_array(kernel.states)
    if "last_side" not in observers:
        side[:] = 0
    thresholds, targets = padded_kernel(kernel, side)
    stop3 = np.repeat(stopm, 3)
    start_idx, start_cdf = _start_distribution(kernel, start)

    blocks = []
    b = 0
    left = n_paths
    while left > 0:
        take = min(block_size, left)
        blocks.append((thresholds, targets, stop3, side, start_idx, start_cdf,
                       take, seed, b, step_cap))
        left -= take
        b += 1

    if workers > 1 and len(blocks) > 1:
        with ProcessPoolExecutor(max_workers=workers) as ex:
            results = list(ex.map(_run_block, blocks))
    else:
        results = [_run_block(a) for a in blocks]

    S = kernel.n_states
    agg = PathAggregate(states=kernel.states, n_paths=0, seed=seed,
                        exit_side=np.zeros((S, 3), dtype=np.int64),
                        initial=np.zeros(S, dtype=np.int64),
                        steps_hist=np.zeros(64, dtype=np.int64),
                        steps_sum=0, steps_max=0, params=dict(params or {}))
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
    side = _side_array(kernel.states)
    start_idx, start_cdf = _start_distribution(kernel, start)
    if start_cdf is not None:
        state = int(np.searchsorted(start_cdf, rng.random(), side="right"))
    else:
        state = start_idx
    last = Side(int(side[state]))
    steps = 0
    while not stopm[state]:
        row = kernel.rows[state]
        u = rng.random()
        acc = 0.0
        for j in sorted(row):
            acc += float(row[j])
            if u < acc:
                state = j
                break
        else:
            state = max(row)
        if side[state]:
            last = Side(int(side[state]))
        steps += 1
        if steps > step_cap:
            raise SimulationTimeout(f"path exceeded {step_cap} steps")
    return PathRecord(exit_site=kernel.states[state], last_side=last, steps=steps)


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

    def to_json_dict(self, params=None, seed=None, n_paths=None) -> dict:
        return {
            "params": params or {}, "seed": seed, "n_paths": n_paths,
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
    up = np.zeros(bins)
    lo = np.zeros(bins)
    undef = 0
    s_weight = np.zeros(bins)
    for i, st in enumerate(aggregate.states):
        if not isinstance(st, tuple) or st[0] != M:
            continue
        y = st[1]
        s = (y / M + 1.0) / 2.0
        j = min(int(s * bins), bins - 1)
        row = aggregate.exit_side[i]
        undef += int(row[Side.UNDEFINED])
        up[j] += row[Side.UPPER]
        lo[j] += row[Side.LOWER]
        s_weight[j] += s * (row[Side.UPPER] + row[Side.LOWER])
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
    if not lower < start < upper:
        raise ParameterError("need lower < start < upper")
    if upper >= one_dim_chain.n_states:
        raise ParameterError("upper endpoint outside the chain")
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
    if t <= 0:
        raise ParameterError("t must be positive")
    if n < 1:
        raise ParameterError("need at least one sample")
    rng = np.random.Generator(
        np.random.Philox(seed=np.random.SeedSequence(entropy=(seed, 0x5EE5A))))
    u = rng.random(n)
    y = rng.normal(0.0, np.sqrt(t), n)
    return seesaw(u + y)
