"""In-memory spans around the public functions of the wedgewalk modules.

``Tracer.install`` replaces every public function defined in one of the
layer modules with a wrapper that records a span: its name, start, end,
parent span, subcommand id and the process's peak RSS before and after.
Every other module-level name bound to the same function (the package's
re-exports, ``from .x import f`` imports) is pointed at the wrapper too, so
calls between modules are seen.  Nothing in the package is edited;
``uninstall`` puts the originals back.

The arithmetic on recorded spans (self time, per-layer aggregation) is kept
in plain functions so that it can be tested on hand-made spans.
"""

from __future__ import annotations

import functools
import inspect
import resource
import sys
from collections import defaultdict
from dataclasses import dataclass
from time import perf_counter

LAYERS = ("geometry", "kernels", "intertwining", "green_reversal",
          "simulation", "analytics", "cli")
PACKAGE = "wedgewalk"
# Index helpers called once per lattice entry (hundreds of thousands of times
# in one workload): a span per call would cost more than the work it times,
# so their time is counted in their callers.
UNTRACED = {"geometry.site_index"}

_EXACT = {"rational": "exact"}


def _operand_mode(args, kwargs, pos, key):
    op = args[pos] if len(args) > pos else kwargs.get(key)
    return getattr(op, "mode", "float")


# Spans of these functions are split by the value mode of an operand, so
# exact and float work are timed apart.
SPLIT = {
    "intertwining.intertwining_residual":
        lambda a, k: _operand_mode(a, k, 1, "two_dim_op"),
    "green_reversal.green_vector":
        lambda a, k: _EXACT.get(_operand_mode(a, k, 0, "kernel"), "float"),
}


def _operator_counts(op):
    rows = op.rows if hasattr(op, "rows") else op.off_rows
    return {"kernels.states": op.n_states,
            "kernels.nnz": sum(len(r) for r in rows)}


# Work counts read off a function's return value.  Operator nnz counts the
# stored entries (off-diagonal ones for rate matrices).
COUNTERS = {
    "kernels.wedge_kernel": _operator_counts,
    "kernels.projected_wedge_chain": _operator_counts,
    "kernels.vase_rate_matrix": _operator_counts,
    "kernels.projected_vase_rates": _operator_counts,
    "simulation.run_paths": lambda agg: {"simulation.path_steps": agg.steps_sum,
                                         "simulation.paths": agg.n_paths},
}


def maxrss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


@dataclass
class Span:
    name: str        # "<layer>.<function>[.<mode>]"
    start: float     # perf_counter seconds
    end: float
    parent: int      # index of the enclosing span, -1 at the top
    op: int          # index of the subcommand in the workload sequence
    rss0_kb: int     # peak RSS when the call began
    rss1_kb: int     # peak RSS when it returned
    ok: bool         # False if the call raised

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def function(self) -> str:
        return ".".join(self.name.split(".")[:2])


class Tracer:
    """Records spans for one process.  Not thread-safe; the workloads run
    single-threaded."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.op = -1
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def install(self, layers=LAYERS) -> None:
        wrappers = {}
        for layer in layers:
            mod = sys.modules[f"{PACKAGE}.{layer}"]
            for name, obj in vars(mod).items():
                if (inspect.isfunction(obj) and not name.startswith("_")
                        and obj.__module__ == mod.__name__
                        and f"{layer}.{name}" not in UNTRACED):
                    wrappers[obj] = self._wrap(f"{layer}.{name}", obj)
        for modname, mod in list(sys.modules.items()):
            if modname != PACKAGE and not modname.startswith(PACKAGE + "."):
                continue
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patches.append((mod, name, obj))
                    setattr(mod, name, wrappers[obj])

    def uninstall(self) -> None:
        for mod, name, obj in reversed(self._patches):
            setattr(mod, name, obj)
        self._patches.clear()

    def _wrap(self, name, fn):
        split = SPLIT.get(name)
        counter = COUNTERS.get(name)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = name if split is None else f"{name}.{split(args, kwargs)}"
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            rss0 = maxrss_kb()
            ok = False
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                t1 = perf_counter()
                stack.pop()
                spans[idx] = Span(label, t0, t1, parent, self.op, rss0,
                                  maxrss_kb(), ok)
            if counter is not None:
                for key, value in counter(result).items():
                    self.counts[key] += value
            return result

        return traced


def covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> list[float]:
    """Each span's duration minus the time its child spans cover."""
    children = defaultdict(list)
    for s in spans:
        if s.parent >= 0:
            children[s.parent].append((s.start, s.end))
    return [(s.end - s.start) - covered(children[i], s.start, s.end)
            for i, s in enumerate(spans)]


def layer_metrics(spans) -> dict[str, float]:
    """Per-function and per-layer totals over a list of spans.

    Keys are ``<span name>.self_s``, ``<span name>.calls``,
    ``<layer>.<function>.rss_delta_mb`` (growth of peak RSS during the
    calls), ``<layer>.self_s`` and ``<layer>.errors``.  Layers with no span
    report zero.
    """
    out = defaultdict(int)
    for layer in LAYERS:
        out[f"{layer}.self_s"] = 0.0
        out[f"{layer}.errors"] = 0
    for s, self_s in zip(spans, self_times(spans)):
        out[f"{s.name}.self_s"] += self_s
        out[f"{s.name}.calls"] += 1
        out[f"{s.function}.rss_delta_mb"] += (s.rss1_kb - s.rss0_kb) / 1024.0
        out[f"{s.layer}.self_s"] += self_s
        out[f"{s.layer}.errors"] += 0 if s.ok else 1
    return dict(out)
