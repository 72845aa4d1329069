"""The wedgewalk benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S

Run from the root of a checkout; S defaults to ``run_seconds`` of
BENCHMARK.json.  One run repeats the workload, each repetition in a fresh
single-threaded Python process (``workload.py``, BLAS and OpenMP pinned to
one thread), until S seconds have passed, and reports per run the median
over its repetitions of the wall time, the set-up time and the peak RSS.
With ``--trace 0`` each repetition is preceded by a few processes that stop
once ``wedgewalk`` is imported, so that the set-up time is the median of
many samples.  Every subcommand's exit code and record ``pass`` field is
checked, and every record must hash the same in every repetition, since the
seed fixes the inputs.

With ``--trace 0`` it prints the end-to-end metrics of BENCHMARK.json.  With
``--trace 1`` it alternates untraced and traced repetitions and prints the
per-layer metrics: self time, calls and errors per function and per module
(the lower median over the traced repetitions), RSS growth (the lower
median over the untraced ones), and throughput and tracing overhead from
the median wall times.  ``--workload all`` runs every workload both ways
and prints every metric by name with its unit, together with the table of
which layer metric should move which end-to-end metric on which workload.

The last line of output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it holds the
details (per-repetition values, record digests, exact counts, provenance).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from statistics import median, median_low, quantiles

from workload import ROOT, SRC, WORKLOADS

BENCHMARK = ROOT / "BENCHMARK.json"
WORKDIR = ROOT / ".bench_out"
# Every run must end within 180 s; no repetition starts or outlives this.
HARD_LIMIT_S = 170.0
# Set-up-only processes started before each repetition of an untraced run.
SETUP_PROBES = 2
SETUP = "setup"
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}

# Which end-to-end metric each layer metric should move, and on which
# workload (written down before measuring).
PREDICTIONS = [
    ("simulation.run_paths.self_s, simulation.padded_kernel.self_s, "
     "simulation.path_steps, simulation.paths, simulation.path_steps_per_s",
     "wall_s", "mc-wedge (most), vase (some), exact-wedge (none)"),
    ("kernels.{wedge_kernel,projected_wedge_chain,vase_rate_matrix,"
     "projected_vase_rates}.self_s, kernels.states, kernels.nnz",
     "wall_s", "exact-wedge (rational); vase"),
    ("intertwining.intertwining_residual.{rational,float}.self_s, "
     "intertwining.semigroup_residual.{self_s,rss_delta_mb}, "
     "intertwining.build_link.self_s, intertwining.harmonic_residual.self_s",
     "wall_s / peak_rss_mb", "exact-wedge / vase"),
    ("green_reversal.green_vector.{exact,float}.self_s, "
     "green_reversal.nagasawa_reverse.self_s, "
     "green_reversal.hit_probability.self_s",
     "wall_s", "exact-wedge; vase"),
    ("geometry.{build_wedge_lattice,build_vase_grid}.self_s",
     "wall_s", "vase"),
    ("analytics.{watts_closed,watts_composed,watts_via_hypergeometric,"
     "watts_via_integral,scale_function,generator_residual,chi_square}"
     ".{self_s,calls}",
     "wall_s", "exact-wedge, mc-wedge, vase (small in each)"),
    ("cli.main.self_s, cli.record_bytes", "wall_s", "all"),
]
# simulation.discrete_hit_prob is a linear solve, not sampling; every other
# simulation function belongs to the simulate-* subcommands.
NOT_SAMPLING = {"simulation.discrete_hit_prob"}
# "Near zero" for the share of exact-wedge's wall time spent in simulation.
EXACT_WEDGE_SIM_SHARE = 0.01


def quartile_spread(values) -> float:
    """Distance between the first and third quartile, as a share of the
    median (``statistics.quantiles`` with n=4)."""
    q1, _, q3 = quantiles(values, n=4)
    return (q3 - q1) / median(values)


def tail_percentile(n: int):
    """Highest of the usual percentiles with at least ten of ``n`` samples
    beyond it, or None when even the 75th has fewer."""
    for p in (99.9, 99.0, 95.0, 90.0, 75.0):
        if n * (1.0 - p / 100.0) >= 10.0 - 1e-9:
            return p
    return None


def unit_of(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("_frac"):
        return "ratio"
    if name.endswith("_bytes"):
        return "bytes"
    return "count"


def machine() -> dict:
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "cpu_model": model}


def run_rep(name, seed, mode, timeout):
    """One repetition in a fresh process; None if it did not report.  MODE
    is "0" (untraced), "1" (traced) or SETUP (stop once imported)."""
    WORKDIR.mkdir(exist_ok=True)
    outdir = tempfile.mkdtemp(prefix=f"{name}-", dir=WORKDIR)
    env = dict(os.environ, **PINNED_ENV)
    cmd = [sys.executable, str(Path(__file__).with_name("workload.py")), name,
           str(seed), mode]
    try:
        spawn = time.monotonic()
        proc = subprocess.run(cmd + [repr(spawn), outdir], env=env, cwd=ROOT,
                              stdout=subprocess.PIPE, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        print(f"{name}: repetition killed after {timeout:.0f} s", file=sys.stderr)
        return None
    finally:
        shutil.rmtree(outdir, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"{name}: repetition exited {proc.returncode}", file=sys.stderr)
        return None
    rep = json.loads(lines[-1])
    if mode != SETUP:
        rep["traced"] = mode == "1"
        rep["wall_s"] = sum(op["wall_s"] for op in rep["ops"])
    return rep


def run_workload(name, seed, seconds, trace):
    """Repeat the workload for ``seconds`` (untraced and traced in turn when
    tracing; set-up probes before each untraced repetition when not).
    Returns (reps, setups, lost_ops); a process that dies without reporting
    ends the run and all the ops of its repetition count as failed."""
    kinds = ("0", "1") if trace else ("0",)
    reps, setups = [], []
    start = time.monotonic()
    left = lambda: HARD_LIMIT_S - (time.monotonic() - start)
    while True:
        elapsed = time.monotonic() - start
        if elapsed >= HARD_LIMIT_S - 1.0 or (
                elapsed >= seconds and len(reps) >= len(kinds)):
            return reps, setups, 0
        mode = kinds[len(reps) % len(kinds)]
        for _ in range(0 if trace else SETUP_PROBES):
            probe = run_rep(name, seed, SETUP, left())
            if probe is None:
                return reps, setups, len(WORKLOADS[name](seed))
            setups.append(probe["setup_s"])
        rep = run_rep(name, seed, mode, left())
        if rep is None:
            return reps, setups, len(WORKLOADS[name](seed))
        reps.append(rep)


def check_reps(reps) -> list:
    """Problems with the outputs: failed ops, records that differ between
    repetitions of one seed, exact counts that do not repeat."""
    problems = []
    for rep in reps:
        for i, op in enumerate(rep["ops"]):
            if op["failed"]:
                why = op["error"] or f"rc={op['rc']} pass={op['pass']}"
                problems.append(f"op {i} ({' '.join(op['argv'])}) failed: "
                                f"{why.strip().splitlines()[-1]}")
    if reps:
        for i in range(len(reps[0]["ops"])):
            digests = {rep["ops"][i]["sha256"] for rep in reps}
            if len(digests) > 1:
                problems.append(f"op {i} record differs between repetitions: "
                                f"{sorted(d or 'none' for d in digests)}")
    traced = [r for r in reps if r["traced"]]
    if len({json.dumps(r["counts"], sort_keys=True) for r in traced}) > 1:
        problems.append("exact counts differ between traced repetitions")
    for rep in traced:
        steps = sum(op["path_steps"] for op in rep["ops"])
        if rep["counts"].get("simulation.path_steps", 0) != steps:
            problems.append(f"run_paths counted {rep['counts'].get('simulation.path_steps', 0)}"
                            f" path-steps, records say {steps}")
    return problems


def check_predictions(name, reps, wall_s) -> list:
    """The sampler never runs outside simulate-*; exact-wedge spends (near)
    no time in simulation."""
    problems = []
    for rep in (r for r in reps if r["traced"]):
        argvs = [op["argv"] for op in rep["ops"]]
        for span, ops in rep["span_ops"].items():
            if not span.startswith("simulation.") or \
                    ".".join(span.split(".")[:2]) in NOT_SAMPLING:
                continue
            bad = [i for i in ops if not argvs[i][0].startswith("simulate-")]
            if bad:
                problems.append(f"PREDICTION VIOLATED: {span} ran in "
                                f"non-simulate subcommand {argvs[bad[0]][0]}")
        sim = rep["layers"].get("simulation.self_s", 0.0)
        if name == "exact-wedge" and sim > EXACT_WEDGE_SIM_SHARE * wall_s:
            problems.append(f"PREDICTION VIOLATED: exact-wedge spent {sim:.4f} s "
                            f"of {wall_s:.4f} s in simulation")
    return problems


def median_wall(reps, keep=lambda argv: True) -> float:
    """Median over ``reps`` of the summed wall time of the subcommands that
    ``keep`` selects."""
    return median(sum(op["wall_s"] for op in r["ops"] if keep(op["argv"]))
                  for r in reps)


def end_to_end(reps, setups) -> dict:
    """Medians over the run's untraced repetitions (set-up time also over
    its set-up probes)."""
    plain = [r for r in reps if not r["traced"]]
    return {"wall_s": median_wall(plain),
            "setup_s": median(setups + [r["setup_s"] for r in plain]),
            "peak_rss_mb": median([r["peak_rss_mb"] for r in plain])}


def per_layer(reps, names, attempted, failed) -> dict:
    plain = [r for r in reps if not r["traced"]]
    traced = [r for r in reps if r["traced"]]
    simulate = lambda argv: argv[0].startswith("simulate-")
    sim_wall = median_wall(plain, simulate)
    steps = sum(op["path_steps"] for op in plain[0]["ops"])
    out = {
        "simulation.path_steps_per_s": steps / sim_wall if sim_wall else 0.0,
        "trace.overhead_s": median_wall(traced) - median_wall(plain),
        # untraced: the traced peak also holds the tracer's own spans
        "rss_growth_mb": median_low([r["rss_growth_mb"] for r in plain]),
        "ops_failed_frac": failed / attempted,
        # repetitions of one seed write the same records (check_reps)
        "cli.record_bytes": sum(op["bytes"] for op in traced[0]["ops"]),
    }
    for name in names:
        if name not in out:
            out[name] = median_low([r["counts"].get(name, r["layers"].get(name, 0))
                                    for r in traced])
    return out


def measure(name, seed, seconds, trace, spec) -> dict:
    reps, setups, lost_ops = run_workload(name, seed, seconds, trace)
    attempted = sum(len(r["ops"]) for r in reps) + lost_ops
    failed = sum(op["failed"] for r in reps for op in r["ops"]) + lost_ops
    problems = check_reps(reps)
    if lost_ops:
        problems.append(f"{lost_ops} ops lost in repetitions that did not report")
    plain = [r for r in reps if not r["traced"]]
    traced = [r for r in reps if r["traced"]]
    metrics = {}
    if plain and (traced or not trace):
        e2e = end_to_end(reps, setups)
        if trace:
            problems += check_predictions(name, reps, e2e["wall_s"])
            wanted = spec["per_layer"]
            values = per_layer(reps, [m["name"] for m in wanted], attempted, failed)
        else:
            wanted = spec["end_to_end"]
            values = e2e
        for m in wanted:
            if unit_of(m["name"]) != m["unit"]:
                problems.append(f"{m['name']}: unit {m['unit']} in BENCHMARK.json, "
                                f"measured in {unit_of(m['name'])}")
            metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
    else:
        problems.append("no repetition reported")
    walls = [r["wall_s"] for r in plain]
    detail = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "machine": machine(),
        "provenance": reps[0]["provenance"] if reps else None,
        "reps": [{"traced": r["traced"], "wall_s": r["wall_s"],
                  "setup_s": r["setup_s"], "peak_rss_mb": r["peak_rss_mb"],
                  "op_wall_s": [op["wall_s"] for op in r["ops"]]} for r in reps],
        "setup_probe_s": setups,
        "records": [{"argv": op["argv"], "sha256": op["sha256"],
                     "bytes": op["bytes"], "path_steps": op["path_steps"]}
                    for op in (reps[0]["ops"] if reps else [])],
        "counts": traced[0]["counts"] if traced else None,
        "wall_s_tail_percentile": tail_percentile(len(walls)),
        "problems": problems,
    }
    return {"correct": not problems, "attempted": attempted, "failed": failed,
            "metrics": metrics, "detail": detail}


def print_run(res) -> None:
    d = res["detail"]
    n_plain = sum(not r["traced"] for r in d["reps"])
    tail = d["wall_s_tail_percentile"]
    print(f"workload {d['workload']}  seed {d['seed']}  trace {d['trace']}  "
          f"repetitions {len(d['reps'])} ({n_plain} untraced)  "
          f"ops {res['attempted'] - res['failed']}/{res['attempted']} ok")
    walls = [r["wall_s"] for r in d["reps"] if not r["traced"]]
    if walls:
        print(f"  untraced repetition wall: n={len(walls)} fastest "
              f"{min(walls):.4f} s median {median(walls):.4f} s; "
              + (f"p{tail:g} has ten samples beyond it" if tail else
                 "too few samples for a tail percentile"))
    for key, m in res["metrics"].items():
        print(f"  {key:<52} {m['value']:>16.6g} {m['unit']}")
    prov = d["provenance"] or {}
    print(f"  machine {json.dumps(d['machine'])}")
    print(f"  python {prov.get('python')} numpy {prov.get('numpy')} "
          f"scipy {prov.get('scipy')} blas {json.dumps(prov.get('blas'))}")
    for p in d["problems"]:
        print(p, file=sys.stderr)


def report(seed, seconds, spec) -> dict:
    """Every workload, untraced and traced: one table of every metric."""
    cols, total = {}, {"correct": True, "attempted": 0, "failed": 0}
    for name in WORKLOADS:
        cols[name] = {}
        for trace in (0, 1):
            res = measure(name, seed, seconds, trace, spec)
            print_run(res)
            cols[name].update(res["metrics"])
            total["correct"] &= res["correct"]
            total["attempted"] += res["attempted"]
            total["failed"] += res["failed"]
    print(f"\n{'metric':<52} {'unit':<6}" + "".join(f"{w:>14}" for w in cols))
    for m in spec["end_to_end"] + spec["per_layer"]:
        vals = "".join(f"{cols[w].get(m['name'], {}).get('value', float('nan')):>14.6g}"
                       for w in cols)
        print(f"{m['name']:<52} {m['unit']:<6}{vals}")
    print("\nprediction: layer metrics -> end-to-end metric they move -> workloads")
    for layers, moves, on in PREDICTIONS:
        print(f"  {layers}\n      moves {moves}  on {on}")
    total["metrics"] = cols
    return total


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=int,
                   help="run length (default: run_seconds of BENCHMARK.json)")
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args(argv)
    # Turn SIGTERM into SystemExit, so that subprocess.run kills and reaps
    # the repetition in flight before this process ends.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if args.seed < 0 or (args.seconds is not None and args.seconds < 1):
        p.error("--seed must be >= 0 and --seconds >= 1")
    if not (SRC / "wedgewalk" / "__init__.py").is_file() or not BENCHMARK.is_file():
        print(f"no wedgewalk sources under {SRC} or no {BENCHMARK.name}; "
              "run from the root of a checkout", file=sys.stderr)
        return 2
    spec = json.loads(BENCHMARK.read_text())
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    if args.workload == "all":
        res = report(args.seed, seconds, spec)
    else:
        res = measure(args.workload, args.seed, seconds, args.trace, spec)
        print_run(res)
        print(json.dumps({"detail": res.pop("detail")}))
    print(json.dumps(res))
    return 0


if __name__ == "__main__":
    sys.exit(main())
