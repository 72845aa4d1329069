"""Steadiness check for the benchmark.

    python3 bench/steady.py [--runs 10] [--workloads NAME ...]

Runs ``run.py --trace 0`` once per seed (seeds 1..runs) on each workload,
in two sets, and reports for every end-to-end metric the median and the
distance between the first and third quartile of the runs as a share of
the median.  Every spread, ``setup_s`` included, must stay within the
metric's bound and should stay below a third of it, and the second set's
median may not be worse than the first's by more than the bound.

It then repeats the first seed twice with ``--trace 1`` and checks that the
records' sha256 digests and the exact counts (path-steps, paths, states,
nonzeros, record bytes) are identical across all runs of that seed.

Exits 1 if any check fails.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from run import BENCHMARK, ROOT, quartile_spread
from workload import WORKLOADS

COUNTS = ("simulation.path_steps", "simulation.paths", "kernels.states",
          "kernels.nnz", "cli.record_bytes")


def bench_run(workload, seed, seconds, trace):
    cmd = [sys.executable, str(Path(__file__).with_name("run.py")),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                         check=True, timeout=600).stdout.splitlines()
    return json.loads(out[-2])["detail"], json.loads(out[-1])


def main(argv=None) -> int:
    spec = json.loads(BENCHMARK.read_text())
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--workloads", nargs="+", default=list(WORKLOADS))
    p.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = p.parse_args(argv)

    ok = True
    for w in args.workloads:
        medians = []
        for s in range(2):
            values = {m["name"]: [] for m in spec["end_to_end"]}
            for seed in range(1, args.runs + 1):
                detail, res = bench_run(w, seed, args.seconds, 0)
                if seed == 1 and s == 0:
                    seed1_records = detail["records"]
                if not res["correct"]:
                    ok = False
                    print(f"{w} seed {seed}: incorrect: {detail['problems']}")
                for name, m in res["metrics"].items():
                    values[name].append(m["value"])
                print(f"{w} set {s + 1} seed {seed}: " + "  ".join(
                    f"{k}={v[-1]:.4f}" for k, v in values.items()), flush=True)
            medians.append({k: statistics.median(v) for k, v in values.items()})
            for m in spec["end_to_end"]:
                v, bound = values[m["name"]], m["bound"]
                spread = quartile_spread(v)
                verdict = ("ok" if spread < bound / 3 else
                           "within bound" if spread <= bound else "TOO WIDE")
                ok &= spread <= bound
                print(f"  {w:<12} {m['name']:<12} median {medians[-1][m['name']]:.4f} "
                      f"{m['unit']:<3} spread {spread:.4f} bound {bound} "
                      f"-> {verdict}")
        for m in spec["end_to_end"]:
            first, second = medians[0][m["name"]], medians[1][m["name"]]
            worse = (second - first) / first
            if m["better"] == "higher":
                worse = -worse
            good = worse <= m["bound"]
            ok &= good
            print(f"  {w:<12} {m['name']:<12} second median vs first: "
                  f"{worse:+.4f} (bound {m['bound']}) -> "
                  f"{'ok' if good else 'WORSE'}")
        runs = [bench_run(w, 1, args.seconds, 1) for _ in range(2)]
        digests = {json.dumps(d["records"], sort_keys=True)
                   for d in [{"records": seed1_records}] + [d for d, _ in runs]}
        counts = {json.dumps({k: r["metrics"][k]["value"] for k in COUNTS})
                  for _, r in runs}
        same = len(digests) == 1 and len(counts) == 1 and all(
            r["correct"] for _, r in runs)
        ok &= same
        print(f"  {w:<12} seed 1 repeated: records and counts "
              f"{'identical' if same else 'DIFFER'}: {counts}")
    print("steady" if ok else "NOT STEADY")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
