"""One repetition of a benchmark workload, in a fresh Python process.

    python3 bench/workload.py NAME SEED MODE SPAWN_TIME WORKDIR

imports ``wedgewalk`` from the checkout's ``src/``, runs the workload's
subcommands in-process through ``wedgewalk.cli.main`` with
``WEDGEWALK_OUTDIR`` set to WORKDIR, and prints one JSON object as its last
line of output.  SPAWN_TIME is the parent's ``time.monotonic()`` just before
it started this process, so set-up time covers interpreter start and import.
MODE is 0 (untraced), 1 (traced) or ``setup``, which stops once the import is
done and reports only the set-up time.  With MODE=1 the layer modules'
public functions are wrapped by
``spans.Tracer`` and the spans are written to WORKDIR/../spans-NAME.json.
``run.py`` drives this; the workload table below is shared with it.
"""

from __future__ import annotations

import ctypes
import hashlib
import itertools
import json
import os
import platform
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _mc_wedge(seed):
    return [["simulate-wedge", "--alpha", "pi/6", "--stop-layer", "30",
             "--paths", "65536", "--workers", "1", "--seed", str(seed)]]


def _exact_wedge(seed):
    verify = [["verify-intertwining", "--alpha", a, "--mode", "rational",
               "--layers", "100"] for a in ("pi/6", "pi/4", "pi/3")]
    return verify + [
        ["reverse", "--alpha", "pi/6", "--mode", "rational", "--layers", "14"],
        ["green", "--layers", "50"],
        ["reverse", "--layers", "30"],
        ["watts", "--grid", "99"],
    ]


def _vase(seed):
    return [
        ["verify-intertwining", "--shape", "power:2", "--resolution", "64",
         "--layers", "64"],
        ["simulate-vase", "--shape", "power:2", "--resolution", "20",
         "--stop-layer", "20", "--paths", "100000", "--workers", "1",
         "--seed", str(seed)],
        ["bessel-check", "--beta", "1.5", "--i", "50", "--a", "25", "--b", "200"],
        ["vase-generator", "--shape", "power:2"],
    ]


# Only the simulate-* subcommands draw random numbers, so exact-wedge makes
# the same inputs at every seed.
WORKLOADS = {"mc-wedge": _mc_wedge, "exact-wedge": _exact_wedge, "vase": _vase}


def run_op(cli, argv, outdir) -> dict:
    """Run one subcommand and account for it.  Anything ``cli.main`` raises
    is recorded as a failed op, never propagated: the workload goes on."""
    error = None
    t0 = time.perf_counter()
    try:
        rc = cli.main(argv)
    except SystemExit as exc:          # argparse rejects the arguments
        rc = exc.code if isinstance(exc.code, int) else 2
        error = f"SystemExit({exc.code!r})"
    except Exception:                  # noqa: BLE001 - a failed op, reported
        rc = None
        error = traceback.format_exc()
    wall = time.perf_counter() - t0
    op = {"argv": argv, "rc": rc, "wall_s": wall, "error": error,
          "pass": None, "sha256": None, "bytes": 0, "path_steps": 0}
    path = Path(outdir) / f"{argv[0]}.json"
    if path.exists():
        data = path.read_bytes()
        path.unlink()
        record = json.loads(data)
        op["pass"] = record.get("pass")
        op["bytes"] = len(data)
        op["sha256"] = hashlib.sha256(data).hexdigest()
        res = record.get("results", {})
        if "steps_mean" in res:
            op["path_steps"] = round(res["steps_mean"] * res["n_paths"])
    op["failed"] = bool(rc != 0 or op["pass"] is not True or error)
    if error:
        print(f"op {' '.join(argv)} failed:\n{error}", file=sys.stderr)
    return op


def _blas_info() -> list:
    """Loaded OpenBLAS libraries with their build string and thread count."""
    out = []
    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh
                       if "openblas" in line.lower() and line.rstrip().endswith(".so")})
    for path in libs:
        lib = ctypes.CDLL(path)
        info = {"library": os.path.basename(path)}
        for prefix, suffix in itertools.product(("scipy_openblas_", "openblas_"),
                                                ("64_", "")):
            get_threads = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
            if get_threads is not None:
                get_config = getattr(lib, f"{prefix}get_config{suffix}")
                get_config.restype = ctypes.c_char_p
                info.update(config=get_config().decode(), threads=get_threads())
                break
        out.append(info)
    return out


def provenance() -> dict:
    import numpy
    import scipy

    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": _blas_info(),
            "thread_env": {k: os.environ.get(k) for k in
                           ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                            "MKL_NUM_THREADS")}}


def main(argv) -> int:
    name, seed, mode, spawn, workdir = argv
    sys.path.insert(0, str(SRC))
    import wedgewalk
    from wedgewalk import cli
    ready = time.monotonic()
    if not Path(wedgewalk.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"wedgewalk imported from {wedgewalk.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    if mode == "setup":
        print(json.dumps({"setup_s": ready - float(spawn)}))
        return 0
    rss_ready_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    os.environ["WEDGEWALK_OUTDIR"] = workdir

    tracer = None
    if mode == "1":
        import spans
        tracer = spans.Tracer()
        tracer.install()
    ops = []
    for i, op_argv in enumerate(WORKLOADS[name](int(seed))):
        if tracer is not None:
            tracer.op = i
        ops.append(run_op(cli, op_argv, workdir))
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    result = {"setup_s": ready - float(spawn), "ops": ops,
              "peak_rss_mb": peak_kb / 1024.0,
              "rss_growth_mb": (peak_kb - rss_ready_kb) / 1024.0,
              "provenance": provenance()}
    if tracer is not None:
        tracer.uninstall()
        result["layers"] = spans.layer_metrics(tracer.spans)
        result["counts"] = dict(tracer.counts)
        span_ops = {}
        for s in tracer.spans:
            span_ops.setdefault(s.name, set()).add(s.op)
        result["span_ops"] = {k: sorted(v) for k, v in span_ops.items()}
        out = Path(workdir).parent / f"spans-{name}.json"
        out.write_text(json.dumps([vars(s) for s in tracer.spans]))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
