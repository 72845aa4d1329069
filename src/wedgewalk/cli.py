"""Command-line front end.

Every run writes a self-describing JSON record (params, toolkit version,
pass, results) and exits 0 only if all enabled checks pass their
tolerances; check failures exit 1 with the failure embedded in the record,
usage and domain errors exit 2.  The record's params are every parsed
option except the output paths ``--output`` and ``--csv``, so re-running
them reproduces the results bit-exactly.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys

import numpy as np

from . import __version__, analytics, geometry, green_reversal, intertwining
from . import kernels, simulation
from .errors import ParameterError, WedgewalkError

USAGE_ERROR = 2
CHECK_FAILED = 1
# Parsed names that are not run parameters: the command and the output paths.
_NOT_PARAMS = {"command", "output", "csv"}


def _params(args) -> dict:
    return {k: v for k, v in vars(args).items() if k not in _NOT_PARAMS}


def _emit(args, results: dict, passed: bool) -> int:
    record = {"command": args.command, "params": _params(args),
              "version": __version__, "pass": passed, "results": results}
    text = json.dumps(record, sort_keys=True, indent=2, default=float)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text + "\n")
        print(f"wrote {args.output}")
    else:
        print(text)
    return 0 if passed else CHECK_FAILED


def _output_path(args):
    """The record's path (None for stdout), checked with ``--csv`` first."""
    path, outdir = args.output, os.environ.get("WEDGEWALK_OUTDIR")
    if not path and outdir:
        try:
            os.makedirs(outdir, exist_ok=True)
        except OSError as exc:
            raise ParameterError(f"WEDGEWALK_OUTDIR {outdir!r}: {exc.strerror}")
        path = os.path.join(outdir, f"{args.command}.json")
    for target in filter(None, (path, getattr(args, "csv", None))):
        if os.path.isdir(target) or not os.access(os.path.dirname(target) or ".", os.W_OK):
            raise ParameterError(f"cannot write {target!r}")
    return path


def _wedge_kernel(alpha: float, layers: int, mode: str):
    spec = geometry.WedgeSpec(alpha=alpha, layers=layers)
    lat = geometry.build_wedge_lattice(spec)
    return spec, lat, kernels.wedge_kernel(lat, spec, mode=mode)


def cmd_verify_intertwining(args) -> int:
    tol = args.tolerance
    if args.shape:
        resolution = args.layers if args.resolution is None else args.resolution
        grid = geometry.build_vase_grid(args.shape, resolution, args.layers)
        Q2 = kernels.vase_rate_matrix(grid)
        Q1 = kernels.projected_vase_rates(grid)
        link = intertwining.build_link(grid)
        rep = intertwining.intertwining_residual(link, Q2, Q1, mode="rates",
                                                 tolerance=tol)
        semis = intertwining.semigroup_residual(link, Q2, Q1, times=[0.1, 1.0])
        ok = rep.passed and all(v <= 100 * tol for v in semis.values())
        return _emit(args, {"residual": rep.residual,
                            "semigroup": {str(t): v for t, v in semis.items()},
                            "report": json.loads(rep.to_json())}, ok)
    alpha = geometry.parse_angle(args.alpha)
    spec, lat, P = _wedge_kernel(alpha, args.layers, args.mode)
    Q = kernels.projected_wedge_chain(args.layers, alpha, mode=args.mode)
    link = intertwining.build_link(lat)
    rep = intertwining.intertwining_residual(link, P, Q, mode="stochastic",
                                             tolerance=tol)
    harm = intertwining.harmonic_residual(Q)
    ok = rep.passed and harm <= 1e-14
    return _emit(args, {"residual": rep.residual, "harmonic_residual": harm,
                        "report": json.loads(rep.to_json())}, ok)


def _simulate(kernel, args) -> int:
    agg = simulation.run_paths(kernel, "apex", stop=args.stop_layer,
                               n_paths=args.paths, seed=args.seed,
                               workers=args.workers)
    dist = agg.exit_distribution(args.stop_layer)
    chi = analytics.chi_square(dist.counts)
    results = {"exit_chi_square": chi, "n_paths": args.paths, "seed": args.seed,
               "sampler": simulation.SAMPLER,
               "steps_mean": agg.steps_sum / agg.n_paths, "steps_max": agg.steps_max}
    curve = simulation.last_side_curve(agg, args.stop_layer, bins=args.bins)
    scored = []
    for b in curve.bins:
        if b.p_hat is None:
            scored.append(None)
            continue
        s = b.mean_s
        scored.append({"s": s, "p_hat": b.p_hat, "stderr": b.stderr, "n": b.n,
                       "watts_closed": analytics.watts_closed(s),
                       "watts_composed": analytics.watts_composed(s)})
    results["curve"] = curve.to_json_dict()
    results["curve_scored"] = scored
    ok = chi["p_value"] > 0.001
    return _emit(args, results, ok)


def cmd_simulate_wedge(args) -> int:
    alpha = geometry.parse_angle(args.alpha)
    return _simulate(_wedge_kernel(alpha, args.stop_layer, "float")[2], args)


def cmd_simulate_vase(args) -> int:
    grid = geometry.build_vase_grid(args.shape, args.resolution, args.stop_layer)
    return _simulate(kernels.vase_rate_matrix(grid).jump_chain(), args)


def cmd_green(args) -> int:
    alpha = geometry.parse_angle(args.alpha)
    Q = kernels.projected_wedge_chain(args.layers, alpha, mode="float")
    g = green_reversal.green_vector(Q, 0)
    fit = green_reversal.fit_green_constant(g, args.layers)
    s2 = geometry.WedgeSpec(alpha=alpha, layers=args.layers).float_sin_sq
    results = {
        "fitted_constant": fit["constant"],
        "relative_spread": fit["relative_spread"],
        "candidate_inv_sin_sq": 1.0 / s2,
        "candidate_inv_cos_sq": 1.0 / (1.0 - s2),
        "match_inv_sin_sq": abs(fit["constant"] * s2 - 1.0),
        "match_inv_cos_sq": abs(fit["constant"] * (1.0 - s2) - 1.0),
    }
    if args.csv:
        g.to_csv(args.csv)
        results["csv"] = args.csv
    ok = fit["relative_spread"] <= 1e-10
    return _emit(args, results, ok)


def cmd_reverse(args) -> int:
    alpha = geometry.parse_angle(args.alpha)
    spec, _, P = _wedge_kernel(alpha, args.layers, args.mode)
    g = green_reversal.green_vector(P, (0, 0))
    rev = green_reversal.nagasawa_reverse(P, g)
    s2 = spec.float_sin_sq
    N = args.layers
    # inner rows' steps to (k - 1, y) and (k + 1, y), at columns s - 2k and
    # s + 2k + 2 in layer-major order, against their closed forms
    s = np.flatnonzero((0 < P.layers) & (P.layers < N) & (abs(P.y) < P.layers))
    k, n = P.layers[s], rev.kernel.n_states
    indptr, indices, data = kernels._float_arrays(rev.kernel)
    # R(s, t) at key s n + t, 0 where no entry is stored (the killed row ends key)
    key = np.repeat(np.arange(n), np.diff(indptr)) * n + indices
    at = [(np.searchsorted(key, s * n + t), s * n + t) for t in (s - 2 * k, s + 2 * k + 2)]
    down, up = (np.where(key[i] == want, data[i], 0.0) for i, want in at)
    worst = float(max(np.abs(down - s2 / 2 * (N - k + 1) / (N - k)).max(initial=0.0),
                      np.abs(up - s2 / 2 * (N - k - 1) / (N - k)).max(initial=0.0)))
    results = {"table_residual": worst,
               "initial_law_uniform": bool(np.allclose(
                   rev.initial_law[rev.initial_law > 0], 1.0 / (2 * N + 1)))}
    ok = worst <= 1e-12 and results["initial_law_uniform"]
    return _emit(args, results, ok)


def cmd_watts(args) -> int:
    if args.grid < 1:
        raise ParameterError("--grid must be at least 1")
    worst = 0.0
    rows = []
    for i in range(1, args.grid + 1):
        a = i / (args.grid + 1)
        c = analytics.watts_closed(a)
        h = analytics.watts_via_hypergeometric(a)
        v = analytics.watts_via_integral(a)
        worst = max(worst, abs(c - h), abs(c - v), abs(h - v))
        rows.append({"a": a, "closed": c, "hypergeometric": h, "integral": v})
    results = {"max_pairwise": worst, "grid": rows}
    if args.csv:
        analytics.export_watts_curves(args.csv, n_grid=args.grid)
        results["csv"] = args.csv
    return _emit(args, results, worst <= 1e-8)


def cmd_bessel_check(args) -> int:
    if abs(args.beta - 1.0) < 1e-12:
        Q = kernels.projected_wedge_chain(args.b + 50, math.pi / 4, mode="float")
        discrete = simulation.discrete_hit_prob(Q, args.i, args.a, args.b)
        continuum = analytics.bessel3_hit(args.i, args.a, args.b)
    else:
        shape = geometry.power_shape(args.beta)
        grid = geometry.build_vase_grid(shape, args.resolution, args.b + 1)
        Q = kernels.projected_vase_rates(grid).jump_chain()
        discrete = simulation.discrete_hit_prob(Q, args.i, args.a, args.b)
        phi = lambda k: analytics.scale_function(shape, grid.abscissas[k])
        continuum = (phi(args.i) - phi(args.b)) / (phi(args.a) - phi(args.b))
    diff = abs(discrete - continuum)
    results = {"discrete": discrete, "continuum": continuum, "difference": diff}
    return _emit(args, results, diff <= 0.02)


def cmd_strip_check(args) -> int:
    out = {}
    ok = True
    for t in args.t:
        s = simulation.strip_seesaw_samples(t, args.samples, seed=args.seed)
        kt = analytics.ks_test(s)
        crit = analytics.kolmogorov_critical(0.001, args.samples)
        out[str(t)] = {"distance": kt["distance"], "p_value": kt["p_value"],
                       "critical_0.001": crit}
        ok = ok and kt["distance"] < crit
    return _emit(args, {"ks": out}, ok)


def cmd_vase_generator(args) -> int:
    if len(args.resolutions) < 2:
        raise ParameterError("--resolutions needs at least two values to "
                             "form a convergence ratio")
    shape = geometry.shape_from_spec(args.shape)
    f = lambda x: math.exp(-x)
    fp = lambda x: -math.exp(-x)
    fpp = lambda x: math.exp(-x)
    table = {}
    for n in args.resolutions:
        table[str(n)] = analytics.generator_residual(shape, f, fp, fpp, args.x, n)
    vals = [table[str(n)] for n in args.resolutions]
    if 0.0 in vals:
        raise ParameterError(f"the residual at x = {args.x}, where f = exp(-x) = "
                             f"{math.exp(-args.x):.3g}, is 0: it forms no convergence ratio")
    ratios = [vals[i + 1] / vals[i] for i in range(len(vals) - 1)]
    ok = all(0 < r <= 0.7 for r in ratios)     # first order or faster
    return _emit(args, {"residuals": table, "ratios": ratios}, ok)


@functools.cache                # built once per process
def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="wedgewalk",
        description="Reflected walks in wedges and vases: identity checks, "
                    "simulation, Green/time-reversal and crossing curves.")
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("verify-intertwining", help="projection identity residuals")
    sp.add_argument("--alpha", default="pi/4")
    sp.add_argument("--layers", type=int, default=50)
    sp.add_argument("--mode", default="auto", choices=["auto", "rational", "float"])
    sp.add_argument("--shape", help="vase shape spec (switches to the rate check)")
    sp.add_argument("--resolution", type=int)
    sp.add_argument("--tolerance", type=float, default=1e-12)

    def sampling(sp, stop_layer):
        sp.add_argument("--stop-layer", type=int, default=stop_layer)
        sp.add_argument("--paths", type=int, default=100000)
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--bins", type=int, default=20)
        sp.add_argument("--workers", type=int, default=1)

    sp = sub.add_parser("simulate-wedge", help="hitting law and last-side curve")
    sp.add_argument("--alpha", default="pi/6")
    sampling(sp, 30)

    sp = sub.add_parser("simulate-vase", help="vase hitting law")
    sp.add_argument("--shape", default="power:2")
    sp.add_argument("--resolution", type=int, default=20)
    sampling(sp, 20)

    sp = sub.add_parser("green", help="solved Green vector vs closed form")
    sp.add_argument("--alpha", default="pi/6")
    sp.add_argument("--layers", type=int, default=50)
    sp.add_argument("--csv", help="also dump the vector as CSV")

    sp = sub.add_parser("reverse", help="time-reversed kernel consistency")
    sp.add_argument("--alpha", default="pi/6")
    sp.add_argument("--layers", type=int, default=30)
    sp.add_argument("--mode", default="float", choices=["auto", "rational", "float"])

    sp = sub.add_parser("watts", help="three-way curve identity + CSV export")
    sp.add_argument("--grid", type=int, default=9)
    sp.add_argument("--csv")

    sp = sub.add_parser("bessel-check", help="discrete vs continuum hitting")
    sp.add_argument("--i", type=int, default=50)
    sp.add_argument("--a", type=int, default=25)
    sp.add_argument("--b", type=int, default=200)
    sp.add_argument("--beta", type=float, default=1.0)
    sp.add_argument("--resolution", type=int, default=50)

    sp = sub.add_parser("strip-check", help="seesaw fold uniformity")
    sp.add_argument("--t", type=float, nargs="+", default=[0.25, 1.0, 4.0])
    sp.add_argument("--samples", type=int, default=100000)
    sp.add_argument("--seed", type=int, default=0)

    sp = sub.add_parser("vase-generator", help="projected-generator residual table")
    sp.add_argument("--shape", default="power:2")
    sp.add_argument("--x", type=float, default=1.0)
    sp.add_argument("--resolutions", type=int, nargs="+", default=[64, 128, 256])

    for sp in sub.choices.values():
        sp.add_argument("--output", help="write the JSON record here")
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        args.output = _output_path(args)
        # the command's function is looked up at each call, so a patched one runs
        return globals()["cmd_" + args.command.replace("-", "_")](args)
    except (WedgewalkError, MemoryError) as exc:
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    raise SystemExit(main())
