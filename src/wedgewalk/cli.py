"""Command-line front end.

Every run writes a self-describing JSON record (resolved config, seed,
toolkit version, results) and exits 0 only if all enabled checks pass their
tolerances; check failures exit 1 with the failure embedded in the record,
usage errors exit 2.  Re-running a record's config reproduces its outputs
bit-exactly.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import __version__, analytics, geometry, green_reversal, intertwining
from . import kernels, simulation
from .errors import ParameterError, WedgewalkError

USAGE_ERROR = 2
CHECK_FAILED = 1


@dataclass
class RunConfig:
    command: str
    params: dict
    output: Optional[str] = None
    fmt: str = "json"

    def record(self, results: dict, passed: bool) -> dict:
        return {"command": self.command, "params": self.params,
                "version": __version__, "pass": passed, "results": results}


def _emit(config: RunConfig, results: dict, passed: bool) -> int:
    record = config.record(results, passed)
    text = json.dumps(record, sort_keys=True, indent=2, default=float)
    out = config.output or os.environ.get("WEDGEWALK_OUTDIR")
    if config.output:
        with open(config.output, "w") as fh:
            fh.write(text + "\n")
        print(f"wrote {config.output}")
    elif out:
        path = os.path.join(out, f"{config.command}.json")
        os.makedirs(out, exist_ok=True)
        with open(path, "w") as fh:
            fh.write(text + "\n")
        print(f"wrote {path}")
    else:
        print(text)
    return 0 if passed else CHECK_FAILED


def _wedge_operators(alpha: float, layers: int, mode: str):
    spec = geometry.WedgeSpec(alpha=alpha, layers=layers)
    lat = geometry.build_wedge_lattice(spec)
    P = kernels.wedge_kernel(lat, spec, mode=mode)
    Q = kernels.projected_wedge_chain(layers, alpha, mode=mode)
    link = intertwining.build_link(lat)
    return spec, lat, P, Q, link


def cmd_verify_intertwining(args) -> int:
    params = {"alpha": args.alpha, "layers": args.layers, "mode": args.mode,
              "shape": args.shape, "resolution": args.resolution,
              "tolerance": args.tolerance}
    config = RunConfig("verify-intertwining", params, args.output)
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
        return _emit(config, {"residual": rep.residual,
                              "semigroup": {str(t): v for t, v in semis.items()},
                              "report": json.loads(rep.to_json())}, ok)
    alpha = geometry.parse_angle(args.alpha)
    spec, lat, P, Q, link = _wedge_operators(alpha, args.layers, args.mode)
    rep = intertwining.intertwining_residual(link, P, Q, mode="stochastic",
                                             tolerance=tol)
    harm = intertwining.harmonic_residual(Q)
    ok = rep.passed and harm <= 1e-14
    return _emit(config, {"residual": rep.residual, "harmonic_residual": harm,
                          "report": json.loads(rep.to_json())}, ok)


def _simulate(kernel, start, stop, args, params, config_name, layers_arr):
    config = RunConfig(config_name, params, args.output)
    agg = simulation.run_paths(kernel, start, stop=stop, n_paths=args.paths,
                               seed=args.seed, workers=args.workers,
                               params=params)
    dist = agg.exit_distribution(stop, layers_arr)
    chi = analytics.chi_square(dist.counts)
    results = {"exit_chi_square": chi, "n_paths": args.paths, "seed": args.seed,
               "steps_mean": agg.steps_sum / agg.n_paths, "steps_max": agg.steps_max}
    curve = simulation.last_side_curve(agg, stop, bins=args.bins)
    scored = []
    for b in curve.bins:
        if b.p_hat is None:
            scored.append(None)
            continue
        s = b.mean_s
        scored.append({"s": s, "p_hat": b.p_hat, "stderr": b.stderr, "n": b.n,
                       "watts_closed": analytics.watts_closed(s),
                       "watts_composed": analytics.watts_composed(s)})
    results["curve"] = curve.to_json_dict(params=params, seed=args.seed,
                                          n_paths=args.paths)
    results["curve_scored"] = scored
    ok = chi["p_value"] > 0.001
    return _emit(config, results, ok)


def cmd_simulate_wedge(args) -> int:
    alpha = geometry.parse_angle(args.alpha)
    params = {"alpha": args.alpha, "stop_layer": args.stop_layer,
              "paths": args.paths, "seed": args.seed, "bins": args.bins,
              "workers": args.workers}
    spec = geometry.WedgeSpec(alpha=alpha, layers=args.stop_layer)
    lat = geometry.build_wedge_lattice(spec)
    P = kernels.wedge_kernel(lat, spec, mode="float")
    return _simulate(P, "apex", args.stop_layer, args, params,
                     "simulate-wedge", P.layers)


def cmd_simulate_vase(args) -> int:
    params = {"shape": args.shape, "resolution": args.resolution,
              "stop_layer": args.stop_layer, "paths": args.paths,
              "seed": args.seed, "bins": args.bins, "workers": args.workers}
    grid = geometry.build_vase_grid(args.shape, args.resolution, args.stop_layer)
    Q = kernels.vase_rate_matrix(grid)
    P = Q.jump_chain()
    return _simulate(P, "apex", args.stop_layer, args, params,
                     "simulate-vase", P.layers)


def cmd_green(args) -> int:
    alpha = geometry.parse_angle(args.alpha)
    params = {"alpha": args.alpha, "layers": args.layers}
    config = RunConfig("green", params, args.output)
    Q = kernels.projected_wedge_chain(args.layers, alpha, mode="float")
    g = green_reversal.green_vector(Q, 0)
    fit = green_reversal.fit_green_constant(g, args.layers)
    s2 = math.sin(alpha) ** 2
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
    return _emit(config, results, ok)


def cmd_reverse(args) -> int:
    alpha = geometry.parse_angle(args.alpha)
    params = {"alpha": args.alpha, "layers": args.layers, "mode": args.mode}
    config = RunConfig("reverse", params, args.output)
    spec, lat, P, Q, link = _wedge_operators(alpha, args.layers, args.mode)
    g = green_reversal.green_vector(P, (0, 0))
    rev = green_reversal.nagasawa_reverse(P, g)
    s2 = math.sin(alpha) ** 2
    N = args.layers
    worst = 0.0
    for (k, y) in lat.sites:
        if not (0 < k < N and abs(y) < k):
            continue
        row = rev.kernel.rows[lat.index(k, y)]
        down = float(row.get(lat.index(k - 1, y), 0.0))
        up = float(row.get(lat.index(k + 1, y), 0.0))
        worst = max(worst,
                    abs(down - s2 / 2 * (N - k + 1) / (N - k)),
                    abs(up - s2 / 2 * (N - k - 1) / (N - k)))
    results = {"table_residual": worst,
               "initial_law_uniform": bool(np.allclose(
                   rev.initial_law[rev.initial_law > 0], 1.0 / (2 * N + 1)))}
    ok = worst <= 1e-12 and results["initial_law_uniform"]
    return _emit(config, results, ok)


def cmd_watts(args) -> int:
    params = {"grid": args.grid}
    config = RunConfig("watts", params, args.output)
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
    return _emit(config, results, worst <= 1e-8)


def cmd_bessel_check(args) -> int:
    params = {"i": args.i, "a": args.a, "b": args.b, "beta": args.beta}
    config = RunConfig("bessel-check", params, args.output)
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
    return _emit(config, results, diff <= 0.02)


def cmd_strip_check(args) -> int:
    params = {"t": args.t, "samples": args.samples, "seed": args.seed}
    config = RunConfig("strip-check", params, args.output)
    out = {}
    ok = True
    for t in args.t:
        s = simulation.strip_seesaw_samples(t, args.samples, seed=args.seed)
        kt = analytics.ks_test(s)
        crit = analytics.kolmogorov_critical(0.001, args.samples)
        out[str(t)] = {"distance": kt["distance"], "p_value": kt["p_value"],
                       "critical_0.001": crit}
        ok = ok and kt["distance"] < crit
    return _emit(config, {"ks": out}, ok)


def cmd_vase_generator(args) -> int:
    params = {"shape": args.shape, "x": args.x, "resolutions": args.resolutions}
    config = RunConfig("vase-generator", params, args.output)
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
    ratios = [vals[i + 1] / vals[i] for i in range(len(vals) - 1)]
    ok = all(0.3 <= r <= 0.7 for r in ratios)
    return _emit(config, {"residuals": table, "ratios": ratios}, ok)


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="wedgewalk",
        description="Reflected walks in wedges and vases: identity checks, "
                    "simulation, Green/time-reversal and crossing curves.")
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--output", help="write the JSON record here")

    sp = sub.add_parser("verify-intertwining", help="projection identity residuals")
    sp.add_argument("--alpha", default="pi/4")
    sp.add_argument("--layers", type=int, default=50)
    sp.add_argument("--mode", default="auto", choices=["auto", "rational", "float"])
    sp.add_argument("--shape", help="vase shape spec (switches to the rate check)")
    sp.add_argument("--resolution", type=int)
    sp.add_argument("--tolerance", type=float, default=1e-12)
    common(sp)
    sp.set_defaults(fn=cmd_verify_intertwining)

    sp = sub.add_parser("simulate-wedge", help="hitting law and last-side curve")
    sp.add_argument("--alpha", default="pi/6")
    sp.add_argument("--stop-layer", type=int, default=30)
    sp.add_argument("--paths", type=int, default=100000)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--bins", type=int, default=20)
    sp.add_argument("--workers", type=int, default=1)
    common(sp)
    sp.set_defaults(fn=cmd_simulate_wedge)

    sp = sub.add_parser("simulate-vase", help="vase hitting law")
    sp.add_argument("--shape", default="power:2")
    sp.add_argument("--resolution", type=int, default=20)
    sp.add_argument("--stop-layer", type=int, default=20)
    sp.add_argument("--paths", type=int, default=100000)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--bins", type=int, default=20)
    sp.add_argument("--workers", type=int, default=1)
    common(sp)
    sp.set_defaults(fn=cmd_simulate_vase)

    sp = sub.add_parser("green", help="solved Green vector vs closed form")
    sp.add_argument("--alpha", default="pi/6")
    sp.add_argument("--layers", type=int, default=50)
    sp.add_argument("--csv", help="also dump the vector as CSV")
    common(sp)
    sp.set_defaults(fn=cmd_green)

    sp = sub.add_parser("reverse", help="time-reversed kernel consistency")
    sp.add_argument("--alpha", default="pi/6")
    sp.add_argument("--layers", type=int, default=30)
    sp.add_argument("--mode", default="float", choices=["auto", "rational", "float"])
    common(sp)
    sp.set_defaults(fn=cmd_reverse)

    sp = sub.add_parser("watts", help="three-way curve identity + CSV export")
    sp.add_argument("--grid", type=int, default=9)
    sp.add_argument("--csv")
    common(sp)
    sp.set_defaults(fn=cmd_watts)

    sp = sub.add_parser("bessel-check", help="discrete vs continuum hitting")
    sp.add_argument("--i", type=int, default=50)
    sp.add_argument("--a", type=int, default=25)
    sp.add_argument("--b", type=int, default=200)
    sp.add_argument("--beta", type=float, default=1.0)
    sp.add_argument("--resolution", type=int, default=50)
    common(sp)
    sp.set_defaults(fn=cmd_bessel_check)

    sp = sub.add_parser("strip-check", help="seesaw fold uniformity")
    sp.add_argument("--t", type=float, nargs="+", default=[0.25, 1.0, 4.0])
    sp.add_argument("--samples", type=int, default=100000)
    sp.add_argument("--seed", type=int, default=0)
    common(sp)
    sp.set_defaults(fn=cmd_strip_check)

    sp = sub.add_parser("vase-generator", help="projected-generator residual table")
    sp.add_argument("--shape", default="power:2")
    sp.add_argument("--x", type=float, default=1.0)
    sp.add_argument("--resolutions", type=int, nargs="+", default=[64, 128, 256])
    common(sp)
    sp.set_defaults(fn=cmd_vase_generator)

    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except WedgewalkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    raise SystemExit(main())
