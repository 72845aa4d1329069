"""Tests of the benchmark harness itself: failure accounting, span
arithmetic, the percentile and spread rules, and the metric list.

    python3 -m pytest bench
"""

from __future__ import annotations

import json
import sys

import pytest

from run import (BENCHMARK, SRC, check_predictions, check_reps,
                 quartile_spread, tail_percentile, unit_of)
from spans import LAYERS, SPLIT, Span, Tracer, covered, layer_metrics, self_times
from workload import WORKLOADS, run_op

sys.path.insert(0, str(SRC))
from wedgewalk import cli  # noqa: E402


def _span(name, start, end, parent=-1, op=0, ok=True, rss=(0, 0)):
    return Span(name, start, end, parent, op, rss[0], rss[1], ok)


def test_raising_op_is_counted_failed_and_the_workload_goes_on(tmp_path, monkeypatch):
    monkeypatch.setenv("WEDGEWALK_OUTDIR", str(tmp_path))
    ops = [run_op(cli, argv, tmp_path) for argv in
           (["green", "--alpha", "foo"], ["green", "--no-such-flag"],
            ["watts", "--grid", "3"])]
    bad, usage, good = ops
    assert bad["failed"] and bad["rc"] is None and "ValueError" in bad["error"]
    assert usage["failed"] and usage["rc"] == 2
    assert not good["failed"] and good["pass"] is True
    assert good["bytes"] > 0 and len(good["sha256"]) == 64
    assert not list(tmp_path.iterdir())


def test_covered_merges_overlaps_and_clips():
    assert covered([(1, 4), (3, 6), (8, 12)], 0, 10) == 7
    assert covered([], 0, 10) == 0
    assert covered([(-5, -1)], 0, 10) == 0


def test_self_time_is_duration_minus_time_covered_by_children():
    spans = [_span("cli.main", 0, 10),
             _span("kernels.wedge_kernel", 1, 4, parent=0),
             _span("kernels.projected_wedge_chain", 3, 6, parent=0),
             _span("geometry.build_wedge_lattice", 2, 3, parent=1, ok=False)]
    assert self_times(spans) == [5, 2, 3, 1]
    m = layer_metrics(spans)
    assert m["cli.main.self_s"] == 5 and m["cli.main.calls"] == 1
    assert m["kernels.self_s"] == 5
    assert m["geometry.errors"] == 1 and m["kernels.errors"] == 0
    assert m["simulation.self_s"] == 0


def test_tracer_records_nested_spans_and_restores_the_package(tmp_path, monkeypatch):
    import wedgewalk
    from wedgewalk import analytics, green_reversal, intertwining

    monkeypatch.setenv("WEDGEWALK_OUTDIR", str(tmp_path))
    originals = (cli.main, analytics.watts_closed, wedgewalk.watts_closed)
    tracer = Tracer()
    tracer.install()
    try:
        assert wedgewalk.watts_closed is not originals[2]
        tracer.op = 0
        assert cli.main(["watts", "--grid", "3"]) == 0
        tracer.op = 1
        assert cli.main(["verify-intertwining", "--alpha", "pi/4",
                         "--layers", "6", "--mode", "rational"]) == 0
        tracer.op = 2
        assert cli.main(["green", "--layers", "6"]) == 0
    finally:
        tracer.uninstall()
    assert (cli.main, analytics.watts_closed, wedgewalk.watts_closed) == originals
    assert intertwining.intertwining_residual.__module__ == "wedgewalk.intertwining"
    assert green_reversal.green_vector is wedgewalk.green_vector

    spans = tracer.spans
    roots = [s for s in spans if s.parent == -1]
    assert [s.name for s in roots] == ["cli.main"] * 3
    assert [s.op for s in roots] == [0, 1, 2]
    for i, s in enumerate(spans):
        assert s.parent < i and s.end >= s.start
        if s.parent >= 0:
            p = spans[s.parent]
            assert p.start <= s.start and s.end <= p.end and p.op == s.op
    names = {s.name for s in spans}
    assert {"analytics.watts_closed", "intertwining.intertwining_residual.rational",
            "green_reversal.green_vector.float"} <= names
    assert "geometry.site_index" not in names
    assert tracer.counts["kernels.states"] > 0 and tracer.counts["kernels.nnz"] > 0


def test_percentile_rule_needs_ten_samples_beyond():
    assert tail_percentile(5) is None
    assert tail_percentile(39) is None
    assert tail_percentile(40) == 75
    assert tail_percentile(100) == 90
    assert tail_percentile(1000) == 99
    assert tail_percentile(10000) == 99.9


def test_quartile_spread_is_iqr_over_median():
    assert quartile_spread(range(1, 11)) == pytest.approx((8.25 - 2.75) / 5.5)
    assert quartile_spread([2.0] * 10) == 0


def _rep(argvs, digests, failed=(), traced=False, span_ops=None):
    return {"traced": traced, "counts": {}, "layers": {},
            "span_ops": span_ops or {},
            "ops": [{"argv": a, "sha256": d, "failed": i in failed,
                     "error": None, "rc": 1 if i in failed else 0,
                     "pass": i not in failed, "path_steps": 0}
                    for i, (a, d) in enumerate(zip(argvs, digests))]}


def test_check_reps_flags_failed_ops_and_changed_records():
    argvs = [["green"], ["watts"]]
    assert check_reps([_rep(argvs, "ab"), _rep(argvs, "ab")]) == []
    problems = check_reps([_rep(argvs, "ab"), _rep(argvs, "ac", failed={1})])
    assert any("op 1 (watts) failed" in p for p in problems)
    assert any("op 1 record differs" in p for p in problems)


def test_prediction_sampler_only_inside_simulate():
    argvs = [["simulate-vase"], ["bessel-check"]]
    fine = _rep(argvs, "ab", traced=True, span_ops={
        "simulation.run_paths": [0], "simulation.discrete_hit_prob": [1]})
    assert check_predictions("vase", [fine], 1.0) == []
    bad = _rep(argvs, "ab", traced=True, span_ops={"simulation.padded_kernel": [1]})
    assert check_predictions("vase", [bad], 1.0)[0].startswith("PREDICTION VIOLATED")
    busy = _rep([["green"]], "a", traced=True)
    busy["layers"]["simulation.self_s"] = 0.5
    assert check_predictions("exact-wedge", [busy], 1.0)


def test_benchmark_json_names_real_layer_metrics():
    import importlib

    spec = json.loads(BENCHMARK.read_text())
    e2e = {m["name"]: m for m in spec["end_to_end"]}
    assert e2e["setup_s"]["bound"] == max(m["bound"] for m in e2e.values())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    counters = {"kernels.states", "kernels.nnz", "simulation.path_steps",
                "simulation.paths"}
    for m in spec["per_layer"]:
        name = m["name"]
        assert m["unit"] == unit_of(name), name
        parts = name.split(".")
        if parts[0] not in LAYERS or len(parts) == 2:
            continue
        module = importlib.import_module(f"wedgewalk.{parts[0]}")
        assert callable(getattr(module, parts[1])), name
        if len(parts) == 4:
            assert f"{parts[0]}.{parts[1]}" in SPLIT, name
    two_part = {m["name"] for m in spec["per_layer"]
                if m["name"].split(".")[0] in LAYERS and m["name"].count(".") == 1}
    allowed = counters | {"cli.record_bytes", "simulation.path_steps_per_s"} | {
        f"{layer}.{q}" for layer in LAYERS for q in ("self_s", "errors")}
    assert two_part <= allowed
