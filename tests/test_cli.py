import contextlib
import io
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from wedgewalk.cli import main

SRC = str(Path(__file__).resolve().parent.parent / "src")


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    env.pop("WEDGEWALK_OUTDIR", None)
    return env


def run_cli(args):
    return main(args)


def test_verify_intertwining_rational(capsys):
    code = run_cli(["verify-intertwining", "--alpha", "pi/4",
                    "--layers", "20", "--mode", "rational"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["pass"] is True
    assert out["results"]["residual"] == 0.0
    assert out["version"]


def test_verify_intertwining_vase(capsys):
    code = run_cli(["verify-intertwining", "--shape", "power:2",
                    "--layers", "10", "--resolution", "10"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["results"]["residual"] <= 1e-12
    assert out["results"]["semigroup"]["0.1"] <= 1e-10


def test_watts_command(capsys, tmp_path):
    csv = tmp_path / "curves.csv"
    code = run_cli(["watts", "--grid", "9", "--csv", str(csv)])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["results"]["max_pairwise"] <= 1e-8
    mid = [r for r in out["results"]["grid"] if abs(r["a"] - 0.5) < 1e-9]
    assert mid and mid[0]["closed"] == pytest.approx(0.5, abs=1e-10)
    lines = csv.read_text().strip().splitlines()
    assert lines[0] == "s,watts_closed,watts_composed"
    middle = [l for l in lines[1:] if l.startswith("0.5,")]
    assert middle and float(middle[0].split(",")[1]) == pytest.approx(0.5, abs=1e-9)


def test_simulate_wedge_reproducible(capsys, tmp_path):
    args = ["simulate-wedge", "--alpha", "pi/6", "--stop-layer", "8",
            "--paths", "4000", "--seed", "7", "--bins", "4"]
    f1, f2 = tmp_path / "a.json", tmp_path / "b.json"
    assert run_cli(args + ["--output", str(f1)]) == 0
    assert run_cli(args + ["--output", str(f2)]) == 0
    capsys.readouterr()
    assert f1.read_bytes() == f2.read_bytes()
    rec = json.loads(f1.read_text())
    assert rec["results"]["exit_chi_square"]["p_value"] > 0.001
    assert rec["params"]["seed"] == 7


def test_simulate_vase(capsys):
    code = run_cli(["simulate-vase", "--shape", "power:2", "--resolution", "8",
                    "--stop-layer", "8", "--paths", "4000", "--seed", "3",
                    "--bins", "4"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["results"]["exit_chi_square"]["p_value"] > 0.001


def test_green_command(capsys):
    code = run_cli(["green", "--alpha", "pi/6", "--layers", "30"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    res = out["results"]
    assert res["relative_spread"] <= 1e-10
    # the measured constant matches 1/sin^2, and the mismatch with 1/cos^2
    # is reported rather than hidden
    assert res["match_inv_sin_sq"] <= 1e-8
    assert res["match_inv_cos_sq"] > 0.1


def test_reverse_command(capsys):
    code = run_cli(["reverse", "--alpha", "pi/6", "--layers", "12"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["results"]["table_residual"] <= 1e-12
    assert out["results"]["initial_law_uniform"] is True


def test_reference_constants_are_exact_at_the_special_angles(capsys):
    # 1/sin^2 and 1/cos^2 come from the exact sin^2 = 1/2, and the exact
    # reversed kernel meets its exact table to the last bit
    run_cli(["green", "--alpha", "pi/4", "--layers", "10"])
    res = json.loads(capsys.readouterr().out)["results"]
    assert res["candidate_inv_sin_sq"] == res["candidate_inv_cos_sq"] == 2.0
    run_cli(["reverse", "--alpha", "pi/4", "--mode", "rational", "--layers", "8"])
    assert json.loads(capsys.readouterr().out)["results"]["table_residual"] == 0.0


def test_rational_reverse_at_thirty_layers(capsys):
    # the exact apex Green vector of the 961-state kernel, lifted from the
    # radial chain, feeds the exact reversal
    code = run_cli(["reverse", "--alpha", "pi/6", "--mode", "rational",
                    "--layers", "30"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0 and out["pass"] is True
    assert out["results"]["initial_law_uniform"] is True


def test_bessel_check_command(capsys):
    code = run_cli(["bessel-check", "--i", "50", "--a", "25", "--b", "200"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["results"]["difference"] <= 0.02


def test_strip_check_command(capsys):
    code = run_cli(["strip-check", "--t", "0.25", "1.0", "--samples", "20000"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    for rec in out["results"]["ks"].values():
        assert rec["distance"] < rec["critical_0.001"]


def test_vase_generator_command(capsys):
    code = run_cli(["vase-generator", "--shape", "power:2", "--x", "1.0",
                    "--resolutions", "32", "64"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert all(0.3 <= r <= 0.7 for r in out["results"]["ratios"])


@pytest.mark.parametrize("argv, code", [
    # on a cone the first-order term fades with x: ratio 0.252, second order
    (["--shape", "linear:1", "--x", "300", "--resolutions", "64", "128"], 0),
    # x = 0.7 and 1.3 lie between layers; scored at the layer's abscissa the
    # ratios are 0.489, 0.502 and 0.501, 0.498
    (["--shape", "power:1.5", "--x", "0.7", "--resolutions", "64", "128", "256"], 0),
    (["--shape", "power:2", "--x", "1.3", "--resolutions", "64", "128", "256"], 0),
], ids=["linear:1 x=300", "power:1.5 x=0.7", "power:2 x=1.3"])
def test_vase_generator_passes_convergence_of_first_order_or_faster(argv, code, capsys):
    assert run_cli(["vase-generator"] + argv) == code
    out = json.loads(capsys.readouterr().out)
    assert set(out["results"]) == {"residuals", "ratios"}
    assert out["pass"] is (code == 0)


def test_vase_generator_ratio_bound_is_0_7(monkeypatch, capsys):
    from wedgewalk import analytics

    for residuals, code in (([1.0, 0.7, 1e-300], 0), ([1.0, 0.7000001], 1),
                            ([1.0, 0.5, 0.5], 1)):
        by_n = dict(zip((16, 32, 64), residuals))
        monkeypatch.setattr(analytics, "generator_residual",
                            lambda shape, f, fp, fpp, x, n: by_n[n])
        argv = ["vase-generator", "--resolutions"] + [str(n) for n in by_n]
        assert run_cli(argv) == code
        assert json.loads(capsys.readouterr().out)["pass"] is (code == 0)


def test_usage_errors():
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["watts", "--no-such-flag"])
    assert exc.value.code == 2


def test_domain_error_exit_code(capsys, tmp_path, monkeypatch):
    sim_wedge = ["simulate-wedge", "--stop-layer", "4", "--paths", "100"]
    sim_vase = ["simulate-vase", "--resolution", "4", "--stop-layer", "4",
                "--paths", "100"]
    for argv in (["verify-intertwining", "--alpha", "2.0", "--layers", "10"],
                 ["green", "--alpha", "foo"],
                 ["verify-intertwining", "--shape", "table:/nonexistent.csv"],
                 ["verify-intertwining", "--shape", "power:foo"],
                 ["simulate-vase", "--shape", "linear:foo"],
                 ["strip-check", "--samples", "0"],
                 ["watts", "--grid", "0"],
                 ["vase-generator", "--resolutions", "64"],
                 ["verify-intertwining", "--shape", "power:2", "--resolution", "0"],
                 sim_wedge + ["--seed", "-1"],
                 sim_vase + ["--seed", "-5"],
                 ["strip-check", "--samples", "100", "--seed", "-1"],
                 sim_wedge + ["--workers", "0"],
                 sim_wedge + ["--workers", "-2"],
                 ["strip-check", "--samples", "100", "--t", "nan"],
                 ["strip-check", "--samples", "100", "--t", "inf"],
                 ["verify-intertwining", "--alpha", "0.9", "--layers", "6",
                  "--mode", "float", "--tolerance", "nan"],
                 ["vase-generator", "--resolutions", "0", "64"],
                 ["vase-generator", "--resolutions", "16", "32", "--x", "nan"],
                 ["bessel-check", "--beta", "1.5", "--i", "5", "--a", "-1",
                  "--b", "10", "--resolution", "10"],
                 ["watts", "--grid", "3", "--output", "/no/such/dir/x.json"],
                 ["green", "--layers", "5", "--csv", "/no/such/dir/g.csv"],
                 "WEDGEWALK_OUTDIR names a file"):
        if isinstance(argv, str):
            (tmp_path / "file").write_text("")
            monkeypatch.setenv("WEDGEWALK_OUTDIR", str(tmp_path / "file"))
            argv = ["watts", "--grid", "3"]
        code = run_cli(argv)
        err = capsys.readouterr().err
        assert code == 2, argv
        assert "error:" in err, argv
        if argv[1:] == ["--resolutions", "0", "64"]:
            assert "resolution must be at least 1" in err


@pytest.mark.parametrize("argv", [
    ["vase-generator", "--x", "1e200"],
    ["vase-generator", "--x", "1e9"],
    ["vase-generator", "--shape", "linear:1e300", "--x", "1e10"],
    ["verify-intertwining", "--shape", "power:1e308", "--layers", "3"],
    ["bessel-check", "--beta", "1e308"]], ids=" ".join)
def test_shape_overflow_and_oversized_grids_exit_2(argv, capsys):
    # a shape value that overflows, or a layer count past the int32 layer
    # arrays, is a domain error and not a traceback
    assert run_cli(argv) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_unwritable_output_is_refused_before_the_work(tmp_path, monkeypatch,
                                                      capsys):
    from wedgewalk import cli

    def work(args):
        raise AssertionError("the command ran")

    monkeypatch.setattr(cli, "cmd_watts", work)
    assert run_cli(["watts", "--output", str(tmp_path / "no" / "x.json")]) == 2
    assert run_cli(["watts", "--output", str(tmp_path)]) == 2
    monkeypatch.setenv("WEDGEWALK_OUTDIR", str(tmp_path / "made" / "here"))
    with pytest.raises(AssertionError):
        run_cli(["watts"])
    assert (tmp_path / "made" / "here").is_dir()
    capsys.readouterr()


# sha256 of two small sampler records: a change to the random stream or to
# any step decision moves them
PINNED_RECORDS = {
    "simulate-wedge":
        (["simulate-wedge", "--stop-layer", "6", "--paths", "3000", "--seed", "11",
          "--bins", "4"],
         "d49226d27e3483d3c1a5af490b24681bb82704a08c6c15a558139cf01ada770a"),
    "simulate-vase":
        (["simulate-vase", "--resolution", "6", "--stop-layer", "6", "--paths",
          "3000", "--seed", "12", "--bins", "4"],
         "dc7e419c2604692a9e5d1bed02a60a724393f58d07df89134165e9e7de175401"),
    # 7-bit buckets, many of them split by a threshold
    "simulate-wedge-alpha-0.9":
        (["simulate-wedge", "--alpha", "0.9", "--stop-layer", "6", "--paths",
          "3000", "--seed", "13", "--bins", "4"],
         "df90bb76ecc7eb6f66ebd25c0c7f51994d20251abe1e3e96965e093445af032a"),
    # two blocks of 65536 paths, walked by two workers
    "simulate-wedge-two-blocks":
        (["simulate-wedge", "--stop-layer", "4", "--paths", "70000", "--seed", "14",
          "--bins", "4", "--workers", "2"],
         "dafad9ea06830f3a1c222f8bc6fb90b029d4f7a380919b8eb4381f2e6ad257ec"),
}


@pytest.mark.parametrize("argv,digest", list(PINNED_RECORDS.values()),
                         ids=list(PINNED_RECORDS))
def test_sampler_stream_is_pinned(argv, digest, tmp_path, capsys):
    import hashlib

    path = tmp_path / "record.json"
    assert run_cli(argv + ["--output", str(path)]) == 0
    capsys.readouterr()
    record = json.loads(path.read_text())
    record.pop("version")          # a release bump is not a change of draws
    text = json.dumps(record, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_sampler_results_do_not_depend_on_the_worker_count(tmp_path, capsys):
    # the two-block run: only the record's params name the worker count
    argv, _ = PINNED_RECORDS["simulate-wedge-two-blocks"]
    results = []
    for workers in ("1", "2"):
        path = tmp_path / f"record-{workers}.json"
        assert run_cli(argv[:-1] + [workers, "--output", str(path)]) == 0
        results.append(json.loads(path.read_text())["results"])
    capsys.readouterr()
    assert results[0] == results[1]


def _argv_from_params(command, params):
    argv = [command]
    for key, value in params.items():
        if value is None:
            continue
        values = value if isinstance(value, list) else [value]
        argv += ["--" + key.replace("_", "-"), *map(str, values)]
    return argv


# One small run of every subcommand, on every code path of the CLI.
SMALL_RUNS = [
    ["verify-intertwining", "--alpha", "pi/4", "--layers", "8", "--mode", "rational"],
    ["verify-intertwining", "--shape", "power:2", "--resolution", "6", "--layers", "6"],
    ["simulate-wedge", "--stop-layer", "5", "--paths", "500", "--seed", "3", "--bins", "3"],
    ["simulate-vase", "--resolution", "5", "--stop-layer", "5", "--paths", "500",
     "--seed", "4", "--bins", "3"],
    ["green", "--alpha", "pi/3", "--layers", "10"],
    ["reverse", "--layers", "8", "--mode", "rational"],
    ["watts", "--grid", "3"],
    ["bessel-check", "--beta", "1.5", "--resolution", "40"],
    ["strip-check", "--t", "0.5", "2", "--samples", "500", "--seed", "2"],
    ["vase-generator", "--x", "1.5", "--resolutions", "16", "32"],
]


@pytest.mark.parametrize("argv", SMALL_RUNS, ids=lambda argv: " ".join(argv[:3]))
def test_record_reproduces_from_its_params(argv, tmp_path, capsys):
    first, second = tmp_path / "first.json", tmp_path / "second.json"
    run_cli(argv + ["--output", str(first)])
    record = json.loads(first.read_text())
    run_cli(_argv_from_params(argv[0], record["params"]) + ["--output", str(second)])
    capsys.readouterr()
    assert second.read_bytes() == first.read_bytes()


# Small runs of every subcommand, each with the numeric options the fuzz may
# overwrite.  Sizes stay small so that no drawn token makes a long run.
FUZZ_BASES = [
    (["verify-intertwining", "--layers", "6"], ["alpha", "layers", "tolerance"]),
    (["verify-intertwining", "--alpha", "0.9", "--mode", "float", "--layers", "6"],
     ["layers", "tolerance"]),
    (["verify-intertwining", "--shape", "power:2", "--layers", "6",
      "--resolution", "6"], ["layers", "resolution", "tolerance"]),
    (["simulate-wedge", "--stop-layer", "4", "--paths", "200", "--bins", "2"],
     ["alpha", "stop-layer", "paths", "seed", "bins", "workers"]),
    (["simulate-vase", "--resolution", "4", "--stop-layer", "4", "--paths", "200",
      "--bins", "2"], ["resolution", "stop-layer", "paths", "seed", "bins", "workers"]),
    (["green", "--layers", "6"], ["alpha", "layers"]),
    (["reverse", "--layers", "6"], ["alpha", "layers"]),
    (["watts", "--grid", "3"], ["grid"]),
    (["bessel-check", "--i", "5", "--a", "2", "--b", "10"], ["i", "a", "b", "beta"]),
    (["bessel-check", "--beta", "1.5", "--i", "5", "--a", "2", "--b", "10",
      "--resolution", "10"], ["i", "a", "b", "beta", "resolution"]),
    (["strip-check", "--t", "1", "--samples", "200"], ["t", "samples", "seed"]),
    (["vase-generator", "--resolutions", "16", "32"], ["x", "resolutions"]),
]
FUZZ_CASES = [(base, opt) for base, opts in FUZZ_BASES for opt in opts]
FUZZ_TOKENS = ["-1", "0", "nan", "inf", "-inf", "1e400", "foo", "2.5", ""]


def _reject_constant(token):
    raise ValueError(f"{token} is not JSON")


@settings(max_examples=400, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=st.sampled_from(FUZZ_CASES), token=st.sampled_from(FUZZ_TOKENS))
def test_cli_contract_under_malformed_numbers(case, token, monkeypatch):
    monkeypatch.delenv("WEDGEWALK_OUTDIR", raising=False)
    base, option = case
    argv = base + [f"--{option}={token}"]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            code = main(argv)
        except SystemExit as exc:       # argparse rejects the token
            assert exc.code == 2, argv
            return
    assert not caught, (argv, [str(w.message) for w in caught])
    assert code in (0, 1, 2), argv
    if code == 2:
        assert "error:" in err.getvalue(), argv
    else:
        json.loads(out.getvalue(), parse_constant=_reject_constant)


def test_outdir_env(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("WEDGEWALK_OUTDIR", str(tmp_path))
    code = run_cli(["watts", "--grid", "3"])
    capsys.readouterr()
    assert code == 0
    assert (tmp_path / "watts.json").exists()


def test_console_entry_point():
    out = subprocess.run([sys.executable, "-m", "wedgewalk", "--help"],
                         capture_output=True, text=True, env=child_env())
    assert out.returncode == 0
    for cmd in ("verify-intertwining", "simulate-wedge", "simulate-vase",
                "green", "reverse", "watts", "bessel-check", "strip-check",
                "vase-generator"):
        assert cmd in out.stdout


# Runs the CLI, then prints the process's own peak RSS line from
# /proc/self/status.  VmHWM starts afresh at exec, while wait4's ru_maxrss
# would also count the RSS of the forking test process.
_REPORT_PEAK = ("import sys; from wedgewalk.cli import main; code = main(sys.argv[1:]); "
                "print(*[l for l in open('/proc/self/status') if l.startswith('VmHWM:')]); "
                "sys.exit(code)")


def _peak_mb(tmp_path, argv):
    """Peak RSS, in MB, of a child process running the CLI on ``argv``.  Its
    address space is capped at 4 GB, so that a regression fails here instead
    of being OOM-killed."""
    import resource

    cap = lambda: resource.setrlimit(resource.RLIMIT_AS, (4 << 30, 4 << 30))
    out = subprocess.run(
        [sys.executable, "-c", _REPORT_PEAK, *argv, "--output", str(tmp_path / "record.json")],
        capture_output=True, text=True, env=child_env(), preexec_fn=cap)
    assert out.returncode == 0, out.stderr
    return int(out.stdout.split()[-2]) / 1024       # VmHWM is in kB


def _vase_check_peak_mb(tmp_path, K):
    """Peak RSS, in MB, of the vase rate and semigroup checks at resolution =
    layers = K."""
    return _peak_mb(tmp_path, ["verify-intertwining", "--shape", "power:2",
                               "--resolution", str(K), "--layers", str(K)])


def test_vase_rate_check_memory_scales_with_nonzeros(tmp_path):
    # 16,641 states: dense n x n operators would need more than 2 GB, and
    # dense (K+1) x (K+1)^2 semigroup arrays about 180 MB
    assert _vase_check_peak_mb(tmp_path, 128) < 150


def test_vase_rate_check_fits_at_256_layers(tmp_path):
    # 66,049 states; the dense semigroup arrays alone would take 1 GB, and the
    # streamed check on numpy peaked at 95 MB as a whole process (99 MB with
    # scipy.sparse; Python 3.11, numpy 2.4)
    assert _vase_check_peak_mb(tmp_path, 256) < 130


def test_wedge_float_check_at_1000_layers_is_set_by_the_kernel(tmp_path):
    # 1,002,001 sites.  The residual expanded both products over all rows at
    # once: 674 MB as a whole process.  Blocks of radial rows leave the peak
    # to the kernel build, 212 MB (Python 3.11, numpy 2.4)
    argv = ["verify-intertwining", "--alpha", "pi/6", "--mode", "float", "--layers", "1000"]
    assert _peak_mb(tmp_path, argv) < 300


def test_wedge_exact_check_at_1000_layers_keeps_int64_arrays(tmp_path):
    # 1,002,001 sites over exact rows.  With Python-int lists and object
    # arrays the whole process peaked at 253-259 MB, on int64 arrays at
    # 207-212 MB (Python 3.11, numpy 2.4)
    argv = ["verify-intertwining", "--alpha", "pi/6", "--mode", "rational", "--layers", "1000"]
    assert _peak_mb(tmp_path, argv) < 240
    record = json.loads((tmp_path / "record.json").read_text())
    assert record["pass"] is True and record["results"]["report"]["mode"] == "rational"


def test_a_run_whose_walks_never_stop_exits_2_at_once(tmp_path):
    # at alpha = 1e-300 sin^2 underflows, no walk leaves layer 1, and a run
    # to the 10^8-step cap would take minutes
    out = subprocess.run(
        [sys.executable, "-m", "wedgewalk", "simulate-wedge", "--alpha", "1e-300",
         "--stop-layer", "3", "--paths", "10", "--output", str(tmp_path / "record.json")],
        capture_output=True, text=True, env=child_env(), timeout=5)
    assert out.returncode == 2, out.stderr
    assert out.stderr.startswith("error: ") and "Traceback" not in out.stderr, out.stderr
    assert not (tmp_path / "record.json").exists()


def test_a_semigroup_check_whose_weights_underflow_exits_2_at_once(tmp_path):
    # lam = 10101 at linear:100, so exp(-lam t) underflows to 0: the check
    # used to sum 500,000 zero weights and pass with residuals 0.0
    out = subprocess.run(
        [sys.executable, "-m", "wedgewalk", "verify-intertwining", "--shape", "linear:100",
         "--layers", "4", "--resolution", "4", "--output", str(tmp_path / "record.json")],
        capture_output=True, text=True, env=child_env(), timeout=5)
    assert out.returncode == 2, out.stderr
    assert out.stderr.startswith("error: ") and "Traceback" not in out.stderr, out.stderr
    assert "lam*t = 1010.1 " in out.stderr
    assert not (tmp_path / "record.json").exists()


def test_a_run_too_large_for_memory_exits_2(tmp_path):
    # 9 million sites: the float kernel's arrays alone need more than the
    # 1.5 GB of address space the child gets, so the run ends with an error
    # line and the usage exit code instead of a traceback
    import resource

    cap = lambda: resource.setrlimit(resource.RLIMIT_AS, (3 << 29, 3 << 29))
    out = subprocess.run(
        [sys.executable, "-m", "wedgewalk", "simulate-wedge", "--stop-layer", "3000",
         "--paths", "10", "--output", str(tmp_path / "record.json")],
        capture_output=True, text=True, env=child_env(), preexec_fn=cap, timeout=300)
    assert out.returncode == 2, out.stderr
    assert out.stderr.startswith("error: ") and "Traceback" not in out.stderr, out.stderr
    assert not (tmp_path / "record.json").exists()


def _loaded_by_import(*packages):
    """The modules of ``packages`` that ``import wedgewalk`` loads."""
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, wedgewalk; "
         f"print(sorted(m for m in sys.modules if m.split('.')[0] in {packages!r}))"],
        capture_output=True, text=True, env=child_env())
    assert out.returncode == 0, out.stderr
    return out.stdout.strip()


def test_import_loads_no_scipy():
    assert _loaded_by_import("scipy") == "[]"


def test_import_loads_no_process_pool():
    # run_paths imports the pool only when it walks blocks in worker processes
    assert _loaded_by_import("concurrent", "multiprocessing") == "[]"


def _scipy_sparse_loaded_by(tmp_path, argv):
    record = str(tmp_path / "record.json")
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys; from wedgewalk.cli import main; "
         f"rc = main({argv!r} + ['--output', {record!r}]); "
         "print(rc, sorted(m for m in sys.modules if m.startswith('scipy.sparse')))"],
        capture_output=True, text=True, env=child_env())
    assert out.returncode == 0, out.stderr
    return out.stdout.strip().splitlines()[-1]


def test_simulate_wedge_loads_no_scipy_sparse(tmp_path):
    # the sampler builds its tables with numpy alone
    assert _scipy_sparse_loaded_by(
        tmp_path, ["simulate-wedge", "--paths", "2000"]) == "0 []"


def test_simulate_vase_loads_no_scipy_sparse(tmp_path):
    # so do the vase rate matrix and its jump chain
    assert _scipy_sparse_loaded_by(
        tmp_path, ["simulate-vase", "--paths", "2000"]) == "0 []"


@pytest.mark.parametrize("argv", [["green"], ["reverse"], ["reverse", "--mode", "rational"]],
                         ids=" ".join)
def test_green_and_reverse_load_no_scipy_sparse(argv, tmp_path):
    # the reachability check transposes the pattern with numpy, and reverse
    # reads its two table entries from the float CSR arrays
    assert _scipy_sparse_loaded_by(tmp_path, argv) == "0 []"


def test_sampler_curve_and_radial_subcommands_load_no_scipy(tmp_path):
    # the incomplete beta, its inverse and the chi-square tail are closed
    # forms on math alone, and the intertwining residual and the semigroup
    # check multiply the operators' CSR arrays with numpy; only strip-check
    # (the Kolmogorov law), table: shapes and the fallback solves load scipy.
    # Nor does any of them load numpy.ma: the fitted Green constant is a
    # median over np.sort, as np.median would import numpy.ma (11-16 ms)
    record = str(tmp_path / "record.json")
    argvs = [["simulate-wedge", "--paths", "2000"], ["simulate-vase", "--paths", "2000"],
             ["watts", "--grid", "3"], ["watts", "--grid", "99"], ["green"],
             ["green", "--layers", "50"], ["reverse"],
             ["reverse", "--mode", "rational"], ["bessel-check"],
             ["bessel-check", "--beta", "1.5"], ["vase-generator"]]
    argvs += [["verify-intertwining", "--alpha", alpha, "--mode", "rational", "--layers", "30"]
              for alpha in ("pi/6", "pi/4", "pi/3")]
    argvs += [["verify-intertwining", "--mode", "float", "--layers", "30"],
              ["verify-intertwining", "--alpha", "0.9", "--layers", "30"],
              ["verify-intertwining", "--shape", "power:2", "--layers", "20", "--resolution", "20"]]
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys; from wedgewalk.cli import main\n"
         f"print([main(argv + ['--output', {record!r}]) for argv in {argvs!r}])\n"
         "print(sorted(m for m in sys.modules if m.startswith('scipy')))\n"
         "print(sorted(m for m in sys.modules if m.split('.')[:2] == ['numpy', 'ma']))"],
        capture_output=True, text=True, env=child_env())
    assert out.returncode == 0, out.stderr
    codes, loaded, masked = out.stdout.strip().splitlines()[-3:]
    assert codes == str([0] * len(argvs))
    assert loaded == "[]"
    assert masked == "[]"


def test_vase_generator_far_from_the_apex_ends_with_exit_2(tmp_path):
    # x = 2000 lies at layer 2.56e8 of power:2 at resolution 64: the residual
    # solves only the three abscissas that it reads, and f = exp(-x) = 0 there
    # leaves no convergence ratio to form
    out = subprocess.run(
        ["timeout", "5", sys.executable, "-m", "wedgewalk", "vase-generator",
         "--x", "2000", "--resolutions", "64", "128",
         "--output", str(tmp_path / "record.json")],
        capture_output=True, text=True, env=child_env(), timeout=60)
    assert out.returncode == 2, out.stderr
    assert out.stderr.startswith("error: ") and "Traceback" not in out.stderr, out.stderr
    assert "no convergence ratio" in out.stderr
    assert not (tmp_path / "record.json").exists()


def test_radial_solves_load_no_scipy_linalg(tmp_path):
    # the apex Green vector and the radial hitting probability are
    # birth-death recurrences; scipy.sparse.linalg would also load scipy.linalg
    record = str(tmp_path / "record.json")
    argvs = [["green"], ["green", "--layers", "50"], ["reverse", "--layers", "30"],
             ["bessel-check"],
             ["bessel-check", "--beta", "1.5", "--i", "50", "--a", "25", "--b", "200"]]
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys; from wedgewalk.cli import main\n"
         f"print([main(argv + ['--output', {record!r}]) for argv in {argvs!r}])\n"
         "print(sorted(m for m in sys.modules\n"
         "             if m.startswith(('scipy.linalg', 'scipy.sparse.linalg'))))"],
        capture_output=True, text=True, env=child_env())
    assert out.returncode == 0, out.stderr
    codes, loaded = out.stdout.strip().splitlines()[-2:]
    assert codes == str([0] * len(argvs))
    assert loaded == "[]"


def test_reverse_builds_only_the_planar_kernel(monkeypatch, capsys):
    from wedgewalk import intertwining, kernels

    def unused(*args, **kwargs):
        raise AssertionError("reverse built an operator it does not read")

    monkeypatch.setattr(kernels, "projected_wedge_chain", unused)
    monkeypatch.setattr(intertwining, "build_link", unused)
    assert run_cli(["reverse", "--layers", "8"]) == 0
    assert json.loads(capsys.readouterr().out)["results"]["table_residual"] <= 1e-12


class _Unread:
    """Stands in for the ``rows`` view: reading it fails the test."""

    def __get__(self, op, owner=None):
        if op is None:
            return self
        raise AssertionError(f"{type(op).__name__}.rows was read")


@pytest.mark.parametrize("argv", SMALL_RUNS, ids=lambda argv: " ".join(argv[:3]))
def test_no_subcommand_reads_dict_rows(argv, tmp_path, monkeypatch, capsys):
    # every operator is read through its CSR arrays
    from wedgewalk.kernels import _CSROperator

    monkeypatch.setattr(_CSROperator, "rows", _Unread())
    assert run_cli(argv + ["--output", str(tmp_path / "record.json")]) == 0
    capsys.readouterr()


def test_no_subcommand_loads_scipy_integrate_or_optimize(tmp_path):
    # quadrature is numpy tanh-sinh; scipy.integrate would also pull in
    # scipy.optimize, scipy.spatial and more
    record = str(tmp_path / "record.json")
    argvs = SMALL_RUNS + [["bessel-check"]]
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys; from wedgewalk.cli import main\n"
         f"print([main(argv + ['--output', {record!r}]) for argv in {argvs!r}])\n"
         "print(sorted(m for m in sys.modules\n"
         "             if m.startswith(('scipy.integrate', 'scipy.optimize'))))"],
        capture_output=True, text=True, env=child_env())
    assert out.returncode == 0, out.stderr
    codes, loaded = out.stdout.strip().splitlines()[-2:]
    assert codes == str([0] * len(argvs))
    assert loaded == "[]"
