import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

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


def test_usage_errors():
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["watts", "--no-such-flag"])
    assert exc.value.code == 2


def test_domain_error_exit_code(capsys):
    for argv in (["verify-intertwining", "--alpha", "2.0", "--layers", "10"],
                 ["green", "--alpha", "foo"],
                 ["verify-intertwining", "--shape", "table:/nonexistent.csv"],
                 ["verify-intertwining", "--shape", "power:foo"],
                 ["simulate-vase", "--shape", "linear:foo"],
                 ["strip-check", "--samples", "0"],
                 ["watts", "--grid", "0"],
                 ["vase-generator", "--resolutions", "64"],
                 ["verify-intertwining", "--shape", "power:2", "--resolution", "0"]):
        code = run_cli(argv)
        assert code == 2, argv
        assert "error:" in capsys.readouterr().err, argv


def test_outdir_env(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("WEDGEWALK_OUTDIR", str(tmp_path))
    code = run_cli(["watts", "--grid", "3"])
    capsys.readouterr()
    assert code == 0
    assert (tmp_path / "watts.json").exists()


def test_console_entry_point():
    out = subprocess.run([sys.executable, "-m", "wedgewalk", "--help"],
                         capture_output=True, text=True)
    assert out.returncode == 0
    for cmd in ("verify-intertwining", "simulate-wedge", "simulate-vase",
                "green", "reverse", "watts", "bessel-check", "strip-check",
                "vase-generator"):
        assert cmd in out.stdout


def test_vase_rate_check_memory_scales_with_nonzeros(tmp_path):
    # 16,641 states: dense n x n operators would need more than 2 GB
    with open(tmp_path / "stderr.txt", "w") as err:
        child = subprocess.Popen(
            [sys.executable, "-m", "wedgewalk", "verify-intertwining",
             "--shape", "power:2", "--resolution", "128", "--layers", "128",
             "--output", str(tmp_path / "record.json")],
            stdout=subprocess.DEVNULL, stderr=err, env=child_env())
        _, status, usage = os.wait4(child.pid, 0)
    child.returncode = os.waitstatus_to_exitcode(status)
    assert child.returncode == 0, (tmp_path / "stderr.txt").read_text()
    assert usage.ru_maxrss / 1024 < 600     # ru_maxrss is in KiB on Linux


def test_import_loads_no_scipy():
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, wedgewalk; "
         "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"],
        capture_output=True, text=True, env=child_env())
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


def test_simulate_wedge_loads_no_scipy_sparse(tmp_path):
    # the sampler builds its tables with numpy alone
    record = str(tmp_path / "record.json")
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys; from wedgewalk.cli import main; "
         f"rc = main(['simulate-wedge', '--paths', '2000', '--output', {record!r}]); "
         "print(rc, sorted(m for m in sys.modules if m.startswith('scipy.sparse')))"],
        capture_output=True, text=True, env=child_env())
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip().splitlines()[-1] == "0 []"
