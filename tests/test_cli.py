"""End-to-end command-line checks through real subprocesses."""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parents[1] / "src")
GOLDEN = Path(__file__).resolve().parent / "golden"


def run_cli(*args: str, **kw):
    # the children import relvoigt from this checkout's src, installed or not
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": SRC if not path else SRC + os.pathsep + path}
    return subprocess.run(
        [sys.executable, "-m", "relvoigt", *args],
        capture_output=True,
        text=True,
        timeout=120,
        env=env,
        **kw,
    )


def test_eval_h2_caption_value():
    r = run_cli("eval", "h2", "--a", "1e-6", "--u1", "1", "--u2", "0")
    assert r.returncode == 0
    value = float(r.stdout.split("value =")[1].split("\n")[0])
    assert abs(value - (1.0 + 1.0 / math.e)) < 5e-3
    assert "method = closed_form" in r.stdout


def test_eval_damping_at_zero_sigma():
    r = run_cli("eval", "d0", "--sigma", "0", "--gamma", "0.5", "--mu", "1")
    assert r.returncode == 0
    assert float(r.stdout.split("value =")[1].split("\n")[0]) == 1.0


def test_eval_degenerate_zero_a_notes_divergence():
    r = run_cli("eval", "h2", "--a", "0", "--u1", "1", "--u2", "1")
    assert r.returncode == 0
    assert float(r.stdout.split("value =")[1].split("\n")[0]) == 0.0
    assert "note =" in r.stdout and "diverge" in r.stdout


def test_eval_json_output():
    r = run_cli("eval", "i2", "--a", "1", "--u1", "0", "--u2", "0", "--json")
    assert r.returncode == 0
    doc = json.loads(r.stdout)
    assert doc["function"] == "i2"
    assert list(doc["params"]) == ["a", "u1", "u2"]
    assert abs(doc["value"] - 1.0 / math.sqrt(2.0)) < 1e-15


def test_usage_errors_exit_1():
    assert run_cli("eval", "h2", "--a", "1", "--zzz", "2").returncode == 1
    assert run_cli("eval", "h2", "--a", "1", "--u1", "1").returncode == 1
    assert run_cli("eval", "nosuch", "--a", "1").returncode == 1
    assert run_cli("sweep", "h0", "--axis", "u", "--steps", "3").returncode == 1
    # --tolerance belongs to verify alone
    assert run_cli("eval", "h0", "--a", "1", "--u", "0", "--tolerance", "5").returncode == 1
    r = run_cli(
        "sweep", "h0", "--axis", "u", "--start", "0", "--stop", "1", "--steps", "3",
        "--a", "1", "--tolerance", "5",
    )
    assert r.returncode == 1
    assert "--tolerance" in r.stderr


def test_domain_errors_exit_2():
    r = run_cli("eval", "v2", "--e", "1", "--mu", "-1", "--gamma", "0.5", "--sigma", "0.3")
    assert r.returncode == 2
    assert "mu" in r.stderr
    # sweep spec violations are domain errors too
    r = run_cli(
        "sweep", "h0", "--axis", "u", "--start", "2", "--stop", "-2",
        "--steps", "5", "--a", "1",
    )
    assert r.returncode == 2


def test_verify_failure_exits_3():
    r = run_cli("verify", "limits", "--tolerance", "1e-30")
    assert r.returncode == 3
    assert "FAIL" in r.stdout


def test_verify_symmetry_passes():
    r = run_cli("verify", "symmetry")
    assert r.returncode == 0
    assert "all passed" in r.stdout


def test_verify_json():
    r = run_cli("verify", "symmetry", "--json")
    assert r.returncode == 0
    docs = json.loads(r.stdout)
    assert len(docs) == 4
    assert all(d["passed"] for d in docs)
    assert {"name", "grid_size", "max_abs_deviation", "max_rel_deviation",
            "tolerance", "passed"} <= set(docs[0])


def test_sweep_csv_stdout():
    r = run_cli(
        "sweep", "h0", "--axis", "u", "--start", "-2", "--stop", "2",
        "--steps", "5", "--a", "0.5",
    )
    assert r.returncode == 0
    lines = r.stdout.strip().split("\n")
    assert lines[0] == "u,value,error_estimate,error"
    assert len(lines) == 6
    center = lines[3].split(",")
    assert float(center[0]) == 0.0
    assert 0.0 < float(center[1]) <= 1.0


def test_sweep_output_file_and_error_rows(tmp_path):
    out = tmp_path / "sweep.csv"
    r = run_cli(
        "sweep", "v2", "--axis", "sigma", "--start", "-0.1", "--stop", "0.3",
        "--steps", "5", "--e", "1", "--mu", "1", "--gamma", "0.5",
        "--output", str(out),
    )
    assert r.returncode == 0
    lines = out.read_text().split("\n")
    assert lines[0] == "sigma,value,error_estimate,error"
    assert lines[1].endswith(",,,ParameterError")
    assert lines[3].count(",") == 3 and "Error" not in lines[3]


def test_underflowing_sigma_is_a_domain_error_not_a_traceback():
    # sigma^2 underflows: eval exits 2 with an error line, and a sweep
    # through that region records DomainError rows and exits 0
    r = run_cli("eval", "v2", "--e", "1", "--mu", "1", "--gamma", "0.5", "--sigma", "1e-170")
    assert r.returncode == 2
    assert r.stderr.startswith("error:") and "Traceback" not in r.stderr
    r = run_cli(
        "sweep", "v2", "--axis", "sigma", "--start", "1e-170", "--stop", "1",
        "--steps", "4", "--scale", "log", "--e", "1", "--mu", "1", "--gamma", "0.5",
    )
    assert r.returncode == 0, r.stderr
    lines = r.stdout.split("\n")
    assert lines[1].endswith(",,,DomainError")
    assert lines[4].count(",") == 3 and "Error" not in lines[4]


def test_sweep_json_flag():
    r = run_cli(
        "sweep", "h2", "--axis", "a", "--start", "0.001", "--stop", "3",
        "--steps", "4", "--scale", "log", "--u1", "1", "--u2", "0", "--json",
    )
    assert r.returncode == 0
    doc = json.loads(r.stdout)
    assert doc["scale"] == "log"
    assert len(doc["rows"]) == 4
    # approaches the a -> 0 caption value from below a = 10^-3
    assert abs(doc["rows"][0]["value"] - (1.0 + 1.0 / math.e)) < 2e-3


def test_no_arguments_is_usage_error():
    assert run_cli().returncode == 1


@pytest.mark.parametrize(
    "name, argv",
    [
        ("eval_h2_caption.json", ["eval", "h2", "--a", "1e-6", "--u1", "1", "--u2", "0", "--json"]),
        (
            "sweep_h2_log_a.csv",
            ["sweep", "h2", "--axis", "a", "--start", "1e-3", "--stop", "3",
             "--steps", "12", "--scale", "log", "--u1", "1", "--u2", "0"],
        ),
        (
            "sweep_v2_sigma_errors.csv",
            ["sweep", "v2", "--axis", "sigma", "--start", "-0.1", "--stop", "0.3",
             "--steps", "5", "--e", "1", "--mu", "1", "--gamma", "0.5"],
        ),
        (
            "sweep_v2_sigma_errors.json",
            ["sweep", "v2", "--axis", "sigma", "--start", "-0.1", "--stop", "0.3",
             "--steps", "5", "--e", "1", "--mu", "1", "--gamma", "0.5", "--json"],
        ),
    ],
)
def test_output_matches_golden_file(name, argv, capsys):
    # in process: the printed bytes, not the child start-up, are under test
    from relvoigt.cli import main

    assert main(argv) == 0
    assert capsys.readouterr().out == (GOLDEN / name).read_text()
