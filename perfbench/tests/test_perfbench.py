"""Smoke tests of the benchmark itself (not part of the package's test suite).

Run from the repository root:

    python3 -m pytest perfbench/tests -q

The tiny workload runs start real interpreters and take about two minutes
in total, most of it one pass of the verify suites.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import gen  # noqa: E402
import ref  # noqa: E402
import relvoigt  # noqa: E402
from layers import bind  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def _result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_reports_every_end_to_end_metric(workload):
    result = _result(_run("--workload", workload, "--seed", "3", "--seconds", "0.2", "--trace", "0"))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    names = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == names
    for name, m in result["metrics"].items():
        assert math.isfinite(m["value"]) and m["value"] > 0, name


def test_traced_run_reports_every_per_layer_metric():
    proc = _run("--workload", "point_eval", "--seed", "3", "--seconds", "0.2", "--trace", "1")
    result = _result(proc)
    names = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == names
    assert "tracing overhead:" in proc.stdout
    assert (ROOT / ".perfbench" / "spans-point_eval-3.json").is_file()


def test_known_defects_show_in_point_eval():
    proc = _run("--workload", "point_eval", "--seed", "4", "--seconds", "0.2", "--trace", "1")
    metrics = _result(proc)["metrics"]
    assert metrics["check.bound_violation_share"]["value"] > 0
    assert metrics["check.failed_share"]["value"] > 0


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "point_eval", "--seed", "1", "--seconds", "1", "--trace", "0",
                cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_same_seed_same_inputs():
    assert gen.point_stream(7) == gen.point_stream(7)
    assert gen.sweep_specs(7) == gen.sweep_specs(7)
    assert gen.cli_invocations(7) == gen.cli_invocations(7)
    assert gen.point_stream(7) != gen.point_stream(8)
    assert gen.sweep_specs(7) != gen.sweep_specs(8)


def test_stated_shares_are_exact():
    stream = gen.point_stream(11)
    counts = {r: sum(1 for x, _, _ in stream if x == r) for r in gen.POINT_COUNTS}
    assert counts == gen.POINT_COUNTS
    specs = gen.sweep_specs(11)
    assert {s["function"] for s in specs} == set(gen.FUNCTIONS)
    assert sorted(s["steps"] for s in specs if s["function"] == "h2") == sorted(gen.SWEEP_STEPS)
    assert {s.get("scale", "linear") for s in specs} == {"linear", "log"}


BENIGN = [
    ("h0", {"a": 0.5, "u": 1.0}),
    ("h0", {"a": 3.0, "u": -2.5}),
    ("h2", {"a": 1.0, "u1": 0.5, "u2": -0.3}),
    ("h2", {"a": 0.1, "u1": 3.0, "u2": -2.0}),
    ("i2", {"a": 0.3, "u1": 1.0, "u2": 2.0}),
    ("v0", {"e": 1.2, "mu": 1.0, "gamma": 0.4, "sigma": 0.3}),
    ("v2", {"e": 1.2, "mu": 1.0, "gamma": 0.4, "sigma": 0.3}),
    ("d0", {"sigma": 0.3, "gamma": 0.5, "mu": 1.0}),
    ("d2", {"sigma": 0.3, "gamma": 0.5, "mu": 1.0}),
]


@pytest.mark.parametrize("function,params", BENIGN)
def test_reference_agrees_with_package_at_benign_points(function, params):
    fn, args = bind(function, params)
    value = float(getattr(fn(*args), "value", fn(*args)))
    assert value == pytest.approx(ref.reference(function, params), rel=1e-12)


@pytest.mark.parametrize(
    "a,u1,u2",
    [
        (1.0, 0.5, -0.3),
        (1e-10, 2.0, 2.0001),  # ROADMAP 3 (a): the series box
        (1e-8, 6.0, 6.0),  # ROADMAP 3 (b): diagonal, large u, tiny a
        (1e-12, 9.0, 9.0),
        (2.0, 40.0, -35.0),
    ],
)
def test_h2_reference_matches_defining_integral(a, u1, u2):
    closed = ref.h2_mp(a, u1, u2)
    assert abs(ref.quad_h2(a, u1, u2) - closed) <= 1e-25 * abs(closed)


def test_h2_reference_known_values():
    assert float(ref.h2_mp(1e-10, 2.0, 2.0001)) == pytest.approx(366.0200403561194, rel=1e-15)
    # far poles: the overflow input of ROADMAP 3 (c), a / (sqrt(pi) u1^2 u2^2)
    tiny = ref.h2_mp(1.0, 1e200, -1e200)
    assert float(tiny * 10**800) == pytest.approx(1.0 / math.sqrt(math.pi), rel=1e-15)
    # sigma -> 0: v2 tends to the relativistic Breit-Wigner
    bare = relvoigt.bw_rel(1.3, relvoigt.ProfileParams(mu=1.0, gamma=0.5, sigma=1.0))
    assert float(ref.v2_mp(1.3, 1.0, 0.5, 1e-160)) == pytest.approx(bare, rel=1e-14)


@pytest.mark.parametrize("a,u", [(0.5, 1.0), (1e-3, 2.0), (5.0, 0.1)])
def test_h0_reference_matches_defining_integral(a, u):
    closed = ref.h0_mp(a, u)
    assert abs(ref.quad_h0(a, u) - closed) <= 1e-25 * abs(closed)
