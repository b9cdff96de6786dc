"""End-to-end command-line checks, through real subprocesses unless noted."""

from __future__ import annotations

import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from relvoigt import verify
from relvoigt.catalog import PARAMETERS, SUITE_NAMES
from relvoigt.cli import main
from relvoigt.sweep import FUNCTIONS
from relvoigt.verify import VerifyReport

SRC = str(Path(__file__).resolve().parents[1] / "src")
GOLDEN = Path(__file__).resolve().parent / "golden"


def run_python(*argv: str, **kw):
    # the children import relvoigt from this checkout's src, installed or not
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": SRC if not path else SRC + os.pathsep + path}
    return subprocess.run(
        [sys.executable, *argv],
        capture_output=True,
        text=True,
        timeout=120,
        env=env,
        **kw,
    )


def run_cli(*args: str, **kw):
    return run_python("-m", "relvoigt", *args, **kw)


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
    # a sweep's flag set is checked as eval's is: a missing fixed parameter,
    # an axis that is not a parameter, and an axis also given as a flag
    sweep = ["sweep", "h2", "--axis", "u1", "--start", "0", "--stop", "1", "--steps", "3"]
    for argv, message in [
        ([*sweep, "--a", "1"], "missing --u2"),
        ([*sweep[:3], "u", *sweep[4:], "--a", "1", "--u2", "0"], "--axis u is not"),
        ([*sweep, "--a", "1", "--u1", "0", "--u2", "0"], "unexpected --u1"),
    ]:
        r = run_cli(*argv)
        assert r.returncode == 1
        assert r.stderr.startswith("usage error: ") and message in r.stderr
    # and verify has no global override: each check states its own
    r = run_cli("verify", "symmetry", "--tolerance", "5")
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


def test_verify_failure_exits_3(monkeypatch, capsys):
    # in process, so one suite can be swapped for a failing one
    failing = VerifyReport("forced failure", 1, 1.0, 1.0, 0.5, False)
    monkeypatch.setitem(verify._SUITES, "limits", lambda: [failing])
    assert main(["verify", "limits"]) == 3
    assert "FAIL" in capsys.readouterr().out


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


def test_sweep_too_large_for_memory_is_a_domain_error_not_a_traceback():
    # 10^15 steps is 8 PB of grid, beyond the address space, so the
    # allocation is refused at once and nothing is allocated
    r = run_cli(
        "sweep", "h2", "--axis", "a", "--start", "0", "--stop", "1",
        "--steps", "1000000000000000", "--u1", "0", "--u2", "0",
    )
    assert r.returncode == 2
    assert r.stderr.startswith("error: steps=1000000000000000 ")
    assert "Traceback" not in r.stderr and r.stderr.count("\n") == 1
    assert r.stdout == ""


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


# ``python -m relvoigt`` in a child that imports scipy.special first, so
# complex_fn takes the plain scipy import rather than its bare kernel load
PLAIN_SCIPY_MAIN = (
    "import runpy, scipy.special; "
    "runpy.run_module('relvoigt', run_name='__main__', alter_sys=True)"
)


# one eval of each of the seven functions
EVALS = [
    ["eval", "h0", "--a", "0.3", "--u", "1.5"],
    ["eval", "h2", "--a", "1e-6", "--u1", "1", "--u2", "0", "--json"],
    ["eval", "v0", "--e", "1.1", "--mu", "1", "--gamma", "0.2", "--sigma", "0.1"],
    ["eval", "v2", "--e", "1.1", "--mu", "1", "--gamma", "0.2", "--sigma", "0.1"],
    ["eval", "d0", "--sigma", "0.3", "--gamma", "0.5", "--mu", "1"],
    ["eval", "d2", "--sigma", "0.3", "--gamma", "0.5", "--mu", "1"],
    ["eval", "i2", "--a", "0.7", "--u1", "-1", "--u2", "2"],
]


@pytest.mark.parametrize(
    "argv",
    [*EVALS, ["eval", "h2", "--a", "0", "--u1", "1", "--u2", "0"]],
    ids=lambda argv: argv[1] + ("-a0" if argv[3] == "0" else ""),
)
def test_eval_prints_one_record(argv, capsys):
    # in process, against the evaluator: the value, then the estimate and
    # method (h2 alone reports them), then h2's a = 0 note, in one key
    # order as text and as JSON after the function and its parameters
    argv = [arg for arg in argv if arg != "--json"]
    function, flags = argv[1], argv[2:]
    params = {flag[2:]: float(x) for flag, x in zip(flags[::2], flags[1::2])}
    result = FUNCTIONS[function][1](params)
    value = getattr(result, "value", result)
    assert main([*argv, "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    # each key's text line, in order
    printed = {"value": repr(value)}
    assert hasattr(result, "method") == (function == "h2")
    if function == "h2":
        printed |= {"error_estimate": repr(result.error_estimate), "method": result.method}
        assert (doc["error_estimate"], doc["method"]) == (result.error_estimate, result.method)
        if params["a"] == 0.0:
            printed["note"] = doc["note"]
    assert list(doc) == ["function", "params", *printed]
    assert doc["function"] == function
    assert list(doc["params"].items()) == [(n, params[n]) for n in PARAMETERS[function]]
    assert repr(doc["value"]) == repr(value)
    assert main(argv) == 0
    assert capsys.readouterr().out == "".join(f"{k} = {v}\n" for k, v in printed.items())


@pytest.mark.parametrize(
    "argv",
    [
        *EVALS,
        ["sweep", "v2", "--axis", "sigma", "--start", "-0.1", "--stop", "0.3",
         "--steps", "5", "--e", "1", "--mu", "1", "--gamma", "0.5"],
        ["sweep", "h2", "--axis", "a", "--start", "1e-3", "--stop", "3",
         "--steps", "12", "--scale", "log", "--u1", "1", "--u2", "0", "--json"],
        ["verify", "symmetry"],
    ],
    ids=lambda argv: "-".join(argv[:2]) + ("-json" if "--json" in argv else ""),
)
def test_plain_scipy_import_prints_the_same_bytes(argv):
    fast = run_cli(*argv)
    plain = run_python("-c", PLAIN_SCIPY_MAIN, *argv)
    assert fast.returncode == plain.returncode == 0, plain.stderr
    assert fast.stdout == plain.stdout
    assert fast.stdout and fast.stderr == plain.stderr == ""


# ``python -m relvoigt`` with this child's arguments; the names of every
# loaded module go to stderr as its last line, also when the command exits
LIST_MODULES_MAIN = """
import runpy, sys
try:
    runpy.run_module("relvoigt", run_name="__main__", alter_sys=True)
finally:
    print(" ".join(sys.modules), file=sys.stderr)
"""


def loaded_by_command(*argv: str) -> tuple[int, set[str]]:
    r = run_python("-c", LIST_MODULES_MAIN, *argv)
    return r.returncode, set(r.stderr.splitlines()[-1].split())


def loaded_by_code(code: str) -> set[str]:
    r = run_python("-c", code + "\nimport sys; print(' '.join(sys.modules))")
    assert r.returncode == 0, r.stderr
    return set(r.stdout.splitlines()[-1].split())


NUMERIC = {"numpy", "scipy"}
ROUTES = {"relvoigt.quadrature", "relvoigt.routes"}


def test_bare_import_loads_no_submodule():
    loaded = loaded_by_code("import relvoigt")
    assert "relvoigt" in loaded and not NUMERIC & loaded
    assert not [m for m in loaded if m.startswith("relvoigt.")]


def test_closed_form_import_loads_no_route_sweep_verify_or_cli():
    loaded = loaded_by_code("from relvoigt import h2")
    assert "relvoigt.rel_voigt" in loaded
    assert not (ROUTES | {"relvoigt.sweep", "relvoigt.verify", "relvoigt.cli"}) & loaded


def test_sweep_import_builds_no_csv_table():
    # the CSV formatter's lookup tables are built on first use, so a process
    # that imports sweep and never writes CSV does not pay for them
    r = run_python("-c", (
        "import relvoigt.sweep as s\n"
        "cached = [n for n, f in vars(s).items() if hasattr(f, 'cache_info')]\n"
        "print(sorted(cached), [n for n in cached if getattr(s, n).cache_info().currsize])"
    ))
    assert r.returncode == 0, r.stderr
    assert r.stdout.strip() == "['_digits4', '_exponents', '_leads', '_row_ends'] []"


def test_routes_load_neither_the_closed_forms_nor_scipy():
    loaded = loaded_by_code("import relvoigt.routes")
    assert ROUTES <= loaded
    assert not {"relvoigt.rel_voigt", "scipy"} & loaded


def test_integrator_loads_neither_the_result_records_nor_scipy():
    # the integrator returns its own batches; the routes make EvalResults
    loaded = loaded_by_code("import relvoigt.quadrature")
    assert "relvoigt.quadrature" in loaded
    assert not {"relvoigt.result", "relvoigt.routes", "scipy"} & loaded


@pytest.mark.parametrize(
    "argv",
    [
        ["-c", "from relvoigt import h2"],
        ["-m", "relvoigt", "eval", "h2", "--a", "1", "--u1", "0", "--u2", "0"],
    ],
    ids=["from-import", "eval-h2"],
)
def test_importtime_reports_the_lazily_loaded_closed_forms(argv):
    # the lazy namespace loads through __import__, which -X importtime
    # reports; importlib.import_module bypasses it
    r = run_python("-X", "importtime", *argv)
    assert r.returncode == 0, r.stderr
    assert re.search(r"\| +relvoigt\.rel_voigt$", r.stderr, re.MULTILINE), r.stderr


@pytest.mark.parametrize(
    "argv, code",
    [
        *((argv, 0) for argv in EVALS),
        (["eval", "v2", "--e", "1", "--mu", "1", "--gamma", "-0.5", "--sigma", "0.5"], 2),
    ],
    ids=lambda p: "-".join(p[:2]) if isinstance(p, list) else None,
)
def test_eval_loads_no_quadrature_or_verify(argv, code):
    status, loaded = loaded_by_command(*argv)
    assert status == code
    assert "relvoigt.voigt" in loaded
    assert not (ROUTES | {"relvoigt.verify"}) & loaded


@pytest.mark.parametrize(
    "argv, code",
    [
        (["--help"], 0),
        (["eval", "h2", "--a", "1", "--u1", "0"], 1),
        (["sweep", "h2", "--axis", "u1", "--start", "0", "--stop", "1", "--steps", "3",
          "--a", "1"], 1),
    ],
    ids=["help", "usage-error", "sweep-usage-error"],
)
def test_help_and_usage_error_load_no_numpy_or_scipy(argv, code):
    status, loaded = loaded_by_command(*argv)
    assert status == code
    assert "relvoigt.cli" in loaded and not NUMERIC & loaded


# from a fresh interpreter: every public name is listed, star-imported and
# resolved to the object its home module defines, and submodules resolve too
NAMESPACE_CHILD = """
import sys
import relvoigt

assert set(relvoigt.__all__) <= set(dir(relvoigt))
assert not hasattr(relvoigt, "nosuch")
star = {}
exec("from relvoigt import *", star)
for name in relvoigt.__all__:
    obj = getattr(relvoigt, name)
    assert star[name] is obj, name
    if name != "__version__":
        home = sys.modules[obj.__module__]
        assert home is not relvoigt and name in home.__all__, name
        assert getattr(home, name) is obj, name
assert relvoigt.routes is sys.modules["relvoigt.routes"]
from relvoigt import sweep, verify
assert (sweep, verify) == (relvoigt.sweep, relvoigt.verify)
print(len(relvoigt.__all__))
"""


def test_every_public_name_resolves_to_its_home_object():
    r = run_python("-c", NAMESPACE_CHILD)
    assert r.returncode == 0, r.stderr
    assert r.stdout.split() == ["50"]


def test_cli_names_come_from_the_catalog():
    assert {f: names for f, (names, _, _) in FUNCTIONS.items()} == PARAMETERS
    assert all(FUNCTIONS[f][0] is PARAMETERS[f] for f in PARAMETERS)
    assert verify.SUITE_NAMES is SUITE_NAMES
    assert (*verify._SUITES, "all") == SUITE_NAMES
