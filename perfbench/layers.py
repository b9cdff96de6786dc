"""Per-layer probes for the traced run.

Each probe calls one layer's public functions with spans around every
call, so a layer's time is measured where the work happens.  Spans live
only here, in the benchmark; the package is not instrumented.  The
evaluator probe replays the current workload's own points; the other
probes use inputs drawn from the same seed.
"""

from __future__ import annotations

import contextlib
import io
import math
import re

import numpy as np
import scipy.special

import relvoigt
from relvoigt import sweep, verify
from relvoigt.cli import main as cli_main

import gen
from common import Tracer, clock, run_child

SUITES = ("symmetry", "oracle", "representations", "limits")
H2_METHODS = ("closed_form", "degenerate_series")


def bind(function: str, p: dict):
    """(callable, args) of the public evaluator for a parameter dict."""
    if function == "h0":
        return relvoigt.h0, (p["a"], p["u"])
    if function in ("h2", "i2"):
        fn = relvoigt.h2 if function == "h2" else relvoigt.i2_closed
        return fn, (p["a"], p["u1"], p["u2"])
    if function in ("v0", "v2"):
        fn = relvoigt.v0 if function == "v0" else relvoigt.v2
        return fn, (p["e"], relvoigt.ProfileParams(mu=p["mu"], gamma=p["gamma"], sigma=p["sigma"]))
    fn = relvoigt.d0 if function == "d0" else relvoigt.d2
    return fn, (p["sigma"], p["gamma"], p["mu"])


def _span_name(function: str, result) -> str:
    if isinstance(result, Exception):
        return f"eval.{function}.raised"
    if function == "h2":
        return f"rel_voigt.h2.{result.method}"
    layer = "voigt" if function in ("h0", "v0") else "rel_voigt"
    return f"{layer}.{function}"


def _w_args(a: float, u1: float, u2: float) -> list[complex]:
    ps = relvoigt.pole_set(a, u1, u2)
    return [ps.t1_plus, -ps.t1_minus, -ps.t2_plus, ps.t2_minus]


def probe_evaluators(tr: Tracer, points: list[tuple[str, dict]]) -> list[complex]:
    """Replay points through the evaluators, then reduce_rel, pole_set and w.

    Returns the Faddeeva arguments met on the way (the kernel's inputs).
    """
    zs: list[complex] = []
    for function, p in points:
        fn, args = bind(function, p)
        t0 = clock()
        try:
            r = fn(*args)
        except Exception as exc:  # a raising call is a measured outcome
            r = exc
        tr.record(_span_name(function, r), t0, clock())
        if isinstance(r, Exception):
            continue
        coords = None
        if function in ("v2", "d2"):
            e = p["e"] if function == "v2" else p["mu"]
            params = relvoigt.ProfileParams(mu=p["mu"], gamma=p["gamma"], sigma=p["sigma"])
            t0 = clock()
            rc = relvoigt.reduce_rel(e, params)
            tr.record("profiles.reduce_rel", t0, clock())
            coords = (rc.a, rc.u1, rc.u2)
        elif function in ("h2", "i2"):
            coords = (p["a"], p["u1"], p["u2"])
        if function == "h0":
            if p["a"] > 0.0:
                zs.append(complex(p["u"], p["a"]))
        elif coords is not None and coords[0] > 0.0:
            t0 = clock()
            relvoigt.pole_set(*coords)
            tr.record("rel_voigt.pole_set", t0, clock())
            zs.extend(_w_args(*coords))
    for z in zs:
        t0 = clock()
        try:
            relvoigt.faddeeva_w(z)
        except relvoigt.DomainError:
            pass
        tr.record("complex_fn.faddeeva_w", t0, clock())
    return zs


def wofz_vec_ns(zs: list[complex], n: int = 100_000, reps: int = 5) -> float:
    """scipy.special.wofz on an n-element array of the kernel's inputs."""
    base = np.array(zs if zs else [0.5 + 0.5j], dtype=complex)
    arr = np.resize(base, n)
    best = []
    for _ in range(reps):
        t0 = clock()
        scipy.special.wofz(arr)
        best.append(clock() - t0)
    return float(np.median(best)) / n


def probe_sweeps(tr: Tracer, specs: list[dict]) -> dict:
    """run_sweep and write_csv per spec, then its points through the evaluators."""
    rows_total = errors = 0
    for kw in specs:
        spec = sweep.SweepSpec(**kw)
        sid = tr.new_id()
        t0 = clock()
        rows = sweep.run_sweep(spec)
        t1 = clock()
        sweep.write_csv(spec, rows, io.StringIO())
        t2 = clock()
        tr.record("sweep.run_sweep", t0, t1, sid=sid)
        tr.record("sweep.write_csv", t1, t2)
        rows_total += len(rows)
        errors += sum(1 for r in rows if r.error)
        rid = tr.new_id()
        r0 = clock()
        for x in spec.grid():
            p = dict(spec.fixed)
            p[spec.axis] = float(x)
            fn, args = bind(spec.function, p)
            t0 = clock()
            try:
                fn(*args)
            except relvoigt.RelVoigtError:
                pass
            tr.record("sweep.replay_eval", t0, clock(), parent=rid)
        tr.record("sweep.replay", r0, clock(), parent=sid, sid=rid)
    self_ns = tr.total_ns("sweep.run_sweep") - tr.total_ns("sweep.replay_eval")
    return {
        "sweep.self_us_per_pt": (self_ns / rows_total / 1e3, "us"),
        "sweep.write_csv_us_per_row": (tr.total_ns("sweep.write_csv") / rows_total / 1e3, "us"),
        "sweep.error_row_share": (errors / rows_total, "share"),
    }


def route_points(seed: int, n: int = 3) -> list[tuple[float, float, float]]:
    """Sample points where every route applies (the representations grid)."""
    rng = np.random.default_rng([seed, 5])
    return [
        (float(rng.uniform(0.1, 5.0)), float(rng.uniform(-3, 3)), float(rng.uniform(-3, 3)))
        for _ in range(n)
    ]


def _peak_cuts(a: float, u1: float, u2: float) -> list[float]:
    # panel edges walking out of both kernel peaks, the same placement
    # h2_quadrature uses, so the integrator sees its production workload
    width = abs(a) / max(abs(u1 - u2), math.sqrt(abs(a)))
    cuts = [u1, u2]
    if width < 0.5:
        for u in (u1, u2):
            w = width
            while w < 2.0:
                cuts += [u - w, u + w]
                w *= 4.0
    return cuts


def probe_routes(tr: Tracer, points) -> dict:
    """The quadrature and integral-representation routes at sample points."""
    calls = {
        "h2_quadrature": lambda a, x, y: relvoigt.h2_quadrature(a, x, y),
        "h2_rectangle": lambda a, x, y: relvoigt.h2_rectangle(a, x, y),
        "rep_single_complex": lambda a, x, y: relvoigt.h2_integral_rep(a, x, y, "single_complex"),
        "rep_double": lambda a, x, y: relvoigt.h2_integral_rep(a, x, y, "double"),
        "i2_quadrature": lambda a, x, y: relvoigt.i2_quadrature(a, x, y),
    }
    out = {}
    for name, call in calls.items():
        # the nested route costs ~0.25 s a point; one point is enough
        pts = points[:1] if name == "rep_double" else points
        for a, x, y in pts:
            t0 = clock()
            call(a, x, y)
            tr.record(f"rel_voigt.{name}", t0, clock())
        out[f"rel_voigt.{name}_ms"] = (tr.cost_us(f"rel_voigt.{name}") / 1e3, "ms")
    evals = []
    for a, x, y in points:

        def f(t, a=a, x=x, y=y):
            p = (x - t) * (y - t)
            return (a / math.pi) * np.exp(-t * t) / (p * p + a * a)

        t0 = clock()
        r = relvoigt.integrate_real_line(f, seeds=_peak_cuts(a, x, y))
        tr.record("quadrature.integrate_real_line", t0, clock())
        evals.append(r.evaluations)
    out["quadrature.integrate_real_line_ms"] = (
        tr.cost_us("quadrature.integrate_real_line") / 1e3, "ms")
    out["quadrature.evals_per_integral"] = (float(np.mean(evals)), "count")
    return out


def probe_verify(tr: Tracer, order=SUITES) -> list:
    """Each verify suite once, timed as a whole."""
    reports = []
    for suite in order:
        t0 = clock()
        reports += verify.run_suite(suite)
        tr.record(f"verify.{suite}", t0, clock())
    return reports


def verify_metrics(tr: Tracer) -> dict:
    return {f"verify.{s}_s": (tr.cost_us(f"verify.{s}") / 1e6, "s") for s in SUITES}


_IMPORTTIME = re.compile(r"import time:\s*(\d+)\s*\|\s*(\d+)\s*\|( *)(\S+)")


def import_times() -> tuple[float, float]:
    """Seconds to import relvoigt, and the part spent importing scipy.

    From ``-X importtime``: the cumulative time of the relvoigt entry, and
    the cumulative times of the scipy modules whose importer is not itself
    a scipy module (the subtree ``from scipy import special`` pulls in).
    A child is listed before its importer, one indent level deeper.
    """
    _, proc = run_child(["-X", "importtime", "-c", "import relvoigt"])
    entries = [
        (len(m.group(3)), m.group(4), int(m.group(2)) / 1e6)
        for m in map(_IMPORTTIME.match, proc.stderr.splitlines())
        if m
    ]
    total = scipy_s = 0.0
    for i, (indent, name, cumulative) in enumerate(entries):
        if name == "relvoigt":
            total = cumulative
        if name.split(".")[0] != "scipy":
            continue
        importer = next((n for d, n, _ in entries[i + 1:] if d < indent), "")
        if importer.split(".")[0] != "scipy":
            scipy_s += cumulative
    return total, scipy_s


def _main_ms(argv: list[str], reps: int) -> float:
    times = []
    for _ in range(reps):
        with contextlib.redirect_stdout(io.StringIO()):
            t0 = clock()
            cli_main(argv)
            times.append(clock() - t0)
    return float(np.median(times)) / 1e6


def probe_cli(tr: Tracer, seed: int, subprocess_eval_ms: list[float] | None = None) -> dict:
    """Import time, in-process main(argv) and the cost of a fresh process."""
    imports = [import_times() for _ in range(3)]
    calls = gen.cli_invocations(seed)
    by_kind = {c["kind"]: c for c in calls}
    eval_argv = next(c["argv"] for c in calls if c["kind"] == "eval" and c["function"] == "h2")
    main_eval = _main_ms(eval_argv, 20)
    main_sweep = _main_ms(by_kind["sweep_csv"]["argv"], 3)
    main_verify = _main_ms(by_kind["verify_symmetry"]["argv"], 1)
    if not subprocess_eval_ms:
        subprocess_eval_ms = []
        for _ in range(3):
            t0 = clock()
            wall, _ = run_child(["-m", "relvoigt", *eval_argv])
            tr.record("cli.process.eval", t0, clock())
            subprocess_eval_ms.append(wall * 1e3)
    return {
        "cli.import_s": (float(np.median([i[0] for i in imports])), "s"),
        "cli.scipy_special_import_s": (float(np.median([i[1] for i in imports])), "s"),
        "cli.main_ms.eval": (main_eval, "ms"),
        "cli.main_ms.sweep": (main_sweep, "ms"),
        "cli.main_ms.verify": (main_verify, "ms"),
        "cli.process_overhead_ms": (float(np.median(subprocess_eval_ms)) - main_eval, "ms"),
    }


def evaluator_metrics(tr: Tracer, zs: list[complex]) -> dict:
    h2_counts = {m: tr.count(f"rel_voigt.h2.{m}") for m in H2_METHODS}
    h2_total = sum(h2_counts.values()) or 1
    out = {
        "complex_fn.faddeeva_w_us": (tr.cost_us("complex_fn.faddeeva_w"), "us"),
        "complex_fn.wofz_vec_ns_per_pt": (wofz_vec_ns(zs), "ns"),
        "voigt.h0_us": (tr.cost_us("voigt.h0"), "us"),
        "voigt.v0_us": (tr.cost_us("voigt.v0"), "us"),
        "profiles.reduce_rel_us": (tr.cost_us("profiles.reduce_rel"), "us"),
        "rel_voigt.pole_set_us": (tr.cost_us("rel_voigt.pole_set"), "us"),
        "rel_voigt.v2_us": (tr.cost_us("rel_voigt.v2"), "us"),
        "rel_voigt.d2_us": (tr.cost_us("rel_voigt.d2"), "us"),
    }
    for m in H2_METHODS:
        out[f"rel_voigt.h2_us.{m}"] = (tr.cost_us(f"rel_voigt.h2.{m}"), "us")
        out[f"rel_voigt.h2_method_share.{m}"] = (h2_counts[m] / h2_total, "share")
    return out


