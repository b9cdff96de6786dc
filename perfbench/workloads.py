"""The four workloads: inputs, the timed closed loop, and the output checks.

Every workload is one Python client in a closed loop: it issues the next
call only after the previous one has returned.  The loop repeats a fixed
pass of operations for the requested number of seconds and finishes the
operation in progress.  Reference values are computed before the loop and
compared after it.

Timing model.  Each operation of a pass (one call of point_eval, one
sweep, one verify suite, one CLI child) is timed on its own every time it
runs, and its cost is the mean of its timings.  The pass is rebuilt from
these costs; the throughput, median and tail are read from the rebuilt
pass and put on the reference host by the host calibration (common.py).
"""

from __future__ import annotations

import csv
import io
import json
from collections import Counter, defaultdict

import numpy as np

import relvoigt
from relvoigt import sweep, verify

import gen
import layers
from common import (
    CAL_CHILD_REF_NS,
    Calibration,
    REL_GATE,
    WORK,
    Outcome,
    Tracer,
    child_calibration_block,
    clock,
    peak_rss_mb,
    percentile,
    rel_err,
    run_child,
    tail_rank,
)
from ref import reference

class Samples:
    """Repeated timings (ns) of the same operations, kept per key and mode.

    Every timing pays for its share of calibration blocks right after the
    operation, and a key's cost is the mean of its timings.
    """

    def __init__(self, make_cal=Calibration):
        self._t = {False: defaultdict(list), True: defaultdict(list)}
        self._cal = {False: make_cal(), True: make_cal()}

    def add(self, traced: bool, key, ns: float) -> None:
        self._t[traced][key].append(ns)
        self._cal[traced].owe(ns)

    @property
    def cal(self) -> Calibration:
        """The calibration of the whole run, traced and untraced parts together."""
        return self._cal[False].merged(self._cal[True])

    def scale(self, traced: bool) -> float:
        return self._cal[traced].scale()

    def cost(self, key, traced: bool | None = None) -> float:
        """Uncalibrated cost of one operation (both modes when traced is None)."""
        if traced is None:
            s = self._t[False][key] + self._t[True][key]
        else:
            s = self._t[traced][key]
        return float(np.mean(s))

    def total(self, keys, traced: bool | None = None) -> float:
        """Rebuilt cost of a pass made of keys.

        For one mode, keys that mode never timed are left out, so traced
        and untraced totals cover the same keys when both are asked for.
        """
        keys = list(keys)
        if traced is not None:
            keys = [k for k in keys if self._t[True][k] and self._t[False][k]]
        return sum(self.cost(k, traced) for k in keys)

    def count(self) -> int:
        return sum(len(v) for mode in self._t.values() for v in mode.values())


class Accuracy:
    """Reference agreement over the checked points of one run."""

    def __init__(self):
        self.checked = 0
        self.h2_checked = 0
        self.h2_violations = 0
        self.rel_max = 0.0
        self.worst = None

    def add(self, function: str, where: tuple, result, ref: float) -> float:
        value = float(getattr(result, "value", result))
        e = rel_err(value, ref)
        self.checked += 1
        if e > self.rel_max:
            self.rel_max, self.worst = e, (function, where, value, ref)
        estimate = getattr(result, "error_estimate", None)
        if function.startswith("h2") and estimate is not None:
            self.h2_checked += 1
            self.h2_violations += abs(value - ref) > estimate
        return e

    def violation_share(self) -> float:
        return self.h2_violations / self.h2_checked if self.h2_checked else 0.0


def _drive(out: Outcome, loop, seconds: float, traced_run: bool, chunks: int,
           overhead) -> None:
    """Run the closed loop; a traced run alternates untraced and traced chunks.

    The chunks go untraced, traced, traced, untraced, so slow drift of
    the host cancels and the two costs differ by the cost of recording
    spans.  overhead() returns the calibrated (traced, untraced, unit).
    """
    if not traced_run:
        loop(int(seconds * 1e9), False)
        return
    for k in range(chunks):
        loop(int(seconds * 1e9 / chunks), k % 4 in (1, 2))
    traced, plain, unit = overhead()
    out.lines.append(f"tracing overhead: {100 * (traced / plain - 1):+.2f}% "
                     f"(traced {traced:.6g} vs untraced {plain:.6g} {unit})")


def _latency(out: Outcome, cal: Calibration, points_per_s: float, p50_us: float,
             tail_us: float, what: str) -> None:
    """Throughput, median and tail of a rebuilt pass, put on the reference host.

    Arguments are as measured; the uncalibrated figures are printed too.
    """
    raw = {"points_per_s": points_per_s, "call_us_p50": p50_us, "call_us_tail": tail_us}
    scale = cal.scale()
    out.metrics["points_per_s"] = (points_per_s / scale, "points/s")
    out.metrics["call_us_p50"] = (p50_us * scale, "us")
    out.metrics["call_us_tail"] = (tail_us * scale, "us")
    out.lines.append(f"call latency: {what}")
    out.lines.append(cal.line())
    out.lines.append("uncalibrated: " + ", ".join(f"{k} {v:.6g}" for k, v in raw.items()))


def _pass_latency(out: Outcome, cal: Calibration, points_per_s: float, samples_us,
                  what: str) -> None:
    """_latency with the median and tail read from a rebuilt pass's samples."""
    q = tail_rank(len(samples_us))
    _latency(out, cal, points_per_s, percentile(samples_us, 50), percentile(samples_us, q),
             f"{what}; {len(samples_us)} samples, tail = p{q:.4g}")


def _shared_lines(out: Outcome, acc: Accuracy, in_domain_raised: int) -> None:
    failed_share = (out.failed + in_domain_raised) / out.attempted if out.attempted else 0.0
    out.layer["check.failed_share"] = (failed_share, "share")
    out.layer["check.bound_violation_share"] = (acc.violation_share(), "share")
    out.layer["check.rel_err_max"] = (acc.rel_max, "1")
    out.lines.append(f"failed_share = {failed_share:.6g} share "
                     f"({out.failed} failed outside known-defect regimes, "
                     f"{in_domain_raised} in-domain raises, of {out.attempted})")
    out.lines.append(f"bound_violation_share = {acc.violation_share():.6g} share "
                     f"({acc.h2_violations} of {acc.h2_checked} checked h2 results)")
    worst = ""
    if acc.worst:
        function, where, value, ref = acc.worst
        worst = f"; worst {function}{where} = {value!r}, reference {ref!r}"
    out.lines.append(f"rel_err_max = {acc.rel_max:.6g} 1 over {acc.checked} checked points{worst}")


def _shares(counter: Counter, total: int) -> str:
    return ", ".join(f"{k} {v / total:.4f}" for k, v in sorted(counter.items())) if total else "-"


# ----------------------------------------------------------------- sweep_mix


def _sweep_point(spec, x) -> dict:
    p = dict(spec.fixed)
    p[spec.axis] = float(x)
    return p


def sweep_mix(seed: int, seconds: float, tr: Tracer | None) -> Outcome:
    out = Outcome()
    kwargs = gen.sweep_specs(seed)
    specs = [sweep.SweepSpec(**kw) for kw in kwargs]
    grids = [spec.grid() for spec in specs]
    rows_per_pass = sum(len(g) for g in grids)

    # checked subset: six grid points per spec, chosen by the seed
    rng = np.random.default_rng([seed, 3])
    checked = []
    for i, spec in enumerate(specs):
        for j in sorted(rng.choice(len(grids[i]), size=min(6, len(grids[i])), replace=False)):
            p = _sweep_point(spec, grids[i][j])
            if not gen.expected_error(spec.function, p):
                checked.append((i, int(j), p, reference(spec.function, p)))

    # regime shares over every grid point, and h2 method tags by replay
    regimes, methods = Counter(), Counter()
    for spec, grid in zip(specs, grids):
        for x in grid:
            p = _sweep_point(spec, x)
            if gen.expected_error(spec.function, p):
                regimes["invalid_params"] += 1
                continue
            regimes[gen.point_regime(spec.function, p)] += 1
            if spec.function == "h2":
                methods[relvoigt.h2(p["a"], p["u1"], p["u2"]).method] += 1

    samples = Samples()
    first_rows, first_csv = {}, {}
    done = [0, 0]  # sweeps run, rows evaluated

    def loop(duration_ns: int, traced: bool) -> None:
        # the pass position carries over between chunks; the loop stops at
        # the deadline once every spec has been timed at least once
        deadline = clock() + duration_ns
        while True:
            i = done[0] % len(specs)
            spec = specs[i]
            t0 = clock()
            rows = sweep.run_sweep(spec)
            t1 = clock()
            buf = io.StringIO()
            sweep.write_csv(spec, rows, buf)
            t2 = clock()
            if traced:
                sid = tr.new_id()
                tr.record("call.sweep.run_sweep", t0, t1, parent=sid)
                tr.record("call.sweep.write_csv", t1, t2, parent=sid)
                tr.record("call.sweep", t0, t2, sid=sid)
            samples.add(traced, i, t2 - t0)
            done[0] += 1
            done[1] += len(rows)
            text = buf.getvalue()
            if i not in first_rows:
                first_rows[i], first_csv[i] = rows, text
            elif text != first_csv[i]:
                out.failed += len(rows)
                out.problem(f"sweep {i} output changed between passes")
            if clock() >= deadline and done[0] >= len(specs):
                return

    def pass_ns(traced=None) -> float:
        return samples.total(range(len(specs)), traced)

    for kw in kwargs:  # warm-up: every function and axis once, untimed
        sweep.run_sweep(sweep.SweepSpec(**{**kw, "steps": 10}))
    _drive(out, loop, seconds, tr is not None, 4,
           lambda: (pass_ns(True) * samples.scale(True),
                    pass_ns(False) * samples.scale(False), "ns per pass"))
    rows_done = done[1]

    # checks: error rows exactly where parameters are invalid, CSV that
    # parses back to the rows, values against the reference
    acc = Accuracy()
    in_domain_raised = 0
    passes = rows_done / rows_per_pass
    for i, rows in first_rows.items():
        spec = specs[i]
        parsed = list(csv.reader(io.StringIO(first_csv[i])))[1:]
        for row, x, line in zip(rows, grids[i], parsed):
            p = _sweep_point(spec, x)
            if bool(row.error) != gen.expected_error(spec.function, p):
                if row.error and gen.point_regime(spec.function, p) != "typical":
                    in_domain_raised += 1
                else:
                    out.failed += 1
                    out.problem(f"{spec.function} row at {spec.axis}={x!r}: error={row.error!r}")
            if not row.error and float(line[1]) != row.value:
                out.failed += 1
                out.problem(f"{spec.function} CSV value {line[1]} != {row.value!r}")
    in_domain_raised = int(round(in_domain_raised * passes))
    for i, j, p, ref in checked:
        row = first_rows[i][j]
        if row.error:
            continue  # counted above
        e = acc.add(specs[i].function, (specs[i].axis, p[specs[i].axis]), row, ref)
        if gen.point_regime(specs[i].function, p) == "typical" and e > REL_GATE:
            out.failed += 1
            out.problem(f"{specs[i].function}{p} rel err {e:.3g} vs reference")

    out.attempted = rows_done
    # every row of a pass is one sample: its sweep call's time per row
    per_row_us = np.repeat([samples.cost(i) / spec.steps / 1e3 for i, spec in enumerate(specs)],
                           [spec.steps for spec in specs])
    _pass_latency(out, samples.cal, rows_per_pass / (pass_ns() / 1e9), per_row_us,
                  "per-row time of the sweep call (run_sweep + write_csv) each row came from")
    out.lines.append(f"sweeps: {len(specs)} specs, {rows_per_pass} rows a pass, "
                     f"{passes:.2f} passes; steps {sorted(set(s.steps for s in specs))}")
    out.lines.append("regime shares of sweep rows: " + _shares(regimes, rows_per_pass))
    out.lines.append("h2 method shares of h2 rows: " + _shares(methods, sum(methods.values())))
    out.lines.append(f"error_row_share = {regimes['invalid_params'] / rows_per_pass:.6g} share")
    _shared_lines(out, acc, in_domain_raised)
    out.lines.append("points are sweep rows")

    if tr is not None:
        sample = np.random.default_rng([seed, 6])
        flat = [(spec.function, _sweep_point(spec, x)) for spec, g in zip(specs, grids) for x in g]
        pick = sample.choice(len(flat), size=min(20_000, len(flat)), replace=False)
        _layer_profile(out, tr, seed, [flat[k] for k in pick], sweep_specs=kwargs)
    return out


# ---------------------------------------------------------------- point_eval


def point_eval(seed: int, seconds: float, tr: Tracer | None) -> Outcome:
    out = Outcome()
    stream = gen.point_stream(seed)
    calls = [layers.bind(f, p) for _, f, p in stream]
    n = len(calls)

    rng = np.random.default_rng([seed, 3])
    typical_idx = [k for k, (r, _, _) in enumerate(stream) if r == "typical"]
    check_idx = sorted(
        set(rng.choice(typical_idx, size=300, replace=False).tolist())
        | {k for k, (r, _, _) in enumerate(stream) if r != "typical"}
    )
    refs = {k: reference(stream[k][1], stream[k][2]) for k in check_idx}

    samples = Samples()
    first = [None] * n
    buf = [0] * n
    passes = [0]
    total_ns = np.zeros(n, dtype=np.int64)  # per call, summed over passes

    def loop(duration_ns: int, traced: bool) -> None:
        deadline = clock() + duration_ns
        while True:
            for k, (fn, args) in enumerate(calls):
                t0 = clock()
                try:
                    r = fn(*args)
                except Exception as exc:  # a raising call is a measured outcome
                    r = exc
                t1 = clock()
                buf[k] = t1 - t0
                if first[k] is None:
                    first[k] = r
                if traced:
                    tr.record(f"call.{stream[k][1]}", t0, t1)
            total_ns[:] += buf
            samples.add(traced, "pass", sum(buf))
            passes[0] += 1
            if clock() >= deadline:
                return

    for fn, args in calls:  # warm-up: one untimed pass
        try:
            fn(*args)
        except Exception:  # noqa: BLE001 - raising calls are measured below
            pass
    _drive(out, loop, seconds, tr is not None, 4,
           lambda: (samples.cost("pass", True) / n * samples.scale(True),
                    samples.cost("pass", False) / n * samples.scale(False), "ns per call"))
    executed = passes[0] * n

    acc = Accuracy()
    raised, methods = Counter(), Counter()
    unexpected = 0
    for k, (regime, function, p) in enumerate(stream):
        r = first[k]
        if isinstance(r, Exception):
            raised[(regime, type(r).__name__)] += 1
            if regime == "typical":
                unexpected += 1
                out.problem(f"{function}{p} raised {r!r}")
            continue
        if function == "h2":
            methods[r.method] += 1
        if k in refs:
            e = acc.add(function, tuple(p.values()), r, refs[k])
            if regime == "typical" and e > REL_GATE:
                unexpected += 1
                out.problem(f"{function}{p} rel err {e:.3g} vs reference")
    in_domain = sum(v for (regime, _), v in raised.items() if regime != "typical")
    out.attempted = executed
    out.failed = unexpected * passes[0]

    # each call's cost is the mean of its timings; the median and p99 are
    # read across the calls of the pass rebuilt from those costs
    per_call_us = total_ns / passes[0] / 1e3
    _latency(out, samples.cal, 1e6 / float(per_call_us.mean()),
             percentile(per_call_us, 50), percentile(per_call_us, 99),
             f"single calls, each at the mean of its timings over {passes[0]} passes; "
             f"{n} samples, tail = p99")
    out.lines.append(f"call_us_p99 = {out.metrics['call_us_tail'][0]:.6g} us")
    out.lines.append(f"stream: {n} calls a pass, {passes[0]} passes; regime counts "
                     + ", ".join(f"{k} {v}" for k, v in gen.POINT_COUNTS.items())
                     + f" (hard share {1 - gen.POINT_COUNTS['typical'] / n:.4f})")
    out.lines.append("h2 method shares: " + _shares(methods, sum(methods.values())))
    out.lines.append("raised by regime: "
                     + (", ".join(f"{r}/{e} {v}" for (r, e), v in sorted(raised.items())) or "none"))
    _shared_lines(out, acc, in_domain * passes[0])
    out.lines.append("points are scalar calls")

    if tr is not None:
        _layer_profile(out, tr, seed, [(f, p) for _, f, p in stream])
    return out


# ---------------------------------------------------------------- verify_all


def _route_accuracy(acc: Accuracy, seed: int) -> None:
    for a, x, y in layers.route_points(seed):
        ref = reference("h2", {"a": a, "u1": x, "u2": y})
        acc.add("h2", (a, x, y), relvoigt.h2(a, x, y), ref)
        acc.add("h2_quadrature", (a, x, y), relvoigt.h2_quadrature(a, x, y), ref)
        acc.add("h2_rectangle", (a, x, y), relvoigt.h2_rectangle(a, x, y), ref)
        acc.add("h2_single_complex", (a, x, y),
                relvoigt.h2_integral_rep(a, x, y, "single_complex"), ref)


def verify_all(seed: int, seconds: float, tr: Tracer | None) -> Outcome:
    out = Outcome()
    order = [layers.SUITES[k] for k in np.random.default_rng([seed, 7]).permutation(4)]
    samples = Samples()
    points, failed = {}, []
    checks = [0, 0]  # checks run, passes

    def loop(duration_ns: int, traced: bool) -> None:
        deadline = clock() + duration_ns
        while True:
            for suite in order:
                t0 = clock()
                reports = verify.run_suite(suite)
                t1 = clock()
                if traced:
                    tr.record(f"verify.{suite}", t0, t1)
                samples.add(traced, suite, t1 - t0)
                checks[0] += len(reports)
                points[suite] = sum(r.grid_size for r in reports)
                failed.extend(r.name for r in reports if not r.passed)
            checks[1] += 1
            if clock() >= deadline:
                return

    def pass_ns(traced=None) -> float:
        return samples.total(order, traced)

    verify.run_suite("limits")  # warm-up, untimed; the cheapest suite
    # a whole pass is the unit of work; a traced run makes one untraced
    # and one traced pass
    _drive(out, loop, 1e-9 if tr is not None else seconds, tr is not None, 2,
           lambda: (pass_ns(True) * samples.scale(True),
                    pass_ns(False) * samples.scale(False), "ns per pass"))

    acc = Accuracy()
    _route_accuracy(acc, seed)
    out.attempted = checks[0]
    out.failed = len(failed)
    for name in failed[:5]:
        out.problem(f"verify check failed: {name}")
    verify_s = pass_ns() / 1e9
    _pass_latency(out, samples.cal, sum(points.values()) / verify_s, [verify_s * 1e6],
                  f"one pass over the four suites, each suite at the mean of its "
                  f"{checks[1]} timings")
    out.lines.append(f"verify_s = {out.metrics['call_us_p50'][0] / 1e6:.6g} s "
                     f"(uncalibrated {verify_s:.6g} s; suite order {', '.join(order)}; "
                     + ", ".join(f"{s} {samples.cost(s) / 1e9:.4g} s" for s in order) + ")")
    out.lines.append(f"verify checks: {checks[0]} run in {checks[1]} passes, {len(failed)} failed")
    _shared_lines(out, acc, 0)
    out.lines.append("points are verify grid points checked")

    if tr is not None:
        rng = np.random.default_rng([seed, 8])
        pts = [("h2", {"a": a, "u1": x, "u2": y}) for a, x, y in layers.route_points(seed)]
        pts += [("h2", {"a": float(10 ** rng.uniform(-3, 1)), "u1": float(rng.uniform(-8, 8)),
                        "u2": float(rng.uniform(-8, 8))}) for _ in range(500)]
        pts += [("h2", {"a": a, "u1": u, "u2": u}) for a in (1e-4, 1e-5) for u in (0.0, 1.0)]
        pts += [("h0", {"a": a, "u": float(u)}) for a in (1e-3, 0.1, 10.0)
                for u in np.linspace(-8, 8, 17)]
        _layer_profile(out, tr, seed, pts, verified=True)
    return out


# ------------------------------------------------------------------- cli_mix


def _expected_cli(calls) -> list:
    """In-process results each invocation's output is compared with."""
    want = []
    for c in calls:
        kind = c["kind"]
        result = None
        if kind == "eval":
            fn, args = layers.bind(c["function"], c["params"])
            result = fn(*args)
        elif kind.startswith("sweep"):
            spec = sweep.SweepSpec(**c["spec"])
            rows = sweep.run_sweep(spec)
            if kind == "sweep_csv":
                buf = io.StringIO()
                sweep.write_csv(spec, rows, buf)
                result = buf.getvalue()
            else:
                result = json.loads(json.dumps(sweep.json_payload(spec, rows)))
        elif kind.startswith("verify"):
            result = verify.run_suite(c["suite"])
        want.append(result)
    return want


def _cli_points(c, want) -> int:
    if c["kind"].startswith("sweep"):
        return c["spec"]["steps"]
    if c["kind"].startswith("verify"):
        return sum(r.grid_size for r in want)
    return 1


def _check_cli(c, proc, want, csv_path) -> str | None:
    """None when exit code and output match the in-process result."""
    if proc.returncode != c["exit"]:
        return f"exit {proc.returncode}, expected {c['exit']}: {proc.stderr.strip()[:200]}"
    kind = c["kind"]
    if kind == "eval":
        expected = float(getattr(want, "value", want))
        first = proc.stdout.splitlines()[0] if proc.stdout else ""
        if first != f"value = {expected!r}":
            return f"printed {first!r}, in-process value {expected!r}"
    elif kind == "sweep_csv":
        with open(csv_path, encoding="utf-8", newline="") as fh:
            if fh.read() != want:
                return "CSV differs from in-process write_csv"
    elif kind == "sweep_json":
        if json.loads(proc.stdout) != want:
            return "JSON differs from in-process json_payload"
    elif kind.startswith("verify"):
        if not proc.stdout.rstrip().endswith(f"{len(want)} checks: all passed"):
            return "verify summary line differs"
    elif kind == "usage_error" and not proc.stderr.startswith("usage error"):
        return "usage error not reported"
    elif kind == "parameter_error" and not proc.stderr.startswith("error:"):
        return "parameter error not reported"
    return None


def cli_mix(seed: int, seconds: float, tr: Tracer | None) -> Outcome:
    out = Outcome()
    calls = gen.cli_invocations(seed)
    WORK.mkdir(exist_ok=True)
    csv_path = WORK / f"cli-sweep-{seed}.csv"
    for c in calls:
        if c["kind"] == "sweep_csv":
            c["argv"] = c["argv"] + ["--output", str(csv_path.relative_to(WORK.parent))]
    want = _expected_cli(calls)
    samples = Samples(lambda: Calibration(child_calibration_block, CAL_CHILD_REF_NS, every_ns=0))
    eval_ms = []
    done = [0]

    def loop(duration_ns: int, traced: bool) -> None:
        # as in sweep_mix, the position carries over; two passes at least,
        # so that every kind of invocation is timed at least twice
        deadline = clock() + duration_ns
        while True:
            k = done[0] % len(calls)
            c = calls[k]
            t0 = clock()
            wall, proc = run_child(["-m", "relvoigt", *c["argv"]])
            t1 = clock()
            if traced:
                tr.record(f"cli.process.{c['kind']}", t0, t1)
            if c["kind"] == "eval" and c["function"] == "h2":
                eval_ms.append(wall * 1e3)
            samples.add(traced, c["kind"], wall * 1e9)
            done[0] += 1
            why = _check_cli(c, proc, want[k], csv_path)
            if why:
                out.failed += 1
                out.problem(f"{' '.join(c['argv'][:2])}: {why}")
            if clock() >= deadline and done[0] >= 2 * len(calls):
                return

    def pass_ns(traced=None) -> float:
        return samples.total([c["kind"] for c in calls], traced)

    run_child(["-m", "relvoigt", *calls[0]["argv"]])  # warm-up, untimed
    try:
        _drive(out, loop, seconds, tr is not None, 4,
               lambda: (pass_ns(True) * samples.scale(True),
                    pass_ns(False) * samples.scale(False), "ns per pass"))
    finally:
        csv_path.unlink(missing_ok=True)

    acc = Accuracy()
    for c, w in zip(calls, want):
        if c["kind"] == "eval":
            acc.add(c["function"], tuple(c["params"].values()), w,
                    reference(c["function"], c["params"]))
    out.attempted = done[0]
    wall_ms = [samples.cost(c["kind"]) / 1e6 for c in calls]
    q = tail_rank(len(wall_ms))
    points = sum(_cli_points(c, w) for c, w in zip(calls, want))
    _pass_latency(out, samples.cal, points / (pass_ns() / 1e9), [m * 1e3 for m in wall_ms],
                  f"one child per invocation, each kind at the mean of its "
                  f"timings ({samples.count()} invocations)")
    out.metrics["peak_rss_mb"] = (peak_rss_mb(children=True), "MB")
    out.lines.append(f"cli_ms_p50 = {out.metrics['call_us_p50'][0] / 1e3:.6g} ms")
    out.lines.append(f"cli_ms_tail = {out.metrics['call_us_tail'][0] / 1e3:.6g} ms "
                     f"(p{q:.4g} of {len(wall_ms)})")
    out.lines.append("invocation mix per pass: " + ", ".join(
        f"{k} {v}" for k, v in sorted(Counter(c["kind"] for c in calls).items())))
    _shared_lines(out, acc, 0)
    out.lines.append("points are values printed by the children")

    if tr is not None:
        pts = [(c["function"], c["params"]) for c in calls if c["kind"] == "eval"]
        spec = sweep.SweepSpec(**next(c["spec"] for c in calls if c["kind"] == "sweep_csv"))
        pts += [("h2", _sweep_point(spec, x)) for x in spec.grid()]
        _layer_profile(out, tr, seed, pts, subprocess_eval_ms=eval_ms)
    return out


# ------------------------------------------------------------ traced extras


def _layer_profile(out: Outcome, tr: Tracer, seed: int, points, sweep_specs=None,
                   verified: bool = False, subprocess_eval_ms=None) -> None:
    """Every per-layer metric; the evaluator probe replays this workload's points."""
    zs = layers.probe_evaluators(tr, points)
    out.layer.update(layers.evaluator_metrics(tr, zs))
    if sweep_specs is None:
        # one spec per function from the sweep generator, capped in size
        seen, sweep_specs = set(), []
        for kw in gen.sweep_specs(seed):
            if kw["function"] not in seen:
                seen.add(kw["function"])
                sweep_specs.append({**kw, "steps": min(kw["steps"], 600)})
    out.layer.update(layers.probe_sweeps(tr, sweep_specs))
    out.layer.update(layers.probe_routes(tr, layers.route_points(seed)))
    if not verified:
        layers.probe_verify(tr)
    out.layer.update(layers.verify_metrics(tr))
    out.layer.update(layers.probe_cli(tr, seed, subprocess_eval_ms))


RUNNERS = {
    "sweep_mix": sweep_mix,
    "point_eval": point_eval,
    "verify_all": verify_all,
    "cli_mix": cli_mix,
}


def run(workload: str, seed: int, seconds: float, tr: Tracer | None) -> Outcome:
    out = RUNNERS[workload](seed, seconds, tr)
    out.metrics.setdefault("peak_rss_mb", (peak_rss_mb(), "MB"))
    return out
