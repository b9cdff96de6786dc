"""Seeded input generators for the four workloads.

Every generator takes the workload seed and returns plain data (dicts of
floats, SweepSpec arguments, argv lists); the same seed always gives the
same inputs.  Shares of each regime are fixed counts, not random draws,
so that a share quoted in a run log is the same for every seed, and the
continuous coordinates inside a regime are drawn by stratified sampling
(one draw per equal-probability stratum, strata shuffled) so that
per-seed averages move little.
"""

from __future__ import annotations

import math

import numpy as np

FUNCTIONS = ("h0", "h2", "v0", "v2", "d0", "d2", "i2")

# point_eval regime counts per pass of the point stream; the three hard
# regimes are the ROADMAP 3 defects (a), (b) and (c)
POINT_COUNTS = {
    "typical": 1700,
    "gap_small_a": 100,
    "diag_large_u": 100,
    "overflow": 100,
}

# typical point_eval calls by function, summing to POINT_COUNTS["typical"]
TYPICAL_MIX = {"h0": 250, "h2": 550, "v0": 250, "v2": 400, "d2": 250}

# sweep_mix: specs per function, with step counts at the midpoints of
# equal strata of log10(steps) in [1, 4], so steps are log-uniform over
# 10..1e4 and every seed sweeps the same number of rows per function and
# per axis family (the seed moves ranges and fixed parameters)
SPECS_PER_FUNCTION = 6
SWEEP_STEPS = tuple(
    int(round(10.0 ** (1.0 + 3.0 * (i + 0.5) / SPECS_PER_FUNCTION)))
    for i in range(SPECS_PER_FUNCTION)
)

CLI_SWEEP_STEPS = 2000


def _strata(rng: np.random.Generator, n: int, lo: float, hi: float) -> np.ndarray:
    """n stratified uniform draws on [lo, hi), in random order."""
    u = (rng.permutation(n) + rng.random(n)) / n
    return lo + (hi - lo) * u


def _log_strata(rng, n, lo, hi):
    return 10.0 ** _strata(rng, n, math.log10(lo), math.log10(hi))


def _signs(rng, n):
    return np.where(rng.permutation(n) % 2 == 0, 1.0, -1.0)


# ---------------------------------------------------------------- point_eval


def _typical_points(rng, function: str, n: int) -> list[dict]:
    if function == "h0":
        a = _log_strata(rng, n, 1e-3, 1e2)
        u = _strata(rng, n, -8.0, 8.0)
        return [{"a": x, "u": y} for x, y in zip(a, u)]
    if function == "h2":
        a = _log_strata(rng, n, 1e-3, 1e2)
        u1 = _strata(rng, n, -8.0, 8.0)
        u2 = _strata(rng, n, -8.0, 8.0)
        return [{"a": x, "u1": y, "u2": z} for x, y, z in zip(a, u1, u2)]
    mu = _strata(rng, n, 0.5, 5.0)
    gamma = mu * _log_strata(rng, n, 1e-2, 1.0)
    sigma = mu * _log_strata(rng, n, 1e-2, 1.0)
    if function == "d2":
        return [
            {"sigma": s, "gamma": g, "mu": m} for s, g, m in zip(sigma, gamma, mu)
        ]
    e = mu + sigma * _strata(rng, n, -4.0, 4.0)
    return [
        {"e": x, "mu": m, "gamma": g, "sigma": s}
        for x, m, g, s in zip(e, mu, gamma, sigma)
    ]


def _gap_small_a(rng, n):
    # (a): gap < 1e-3 and a < 1e-3, the degenerate-series dispatch box
    a = _log_strata(rng, n, 1e-12, 1e-3)
    gap = _log_strata(rng, n, 1e-7, 1e-3)
    u = _strata(rng, n, -3.0, 3.0)
    return [
        ("h2", {"a": x, "u1": c - 0.5 * g, "u2": c + 0.5 * g})
        for x, g, c in zip(a, gap, u)
    ]


def _diag_large_u(rng, n):
    # (b): near the diagonal at large |u| and tiny a; half sit exactly on
    # it (series path), half at gap >= 1e-3 (closed-form path)
    a = _log_strata(rng, n, 1e-14, 1e-6)
    u = _strata(rng, n, 4.0, 10.0) * _signs(rng, n)
    gap = np.where(
        np.arange(n) % 2 == 0, 0.0, _log_strata(rng, n, 1e-3, 3e-2)
    )
    return [
        ("h2", {"a": x, "u1": c, "u2": c + g}) for x, c, g in zip(a, u, gap)
    ]


def _overflow(rng, n):
    # (c): inputs whose intermediate quantities leave double range while
    # the true value is representable (possibly as an underflow to 0)
    k = n // 4
    pts = []
    big = _log_strata(rng, k, 1e155, 1e300)
    a = _log_strata(rng, k, 1e-3, 1e3)
    pts += [("h2", {"a": x, "u1": b, "u2": -b}) for x, b in zip(a, big)]
    big = _log_strata(rng, k, 1e155, 1e300)
    a = _log_strata(rng, k, 1e-3, 1e3)
    pts += [("h2", {"a": x, "u1": b, "u2": 0.5 * b}) for x, b in zip(a, big)]
    m = n - 2 * k - k
    mu = _strata(rng, m, 0.5, 5.0)
    gamma = mu * _log_strata(rng, m, 1e-2, 1.0)
    sigma = _log_strata(rng, m, 1e-300, 1e-156)
    e = mu * _strata(rng, m, 0.5, 1.5)
    pts += [
        ("v2", {"e": x, "mu": p, "gamma": g, "sigma": s})
        for x, p, g, s in zip(e, mu, gamma, sigma)
    ]
    mu = _strata(rng, k, 0.5, 5.0)
    gamma = mu * _log_strata(rng, k, 1e-2, 1.0)
    sigma = _log_strata(rng, k, 1e-300, 1e-156)
    pts += [
        ("d2", {"sigma": s, "gamma": g, "mu": p}) for s, g, p in zip(sigma, gamma, mu)
    ]
    return pts


def point_stream(seed: int) -> list[tuple[str, str, dict]]:
    """(regime, function, params) triples in a seeded random order."""
    rng = np.random.default_rng([seed, 1])
    items = []
    for function, n in TYPICAL_MIX.items():
        items += [("typical", function, p) for p in _typical_points(rng, function, n)]
    for regime, make in (
        ("gap_small_a", _gap_small_a),
        ("diag_large_u", _diag_large_u),
        ("overflow", _overflow),
    ):
        items += [(regime, f, p) for f, p in make(rng, POINT_COUNTS[regime])]
    items = [(r, f, {k: float(v) for k, v in p.items()}) for r, f, p in items]
    order = rng.permutation(len(items))
    return [items[i] for i in order]


# ----------------------------------------------------------------- sweep_mix


def _sweep_spec(rng, function: str, variant: int, steps: int) -> dict:
    """One SweepSpec as keyword arguments; variant picks the axis family."""
    u = lambda lo, hi: float(rng.uniform(lo, hi))  # noqa: E731
    lu = lambda lo, hi: float(10.0 ** rng.uniform(math.log10(lo), math.log10(hi)))  # noqa: E731
    spec = {"function": function, "steps": steps}
    if function == "h0":
        if variant % 2 == 0:
            half = u(2.0, 8.0)
            spec.update(fixed={"a": lu(1e-3, 1e2)}, axis="u", start=-half, stop=half)
        else:
            spec.update(fixed={"u": u(-6.0, 6.0)}, axis="a", start=lu(1e-5, 1e-3),
                        stop=lu(1.0, 1e2), scale="log")
    elif function in ("h2", "i2"):
        kind = variant % 3
        if kind == 0:
            # u2 sweeps across u1 at small a: crosses the diagonal, so the
            # degenerate box and the near-diagonal regime get their
            # natural share of the grid
            u1 = u(-10.0, 10.0)
            half = lu(0.05, 4.0)
            spec.update(fixed={"a": lu(1e-10, 1e-1), "u1": u1}, axis="u2",
                        start=u1 - half * u(0.3, 1.0), stop=u1 + half)
        elif kind == 1:
            spec.update(fixed={"u1": u(-6.0, 6.0), "u2": u(-6.0, 6.0)}, axis="a",
                        start=lu(1e-8, 1e-4), stop=lu(1.0, 1e3), scale="log")
        else:
            spec.update(fixed={"a": lu(1e-3, 1e1), "u2": u(-8.0, 8.0)}, axis="u1",
                        start=u(-10.0, -2.0), stop=u(2.0, 10.0))
    elif function in ("v0", "v2"):
        mu = u(0.5, 5.0)
        gamma = mu * lu(1e-2, 1.0)
        sigma = mu * lu(1e-2, 1.0)
        kind = variant % 3
        if kind == 0:
            spec.update(fixed={"mu": mu, "gamma": gamma, "sigma": sigma}, axis="e",
                        start=mu - 6.0 * sigma - 2.0 * gamma,
                        stop=mu + 6.0 * sigma + 2.0 * gamma)
        elif kind == 1:
            # gamma crosses zero: the invalid side gives error rows
            spec.update(fixed={"e": mu + u(-1.0, 1.0) * sigma, "mu": mu, "sigma": sigma},
                        axis="gamma", start=-gamma * u(0.3, 0.4), stop=gamma)
        else:
            spec.update(fixed={"e": mu + u(-1.0, 1.0) * sigma, "mu": mu, "gamma": gamma},
                        axis="sigma", start=mu * lu(1e-4, 1e-2), stop=mu * lu(1.0, 10.0),
                        scale="log")
    else:  # d0, d2
        mu = u(0.5, 5.0)
        gamma = mu * lu(1e-2, 1.0)
        if variant % 2 == 0:
            # sigma crosses zero: sigma < 0 rows are errors, sigma = 0 is 1
            top = mu * lu(0.1, 2.0)
            spec.update(fixed={"gamma": gamma, "mu": mu}, axis="sigma",
                        start=-top * u(0.3, 0.4), stop=top)
        else:
            spec.update(fixed={"sigma": mu * lu(1e-2, 1.0), "mu": mu}, axis="gamma",
                        start=mu * lu(1e-4, 1e-2), stop=mu * lu(0.5, 5.0), scale="log")
    return spec


def sweep_specs(seed: int) -> list[dict]:
    """Keyword arguments for SweepSpec, SPECS_PER_FUNCTION per function."""
    rng = np.random.default_rng([seed, 2])
    specs = []
    for f, function in enumerate(FUNCTIONS):
        for variant in range(SPECS_PER_FUNCTION):
            steps = SWEEP_STEPS[(variant + f) % SPECS_PER_FUNCTION]
            specs.append(_sweep_spec(rng, function, variant, steps))
    order = rng.permutation(len(specs))
    return [specs[i] for i in order]


# ---------------------------------------------------------- classification


def reduced_rel(e, mu, gamma, sigma):
    """Reduced (a, u1, u2) of a relativistic profile point; inf where it overflows."""
    e, mu, gamma, sigma = map(np.float64, (e, mu, gamma, sigma))
    s = np.sqrt(2.0) * sigma
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        return (float(gamma * mu / (2.0 * sigma * sigma)), float((e - mu) / s),
                float((e + mu) / s))


def h2_coords(function: str, p: dict):
    """(a, u1, u2) that an h2-based call reduces to, or None."""
    if function in ("h2", "i2"):
        return p["a"], p["u1"], p["u2"]
    if function == "v2":
        return reduced_rel(p["e"], p["mu"], p["gamma"], p["sigma"])
    if function == "d2":
        return reduced_rel(p["mu"], p["mu"], p["gamma"], p["sigma"])
    return None


def h2_regime(a: float, u1: float, u2: float) -> str:
    """Classify reduced coordinates into the benchmark's regimes."""
    if not all(math.isfinite(x) and abs(x) < 1e150 for x in (a, u1, u2)):
        return "overflow"
    a = abs(a)
    gap = abs(u1 - u2)
    if gap < 1e-3 and a < 1e-3:
        return "gap_small_a"
    if gap < 0.1 and a < 1e-3:
        return "diag_large_u"
    return "typical"


def point_regime(function: str, p: dict) -> str:
    c = h2_coords(function, p)
    return "typical" if c is None else h2_regime(*c)


def expected_error(function: str, p: dict) -> bool:
    """True where the package must reject the parameters (invalid profile)."""
    if function in ("v0", "v2"):
        if function == "v2" and not p["mu"] > 0.0:
            return True
        return not (p["gamma"] > 0.0 and p["sigma"] > 0.0)
    if function in ("d0", "d2"):
        return not (p["gamma"] > 0.0 and p["mu"] > 0.0 and p["sigma"] >= 0.0)
    return False


# ------------------------------------------------------------------- cli_mix


def _fmt(x: float) -> str:
    return repr(float(x))


def cli_invocations(seed: int) -> list[dict]:
    """One pass of CLI invocations: argv, expected exit code and a kind tag."""
    rng = np.random.default_rng([seed, 4])
    calls = []
    for function in FUNCTIONS:
        if function in ("h0", "h2", "v0", "v2", "d2"):
            p = _typical_points(rng, function, 1)[0]
        elif function == "d0":
            mu = float(rng.uniform(0.5, 5.0))
            p = {"sigma": mu * 0.1, "gamma": mu * 0.3, "mu": mu}
        else:
            p = {"a": float(10 ** rng.uniform(-2, 1)), "u1": float(rng.uniform(-4, 4)),
                 "u2": float(rng.uniform(-4, 4))}
        argv = ["eval", function]
        for k, v in p.items():
            argv += [f"--{k}", _fmt(v)]
        calls.append({"kind": "eval", "argv": argv, "exit": 0,
                      "function": function, "params": {k: float(v) for k, v in p.items()}})
    steps = CLI_SWEEP_STEPS
    a = float(10 ** rng.uniform(-2, 0))
    u1 = float(rng.uniform(-3, 3))
    for fmt in ("csv", "json"):
        argv = ["sweep", "h2", "--axis", "u2", "--start", _fmt(u1 - 4.0),
                "--stop", _fmt(u1 + 4.0), "--steps", str(steps),
                "--a", _fmt(a), "--u1", _fmt(u1)]
        if fmt == "json":
            argv.append("--json")
        calls.append({"kind": f"sweep_{fmt}", "argv": argv, "exit": 0,
                      "spec": {"function": "h2", "fixed": {"a": a, "u1": u1},
                               "axis": "u2", "start": u1 - 4.0, "stop": u1 + 4.0,
                               "steps": steps}})
    for suite in ("symmetry", "limits"):
        calls.append({"kind": f"verify_{suite}", "argv": ["verify", suite], "exit": 0,
                      "suite": suite})
    calls.append({"kind": "usage_error", "argv": ["eval", "h2", "--a", "1", "--u1", "0"],
                  "exit": 1})
    calls.append({"kind": "parameter_error",
                  "argv": ["eval", "v2", "--e", "1", "--mu", "1", "--gamma",
                           _fmt(-float(rng.uniform(0.1, 1.0))), "--sigma", "0.5"],
                  "exit": 2})
    order = rng.permutation(len(calls))
    return [calls[i] for i in order]
