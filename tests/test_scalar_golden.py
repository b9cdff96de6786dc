"""Bit-level golden of the scalar evaluators.

About sixty fixed and seeded points of h0, h2, i2_closed, v0, v2, d0 and
d2 cover typical inputs, a < 0, a = 0, the degenerate corner, the
near-diagonal large-|u| regime and inputs whose poles or sigma leave
double range.  For each point the golden pins float.hex of the value and
of the error estimate, the method tag, or the exception type and message.
A change to the scalar code that is meant to keep results must keep this
file byte for byte.

Regenerate (only for a deliberate, documented change of results):

    PYTHONPATH=src python tests/test_scalar_golden.py
"""

from __future__ import annotations

import json
import warnings
from pathlib import Path

import numpy as np
import pytest

from relvoigt import (
    DomainError,
    EvalResult,
    ProfileParams,
    RelVoigtError,
    bw_nonrel,
    bw_rel,
    d0,
    d2,
    faddeeva_w,
    h0,
    h2,
    i2_closed,
    pole_set,
    reduce_nonrel,
    reduce_rel,
    v0,
    v2,
)

GOLDEN = Path(__file__).resolve().parent / "golden" / "scalar_points.json"

NAN = float("nan")
INF = float("inf")


def _typical(rng: np.random.Generator):
    pts = []
    for _ in range(4):
        pts.append(("h0", (10.0 ** rng.uniform(-3, 2), rng.uniform(-8, 8))))
    for _ in range(6):
        pts.append(("h2", (10.0 ** rng.uniform(-3, 2), rng.uniform(-8, 8), rng.uniform(-8, 8))))
    for _ in range(3):
        pts.append(("i2", (10.0 ** rng.uniform(-3, 2), rng.uniform(-8, 8), rng.uniform(-8, 8))))
    for fn in ("v0", "v2", "v2"):
        mu = rng.uniform(0.5, 5.0)
        gamma = mu * 10.0 ** rng.uniform(-2, 0)
        sigma = mu * 10.0 ** rng.uniform(-2, 0)
        pts.append((fn, (mu + sigma * rng.uniform(-4, 4), mu, gamma, sigma)))
    for fn in ("d0", "d2", "d2"):
        mu = rng.uniform(0.5, 5.0)
        pts.append((fn, (mu * 10.0 ** rng.uniform(-2, 0), mu * 10.0 ** rng.uniform(-2, 0), mu)))
    return [(fn, tuple(float(x) for x in args)) for fn, args in pts]


def golden_points() -> list[tuple[str, tuple[float, ...]]]:
    """(function, args) pairs; v0/v2 take (e, mu, gamma, sigma)."""
    return _typical(np.random.default_rng(20261018)) + [
        # a < 0 and a = 0
        ("h0", (-0.7, 1.3)),
        ("h0", (0.0, 2.0)),
        ("h2", (-0.4, 1.0, -0.5)),
        ("h2", (-1e-4, 0.3, 0.3)),
        ("h2", (0.0, 1.0, 1.0)),
        ("i2", (-2.0, 0.5, 1.5)),
        ("i2", (0.0, 1.0, -1.0)),
        ("i2", (0.0, 2.0, 2.0)),
        ("i2", (0.0, 1e-200, 0.0)),
        # the degenerate corner: gap and a both below 1e-3
        ("h2", (1e-10, 2.0, 2.0001)),
        ("h2", (5e-4, -1.0, -1.0)),
        ("h2", (1e-12, 0.5, 0.5000001)),
        # near the diagonal at large |u| and small a
        ("h2", (1e-8, 6.0, 6.0)),
        ("h2", (1e-12, 9.0, 9.002)),
        ("h2", (1e-10, -7.0, -7.01)),
        ("h2", (1e-6, 12.0, 12.5)),
        # overflowing poles and coordinates
        ("h2", (1.0, 1e200, -1e200)),
        ("h2", (1e-3, 1e250, 5e249)),
        ("h2", (1e300, 1.0, 0.0)),
        ("h2", (1e308, 0.0, 0.0)),
        ("h0", (1e-300, 1e300)),
        ("i2", (1e308, 0.0, 0.0)),
        # non-finite inputs
        ("h0", (NAN, 1.0)),
        ("h2", (1.0, INF, 0.0)),
        ("i2", (1.0, 0.0, NAN)),
        # physical parameters out of range, sigma underflow and overflow
        ("v0", (1.0, 1.0, -0.5, 0.3)),
        ("v0", (1.0, 1.0, 0.5, 0.0)),
        ("v0", (1.0, 1.0, 1e-310, 1e-322)),
        ("v0", (NAN, 1.0, 0.5, 0.3)),
        ("v2", (1.0, -1.0, 0.5, 0.3)),
        ("v2", (1.0, 1.0, 0.0, 0.3)),
        ("v2", (1.0, 1.0, 0.5, -0.3)),
        ("v2", (1.0, 1.0, 0.5, 1e-160)),
        ("v2", (1.0, 1.0, 0.5, 1e-170)),
        ("v2", (INF, 1.0, 0.5, 0.3)),
        ("v2", (1e300, 1.0, 0.5, 1e-10)),
        ("v2", (1.0, 1.0, 0.5, 1e200)),
        ("d0", (0.0, 0.5, 1.0)),
        ("d0", (-0.1, 0.5, 1.0)),
        ("d0", (1.0, 1e200, 1.0)),
        ("d0", (1.0, 1e-170, 1.0)),
        ("d2", (0.0, 0.5, 1.0)),
        ("d2", (0.1, 0.0, 1.0)),
        ("d2", (1.0, 1e200, 1.0)),
        ("d2", (1.0, 0.5, 1e-170)),
        ("d2", (1e-160, 0.5, 1.0)),
        ("d2", (NAN, 0.5, 1.0)),
    ]


def _call(fn: str, args: tuple[float, ...]):
    if fn in ("v0", "v2"):
        e, mu, gamma, sigma = args
        f = v0 if fn == "v0" else v2
        return f(e, ProfileParams(mu=mu, gamma=gamma, sigma=sigma))
    f = {"h0": h0, "h2": h2, "i2": i2_closed, "d0": d0, "d2": d2}[fn]
    return f(*args)


def record(fn: str, args: tuple[float, ...]) -> dict:
    """The golden entry of one call: bits of the outcome, or the exception."""
    rec = {"fn": fn, "args": [float.hex(x) for x in args]}
    try:
        r = _call(fn, args)
    except RelVoigtError as exc:
        rec["error"] = f"{type(exc).__name__}: {exc}"
        return rec
    if isinstance(r, EvalResult):
        rec.update(value=r.value.hex(), estimate=r.error_estimate.hex(), method=r.method)
    else:
        rec["value"] = float(r).hex()
    return rec


def test_scalar_outputs_match_golden():
    want = json.loads(GOLDEN.read_text())
    got = [record(fn, args) for fn, args in golden_points()]
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g == w


def test_scalar_calls_raise_no_warning():
    """No scalar call warns, also where w or an intermediate overflows.

    Covers faddeeva_w deep in the lower half-plane, where it must raise
    DomainError rather than warn, and every golden point, which includes
    the out-of-range inputs h2(1, 1e200, -1e200) and v2 at sigma = 1e-160.
    """
    rng = np.random.default_rng(20261019)
    zs = [complex(x, y) for x, y in rng.uniform(-40.0, 40.0, (2000, 2))]
    zs += [5 - 30j, -30j, 1e300 - 1e300j, -1e154j, 1e308 + 1e308j, 5e-324 - 5e-324j]
    params = [ProfileParams(1e200, 1.0, 1e150), ProfileParams(1.0, 1e-170, 1e-170)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for z in zs:
            try:
                faddeeva_w(z)
            except DomainError:
                pass
        with pytest.raises(DomainError, match="overflows"):
            faddeeva_w(5 - 30j)
        for fn, args in golden_points():
            record(fn, args)
            if fn in ("h2", "i2"):
                try:
                    pole_set(*args)
                except DomainError:
                    pass
        for p in params:
            for f in (bw_nonrel, bw_rel, reduce_nonrel, reduce_rel):
                try:
                    f(1e200, p)
                except DomainError:
                    pass


if __name__ == "__main__":
    records = [record(fn, args) for fn, args in golden_points()]
    GOLDEN.write_text(json.dumps(records, indent=1) + "\n")
    print(f"wrote {len(records)} records to {GOLDEN}")
