"""The verify suites, run in process, each check at the tolerance its rule states."""

from __future__ import annotations

import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from relvoigt import IntegrationError, quadrature, run_suite, verify
from relvoigt.verify import verify_oracle, verify_representations

GOLDEN = Path(__file__).resolve().parent / "golden" / "verify_all.json"

# every check of `verify all`, in order, with its grid size: a faster suite
# must still check exactly these points
CHECKS = {
    "symmetry": [
        ("h2 symmetric under u1 <-> u2", 500),
        ("h2 even under (u1,u2) sign flip", 500),
        ("h2 odd in a", 500),
        ("h2 mixed sign exchange", 500),
    ],
    "oracle": [
        ("h0 closed form vs quadrature", 325),
        ("h2 closed form vs quadrature", 8405),
        ("i2 closed form vs quadrature", 32),
        ("h2 degenerate series vs quadrature", 4),
    ],
    "representations": [
        ("h2 three-route pairwise agreement", 50),
        ("h0 Laplace representation vs closed form", 10),
    ],
    "limits": [
        ("h2 caption value at (1, 0)", 1),
        ("h2 caption value at (1, -1)", 1),
        ("h2 caption deviation decade shrink", 6),
        ("h0 a -> 0 limit values", 3),
        ("h0 limit approach monotone", 9),
        ("h2 limit approach monotone", 8),
        ("i2 a -> 0 limit", 1),
        ("h2 large-u asymptotic at (20, 30)", 1),
        ("h2 large-u asymptotic at (40, 60)", 1),
        ("h2 large-u deviation shrinks 4x per u doubling", 2),
        ("damping functions exactly 1 at sigma = 0", 1),
        ("v2 peak approaches bare peak as sigma -> 0", 1),
        ("v2 gamma -> 0 limit approach monotone", 3),
        ("h2 degenerate growth ratio a -> a/4", 4),
    ],
}


def test_verify_all_passes_every_pinned_check():
    reports = run_suite("all")
    expected = [check for checks in CHECKS.values() for check in checks]
    assert [(r.name, r.grid_size) for r in reports] == expected
    assert len(reports) == 24
    assert {s: sum(size for _, size in c) for s, c in CHECKS.items()} == {
        "symmetry": 2000,
        "oracle": 8766,
        "representations": 60,
        "limits": 42,
    }
    assert sum(r.grid_size for r in reports) == 10868
    failed = [(r.name, r.max_abs_deviation, r.tolerance) for r in reports if not r.passed]
    assert failed == []



def test_no_refinement_round_grows_past_the_oracle_group(monkeypatch):
    # a refinement round reaches the integrand in runs of at most _CHUNK
    # panels of 15 nodes each, however many integrals a route call refines
    # together, so peak memory does not grow with the batches; a pass
    # reaches that bound exactly
    largest = [0]
    eval_panels = quadrature._eval_panels

    def recording(f, lo, hi, owner):
        largest[0] = max(largest[0], lo.size * quadrature._XK.size)
        return eval_panels(f, lo, hi, owner)

    monkeypatch.setattr(quadrature, "_eval_panels", recording)
    reports = run_suite("all")
    assert all(r.passed for r in reports)
    assert largest[0] <= quadrature._CHUNK * 15


def test_verify_all_traced_memory_stays_bounded():
    # the refinement loop's bookkeeping grows with a route call's initial
    # panels, and the grid forms cap a call at 4,096 points
    tracemalloc.start()
    try:
        reports = run_suite("all")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert all(r.passed for r in reports)
    assert peak <= 8e6


def test_oracle_integrates_each_orbit_once(monkeypatch):
    # each route is called once.  The h2 grid's u axis is its own mirror,
    # so it is integrated on one point per orbit of u1 <-> u2 and
    # (u1, u2) -> (-u2, -u1), 5 x 441 points, with the 4 degenerate-series
    # points in the same call; the h0 grid's u axis is its own mirror too,
    # so H0, even in u, is integrated on u <= 0, 5 x 33 points; the i2
    # spots are not, so it keeps the triangle u1 <= u2, 2 x 10 points.
    # Every point of the 8,405, 325 and 32 is still checked
    sizes = {"h0": [], "h2": [], "i2": []}
    for name in sizes:
        route = getattr(verify, f"_{name}_route")

        def counting(a, *u, route=route, seen=sizes[name]):
            seen.append(a.size)
            return route(a, *u)

        monkeypatch.setattr(verify, f"_{name}_route", counting)
    reports = verify_oracle()
    assert sizes == {"h0": [165], "h2": [2205 + 4], "i2": [20]}
    assert [(r.name, r.grid_size) for r in reports] == CHECKS["oracle"]
    assert all(r.passed for r in reports)


def test_verify_all_work_stays_bounded(monkeypatch):
    # the quadrature work of one `verify all` pass, counted rather than
    # timed so it holds on any host: 6 refinement loops, one per route
    # call (the oracle's h0, h2 and i2, the single_complex and Laplace
    # representations, the growth ratio's h2), with 851,655 integrand
    # evaluations, and 11,206 trapezoid nodes on the rectangle's lines,
    # 862,861 evaluations in all; and the symmetry suite's six 500-point
    # images of H2 in one h2_grid call
    loops, evaluations = [0], [0]
    refine, rectangle, grid = quadrature._refine, verify._rectangle_route, verify.h2_grid
    grid_calls = []

    def counting_grid(*coords):
        grid_calls.append(coords[0].size)
        return grid(*coords)

    with monkeypatch.context() as m:
        m.setattr(verify, "h2_grid", counting_grid)
        verify.verify_symmetry()
    assert grid_calls == [3000]

    def counting(*args):
        out = refine(*args)
        loops[0] += 1
        evaluations[0] += int(out[3].sum())
        return out

    def counting_nodes(*args):
        out = rectangle(*args)
        evaluations[0] += int(out.evaluations.sum())
        return out

    monkeypatch.setattr(quadrature, "_refine", counting)
    monkeypatch.setattr(verify, "_rectangle_route", counting_nodes)
    reports = run_suite("all")
    assert all(r.passed for r in reports)
    assert loops[0] <= 6
    assert evaluations[0] <= 863_000


def test_failed_reference_point_is_named(monkeypatch):
    # a route that leaves one point unconverged fails its check with the
    # IntegrationError the scalar route raises, naming that point
    laplace = verify._laplace_route

    def one_unconverged(a, u):
        r = laplace(a, u)
        return quadrature.QuadratureBatch(
            r.value, r.error_estimate, r.converged & ~((a == 1.0) & (u == 1.5)), r.evaluations
        )

    monkeypatch.setattr(verify, "_laplace_route", one_unconverged)
    with pytest.raises(
        IntegrationError,
        match=r"^h0 Laplace representation failed with IntegrationError at \(1\.0, 1\.5\)$",
    ):
        verify_representations()


def _same_deviation(got: float, want: float) -> bool:
    return abs(got - want) <= 1e-9 * abs(want)


def test_verify_all_json_matches_golden(capsys):
    # `relvoigt verify all --json` as recorded with the node-major
    # quadrature kernel.  Names, grid sizes, tolerances and pass flags must
    # match exactly and deviations within 1e-9 relative.  A row whose
    # absolute deviation is at most 1e-15 on both sides is ulp-level: its
    # last bits follow the BLAS gemv kernel of the CPU (the Laplace row), so
    # both of its deviation columns are accepted there.
    from relvoigt.cli import main

    assert main(["verify", "all", "--json"]) == 0
    got = json.loads(capsys.readouterr().out)
    want = json.loads(GOLDEN.read_text())
    exact = ("name", "grid_size", "tolerance", "passed")
    assert [sorted(r) for r in got] == [sorted(r) for r in want]
    assert [[r[k] for k in exact] for r in got] == [[r[k] for k in exact] for r in want]
    for g, w in zip(got, want):
        if max(g["max_abs_deviation"], w["max_abs_deviation"]) <= 1e-15:
            continue
        for key in ("max_abs_deviation", "max_rel_deviation"):
            assert _same_deviation(g[key], w[key]), (w["name"], key, g[key], w[key])
