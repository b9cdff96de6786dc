"""The verify suites, run in process, each check at the tolerance its rule states."""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from relvoigt import IntegrationError, quadrature, routes, run_suite, verify
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
    # the largest round is the first one of a 64-integral h2 oracle group,
    # 45,840 abscissas; batching the representation routes must stay below
    # it, so peak memory does not grow with the batches
    largest = [0]
    eval_panels = quadrature._eval_panels

    def recording(f, lo, hi, owner):
        largest[0] = max(largest[0], lo.size * quadrature._XK.size)
        return eval_panels(f, lo, hi, owner)

    monkeypatch.setattr(quadrature, "_eval_panels", recording)
    reports = run_suite("all")
    assert all(r.passed for r in reports)
    assert largest[0] <= 45_840


def test_oracle_integrates_each_twin_pair_once(monkeypatch):
    # the h2 and i2 grids are integrated on u1 <= u2 only: 5 x 861 h2
    # points plus the 4 degenerate-series points, and 2 x 10 i2 points,
    # while every point of the 8,405 and 32 is still checked
    sizes = {"h2": [], "i2": []}
    for name in sizes:
        route = getattr(routes, f"_{name}_route")

        def counting(a, u1, u2, config, route=route, seen=sizes[name]):
            seen.append(a.size)
            return route(a, u1, u2, config)

        monkeypatch.setattr(routes, f"_{name}_route", counting)
    reports = verify_oracle()
    assert sum(sizes["h2"]) == 4305 + 4
    assert sum(sizes["i2"]) == 20
    assert max(sizes["h2"]) <= 1024
    assert [(r.name, r.grid_size) for r in reports] == CHECKS["oracle"]
    assert all(r.passed for r in reports)


def test_failed_reference_point_is_named(monkeypatch):
    # a route that leaves one point unconverged fails its check with the
    # IntegrationError the scalar route raises, naming that point
    laplace = verify._laplace_route

    def one_unconverged(a, u, config=None):
        r = laplace(a, u, config)
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
