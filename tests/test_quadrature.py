"""Engine checks against integrals with independently known values."""

from __future__ import annotations

import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relvoigt import DomainError, IntegrationError
from relvoigt.quadrature import (
    QuadratureBatch,
    QuadratureConfig,
    integrate_real_line,
    integrate_real_line_batch,
    integrate_real_line_compactified_batch,
    peak_seeds,
)
from relvoigt import quadrature, routes

from oracles import erfc_real

SQRT_PI = math.sqrt(math.pi)


def _interval(f, lo, hi, breaks=None):
    # one integral of the batched integrand f over [lo, hi], breaks a (1, m)
    # array of initial panel edges, through the refinement loop
    lo, hi = np.array([lo]), np.array([hi])
    out = quadrature._integrate_intervals(f, lo, hi, QuadratureConfig(), breaks)
    return QuadratureBatch(*out)


def test_gaussian_integral():
    r = integrate_real_line(lambda t: np.exp(-t * t))
    assert r.converged
    assert abs(r.value - SQRT_PI) < 1e-13
    assert r.error_estimate < 1e-9


def test_gaussian_over_lorentzian_matches_erfc_oracle():
    """Int e^{-t^2}/(t^2+1) dt = pi e erfc(1), a closed form the oracle covers."""
    r = integrate_real_line(lambda t: np.exp(-t * t) / (t * t + 1.0))
    ref = math.pi * math.e * erfc_real(1.0)
    assert r.converged
    assert abs(r.value - ref) < 1e-12


def test_odd_integrand_vanishes():
    r = integrate_real_line(lambda t: t * np.exp(-t * t))
    assert r.converged
    assert abs(r.value) < 1e-13


def test_interval_polynomials():
    r = _interval(lambda t, k: np.ones_like(t), 0.0, 1.0)
    assert abs(r.value[0] - 1.0) < 1e-14
    r = _interval(lambda t, k: t, 0.0, 1.0)
    assert abs(r.value[0] - 0.5) < 1e-14
    # an integer-valued integrand is integrated as float64
    r = _interval(lambda t, k: np.ones(t.shape, dtype=int), 0.0, 1.0)
    assert abs(r.value[0] - 1.0) < 1e-14


def test_compactified_algebraic_decay():
    # Int dt/(1+t^4) = pi/sqrt(2); decays too slowly for plain truncation
    r = integrate_real_line_compactified_batch(lambda t, k: 1.0 / (1.0 + t**4), 1)
    assert r.converged[0]
    assert abs(r.value[0] - math.pi / math.sqrt(2.0)) < 1e-11


def test_linearity():
    f = lambda t: np.exp(-t * t)
    g = lambda t: np.exp(-t * t) / (t * t + 1.0)
    both = integrate_real_line(lambda t: 2.0 * f(t) + 3.0 * g(t))
    single = 2.0 * integrate_real_line(f).value + 3.0 * integrate_real_line(g).value
    assert abs(both.value - single) < 1e-11


def test_tighter_tolerance_does_not_worsen_error():
    f = lambda t: np.exp(-t * t) / (t * t + 0.01)
    loose = integrate_real_line(f, QuadratureConfig(abs_tol=1e-6, rel_tol=1e-6), seeds=[0.0])
    tight = integrate_real_line(f, QuadratureConfig(abs_tol=1e-12, rel_tol=1e-12), seeds=[0.0])
    assert loose.converged and tight.converged
    assert tight.error_estimate <= loose.error_estimate
    ref = math.pi / 0.1 * math.exp(0.01) * erfc_real(0.1)
    assert abs(tight.value - ref) <= abs(loose.value - ref) + 1e-13


def test_subdivision_budget_reports_nonconvergence():
    # the seed pins panel edges onto a peak four decades narrower than the
    # window; one split round cannot resolve it and the budget stops there
    f = lambda t: np.exp(-t * t) / (t * t + 1e-8)
    r = integrate_real_line(
        f,
        QuadratureConfig(abs_tol=1e-14, rel_tol=1e-14, max_subdivisions=1),
        seeds=[0.0],
    )
    assert not r.converged


def test_nan_from_integrand_is_an_error():
    def f(t: np.ndarray) -> np.ndarray:
        out = np.exp(-t * t)
        out[np.abs(t) < 0.5] = np.nan
        return out

    with pytest.raises(IntegrationError):
        integrate_real_line(f)


def test_evaluation_count_reported():
    r = integrate_real_line(lambda t: np.exp(-t * t))
    assert r.evaluations > 0


def test_config_validation():
    with pytest.raises(DomainError):
        QuadratureConfig(abs_tol=0.0)
    with pytest.raises(DomainError):
        QuadratureConfig(rel_tol=-1e-9)
    with pytest.raises(DomainError):
        QuadratureConfig(max_subdivisions=0)
    with pytest.raises(TypeError):
        QuadratureConfig(truncation_radius=float("inf"))
    # the subdivision budget is a count: only integers, stored as int
    for bad in (2.5, float("nan"), float("inf"), "3"):
        with pytest.raises(DomainError, match="^max_subdivisions must be an integer"):
            QuadratureConfig(max_subdivisions=bad)
    assert type(QuadratureConfig(max_subdivisions=np.int64(7)).max_subdivisions) is int


@pytest.mark.parametrize("name", ["abs_tol", "rel_tol"])
def test_config_tolerances_are_checked_floats(name):
    # a value float() rejects is a DomainError naming the field, like every
    # other argument check, not a bare TypeError or ValueError
    for bad, shown in (
        (None, "None"),
        ("tight", "'tight'"),
        (1j, "1j"),
        (np.complex64(0.5), re.escape("np.complex64(0.5+0j)")),
    ):
        with pytest.raises(DomainError, match=f"^{name} must be a real number, got {shown}$"):
            QuadratureConfig(**{name: bad})
    for bad in (math.nan, math.inf):
        with pytest.raises(DomainError, match=f"^{name} must be finite, got {bad!r}$"):
            QuadratureConfig(**{name: bad})
    with pytest.raises(DomainError, match=f"^{name} must be finite and > 0, got -0.0$"):
        QuadratureConfig(**{name: -0.0})
    # what float() accepts is stored as a Python float
    for given in (np.float32(0.25), np.float64(1e-9), 3, "1e-9"):
        stored = getattr(QuadratureConfig(**{name: given}), name)
        assert type(stored) is float and stored == float(given)


# ------------------------------------------------------- batched integration
#
# The batched integrators run many integrals through one refinement loop;
# each member must come out as a call for it alone computes it.


def _agree(batch, k, alone):
    # alone is integral k computed on its own: by integrate_real_line, or as
    # a batch of one
    value, estimate, converged = (
        np.ravel(getattr(alone, name))[0] for name in ("value", "error_estimate", "converged")
    )
    assert bool(batch.converged[k]) == bool(converged)
    assert abs(batch.value[k] - value) <= batch.error_estimate[k] + estimate


def test_real_line_batch_matches_scalar_members():
    rng = np.random.default_rng(11)
    n = 40
    c = rng.uniform(-4.0, 4.0, n)
    w = 10.0 ** rng.uniform(-4.0, 0.5, n)
    seeds = np.stack([c, c - w, c + w], axis=1)

    def f(t, k):
        return np.exp(-t * t) / ((t - c[k]) ** 2 + w[k] ** 2)

    batch = integrate_real_line_batch(f, n, seeds=seeds)
    assert batch.converged.all()
    for k in range(n):
        single = integrate_real_line(lambda t: f(t, k), seeds=seeds[k])
        _agree(batch, k, single)
        assert single.evaluations > 0 and batch.evaluations[k] > 0


def test_compactified_batch_matches_scalar_members():
    rng = np.random.default_rng(12)
    n = 12
    c = rng.uniform(-3.0, 3.0, n)
    w = 10.0 ** rng.uniform(-2.0, 0.5, n)

    def f(t, k):
        return w[k] / ((t - c[k]) ** 2 + w[k] ** 2) ** 2

    batch = integrate_real_line_compactified_batch(f, n, seeds=c[:, None])
    for k in range(n):
        single = integrate_real_line_compactified_batch(lambda t, j: f(t, k), 1, seeds=[[c[k]]])
        _agree(batch, k, single)
        # Int w/((t-c)^2+w^2)^2 dt = pi/(2 w^2)
        assert abs(batch.value[k] - math.pi / (2.0 * w[k] ** 2)) <= 1e-9 * batch.value[k]


@pytest.mark.parametrize("budget, widths", [(1, [1e-4, 2.0, 4.0]), (8, [1e-4, 0.3, 2.0])])
def test_exhausted_budget_stops_only_its_member(budget, widths):
    # member 0 has a peak four decades narrower than its seeded panels and
    # needs more splits than the budget allows; every member has a budget
    # of its own, so the others still converge (the 0.3 peak takes 5 splits)
    w = np.array(widths)

    def f(t, k):
        return np.exp(-t * t) / (t * t + w[k] ** 2)

    cfg = QuadratureConfig(abs_tol=1e-10, rel_tol=1e-10, max_subdivisions=budget)
    batch = integrate_real_line_batch(f, 3, cfg, seeds=np.zeros((3, 1)))
    assert batch.converged.tolist() == [False, True, True]
    for k in range(3):
        _agree(batch, k, integrate_real_line(lambda t: f(t, k), cfg, seeds=[0.0]))


def test_nan_from_one_batch_member_is_an_error():
    def f(t, k):
        out = np.exp(-t * t)
        out[(k == 2) & (np.abs(t) < 0.5)] = np.nan
        return out

    with pytest.raises(IntegrationError):
        integrate_real_line_batch(f, 4)


def test_peak_seeds_walk_matches_the_loop():
    def walk(centers, width):
        # the reference: each center, then -+ width * 4^k below 2
        seeds = list(centers)
        for c in centers:
            w = width
            while w < 2.0:
                seeds += [c - w, c + w]
                w *= 4.0
        return seeds

    rng = np.random.default_rng(14)
    for _ in range(200):
        centers = rng.uniform(-5.0, 5.0, rng.integers(1, 3))
        width = 10.0 ** rng.uniform(-12.0, 0.5)
        assert peak_seeds(centers[None, :], [width])[0].tolist() == walk(centers, width)
    # rows of a batch are padded by repeating their centers
    rows = peak_seeds([[0.0], [1.0]], [0.01, 1.0])
    assert set(rows[0]) == set(walk([0.0], 0.01))
    assert set(rows[1]) == set(walk([1.0], 1.0))
    assert peak_seeds([[1.0, 2.0]], [2.0]).tolist() == [[1.0, 2.0]]
    # a width that underflowed to 0 can never grow past 2: no walk, no hang
    assert peak_seeds([[1.0, 2.0]], [0.0]).tolist() == [[1.0, 2.0]]


# ------------------------------------------------------ one loop per call
#
# All the integrals of a call refine in one loop, and each round hands the
# integrand consecutive runs of at most _CHUNK panels; an integral refines
# as it would alone.


def _chunk_rows(n, breaks=None):
    # panel rows of each integrand call of one _integrate_intervals run
    # whose integrals all converge on their initial panels
    rows = []

    def f(x, k):
        rows.append(x.shape[0])
        return x * x

    lo, hi = np.zeros(n), np.ones(n)
    value, _, converged, _ = quadrature._integrate_intervals(
        f, lo, hi, QuadratureConfig(), breaks
    )
    assert converged.all()
    assert np.allclose(value, 1.0 / 3.0, rtol=1e-14, atol=0.0)
    return rows


def test_no_integrand_call_carries_more_than_a_chunk_of_panels():
    def runs(panels):
        chunk = quadrature._CHUNK
        return [min(chunk, panels - k) for k in range(0, panels, chunk)]

    assert _chunk_rows(1500) == runs(1500)
    # 44 interior edges: 45 initial panels each, as in the h2 oracle
    breaks = np.broadcast_to(np.linspace(0.0, 1.0, 46)[1:-1], (130, 44))
    assert _chunk_rows(130, breaks) == runs(130 * 45)


@pytest.mark.parametrize("kind", ["real_line", "compactified"])
def test_a_batch_of_no_integrals_is_empty(kind):
    integrate = {
        "real_line": integrate_real_line_batch,
        "compactified": integrate_real_line_compactified_batch,
    }[kind]
    batch = integrate(lambda t, k: np.exp(-t * t), 0)
    for field in (batch.value, batch.error_estimate, batch.converged, batch.evaluations):
        assert field.shape == (0,)


def _spikes(c, w, cfg):
    # integral k of w[k] / ((t - c[k])^2 + w[k]^2) over [-1, 1] from 9
    # initial panels: refinement has to find each spike, in fewer rounds the
    # wider it is, and 500 integrals' first round spans several chunks
    def f(t, k):
        return w[k] / ((t - c[k]) ** 2 + w[k] ** 2)

    n = c.size
    breaks = np.broadcast_to(np.linspace(-1.0, 1.0, 10)[1:-1], (n, 8))
    return quadrature._integrate_intervals(f, np.full(n, -1.0), np.ones(n), cfg, breaks)


@pytest.mark.parametrize("subdivisions", [4000, 30])
def test_an_integral_refines_alike_alone_and_among_500_companions(subdivisions):
    rng = np.random.default_rng(22)
    c = rng.uniform(-0.9, 0.9, 500)
    w = 10.0 ** rng.uniform(-6.0, 0.0, 500)
    cfg = QuadratureConfig(max_subdivisions=subdivisions)
    value, error, converged, evaluations = _spikes(c, w, cfg)
    assert 0 < converged.sum() < 500 if subdivisions == 30 else converged.all()
    for k in np.argsort(w)[::50]:
        v, e, ok, ev = _spikes(c[k : k + 1], w[k : k + 1], cfg)
        assert (ev[0], ok[0]) == (evaluations[k], converged[k])
        # only the rounding of the weighted panel sums depends on a panel's
        # place in the integrand call
        assert abs(v[0] - value[k]) <= 4 * np.spacing(value[k])
        assert abs(e[0] - error[k]) <= 1e-3 * error[k]


# -------------------------------------------------------- integrand contract
#
# A batched integrand sees one row of 15 Kronrod nodes per panel and the
# panels' owners as a column; a scalar integrand sees a 1-D array.  The
# kernel checks what comes back the same way for both.


def _peaked(t, k, c, w):
    return np.exp(-t * t) / ((t - c[k]) ** 2 + w[k] ** 2)


@pytest.mark.parametrize("kind", ["real_line", "compactified"])
def test_batched_integrand_sees_panel_rows_and_an_owner_column(kind):
    c = np.array([0.5, -1.0, 2.0])
    w = np.array([1e-3, 0.1, 1.0])
    calls = []

    def f(t, k):
        calls.append((t.shape, k.shape, k.dtype.kind))
        return _peaked(t, k, c, w)

    if kind == "real_line":
        batch = integrate_real_line_batch(f, 3, seeds=c[:, None])
    else:
        batch = integrate_real_line_compactified_batch(f, 3, seeds=c[:, None])
    assert batch.converged.all()
    rounds = calls[:-1] if kind == "real_line" else calls
    assert len(rounds) > 1
    for t_shape, k_shape, k_kind in rounds:
        assert len(t_shape) == 2 and t_shape[1] == 15
        assert k_shape == (t_shape[0], 1) and k_kind == "i"
    if kind == "real_line":
        # the Gaussian tail bound: each integral's two truncation points
        assert calls[-1] == ((3, 2), (3, 1), "i")


def _own_windows(f, center):
    # integral k over its own window center[k] +- 12, in 16 initial panels
    edges = center[:, None] + np.linspace(-12.0, 12.0, 17)
    return quadrature._integrate_intervals(f, edges[:, 0], edges[:, -1], QuadratureConfig(), edges)


def test_owner_column_matches_each_row_of_abscissas():
    # each row of abscissas lies inside its owner's own window
    center = np.array([0.0, 40.0, -40.0])
    rows = []

    def f(t, k):
        rows.append(np.abs(t - center[k]).max(axis=1))
        return np.exp(-((t - center[k]) ** 2))

    _, _, converged, _ = _own_windows(f, center)
    assert converged.all()
    assert max(r.max() for r in rows) <= 12.0


@pytest.mark.parametrize("kind", ["interval", "real_line", "compactified"])
def test_scalar_integrand_still_sees_one_dimensional_abscissas(kind):
    # integrate_real_line's adapter, _lone, hands its integrand 1-D
    # abscissas whatever block the refinement loop makes: the nodes
    # themselves or tan-mapped nodes
    shapes = []

    def f(t):
        shapes.append(t.shape)
        return np.exp(-t * t) / (t * t + 1e-4)

    g = quadrature._lone(f)
    if kind == "interval":
        r = _interval(g, -1.0, 2.0, np.array([[0.0]]))
    elif kind == "real_line":
        r = integrate_real_line(f, seeds=[0.0])
    else:
        r = integrate_real_line_compactified_batch(g, 1, seeds=[0.0])
    assert np.all(r.converged)
    assert len(shapes) > 1
    assert all(len(s) == 1 for s in shapes)
    assert sum(s[0] for s in shapes) == np.sum(r.evaluations)


def test_scalar_integrand_gets_the_node_major_block_without_a_copy():
    # the kernel builds its nodes node-major, one row per Kronrod node, and
    # hands a batched integrand the transpose; a scalar integrand sees the
    # nodes' own memory flattened, and its values return in that layout
    nodes = np.arange(30.0).reshape(15, 2)
    seen = []
    g = quadrature._lone(lambda t: seen.append(t) or 2.0 * t)
    fv = g(nodes.T, np.zeros((2, 1), dtype=np.intp))
    assert np.shares_memory(seen[0], nodes)
    assert np.array_equal(fv, 2.0 * nodes.T)
    assert fv.T.flags.c_contiguous


# (value, error estimate, evaluations) of one integral on each path, as the
# scalar entries computed it when their integrand was handed a panel-major
# copy of the abscissas; a sum over the other layout may round differently
# in the last bits.  The complex-valued integrand, whose real and imaginary
# parts are integrated in one pass, runs over the half-line window [0, 24]
_PANEL_MAJOR_RESULTS = {
    "interval": (3.899215201640467e-06, 5.3044623761938537e-11, 1470),
    "real_line": (1.772453850905516, 2.790419937341101e-11, 242),
    "compactified": (314.1592653589795, 1.4641225925534355e-09, 690),
    "complex_interval": (
        complex(0.8146524974527017, 2.8881653104145943), 2.0298557115740347e-11, 675
    ),
}


@pytest.mark.parametrize("kind", sorted(_PANEL_MAJOR_RESULTS))
def test_scalar_entries_agree_with_their_panel_major_results(kind):
    if kind == "interval":
        r = _interval(lambda t, k: np.cos(30.0 * t) * np.exp(-t * t), -3.0, 5.0,
                      np.array([[0.3]]))
    elif kind == "real_line":
        r = integrate_real_line(lambda t: np.exp(-t * t))
    elif kind == "compactified":
        r = integrate_real_line_compactified_batch(lambda t, k: 1.0 / (1e-4 + (t - 0.3) ** 2), 1)
    else:
        r = _interval(lambda t, k: np.exp(-t * t) / (t - (0.2 + 0.01j)) * np.exp(-0.1 * t),
                      0.0, 24.0)
    value, estimate, evaluations = _PANEL_MAJOR_RESULTS[kind]
    r_value, r_estimate = np.ravel(r.value)[0], np.ravel(r.error_estimate)[0]
    assert np.all(r.converged) and np.all(r.evaluations == evaluations)
    assert abs(r_value - value) <= r_estimate + estimate


_WRONG_LENGTH = "^integrand must return one value per abscissa$"


@pytest.mark.parametrize(
    "call",
    [
        lambda: _interval(lambda t, k: t[:-1], 0.0, 1.0),
        lambda: integrate_real_line(lambda t: np.exp(-t * t)[:, None]),
        lambda: integrate_real_line_compactified_batch(lambda t, k: np.zeros(3), 1),
        lambda: integrate_real_line_batch(lambda t, k: np.exp(-t * t).ravel(), 2),
        lambda: integrate_real_line_batch(lambda t, k: np.exp(-t * t)[:, :-1], 2),
        lambda: integrate_real_line_compactified_batch(lambda t, k: np.ones(t.shape[0]), 2),
    ],
    ids=["interval", "real_line", "compactified", "batch_flat", "batch_short_rows",
         "compactified_batch"],
)
def test_wrong_length_return_is_an_integration_error(call):
    # a return of the wrong length, through integrate_real_line's 1-D
    # adapter as well, must not surface as numpy's reshape ValueError
    with pytest.raises(IntegrationError, match=_WRONG_LENGTH):
        call()


# ---------------------------------------------------------- the K15 kernel
#
# The kernel builds its nodes node-major and sums contiguous rows; the
# integrand still sees one row per panel.  Each panel's value and estimate
# are checked against exactly rounded sums (math.fsum) of the same values.


def _kernel_panels(n):
    rng = np.random.default_rng(7 + n)
    lo = rng.uniform(-4.0, 4.0, n)
    hi = lo + rng.uniform(1e-3, 2.0, n)
    return lo, hi, rng.integers(0, 5, n), rng.uniform(-2.0, 2.0, 5), rng.uniform(0.05, 1.0, 5)


def _fsum_weighted(w, v):
    if np.iscomplexobj(v):
        return complex(math.fsum((w * v).real), math.fsum((w * v).imag))
    return math.fsum(w * v)


def _qk15_estimate(raw, resasc, resabs):
    # QUADPACK's sharpened estimate from exact ingredients
    err = resasc * min(1.0, (200.0 * raw / resasc) ** 1.5) if resasc > 0.0 else raw
    return max(err, 50.0 * quadrature._EPS * resabs)


def test_batched_integrand_sees_the_panel_major_nodes_bit_for_bit():
    lo, hi, own, _, _ = _kernel_panels(3000)
    seen = []

    def f(t, k):
        seen.append(t.copy())
        return np.exp(-t * t)

    quadrature._eval_panels(f, lo, hi, own)
    half, mid = 0.5 * (hi - lo), 0.5 * (lo + hi)
    want = np.multiply.outer(half, quadrature._XK) + mid[:, None]
    assert len(seen) == 1 and seen[0].shape == (3000, 15)
    assert np.array_equal(seen[0], want)


@pytest.mark.parametrize("n", [1, 2, 7, 3000])
@pytest.mark.parametrize("kind", ["real", "complex"])
def test_kernel_sums_match_exact_sums_within_a_few_ulp(kind, n):
    lo, hi, own, c, w = _kernel_panels(n)
    if kind == "real":
        def f(t, k):
            return np.exp(-t * t) / ((t - c[k]) ** 2 + w[k] ** 2)
    else:
        def f(t, k):
            return np.exp((1j * c[k] - 0.25) * t * t + 1j * w[k] * t)

    value, estimate = quadrature._eval_panels(f, lo, hi, own)
    wk, wg = quadrature._WK, quadrature._WG
    for p in range(n):
        half, mid = 0.5 * (hi[p] - lo[p]), 0.5 * (lo[p] + hi[p])
        fv = f((half * quadrature._XK + mid)[None, :], own[p : p + 1, None])[0]
        resk = _fsum_weighted(wk, fv) * half
        resg = _fsum_weighted(wg, fv[1:14:2]) * half
        resabs = _fsum_weighted(wk, np.abs(fv)) * half
        resasc = _fsum_weighted(wk, np.abs(fv - resk / (hi[p] - lo[p]))) * half
        # a few ulp of the panel's sum of |w f|
        slack = 8.0 * quadrature._EPS * resabs
        assert abs(value[p] - resk) <= slack, (p, value[p], resk)
        # the estimate is QUADPACK's formula, rounded, at ingredients within
        # that slack of the exact ones; it is monotone in each, so the
        # corners of the slack box bound it
        raw = abs(resk - resg)
        corners = [
            _qk15_estimate(max(raw + dr, 0.0), max(resasc + da, 0.0), resabs + ds)
            for dr in (-2.0 * slack, 2.0 * slack)
            for da in (-slack, slack)
            for ds in (-slack, slack)
        ]
        ulps = 1.0 + 8.0 * quadrature._EPS
        assert min(corners) / ulps <= estimate[p] <= max(corners) * ulps, (p, estimate[p], corners)


def test_kernel_names_the_first_bad_abscissa_in_panel_order():
    # panel 0 goes bad at node 10 and panel 1 at node 2: in (panel, node)
    # row-major order panel 0's node comes first, although node 2's row of
    # the node-major block is scanned before node 10's
    lo, hi = np.array([0.0, 1.0, 2.0]), np.array([1.0, 2.0, 3.0])
    bad = {(0, 10), (1, 2)}

    def f(t, k):
        out = np.exp(-t * t)
        for p, j in bad:
            out[p, j] = np.nan
        return out

    with pytest.raises(IntegrationError, match="^integrand returned a non-finite value") as err:
        quadrature._eval_panels(f, lo, hi, np.zeros(3, dtype=int))
    assert _named_abscissa(err) == 0.5 + 0.5 * quadrature._XK[10]


def _named_abscissa(err) -> float:
    # the t of "non-finite value at t=...", with or without numpy 2's
    # np.float64(...) repr
    m = re.search(r"non-finite value at t=(?:np\.float64\()?([-+0-9.eE]+)\)?$", str(err.value))
    assert m is not None, str(err.value)
    return float(m.group(1))


def _first_node_in(center, lo, hi):
    # the first of the opening round's nodes, in panel order, inside (lo, hi):
    # 16 initial panels on center +- 12, as integrate_real_line's on 0 +- 12
    # and _own_windows', 15 nodes each
    edges = center + np.linspace(-12.0, 12.0, 17)
    mid, half = 0.5 * (edges[:-1] + edges[1:]), 0.5 * (edges[1:] - edges[:-1])
    nodes = (mid[:, None] + half[:, None] * quadrature._XK).ravel()
    return float(nodes[(nodes > lo) & (nodes < hi)][0])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_value_names_its_abscissa(bad):
    def f(t):
        return np.where(np.abs(t - 0.3) < 0.5, bad, np.exp(-t * t))

    with pytest.raises(IntegrationError, match="^integrand returned a non-finite value") as err:
        integrate_real_line(f)
    assert _named_abscissa(err) == _first_node_in(0.0, -0.2, 0.8) == -0.1938516108004542


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_batch_value_names_its_abscissa(bad):
    # only integral 1 (window 5 +- 12) goes bad; the named abscissa is its
    # first bad node, not a node of the integrals around it
    center = np.array([0.0, 5.0, -5.0])

    def f(t, k):
        bad_here = (k == 1) & (np.abs(t - 5.3) < 0.5)
        return np.where(bad_here, bad, np.exp(-((t - center[k]) ** 2)))

    with pytest.raises(IntegrationError, match="^integrand returned a non-finite value") as err:
        _own_windows(f, center)
    assert _named_abscissa(err) == _first_node_in(5.0, 4.8, 5.8) == 4.806148389199546


def test_overflowing_finite_values_are_not_an_error():
    # every value is finite but the weighted |f| sum of the panel overflows:
    # that is numpy's overflow, not a non-finite integrand value.  The run
    # warns nothing (warnings are errors here) and bounds nothing: its
    # estimate is inf, and an inf total does not count as converged
    r = _interval(lambda t, k: np.full_like(t, 1e308), 0.0, 10.0)
    assert r.value[0] == math.inf
    assert r.error_estimate[0] == math.inf
    assert not r.converged[0]
    assert r.evaluations[0] == 15


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize(
    "call",
    [
        lambda s: integrate_real_line(lambda t: np.exp(-t * t), seeds=[0.0, s]),
        lambda s: integrate_real_line_batch(lambda t, k: np.exp(-t * t), 1, seeds=[[0.0, s]]),
        # one integral's seeds may come as a flat list
        lambda s: integrate_real_line_compactified_batch(
            lambda t, k: 1.0 / (1.0 + t**4), 1, seeds=[s]
        ),
        lambda s: integrate_real_line_compactified_batch(
            lambda t, k: 1.0 / (1.0 + t**4), 1, seeds=[[s]]
        ),
    ],
    ids=["real_line", "real_line_batch", "compactified", "compactified_batch"],
)
def test_non_finite_seed_names_the_seeds(call, bad):
    with pytest.raises(DomainError, match="^seeds must be finite$"):
        call(bad)


# ---------------------------------------------------------- one stop rule
#
# QuadratureConfig.met is the stop test of every integrator: an error meets
# its target only when it is finite, even against the inf target of an inf
# value.


def test_met_needs_a_finite_error_within_target():
    cfg = QuadratureConfig(abs_tol=1e-3, rel_tol=1e-2)
    error = np.array([1e-3, 2e-3, 0.5, 2.0, math.inf, math.inf, math.nan])
    value = np.array([0.0, 0.0, 100.0, 100.0, 100.0, math.inf, 1.0])
    assert cfg.met(error, value).tolist() == [True, False, True, False, False, False, False]
    assert cfg.met(1e-3, -0.05) and not cfg.met(math.inf, math.inf)


def _no_warning(call):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return call()


@pytest.mark.parametrize(
    "f",
    [lambda t: np.full_like(t, 1e308), lambda t: np.where(np.abs(t) > 11.9, 1e308, 0.0)],
    ids=["everywhere", "beyond_11.9"],
)
def test_real_line_overflowing_tail_bound_is_an_inf_estimate(f):
    # the tail bound adds |f| at both truncation points, which overflows
    r = _no_warning(lambda: integrate_real_line(f))
    assert r.error_estimate == math.inf
    assert not r.converged


def test_overflowed_interval_total_is_not_converged():
    # finite panel values whose sum passes DBL_MAX: the estimate is finite,
    # but an infinite total meets no target, and the integral stops after
    # its three initial panels rather than spending its split budget
    r = _no_warning(
        lambda: _interval(lambda t, k: np.full_like(t, 0.8e308), 0.0, 3.0, np.array([[1.0, 2.0]]))
    )
    assert r.value[0] == math.inf and math.isfinite(r.error_estimate[0])
    assert not r.converged[0]
    assert r.evaluations[0] == 45


def test_non_finite_tail_bound_value_names_its_abscissa():
    # every panel node lies inside (-12, 12); only the tail bound's call at
    # the truncation points sees the NaN
    def f(t):
        return np.where(np.abs(t) >= 12, np.nan, np.exp(-t * t))

    with pytest.raises(IntegrationError, match="^integrand returned a non-finite value") as err:
        integrate_real_line(f)
    assert _named_abscissa(err) == -12.0
    with pytest.raises(IntegrationError, match="^integrand returned a non-finite value") as err:
        integrate_real_line_batch(lambda t, k: np.where(k == 1, f(t), np.exp(-t * t)), 2)
    assert _named_abscissa(err) == -12.0


# ---------------------------------------------------- one scalar route shell


def _fake_route(converged):
    calls = []

    def route(a, u, config):
        calls.append((a.tolist(), u.tolist(), config))
        return quadrature.QuadratureBatch(
            a + u, np.array([0.25]), np.array([converged]), np.array([15])
        )

    return route, calls


def test_route_point_makes_one_one_point_call():
    route, calls = _fake_route(True)
    cfg = QuadratureConfig()
    r = quadrature._route_point(route, cfg, True, a=1.5, u=np.float64(-0.5))
    assert (r.value, r.error_estimate, r.method) == (1.0, 0.25, "quadrature")
    assert type(r.value) is float
    assert calls == [([1.5], [-0.5], cfg)]
    # a direct route takes either sign of a
    assert quadrature._route_point(route, None, False, a=-1.5, u=0.5).value == -1.0


@pytest.mark.parametrize(
    "positive, point, message",
    [
        (True, {"a": math.nan, "u": 0.0}, "^a must be finite, got nan$"),
        (True, {"a": 1.0, "u": -math.inf}, "^u must be finite, got -inf$"),
        (True, {"a": 0.0, "u": 0.0}, r"^a must be > 0 on this route, got 0\.0$"),
        (True, {"a": -1.0, "u": 0.0}, r"^a must be > 0 on this route, got -1\.0$"),
        (False, {"a": -0.0, "u": 0.0}, r"^a must be nonzero on this route, got -0\.0$"),
    ],
)
def test_route_point_checks_the_point_before_the_call(positive, point, message):
    route, calls = _fake_route(True)
    with pytest.raises(DomainError, match=message):
        quadrature._route_point(route, None, positive, **point)
    assert calls == []


def test_route_point_names_an_unconverged_point_and_its_estimate():
    route, _ = _fake_route(False)
    with pytest.raises(
        IntegrationError,
        match=r"^quadrature did not converge at \(a, u\)=\(2\.0, 0\.5\); error estimate 2\.500e-01$",
    ):
        quadrature._route_point(route, None, True, a=2.0, u=0.5)


# each public scalar route and the batched route it makes its one-point call to
_SHELLS = {
    "h2_quadrature": (routes.h2_quadrature, routes._h2_route),
    "i2_quadrature": (routes.i2_quadrature, routes._i2_route),
    "h2_rectangle": (
        lambda a, u1, u2, cfg: routes.h2_rectangle(a, u1, u2, config=cfg), routes._rectangle_route
    ),
    "double": (
        lambda a, u1, u2, cfg: routes.h2_integral_rep(a, u1, u2, "double", cfg), routes._h2_route
    ),
    "single_complex": (
        lambda a, u1, u2, cfg: routes.h2_integral_rep(a, u1, u2, "single_complex", cfg),
        routes._rep_single_complex,
    ),
    "h0_laplace_rep": (
        lambda a, u, _, cfg: routes.h0_laplace_rep(a, u, cfg),
        lambda a, u, _, cfg: routes._laplace_route(a, u, cfg),
    ),
}

# a one-split budget leaves some points unconverged, the tight one most
_SHELL_CONFIGS = [
    None,
    QuadratureConfig(max_subdivisions=1),
    QuadratureConfig(abs_tol=1e-14, rel_tol=1e-14, max_subdivisions=1),
]


@settings(max_examples=120, deadline=None, derandomize=True)
@given(
    name=st.sampled_from(sorted(_SHELLS)),
    a=st.floats(0.1, 5.0),
    u1=st.floats(-3.0, 3.0),
    u2=st.floats(-3.0, 3.0),
    cfg=st.sampled_from(_SHELL_CONFIGS),
)
def test_scalar_route_returns_its_one_point_batch(name, a, u1, u2, cfg):
    # the scalar call is the one-point batch: its value and estimate bit for
    # bit as Python floats where the batch converged, IntegrationError where
    # it did not
    scalar, route = _SHELLS[name]
    batch = route(np.array([a]), np.array([u1]), np.array([u2]), cfg)
    if not batch.converged[0]:
        with pytest.raises(IntegrationError, match="^quadrature did not converge at"):
            scalar(a, u1, u2, cfg)
        return
    r = scalar(a, u1, u2, cfg)
    assert type(r.value) is float and type(r.error_estimate) is float
    assert r.value.hex() == float(batch.value[0]).hex()
    assert r.error_estimate.hex() == float(batch.error_estimate[0]).hex()
    assert r.method == "quadrature"


def test_scalar_route_shell_reaches_both_outcomes():
    # the property above sees converged and unconverged batches alike
    a, u1, u2 = np.array([0.1]), np.array([2.0]), np.array([-2.0])
    for _, route in _SHELLS.values():
        assert route(a, u1, u2, None).converged[0]
        assert not route(a, u1, u2, _SHELL_CONFIGS[2]).converged[0]
