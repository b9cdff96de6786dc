"""Engine checks against integrals with independently known values."""

from __future__ import annotations

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relvoigt import DomainError, IntegrationError
from relvoigt.quadrature import integrate_real_line
from relvoigt import quadrature, routes

from oracles import erfc_real

SQRT_PI = math.sqrt(math.pi)


def _interval(f, lo, hi, seeds=None, tail=0.0, panels=1):
    # integral k of the batched integrand f over [lo[k], hi[k]] (scalars for
    # one integral) from panels equal panels, seeds an (n, m) array of extra
    # initial panel edges, none by default, and tail the bound each estimate
    # adds, through the refinement loop
    lo, hi = np.atleast_1d(lo).astype(float), np.atleast_1d(hi).astype(float)
    return quadrature._integrate_intervals(f, lo, hi, panels, 1e-10, seeds, tail)


def _real_line(f, n, seeds=None, tail=0.0):
    # n integrals of f over the real line's truncation [-12, 12], from its
    # 16 uniform panels plus row k of seeds for integral k
    return _interval(f, np.full(n, -12.0), np.full(n, 12.0), seeds, tail, 16)


def _compactified(f, n):
    # n integrals of f over the tan-mapped real line, with no seeds
    return routes._compactified(f, np.zeros((n, 0)))


def test_gaussian_integral():
    r = integrate_real_line(lambda t: np.exp(-t * t))
    assert r.converged
    assert abs(r.value - SQRT_PI) < 1e-13
    assert r.error_estimate < 1e-9
    # every integrator runs at one fixed target: an estimate of at most
    # 1e-10 where |value| < 1, and 1e-10 |value| where |value| > 1
    for scale in (0.25, 1e3):
        for r in (
            integrate_real_line(lambda t: scale * np.exp(-t * t)),
            _real_line(lambda t, k: scale * np.exp(-t * t), 2),
            _compactified(lambda t, k: scale / (1.0 + t**4), 2),
        ):
            value = np.abs(r.value)
            assert np.all(r.converged)
            assert np.all(value < 1.0) == (scale < 1.0), scale
            assert np.all(r.error_estimate <= np.maximum(1e-10, 1e-10 * value)), scale


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
    r = _compactified(lambda t, k: 1.0 / (1.0 + t**4), 1)
    assert r.converged[0]
    assert abs(r.value[0] - math.pi / math.sqrt(2.0)) < 1e-11


def test_linearity():
    f = lambda t: np.exp(-t * t)
    g = lambda t: np.exp(-t * t) / (t * t + 1.0)
    both = integrate_real_line(lambda t: 2.0 * f(t) + 3.0 * g(t))
    single = 2.0 * integrate_real_line(f).value + 3.0 * integrate_real_line(g).value
    assert abs(both.value - single) < 1e-11


def test_subdivision_budget_reports_nonconvergence(monkeypatch):
    # the seed pins panel edges onto a peak four decades narrower than the
    # window; one split round cannot resolve it and the budget stops there
    monkeypatch.setattr(quadrature, "_MAX_SPLITS", 1)
    f = lambda t: np.exp(-t * t) / (t * t + 1e-8)
    r = integrate_real_line(f, seeds=[0.0])
    assert not r.converged


def test_nan_from_integrand_stops_it_unconverged():
    # the NaN panels of the opening round make the total NaN and their
    # estimates inf: the integral stops there, with no split and no raise
    def f(t: np.ndarray) -> np.ndarray:
        out = np.exp(-t * t)
        out[np.abs(t) < 0.5] = np.nan
        return out

    r = integrate_real_line(f)
    assert math.isnan(r.value) and r.error_estimate == math.inf
    assert not r.converged
    assert r.evaluations == 16 * 15 + 2


def test_evaluation_count_reported():
    r = integrate_real_line(lambda t: np.exp(-t * t))
    assert r.evaluations > 0


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

    batch = _real_line(f, n, seeds)
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

    batch = routes._compactified(f, c[:, None])
    for k in range(n):
        single = routes._compactified(lambda t, j: f(t, k), c[k : k + 1, None])
        _agree(batch, k, single)
        # Int w/((t-c)^2+w^2)^2 dt = pi/(2 w^2)
        assert abs(batch.value[k] - math.pi / (2.0 * w[k] ** 2)) <= 1e-9 * batch.value[k]


@pytest.mark.parametrize("budget, widths", [(1, [1e-4, 2.0, 4.0]), (8, [1e-4, 0.3, 2.0])])
def test_exhausted_budget_stops_only_its_member(budget, widths, monkeypatch):
    # member 0 has a peak four decades narrower than its seeded panels and
    # needs more splits than the budget allows; every member has a budget
    # of its own, so the others still converge (the 0.3 peak takes 5 splits)
    monkeypatch.setattr(quadrature, "_MAX_SPLITS", budget)
    w = np.array(widths)

    def f(t, k):
        return np.exp(-t * t) / (t * t + w[k] ** 2)

    batch = _real_line(f, 3, np.zeros((3, 1)))
    assert batch.converged.tolist() == [False, True, True]
    for k in range(3):
        _agree(batch, k, integrate_real_line(lambda t: f(t, k), seeds=[0.0]))


def test_nan_from_one_batch_member_stops_only_it():
    def f(t, k):
        out = np.exp(-t * t)
        out[(k == 2) & (np.abs(t) < 0.5)] = np.nan
        return out

    batch = _real_line(f, 4)
    assert batch.converged.tolist() == [True, True, False, True]
    assert math.isnan(batch.value[2]) and batch.error_estimate[2] == math.inf
    ok = [0, 1, 3]
    assert (np.abs(batch.value[ok] - SQRT_PI) <= batch.error_estimate[ok]).all()


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
        assert routes._peak_seeds(centers[None, :], [width])[0].tolist() == walk(centers, width)
    # rows of a batch are padded by repeating their centers
    rows = routes._peak_seeds([[0.0], [1.0]], [0.01, 1.0])
    assert set(rows[0]) == set(walk([0.0], 0.01))
    assert set(rows[1]) == set(walk([1.0], 1.0))
    assert routes._peak_seeds([[1.0, 2.0]], [2.0]).tolist() == [[1.0, 2.0]]
    # a width that underflowed to 0 can never grow past 2: no walk, no hang
    assert routes._peak_seeds([[1.0, 2.0]], [0.0]).tolist() == [[1.0, 2.0]]


# ------------------------------------------------------ one loop per call
#
# All the integrals of a call refine in one loop, and each round hands the
# integrand consecutive runs of at most _CHUNK panels; an integral refines
# as it would alone.


def _chunk_rows(n, seeds=None):
    # panel rows of each integrand call of one _integrate_intervals run
    # whose integrals all converge on their initial panels
    rows = []

    def f(x, k):
        rows.append(x.shape[0])
        return x * x

    r = _interval(f, np.zeros(n), np.ones(n), seeds)
    assert r.converged.all()
    assert np.allclose(r.value, 1.0 / 3.0, rtol=1e-14, atol=0.0)
    return rows


def test_no_integrand_call_carries_more_than_a_chunk_of_panels():
    def runs(panels):
        chunk = quadrature._CHUNK
        return [min(chunk, panels - k) for k in range(0, panels, chunk)]

    assert _chunk_rows(1500) == runs(1500)
    # 44 interior edges: 45 initial panels each, as in the h2 oracle
    seeds = np.broadcast_to(np.linspace(0.0, 1.0, 46)[1:-1], (130, 44))
    assert _chunk_rows(130, seeds) == runs(130 * 45)


def _spikes(c, w):
    # integral k of w[k] / ((t - c[k])^2 + w[k]^2) over [-1, 1] from 9
    # initial panels: refinement has to find each spike, in fewer rounds the
    # wider it is, and 500 integrals' first round spans several chunks
    def f(t, k):
        return w[k] / ((t - c[k]) ** 2 + w[k] ** 2)

    n = c.size
    seeds = np.broadcast_to(np.linspace(-1.0, 1.0, 10)[1:-1], (n, 8))
    r = _interval(f, np.full(n, -1.0), np.ones(n), seeds)
    return r.value, r.error_estimate, r.converged, r.evaluations


@pytest.mark.parametrize("subdivisions", [4000, 30])
def test_an_integral_refines_alike_alone_and_among_500_companions(subdivisions, monkeypatch):
    monkeypatch.setattr(quadrature, "_MAX_SPLITS", subdivisions)
    rng = np.random.default_rng(22)
    c = rng.uniform(-0.9, 0.9, 500)
    w = 10.0 ** rng.uniform(-6.0, 0.0, 500)
    value, error, converged, evaluations = _spikes(c, w)
    assert 0 < converged.sum() < 500 if subdivisions == 30 else converged.all()
    for k in np.argsort(w)[::50]:
        v, e, ok, ev = _spikes(c[k : k + 1], w[k : k + 1])
        assert (ev[0], ok[0]) == (evaluations[k], converged[k])
        # only the rounding of the weighted panel sums depends on a panel's
        # place in the integrand call
        assert abs(v[0] - value[k]) <= 4 * np.spacing(value[k])
        assert abs(e[0] - error[k]) <= 1e-3 * error[k]


# -------------------------------------------------------- one layout rule
#
# A caller hands the integrator windows and panel counts, as QUADPACK's QAG
# takes a range and a limit; the integrator lays out the initial panels:
# np.linspace's edges, plus any seeds strictly inside the window.


def _initial_edges(lo, hi, panels, seeds=None):
    # per integral, the initial panel edges _integrate_intervals hands the
    # refinement loop, which must list each integral's panels contiguously
    seen = {}

    def capture(f, plo, phi, own, n, tol):
        seen.update(plo=plo, phi=phi, own=own)
        return np.zeros(n), np.zeros(n), np.ones(n, dtype=bool), np.zeros(n, dtype=np.int64)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(quadrature, "_refine", capture)
        quadrature._integrate_intervals(None, lo, hi, panels, 1e-10, seeds)
    plo, phi, own = seen["plo"], seen["phi"], seen["own"]
    assert (np.diff(own) >= 0).all()
    rows = []
    for k in range(lo.size):
        mine = own == k
        assert (plo[mine][1:] == phi[mine][:-1]).all()
        rows.append(np.append(plo[mine], phi[mine][-1]))
    return rows


def _layout_cases():
    # 40 seeded windows of widths 1e-6 to 1e3 anywhere in [-5e4, 5e4], and
    # their panel counts, one for all or one each
    rng = np.random.default_rng(35)
    lo = rng.uniform(-50.0, 50.0, 40) * 10.0 ** rng.uniform(-3.0, 3.0, 40)
    hi = lo + 10.0 ** rng.uniform(-6.0, 3.0, 40)
    return rng, lo, hi, (17, rng.integers(1, 300, 40))


def test_initial_panels_are_linspace_edges_bit_for_bit():
    rng, lo, hi, cases = _layout_cases()
    for panels in cases:
        count = np.broadcast_to(panels, lo.shape)
        want = [np.linspace(lo[k], hi[k], count[k] + 1) for k in range(lo.size)]
        got = _initial_edges(lo, hi, panels)
        assert [e.tobytes() for e in got] == [w.tobytes() for w in want]
        # seeds inside the window add their edges, sorted in
        inside = lo[:, None] + rng.uniform(0.0, 1.0, (lo.size, 3)) * (hi - lo)[:, None]
        got = _initial_edges(lo, hi, panels, inside)
        want = [np.unique(np.concatenate([w, s])) for w, s in zip(want, inside)]
        assert [e.tobytes() for e in got] == [w.tobytes() for w in want]


def test_seeds_outside_the_window_or_on_an_edge_add_nothing():
    _, lo, hi, cases = _layout_cases()
    for panels in cases:
        bare = _initial_edges(lo, hi, panels)
        width = hi - lo
        on_edges = np.stack([e[[0, len(e) // 2, -1]] for e in bare])
        outside = np.stack([lo - width, lo - 1e-3 * width, hi + width, np.full(lo.size, 1e300)], 1)
        got = _initial_edges(lo, hi, panels, np.concatenate([on_edges, outside], axis=1))
        assert [e.tobytes() for e in got] == [e.tobytes() for e in bare]


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
        batch = _real_line(f, 3, c[:, None])
    else:
        batch = routes._compactified(f, c[:, None])
    assert batch.converged.all()
    assert len(calls) > 1
    for t_shape, k_shape, k_kind in calls:
        assert len(t_shape) == 2 and t_shape[1] == 15
        assert k_shape == (t_shape[0], 1) and k_kind == "i"


def _own_windows(f, center):
    # integral k over its own window center[k] +- 12, in 16 initial panels
    edges = center[:, None] + np.linspace(-12.0, 12.0, 17)
    r = _interval(f, edges[:, 0], edges[:, -1], edges)
    return r.value, r.error_estimate, r.converged, r.evaluations


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
        # the Gaussian tail bound, taken before the refinement it joins,
        # sees the two truncation points
        assert shapes[0] == (2,)
    else:
        r = routes._compactified(g, np.array([[0.0]]))
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
# in the last bits
_PANEL_MAJOR_RESULTS = {
    "interval": (3.899215201640467e-06, 5.3044623761938537e-11, 1470),
    "real_line": (1.772453850905516, 2.790419937341101e-11, 242),
    "compactified": (314.1592653589795, 1.4641225925534355e-09, 690),
}


@pytest.mark.parametrize("kind", sorted(_PANEL_MAJOR_RESULTS))
def test_scalar_entries_agree_with_their_panel_major_results(kind):
    if kind == "interval":
        r = _interval(lambda t, k: np.cos(30.0 * t) * np.exp(-t * t), -3.0, 5.0,
                      np.array([[0.3]]))
    elif kind == "real_line":
        r = integrate_real_line(lambda t: np.exp(-t * t))
    else:
        r = _compactified(lambda t, k: 1.0 / (1e-4 + (t - 0.3) ** 2), 1)
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
        lambda: _compactified(lambda t, k: np.zeros(3), 1),
        lambda: _real_line(lambda t, k: np.exp(-t * t).ravel(), 2),
        lambda: _real_line(lambda t, k: np.exp(-t * t)[:, :-1], 2),
        lambda: _compactified(lambda t, k: np.ones(t.shape[0]), 2),
    ],
    ids=["interval", "real_line", "compactified", "batch_flat", "batch_short_rows",
         "compactified_batch"],
)
def test_wrong_length_return_is_an_integration_error(call):
    # a return of the wrong length, through integrate_real_line's 1-D
    # adapter as well, must not surface as numpy's reshape ValueError
    with pytest.raises(IntegrationError, match=_WRONG_LENGTH):
        call()


@pytest.mark.parametrize(
    "call",
    [
        lambda f: integrate_real_line(lambda t: f(t, 0)),
        lambda f: _interval(f, 0.0, 24.0),
    ],
    ids=["real_line", "interval"],
)
def test_complex_values_are_an_integration_error(call):
    # the kernel integrates real values only: a complex return fails the
    # whole call, rather than being cast to its real part with a warning
    calls = []

    def f(t, k):
        calls.append(t.shape)
        return np.exp(-t * t) / (t - (0.2 + 0.01j))

    with pytest.raises(IntegrationError, match="^integrand must return real values$"):
        _no_warning(lambda: call(f))
    assert len(calls) == 1


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
@pytest.mark.parametrize("kind", ["real", "oscillatory"])
def test_kernel_sums_match_exact_sums_within_a_few_ulp(kind, n):
    # a positive peaked integrand, and one whose values change sign
    lo, hi, own, c, w = _kernel_panels(n)
    if kind == "real":
        def f(t, k):
            return np.exp(-t * t) / ((t - c[k]) ** 2 + w[k] ** 2)
    else:
        def f(t, k):
            return np.exp(-0.25 * t * t) * np.cos(c[k] * t * t + w[k] * t)

    value, estimate = quadrature._eval_panels(f, lo, hi, own)
    wk, wg = quadrature._WK, quadrature._WG
    for p in range(n):
        half, mid = 0.5 * (hi[p] - lo[p]), 0.5 * (lo[p] + hi[p])
        fv = f((half * quadrature._XK + mid)[None, :], own[p : p + 1, None])[0]
        resk = math.fsum(wk * fv) * half
        resg = math.fsum(wg * fv[1:14:2]) * half
        resabs = math.fsum(wk * np.abs(fv)) * half
        resasc = math.fsum(wk * np.abs(fv - resk / (hi[p] - lo[p]))) * half
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


def _same_value(got, want) -> bool:
    # equal, or both NaN
    return got == want or (math.isnan(got) and math.isnan(want))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_value_stops_its_integral_unconverged(bad):
    # the bad value's panels give the total that value and an inf estimate;
    # the integral stops after its opening round, and nothing warns
    def f(t):
        return np.where(np.abs(t - 0.3) < 0.5, bad, np.exp(-t * t))

    r = integrate_real_line(f)
    assert _same_value(r.value, bad) and r.error_estimate == math.inf
    assert not r.converged
    assert r.evaluations == 16 * 15 + 2


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_batch_value_stops_only_its_integral(bad):
    # only integral 1 (window 5 +- 12) goes bad; the integrals around it
    # converge as they do in the same call without it
    center = np.array([0.0, 5.0, -5.0])

    def f(t, k):
        bad_here = (k == 1) & (np.abs(t - 5.3) < 0.5)
        return np.where(bad_here, bad, np.exp(-((t - center[k]) ** 2)))

    value, estimate, converged, _ = _own_windows(f, center)
    assert converged.tolist() == [True, False, True]
    assert _same_value(value[1], bad) and estimate[1] == math.inf
    rest = center[[0, 2]]
    clean, _, clean_converged, _ = _own_windows(lambda t, k: np.exp(-((t - rest[k]) ** 2)), rest)
    assert clean_converged.all()
    assert (np.abs(value[[0, 2]] - clean) <= estimate[[0, 2]]).all()


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


_NOT_FLAT = "^seeds must be a flat sequence of real numbers$"

# the seeds come as a flat list; a (1, m) row of them is refused rather
# than flattened
_SEED_CALLS = {
    "real_line": (lambda s: [0.0, s], "^seeds must be finite$"),
    "real_line_batch": (lambda s: [[0.0, s]], _NOT_FLAT),
}


def _seeded(seeds):
    return lambda: integrate_real_line(lambda t: np.exp(-t * t), seeds=seeds)


@pytest.mark.parametrize(
    "call, message",
    [
        *(
            pytest.param(_seeded(row(bad)), message, id=f"{name}-{bad}")
            for name, (row, message) in _SEED_CALLS.items()
            for bad in (np.nan, np.inf)
        ),
        # seeds that numpy would reject with its own TypeError or ValueError
        pytest.param(_seeded([1j]), _NOT_FLAT, id="complex_seed"),
        pytest.param(_seeded(["x"]), _NOT_FLAT, id="text_seed"),
        # finite seeds that are not a flat sequence are not flattened
        pytest.param(_seeded([[1.0, 2.0], [3.0, 4.0]]), _NOT_FLAT, id="two_rows"),
        pytest.param(_seeded(0.5), _NOT_FLAT, id="scalar_seed"),
    ],
)
def test_non_finite_seed_names_the_seeds(call, message):
    # a bad seed is a DomainError naming the seeds
    with pytest.raises(DomainError, match=message):
        call()


# ---------------------------------------------------------- one stop rule
#
# _met is the stop test of every integrator and route: an error meets
# max(tol, tol |value|) only when it and the value are finite, even against
# the inf target of an inf value.


def test_met_needs_a_finite_error_within_target():
    met = quadrature._met
    error = np.array([1e-3, 2e-3, 0.1, 0.2, math.inf, math.inf, math.nan, 1e-3])
    value = np.array([0.0, 0.0, 100.0, 100.0, 100.0, math.inf, 1.0, math.nan])
    assert met(error, value, 1e-3).tolist() == [
        True, False, True, False, False, False, False, False
    ]
    assert met(1e-3, -0.05, 1e-3) and not met(math.inf, math.inf, 1e-3)
    # max(tol, tol |value|) is tol max(1, |value|) bit for bit, so either
    # form of a route's target decides alike
    rng = np.random.default_rng(28)
    value = rng.choice([-1.0, 1.0], 10_000) * 10.0 ** rng.uniform(-3.0, 3.0, 10_000)
    error = 1e-8 * np.abs(value) * rng.uniform(0.5, 1.5, 10_000)
    error[::7] = 1e-8 * np.maximum(1.0, np.abs(value[::7]))
    assert np.array_equal(met(error, value, 1e-8), error <= 1e-8 * np.maximum(1.0, np.abs(value)))


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


def test_non_finite_tail_bound_value_stops_only_its_integral():
    # every panel node lies inside (-12, 12); only the tail bound's call at
    # the truncation points sees the NaN, which leaves that integral's value
    # as it was and its estimate NaN
    def f(t):
        return np.where(np.abs(t) >= 12, np.nan, np.exp(-t * t))

    r = integrate_real_line(f)
    assert math.isnan(r.error_estimate) and not r.converged
    assert r.value == integrate_real_line(lambda t: np.exp(-t * t)).value
    # in a batch, a NaN tail bound stops only the integral it joins
    batch = _real_line(lambda t, k: np.exp(-t * t), 2, tail=np.array([0.0, np.nan]))
    assert batch.converged.tolist() == [True, False]
    assert math.isnan(batch.error_estimate[1])
    assert abs(batch.value[0] - SQRT_PI) <= batch.error_estimate[0]
    assert abs(batch.value[1] - batch.value[0]) <= batch.error_estimate[0]


# ---------------------------------------------------- one scalar route shell


def _fake_route(converged):
    calls = []

    def route(a, u):
        calls.append((a.tolist(), u.tolist()))
        return quadrature.QuadratureBatch(
            a + u, np.array([0.25]), np.array([converged]), np.array([15])
        )

    return route, calls


def test_route_point_makes_one_one_point_call():
    route, calls = _fake_route(True)
    r = quadrature._route_point(route, True, a=1.5, u=np.float64(-0.5))
    assert (r.value, r.error_estimate, r.method) == (1.0, 0.25, "quadrature")
    assert type(r.value) is float
    assert calls == [([1.5], [-0.5])]
    # a direct route takes either sign of a
    assert quadrature._route_point(route, False, a=-1.5, u=0.5).value == -1.0


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
        quadrature._route_point(route, positive, **point)
    assert calls == []


def test_route_point_names_an_unconverged_point_and_its_estimate():
    route, _ = _fake_route(False)
    with pytest.raises(
        IntegrationError,
        match=r"^quadrature did not converge at \(a, u\)=\(2\.0, 0\.5\); error estimate 2\.500e-01$",
    ):
        quadrature._route_point(route, True, a=2.0, u=0.5)


# Each public scalar route, the batched route it makes its one-point call
# to, two boxes of points, one (lo, hi) range per coordinate, and the
# route's tolerance: every route converges on the first box and fails on
# the second, as measured at both corners.  The direct routes fail on the diagonal at a <= 1e-20,
# whose merged peak the integral does not resolve, and off it, where no
# node can land in a peak; single_complex where its window 50/a needs more
# than 8,000 breakpoints; the Laplace route where u x oscillates faster
# than its splits resolve; h2_rectangle past its working range.
_CONVERGING = ((0.1, 5.0), (-3.0, 3.0), (-3.0, 3.0))
_TINY_A = ((1e-30, 1e-20), (1.0, 3.0), (1.0, 3.0))
_SHELLS = {
    "h2_quadrature": (routes.h2_quadrature, routes._h2_route, _TINY_A, 1e-10),
    "i2_quadrature": (routes.i2_quadrature, routes._i2_route, _TINY_A, 1e-10),
    "double": (
        lambda a, u1, u2: routes.h2_integral_rep(a, u1, u2, "double"),
        routes._h2_route,
        _TINY_A,
        1e-10,
    ),
    "single_complex": (
        lambda a, u1, u2: routes.h2_integral_rep(a, u1, u2, "single_complex"),
        routes._rep_single_complex,
        ((1e-7, 1e-6), (1.0, 3.0), (-1.0, 0.0)),
        1e-8,
    ),
    "h0_laplace_rep": (
        lambda a, u, _: routes.h0_laplace_rep(a, u),
        lambda a, u, _: routes._laplace_route(a, u),
        ((1e-4, 1e-3), (1e5, 1e6), (0.0, 0.0)),
        1e-10,
    ),
    "h2_rectangle": (
        routes.h2_rectangle,
        routes._rectangle_route,
        ((100.0, 3000.0), (-3.0, 3.0), (-3.0, 3.0)),
        1e-8,
    ),
}


def _shell_boxes(name):
    return _CONVERGING, _SHELLS[name][2]


@st.composite
def _shell_points(draw, names):
    name = draw(st.sampled_from(names))
    box = draw(st.sampled_from(_shell_boxes(name)))
    return name, tuple(draw(st.floats(lo, hi)) for lo, hi in box)


def _assert_one_point_batch(name, a, u1, u2):
    # the scalar call is the one-point batch: its value and estimate bit for
    # bit as Python floats where the batch converged, IntegrationError where
    # it did not; a converged estimate is within the route's tolerance
    scalar, route, _, tol = _SHELLS[name]
    with np.errstate(all="ignore"):
        batch = route(np.array([a]), np.array([u1]), np.array([u2]))
    if not batch.converged[0]:
        with pytest.raises(IntegrationError, match="^quadrature did not converge at"):
            scalar(a, u1, u2)
        return
    assert batch.error_estimate[0] <= max(tol, tol * abs(batch.value[0])), (name, a, u1, u2)
    r = scalar(a, u1, u2)
    assert type(r.value) is float and type(r.error_estimate) is float
    assert r.value.hex() == float(batch.value[0]).hex()
    assert r.error_estimate.hex() == float(batch.error_estimate[0]).hex()
    assert r.method == "quadrature"


def _assert_both_outcomes(name):
    # the property sees converged and unconverged batches alike: the route
    # converges at both corners of its first box and fails at both corners
    # of its second
    route = _SHELLS[name][1]
    for box, want in zip(_shell_boxes(name), (True, False)):
        with np.errstate(all="ignore"):
            assert route(*np.array(box)).converged.tolist() == [want, want], (name, box)


# the integral routes; h2_rectangle's entry has its own two tests below
_INTEGRAL_SHELLS = sorted(set(_SHELLS) - {"h2_rectangle"})


@settings(max_examples=150, deadline=None, derandomize=True)
@given(shell_point=_shell_points(_INTEGRAL_SHELLS))
def test_scalar_route_returns_its_one_point_batch(shell_point):
    name, point = shell_point
    _assert_one_point_batch(name, *point)


def test_scalar_route_shell_reaches_both_outcomes():
    for name in _INTEGRAL_SHELLS:
        _assert_both_outcomes(name)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(shell_point=_shell_points(["h2_rectangle"]))
def test_rectangle_returns_its_one_point_batch(shell_point):
    name, point = shell_point
    _assert_one_point_batch(name, *point)


def test_rectangle_shell_reaches_both_outcomes():
    _assert_both_outcomes("h2_rectangle")
