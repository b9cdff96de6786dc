"""Relativistic line-broadening function: pole algebra, evaluation paths,
integral representations, profile and damping layers."""

from __future__ import annotations

import dataclasses
import importlib.util
import math
import pickle
import re
import struct
import warnings
from pathlib import Path

import numpy as np
import pytest

from relvoigt import (
    DomainError,
    EvalResult,
    IntegrationError,
    ParameterError,
    ProfileParams,
    bw_rel,
    d0,
    d0_grid,
    d2,
    d2_grid,
    gaussian,
    h2,
    h2_degenerate_series,
    h2_grid,
    h2_integral_rep,
    h2_large_u_asymptotic,
    h2_limit_a0,
    h2_quadrature,
    h2_rectangle,
    i2_closed,
    i2_grid,
    i2_quadrature,
    faddeeva_w,
    pole_set,
    v0,
    v0_grid,
    v2,
    v2_gamma0_limit,
    v2_grid,
)
from relvoigt.quadrature import integrate_real_line
from relvoigt import quadrature, rel_voigt, routes, verify
from relvoigt.rel_voigt import _pole_group
from relvoigt.routes import _rectangle_route, _rep_single_complex

SQRT_PI = math.sqrt(math.pi)
EPS = float(np.finfo(float).eps)
SQRT_2PI = math.sqrt(2.0 * math.pi)


def _load_reference():
    # the benchmark's 40-digit mpmath references, loaded by path so the
    # tests share them rather than keep a second copy
    path = Path(__file__).resolve().parents[1] / "perfbench" / "ref.py"
    spec = importlib.util.spec_from_file_location("perfbench_ref", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


REF = _load_reference()


def quartic_at(t: complex, a: float, u1: float, u2: float) -> complex:
    return (t - u1) ** 2 * (t - u2) ** 2 + a * a


# ---------------------------------------------------------------- pole set


def test_pole_set_degenerate_collapse():
    ps = pole_set(0.0, 0.0, 2.0)
    assert ps.w1 == 2.0 + 0.0j and ps.w2 == 2.0 + 0.0j
    roots = sorted([ps.t1_minus, ps.t2_minus, ps.t1_plus, ps.t2_plus], key=lambda z: z.real)
    assert [z.real for z in roots] == [0.0, 0.0, 2.0, 2.0]
    assert all(z.imag == 0.0 for z in roots)


def test_pole_set_upper_half_plane_poles():
    ps = pole_set(1.0, 1.0, 0.0)
    assert ps.t1_plus.imag > 0.0
    assert ps.t2_minus.imag > 0.0
    assert ps.w2 == ps.w1.conjugate()


def test_pole_set_reconstructs_quartic():
    """The four roots factor (t-u1)^2 (t-u2)^2 + a^2 exactly."""
    rng = np.random.default_rng(20240824)
    cases = [(0.7, -1.1, 2.3), (0.0, 0.0, 2.0), (1e-6, 1.0, 1.0)]
    cases += [tuple(x) for x in rng.uniform(-3, 3, (20, 3))]
    for a, u1, u2 in cases:
        ps = pole_set(a, u1, u2)
        for probe in (0.37, -1.6, 2.2, 0.0):
            direct = quartic_at(probe, a, u1, u2)
            product = (
                (probe - ps.t1_plus)
                * (probe - ps.t1_minus)
                * (probe - ps.t2_plus)
                * (probe - ps.t2_minus)
            )
            assert abs(product - direct) <= 1e-10 * max(1.0, abs(direct))


# ---------------------------------------------------------------- h2 paths


def test_h2_caption_values():
    assert abs(h2(1e-6, 1.0, 0.0).value - (1.0 + 1.0 / math.e)) < 5e-3
    assert abs(h2(1e-6, 1.0, -1.0).value - 1.0 / math.e) < 5e-3


def test_h2_swap_example():
    assert h2(1.0, 1.0, -1.0).value == h2(1.0, -1.0, 1.0).value


def test_h2_at_zero_a():
    r = h2(0.0, 5.0, 3.0)
    assert r == EvalResult(0.0, 0.0, "closed_form")


def test_h2_method_tags():
    assert h2(1.0, 1.0, 0.0).method == "closed_form"
    # on the diagonal at small a, too, the closed form is the route, and
    # it is accurate there (see test_h2_accuracy_map_against_mpmath)
    for a in (1e-4, -1e-4):
        r = h2(a, 2.0, 2.0)
        ref = float(REF.h2_mp(a, 2.0, 2.0))
        assert r.method == "closed_form"
        assert abs(r.value - ref) <= r.error_estimate
        assert abs(r.value - ref) <= 1e-11 * abs(ref)
    assert h2_quadrature(1.0, 1.0, 0.0).method == "quadrature"
    assert h2_large_u_asymptotic(1.0, 20.0, 30.0).method == "large_u_asymptotic"


# a from 1e-30 to 1e8, on and near the diagonal u1 = u2 (where the two
# Faddeeva terms cancel) and on the anti-diagonal u1 = -u2
_MAP_A = (1e-30, 1e-15, 1e-9, 1e-4, 1e-1, 1e2, 1e8)
_MAP_GAPS = (0.0, 1e-7, 1e-4, 1e-3, 1e-2)
_MAP_U = (0.0, 1.0, 2.0, 3.0, -3.0, 6.0, 9.0)


def _accuracy_map() -> list[tuple[float, float, float]]:
    pts = [(a, u, u + gap) for a in _MAP_A for gap in _MAP_GAPS for u in _MAP_U]
    pts += [(a, u, -u) for a in _MAP_A for u in _MAP_U if u > 0.0]
    return pts


def test_h2_accuracy_map_against_mpmath():
    """h2 and h2_grid against 40-digit references on 280 points.

    The error estimate must bound the true error everywhere, including
    near the diagonal at large |u| and small a, where the closed form
    loses accuracy to cancellation; for max(|u1|, |u2|) <= 3 the relative
    error must also be at most 1e-11.
    """
    pts = _accuracy_map()
    a, u1, u2 = (np.array(c) for c in zip(*pts))
    grid = h2_grid(a, u1, u2)
    assert not grid.codes.any()
    for k, p in enumerate(pts):
        r = h2(*p)
        assert (r.value, r.error_estimate) == (grid.value[k], grid.error_estimate[k]), p
        ref = float(REF.h2_mp(*p))
        dev = abs(r.value - ref)
        assert dev <= r.error_estimate, (p, r, ref)
        if max(abs(p[1]), abs(p[2])) <= 3.0:
            assert dev <= 1e-11 * abs(ref), (p, r, ref)


def test_h2_matches_quadrature_spots():
    spots = [(1.0, 1.0, 0.0), (0.1, -2.0, 1.5), (5.0, 0.3, 0.3), (1e-3, 4.0, -4.0)]
    for a, u1, u2 in spots:
        ref = h2_quadrature(a, u1, u2)
        got = h2(a, u1, u2)
        assert abs(got.value - ref.value) <= max(1e-8, 1e-8 * abs(ref.value))


def test_h2_degenerate_point_with_moderate_a():
    # u1 == u2 but a is not small: closed-form path, checked by oracle
    ref = h2_quadrature(1.0, 2.0, 2.0)
    got = h2(1.0, 2.0, 2.0)
    assert got.method == "closed_form"
    assert abs(got.value - ref.value) <= 1e-8


def test_h2_positive_for_positive_a():
    rng = np.random.default_rng(20240825)
    for _ in range(200):
        a = 10.0 ** rng.uniform(-6, 1)
        u1, u2 = rng.uniform(-8, 8, 2)
        assert h2(a, u1, u2).value > 0.0


def test_h2_antisymmetric_in_a_vs_quadrature():
    # quadrature accepts either sign of a; closed form handles the flip
    pos = h2_quadrature(0.7, 1.0, -0.5)
    neg = h2_quadrature(-0.7, 1.0, -0.5)
    assert abs(pos.value + neg.value) <= 1e-10
    assert abs(h2(-0.7, 1.0, -0.5).value + pos.value) <= 1e-8


def test_h2_limit_a0_values():
    assert abs(h2_limit_a0(1.0, 0.0) - (1.0 + 1.0 / math.e)) < 1e-15
    assert abs(h2_limit_a0(1.0, -1.0) - 1.0 / math.e) < 1e-15
    with pytest.raises(DomainError):
        h2_limit_a0(1.0, 1.0)


@pytest.mark.parametrize(
    "call, message",
    [
        (
            lambda: v2_gamma0_limit(1e-200, 1e-200, 1e-200),
            r"^v2_gamma0_limit leaves double range at "
            r"\(e, mu, sigma\)=\(1e-200, 1e-200, 1e-200\)$",
        ),
        (
            lambda: v2_gamma0_limit(1e-155, 1e-155, 1e-155),
            r"^v2_gamma0_limit leaves double range at "
            r"\(e, mu, sigma\)=\(1e-155, 1e-155, 1e-155\)$",
        ),
        (
            lambda: v2_gamma0_limit(1.0, 1.0, 1e-320),
            r"^v2_gamma0_limit leaves double range at \(e, mu, sigma\)=\(1\.0, 1\.0, 1e-320\)$",
        ),
        (
            lambda: h2_limit_a0(5e-324, 0.0),
            r"^h2_limit_a0 leaves double range at \(u1, u2\)=\(5e-324, 0\.0\)$",
        ),
    ],
    ids=["sigma_squared_underflows", "sigma_squared_subnormal", "limit_overflows", "h2_tiny_gap"],
)
def test_limits_name_a_point_outside_double_range(call, message):
    # the limit itself overflows: ~2.3e399 where sigma^2 = 1e-400 underflows,
    # ~2.3e309 where sigma^2 = 1e-310 is subnormal and ~2.0e319 at
    # sigma = 1e-320; and a gap of 5e-324 overflows h2's quotient
    with pytest.raises(DomainError, match=message):
        call()


@pytest.mark.parametrize(
    "point, want, rel",
    [
        ((1.0, 1.0, 1e-170), 1.9947114020071633897e169, 1e-14),
        ((1.0, 1.0, 1e-155), 1.9947114020071633897e154, 1e-14),
        ((1e200, 1e200, 1.0), 1.9947114020071633897e-201, 1e-14),
        ((1e308, 1e308, 1.0), 1.9947114020071633897e-309, 1e-14),
        ((2.6e-199, 1e-200, 1e-200), 3.8269648682096963298e263, 1e-12),
        ((4.1e-159, 1e-160, 1e-160), 7.3163512541915158937e-29, 1e-12),
        ((1.0, 1e-200, 1e-200), 0.0, 0.0),
    ],
    ids=["sigma_squared_underflows", "sigma_squared_subnormal", "square_overflows",
         "prefactor_overflows", "sigma_mu_underflows", "pair_underflows", "limit_underflows"],
)
def test_v2_gamma0_limit_is_finite_where_its_parts_leave_range(point, want, rel):
    # sigma^2 underflows to 0 or is subnormal, (e + mu)^2 / sigma^2
    # overflows, 2 sigma mu sqrt(2 pi) overflows or underflows, or
    # e^{-z^2/2} underflows, while the limit (a 40-digit reference) is a
    # double: a subnormal one at (1e308, 1e308, 1).  At z = 25 and 40 the
    # rounding of z alone costs ~z^2 ulps.  A limit below double range is 0,
    # as a Breit-Wigner density's is
    assert abs(v2_gamma0_limit(*point) - want) <= rel * want


def test_h2_limit_approach():
    # from above to the limit, and from below to its negative (H2 is odd in a)
    limit = h2_limit_a0(1.0, 0.0)
    devs = [abs(h2(a, 1.0, 0.0).value - limit) for a in (0.1, 0.01, 1e-3, 1e-4)]
    assert devs == sorted(devs, reverse=True)
    devs = [abs(h2(-a, 1.0, 0.0).value + limit) for a in (0.1, 0.01, 1e-3, 1e-4)]
    assert devs == sorted(devs, reverse=True)


# ------------------------------------------------------- degenerate series


def test_degenerate_series_frozen_value():
    # 1/sqrt(2e-4) - (1/sqrt(2)) * 1e-2, both terms exact substitutions
    r = h2_degenerate_series(1e-4, 0.0)
    assert abs(r.value - 70.70360705084289) < 1e-12
    assert r.method == "degenerate_series"
    assert r.error_estimate > 0.0


def test_degenerate_series_u1():
    r = h2_degenerate_series(1e-4, 1.0)
    lead = math.exp(-1.0) / math.sqrt(2e-4)
    # next term is +e^{-1} (2-1)/sqrt(2) * 1e-2, tiny and positive
    assert r.value > lead
    assert abs(r.value - lead) / lead < 2e-4


def test_degenerate_series_vs_quadrature():
    for a in (1e-4, 1e-5):
        for u in (0.0, 1.0):
            ref = h2_quadrature(a, u, u).value
            got = h2_degenerate_series(a, u).value
            assert abs(got - ref) / ref < 1e-3


def test_degenerate_growth_ratio():
    # singular part scales as 1/sqrt(2a): quartering a doubles the value
    for u in (0.0, 1.0):
        lo = h2_quadrature(1e-4, u, u).value
        hi = h2_quadrature(2.5e-5, u, u).value
        assert abs(hi / lo - 2.0) < 1e-2


def test_degenerate_series_estimate_bounds_its_error():
    # against the 40-digit references on seeded points with a in [1e-30,
    # 1e-4] and |u| <= 4: at |u| ~ 3 the algebraic a/(sqrt(pi) u^4)-type
    # term outweighs e^{-u^2} a, and at the smallest a rounding does
    rng = np.random.default_rng(35)
    for a, u in zip(10.0 ** rng.uniform(-30.0, -4.0, 200), rng.uniform(-4.0, 4.0, 200)):
        r = h2_degenerate_series(a, u)
        assert abs(r.value - float(REF.h2_mp(a, u, u))) <= r.error_estimate, (a, u)


def test_degenerate_series_domain():
    with pytest.raises(DomainError):
        h2_degenerate_series(0.0, 1.0)
    with pytest.raises(DomainError):
        h2_degenerate_series(-1e-4, 1.0)


def test_near_degenerate_closed_form_agrees_with_series():
    # on the diagonal at small a the closed form and the series are two
    # routes to the same value; they agree to the series' O(a) accuracy
    a, u = 2e-3, 0.5
    cf = h2(a, u, u)
    assert cf.method == "closed_form"
    series = h2_degenerate_series(a, u)
    assert abs(cf.value - series.value) / cf.value < 5e-3


def test_moderate_degenerate_value():
    # leading order e^{-u^2}/sqrt(2a) at a=0.01, u=0.5
    lead = math.exp(-0.25) / math.sqrt(0.02)
    got = h2(0.01, 0.5, 0.5).value
    assert abs(got - lead) / lead < 1e-2


# ------------------------------------------------------------ large-u path


def test_large_u_value_exact_formula():
    r = h2_large_u_asymptotic(1.0, 20.0, 30.0)
    assert r.value == 1.0 / (SQRT_PI * 360001.0)


def test_large_u_error_estimate_covers_truth():
    for u1, u2, tol in ((20.0, 30.0, 1e-2), (40.0, 60.0, 3e-3)):
        r = h2_large_u_asymptotic(1.0, u1, u2)
        truth = abs(r.value - h2(1.0, u1, u2).value)
        assert truth <= r.error_estimate
        assert truth / abs(h2(1.0, u1, u2).value) <= tol


def test_large_u_estimate_bounds_its_error():
    # against the 40-digit references on seeded points with |a| in [1e-30,
    # 1e6] and |u1|, |u2| in [15, 1e12], either sign: near the threshold the
    # orders beyond (3/2)(1/u1 + 1/u2)^2 count, and at large |u| rounding
    rng = np.random.default_rng(36)
    signs = rng.choice([-1.0, 1.0], (3, 200))
    a = signs[0] * 10.0 ** rng.uniform(-30.0, 6.0, 200)
    u1, u2 = signs[1:] * 10.0 ** rng.uniform(math.log10(15.0), 12.0, (2, 200))
    for p in zip(a.tolist(), u1.tolist(), u2.tolist()):
        r = h2_large_u_asymptotic(*p)
        assert abs(r.value - float(REF.h2_mp(*p))) <= r.error_estimate, p


def test_large_u_value_where_the_denominator_overflows():
    # a^2 or (u1 u2)^2 leaves double range, but H2 is a double: the far-pole
    # value 1/(sqrt(pi) a) or a/(sqrt(pi) (u1 u2)^2), a subnormal in the last
    # case, formed at a power-of-2 scale; the estimate still bounds the error
    for p in ((1e300, 20.0, 30.0), (1e200, 1e50, 1e60), (1.0, 1e80, 1e80), (-1.0, 1e80, -1e80)):
        r = h2_large_u_asymptotic(*p)
        ref = float(REF.h2_mp(*p))
        assert r.value != 0.0 and abs(r.value - ref) <= r.error_estimate, (p, r, ref)
    assert h2_large_u_asymptotic(1e300, 20.0, 30.0).value == pytest.approx(5.6419e-301, rel=1e-4)
    assert h2_large_u_asymptotic(1.0, 1e80, 1e80).value == 5.64e-321


def test_large_u_linear_in_a():
    lo = h2_large_u_asymptotic(1e-4, 20.0, 30.0).value
    hi = h2_large_u_asymptotic(2e-4, 20.0, 30.0).value
    assert abs(hi / lo - 2.0) < 1e-9


def test_large_u_threshold():
    t = rel_voigt._LARGE_U_THRESHOLD
    assert t == 15.0
    with pytest.raises(DomainError, match="below threshold 15.0"):
        h2_large_u_asymptotic(1.0, math.nextafter(t, 0.0), 30.0)
    with pytest.raises(DomainError):
        h2_large_u_asymptotic(1.0, 30.0, -math.nextafter(t, 0.0))
    with pytest.raises(DomainError):
        h2_large_u_asymptotic(0.0, 20.0, 30.0)
    assert h2_large_u_asymptotic(1.0, t, -t).value > 0.0


# ------------------------------------------------------- rectangle contour


def test_rectangle_matches_closed_form():
    for a, u1, u2 in ((1.0, 1.0, 0.0), (0.5, 2.9, 2.9), (2.0, -1.0, 3.0)):
        r = h2_rectangle(a, u1, u2)
        assert r.method == "quadrature"
        assert abs(r.value - h2(a, u1, u2).value) < 1e-7


def test_rectangle_residues_dominate_at_small_a():
    # as a -> 0+ the line integral vanishes and the residue pair carries
    # the whole caption value
    r = h2_rectangle(1e-8, 1.0, 0.0)
    assert abs(r.value - (1.0 + 1.0 / math.e)) < 1e-6
    # at a = 0 itself there are no poles to enclose
    with pytest.raises(DomainError):
        h2_rectangle(0.0, 1.0, 0.0)


def test_rectangle_rejects_poles_outside_double_range_without_warnings():
    # the square (u1-u2)^2 or 4ia overflows; the point is named as h2 names
    # it; the tests turn a RuntimeWarning into an error, so one leaking from
    # the pole arithmetic would fail here
    for p in ((1.0, 1e200, -1e200), (1e308, 0.0, 0.0)):
        at = re.escape(f"h2_rectangle at (a, u1, u2)={p!r} is outside double range")
        with pytest.raises(DomainError, match=f"^{at}: its poles overflow$"):
            h2_rectangle(*p)


def test_rectangle_at_large_a_fails_without_warnings():
    # the line sits above poles at height ~sqrt(a/2), where |e^{-t^2}| =
    # e^{y^2} leaves double range; the tests turn a RuntimeWarning into an
    # error, so the overflow and the inf / inf on the way would fail here.
    # From a ~ 1e32 the line's 1 + top rounds to top itself, which fails the
    # same way, not as a contour that misses the poles
    for a in (2000.0, 1e33, 1e300):
        at = re.escape(f"(a, u1, u2)=({a!r}, 0.0, 0.5);")
        with pytest.raises(IntegrationError, match=f"^quadrature did not converge at {at}"):
            h2_rectangle(a, 0.0, 0.5)


def test_rectangle_estimate_is_inf_where_the_line_overflows():
    # from about a = 1,300 e^{y^2} leaves double range on the line, so the
    # total is NaN; no bound is known there, and the estimate says so with
    # inf, not the NaN its |total.imag| term gives, while the other points
    # of the call keep theirs; no warning leaks from the scalar route
    a = np.array([2000.0, 1.0, 1400.0])
    with np.errstate(all="ignore"):
        batch = _rectangle_route(a, np.zeros(3), np.full(3, 0.5))
    assert batch.converged.tolist() == [False, True, False]
    assert np.isinf(batch.error_estimate[[0, 2]]).all()
    ref = h2(1.0, 0.0, 0.5)
    assert abs(batch.value[1] - ref.value) <= batch.error_estimate[1] + ref.error_estimate
    at = re.escape("(a, u1, u2)=(2000.0, 0.0, 0.5); error estimate inf")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(IntegrationError, match=f"^quadrature did not converge at {at}$"):
            h2_rectangle(2000.0, 0.0, 0.5)


def test_rectangle_working_range():
    # up to a = 20 the route agrees with the closed form within its
    # estimate; the e^{y^2} growth on the line, at a height ~sqrt(a/2),
    # stops it from converging from about a = 22, and at a = 50 it raises
    # IntegrationError before any numpy warning
    for a in (1e-3, 0.5, 5.0, 20.0):
        for u in ((0.0, 0.5), (1.0, -1.0), (3.0, 2.0), (-2.0, 4.0), (0.0, 0.0)):
            r, ref = h2_rectangle(a, *u), h2(a, *u)
            assert abs(r.value - ref.value) <= r.error_estimate + ref.error_estimate, (a, u)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(
            IntegrationError,
            match=r"^quadrature did not converge at \(a, u1, u2\)=\(50\.0, 0\.0, 0\.5\)",
        ):
            h2_rectangle(50.0, 0.0, 0.5)


def test_enclosed_poles_match_pole_set():
    # the rectangle route's array poles t1+ and t2- agree with the scalar
    # PoleSet to an ulp or so, at the smallest a and at random points
    rng = np.random.default_rng(41)
    n = 200
    points = [(5e-324, 1.0, 0.0), (5e-324, 2.0, 2.0), (1e-300, 1.0, 0.0), (1e-300, 3.0, 3.0)]
    drawn = [10.0 ** rng.uniform(-14.0, 3.0, n), rng.uniform(-20, 20, n), rng.uniform(-20, 20, n)]
    points = np.concatenate([points, np.stack(drawn, axis=1)])
    _, t1p, t2m = routes._enclosed_poles(*points.T)
    for k, p in enumerate(points.tolist()):
        ps = pole_set(*p)
        for got, want in ((t1p[k], ps.t1_plus), (t2m[k], ps.t2_minus)):
            for g, w in ((got.real, want.real), (got.imag, want.imag)):
                assert abs(g - w) <= 4.0 * np.spacing(abs(w)), (p, got, want)


def _rectangle_points() -> np.ndarray:
    # (1e-8, 3, 3) and 120 seeded points, a from 1e-14 to 5, |u| <= 8, half
    # on the diagonal and half 1e-6 to 1 off it
    rng = np.random.default_rng(43)
    n = 120
    a = 10.0 ** rng.uniform(-14.0, np.log10(5.0), n)
    u1 = rng.uniform(-8.0, 8.0, n)
    gap = rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-6.0, 0.0, n)
    gap[::2] = 0.0
    return np.concatenate([[(1e-8, 3.0, 3.0)], np.stack([a, u1, np.clip(u1 + gap, -8, 8)], 1)])


def test_rectangle_estimate_bounds_its_error():
    # Against the 40-digit reference.  The line term's estimate alone left
    # out the rounding of the residues, e^{-t^2} conditioned like 2|t|^2,
    # and missed the error at (1e-8, 3, 3) by ~20x.
    points = _rectangle_points()
    batch = _rectangle_route(*points.T)
    assert batch.converged.all()
    for k, p in enumerate(points.tolist()):
        ref = float(REF.h2_mp(*p))
        assert abs(batch.value[k] - ref) <= batch.error_estimate[k], (p, batch.value[k], ref)


def _batch(route, **coords):
    # the QuadratureBatch route returns when routes._converged calls it at
    # coords, under the shell's errstate, whether or not every point converged
    seen = []

    def recording(*flat):
        seen.append(route(*flat))
        return seen[0]

    try:
        routes._converged(recording, **coords)
    except IntegrationError:
        pass
    return seen[0]


@pytest.mark.parametrize(
    "scalar, route", [(h2_quadrature, routes._h2_route), (i2_quadrature, routes._i2_route)]
)
def test_quadrature_grids_match_scalar_routes(scalar, route):
    # the batched route and the scalar entry agree at valid points within
    # both error estimates, and the unconverged point, where the merged peak
    # at a = 1e-30 is not resolved, is the one where the scalar raises;
    # the scalar refuses the invalid points before any route call
    rng = np.random.default_rng(15)
    a = np.concatenate([10.0 ** rng.uniform(-4.0, 1.0, 40) * rng.choice([-1, 1], 40), [1e-30]])
    u1 = np.concatenate([rng.uniform(-5.0, 5.0, 40), [1.0]])
    u2 = np.concatenate([rng.uniform(-5.0, 5.0, 40), [1.0]])
    r = _batch(route, a=a, u1=u1, u2=u2)
    for k in range(a.size):
        try:
            want = scalar(a[k], u1[k], u2[k])
        except IntegrationError:
            assert not r.converged[k]
            continue
        assert r.converged[k]
        assert abs(r.value[k] - want.value) <= r.error_estimate[k] + want.error_estimate
    assert r.converged.tolist() == [True] * 40 + [False]
    for point in ((0.0, 1.0, 0.0), (np.inf, 1.0, 0.0), (1.0, np.nan, 0.0)):
        with pytest.raises(DomainError):
            scalar(*point)


def test_quadrature_with_underflowing_peak_width_terminates():
    # the peak width a/|u1-u2| underflows to 0 here; the seed walk out of
    # the peaks used to multiply 0 by 4 forever.  No node can land in the
    # peak at 0, so the point fails rather than return 0 for H2 ~ 1e-10.
    # Its estimate is its window's tail bound, e^{-9} 2/|w1| with |w1| = 1e10.
    at = re.escape("(a, u1, u2)=(5e-324, 0.0, 10000000000.0); error estimate 2.468e-14")
    with pytest.raises(IntegrationError, match=f"^quadrature did not converge at {at}$"):
        h2_quadrature(5e-324, 0.0, 1e10)


@pytest.mark.parametrize(
    "route, batched, point",
    [
        (i2_quadrature, routes._i2_route, (1e-100, 1.0, 2.0)),
        (h2_quadrature, routes._h2_route, (1e-140, 0.3, -1.7)),
        (h2_quadrature, routes._h2_route, (5e-324, 0.0, 1e10)),
    ],
)
def test_oracles_fail_where_no_node_can_see_a_peak(route, batched, point):
    # Each peak at u is |a|/max(|u1-u2|, |a|^{1/2}) wide, so here u + width
    # == u: no panel edge or node lands in a peak, and the integral, which
    # converged to 1.8e-84 for I2 = 2, 4.5e-125 for H2 = 0.485 and 0 for
    # H2 ~ 1e-10, misses it.  The point fails, in a batch with a good one too.
    with pytest.raises(IntegrationError, match="^quadrature did not converge at"):
        route(*point)
    a, u1, u2 = (np.array([p, 1.0]) for p in point)
    assert _batch(batched, a=a, u1=u1, u2=u2).converged.tolist() == [False, True]


# Points where a * a, the seed widths or the integrand leave double range,
# one at a time through the scalar entries or two in one batched route call.
# Each entry lists every point's reference value, or IntegrationError: H2 and
# I2 fall like 1/a and 1/sqrt(a) for large a, both are 1e-200 when the
# peaks sit 1e200 apart, and with a * a = 0 the integrand divides by zero
# at a node next to a pole.
_RANGE_EDGES = {
    "h2_large_a": (lambda: h2_quadrature(1e300, 0.0, 1.0), [0.0]),
    "h2_tiny_a": (lambda: h2_quadrature(1e-300, 0.0, 0.5), [IntegrationError]),
    "i2_tiny_a": (lambda: i2_quadrature(1e-300, 0.0, 1.0), [IntegrationError]),
    "h2_grid_tiny_a": (
        lambda: _batch(routes._h2_route, a=np.array([1.0, 1e-300]), u1=np.zeros(2),
                       u2=np.full(2, 0.5)),
        [h2(1.0, 0.0, 0.5).value, IntegrationError],
    ),
    "i2_large_a": (lambda: i2_quadrature(1e300, 0.0, 1.0), [0.0]),
    "h2_far_peak": (lambda: h2_quadrature(1.0, 1e200, 0.0), [1e-200]),
    "i2_far_peak": (lambda: i2_quadrature(1.0, 1e200, 0.0), [1e-200]),
    "i2_grid_large_a": (
        lambda: _batch(routes._i2_route, a=np.array([1.0, 1e300]), u1=np.zeros(2),
                       u2=np.ones(2)),
        [i2_closed(1.0, 0.0, 1.0), 0.0],
    ),
}


@pytest.mark.parametrize("case", sorted(_RANGE_EDGES))
def test_quadrature_routes_at_range_edges_warn_nothing(case):
    # the route's arithmetic overflows or divides by zero on the way; that
    # shows as a failed point or a value within its target, not a warning
    call, want = _RANGE_EDGES[case]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            r = call()
        except IntegrationError:
            got = [IntegrationError]
        else:
            if isinstance(r, EvalResult):
                got = [r.value]
            else:
                got = [v if c else IntegrationError for v, c in zip(r.value, r.converged)]
    assert len(got) == len(want)
    for g, w in zip(got, want):
        if w is IntegrationError:
            assert g is IntegrationError
        else:
            assert g is not IntegrationError and abs(g - w) <= max(1e-10, 1e-10 * abs(w))


@pytest.mark.parametrize("a", [2e154, 1e200, 1e300, -1e300])
def test_quadrature_routes_bound_the_value_where_a_squared_overflows(a):
    # a * a overflows, so the integrand and the routes' values are exactly 0;
    # the estimates then carry |H2| <= 1/(|a| sqrt(pi)) and |I2| <= 1/sqrt(|a|)
    u1 = np.array([0.0, 0.0, 3.0, -7.5, 1e100])
    u2 = np.array([1.0, 0.0, -2.0, 7.5, -1e100])
    # one batched call of each route, every point converged
    batches = [routes._converged(route, a=np.full(5, a), u1=u1, u2=u2)
               for route in (routes._h2_route, routes._i2_route)]
    assert all((value == 0.0).all() for value, _ in batches)
    for k, u in enumerate(zip(u1, u2)):
        h2_ref, i2_ref = h2(a, *u), i2_closed(a, *u)
        h2_scalar, i2_scalar = h2_quadrature(a, *u), i2_quadrature(a, *u)
        for value, estimate in ((h2_scalar.value, h2_scalar.error_estimate),
                                (batches[0][0][k], batches[0][1][k])):
            assert 0.0 < abs(value - h2_ref.value) <= estimate + h2_ref.error_estimate, (a, u)
        for value, estimate in ((i2_scalar.value, i2_scalar.error_estimate),
                                (batches[1][0][k], batches[1][1][k])):
            assert 0.0 < abs(value - i2_ref) <= estimate, (a, u)


def test_quadrature_routes_fail_a_non_finite_integrand_at_its_point():
    # at a = 5e-324, a * a = 0 and a node's integrand value is not finite:
    # the route stops that point unconverged and the scalar entry names it,
    # with no numpy warning on the way (the tests turn one into an error)
    at = re.escape("(a, u1, u2)=(5e-324, 0.0, 1.0); error estimate inf")
    with pytest.raises(IntegrationError, match=f"^quadrature did not converge at {at}$"):
        h2_quadrature(5e-324, 0.0, 1.0)


def _real_line(f, n, seeds=None):
    # n integrals of f over the real line's truncation [-12, 12] in one
    # refinement loop, from its 16 uniform panels plus row k of seeds
    lo, hi = np.full(n, -12.0), np.full(n, 12.0)
    return quadrature._integrate_intervals(f, lo, hi, 16, 1e-10, seeds)


def test_route_call_fails_only_the_point_with_a_nan_integrand():
    # a NaN integrand value stops only its own point's integral, so the one
    # route call fails that point alone, and the shell names it
    x = np.array([0.5, 1.0, 0.0, 2.0])

    def route(x):
        def f(t, k):
            return np.where(x[k] == 0.0, np.nan, np.exp(-x[k] * t * t))

        return _real_line(f, x.size)

    r = _batch(route, x=x)
    assert r.converged.tolist() == [True, True, False, True]
    ok = r.converged
    assert np.allclose(r.value[ok], np.sqrt(math.pi / x[ok]), rtol=1e-12, atol=0.0)
    with pytest.raises(IntegrationError, match=r"^quadrature did not converge at \(x\)=\(0\.0\);"):
        routes._converged(route, x=x)


def test_route_call_fails_a_point_that_turns_non_finite_in_a_later_round():
    # point 0.3's integrand is NaN only on panels narrower than 0.05, which
    # refinement reaches rounds after the first: that stops its integral
    # there, and every other integral of the call refines on to its value
    x = np.array([0.5, 1.0, 0.3, 2.0, 1.5])
    first_round = []

    def route(x, poison=0.3):
        def f(t, k):
            v = np.exp(-t * t) / ((t - x[k]) ** 2 + 1e-4)
            narrow = t[:, -1:] - t[:, :1] < 0.05
            v = np.where(narrow & (x[k] == poison), np.nan, v)
            first_round.append(np.isfinite(v).all())
            return v

        return _real_line(f, x.size, x[:, None])

    res = _batch(route, x=x)
    assert first_round[0] and not all(first_round)
    assert res.converged.tolist() == [True, True, False, True, True]
    clean = route(x, poison=None)
    assert clean.converged.all()
    ok = res.converged
    assert np.isnan(res.value[~ok]).all()
    assert np.allclose(res.value[ok], clean.value[ok], rtol=1e-12, atol=0.0)
    assert (np.abs(res.value - clean.value)[ok] <= clean.error_estimate[ok]).all()


def _twin_batch():
    # the oracle's a values at random u1, u2, on the diagonal and at +-0.0
    rng = np.random.default_rng(33)
    a = np.repeat([1e-3, 1e-2, 0.1, 1.0, 10.0], 120)
    u1 = rng.uniform(-10.0, 10.0, a.size)
    u2 = rng.uniform(-10.0, 10.0, a.size)
    u2[::4] = u1[::4]
    u1[1::10], u2[1::10] = 0.0, -0.0
    u1[2::10], u2[2::10] = -0.0, -0.0
    u1[3::10] = -0.0
    return a, u1, u2


@pytest.mark.parametrize("route", [routes._h2_route, routes._i2_route])
def test_quadrature_routes_are_symmetric_in_u1_u2_bit_for_bit(route):
    # the oracle copies each value to its u1 <-> u2 twin, which is exact
    # only while the routes are: the integrand takes the product
    # (u1 - t)(u2 - t), and the peaks of both u1 and u2 are seeded
    a, u1, u2 = _twin_batch()
    got, swapped = route(a, u1, u2), route(a, u2, u1)
    for name in ("value", "error_estimate", "converged", "evaluations"):
        assert getattr(got, name).tobytes() == getattr(swapped, name).tobytes(), name
    assert got.converged.all()


def test_h2_route_keeps_the_mirror_within_its_estimates():
    # t -> -t maps H2(a, u1, u2) to H2(a, -u2, -u1); the oracle integrates
    # one point of each mirror pair, which holds only while the route's
    # values at the two agree within both estimates (their sums add in
    # reverse order, so not bit for bit)
    a, u1, u2 = _twin_batch()
    got, mirrored = routes._h2_route(a, u1, u2), routes._h2_route(a, -u2, -u1)
    assert got.converged.all() and mirrored.converged.all()
    dev = np.abs(got.value - mirrored.value)
    assert (dev <= got.error_estimate + mirrored.error_estimate).all()


@pytest.mark.parametrize("grid", ["oracle", "seeded"])
def test_h0_route_keeps_the_mirror_within_its_estimates(grid):
    # t -> -t maps H0(a, u) to H0(a, -u); the oracle integrates the u <= 0
    # half of its grid and copies each value to -u, which holds only while
    # the route refines the two alike and their values agree within both
    # estimates (their sums add in reverse order, so not bit for bit)
    if grid == "oracle":
        a, u = np.meshgrid([1e-3, 1e-2, 0.1, 1.0, 10.0], np.linspace(-8.0, 8.0, 65))
    else:
        rng = np.random.default_rng(65)
        a = 10.0 ** rng.uniform(-3.0, 1.0, 200)
        u = rng.uniform(-8.0, 8.0, 200)
    a, u = a.ravel(), u.ravel()
    got, mirrored = routes._h0_route(a, u), routes._h0_route(a, -u)
    assert got.converged.all() and mirrored.converged.all()
    assert (got.evaluations == mirrored.evaluations).all()
    dev = np.abs(got.value - mirrored.value)
    assert (dev <= got.error_estimate + mirrored.error_estimate).all()


def _window_gate_points():
    # 60 seeded points, a log-uniform in [1e-4, 20], |u| <= 12, half of them
    # 1e-6 to 0.1 off the diagonal; then peaks on and just beyond a window
    # edge, u = +-6, 6.1 and 7.5 at a = 1e-3 and 1, on the diagonal and
    # beside a peak at 0.5
    rng = np.random.default_rng(30)
    n = 60
    a = 10.0 ** rng.uniform(-4.0, np.log10(20.0), n)
    u1 = rng.uniform(-12.0, 12.0, n)
    u2 = rng.uniform(-12.0, 12.0, n)
    gap = rng.choice([-1.0, 1.0], n // 2) * 10.0 ** rng.uniform(-6.0, -1.0, n // 2)
    u2[::2] = np.clip(u1[::2] + gap, -12.0, 12.0)
    edge = [(b, u, v) for b in (1e-3, 1.0) for u in (-6.0, 6.0, 6.1, 7.5) for v in (u, 0.5)]
    return np.concatenate([np.stack([a, u1, u2], 1), edge]).T


def test_windowed_oracle_estimates_bound_their_error():
    # Each h2 and h0 oracle point is integrated over its own window [-T, T],
    # with the analytic tail bound e^{-T^2} M in its estimate; against the
    # 40-digit references every estimate bounds its error, at the edges too
    a, u1, u2 = _window_gate_points()
    h2r, h0r = routes._h2_route(a, u1, u2), routes._h0_route(a, u1)
    assert h2r.converged.all() and h0r.converged.all()
    for k, p in enumerate(zip(a.tolist(), u1.tolist(), u2.tolist())):
        ref = float(REF.h2_mp(*p))
        assert abs(h2r.value[k] - ref) <= h2r.error_estimate[k], (p, h2r.value[k], ref)
        ref = float(REF.h0_mp(p[0], p[1]))
        assert abs(h0r.value[k] - ref) <= h0r.error_estimate[k], (p, h0r.value[k], ref)


def test_window_is_the_smallest_edge_its_tail_bound_allows():
    # T < 12 only where e^{-T^2} M <= 1e-12, and no smaller edge would do
    mass = np.concatenate([[0.0, 1.0, 1e-8, 1e150], 10.0 ** np.linspace(-20.0, 170.0, 400)])
    half, tail = routes._window(mass)
    assert set(half.tolist()) <= {1.5 * k for k in range(1, 9)}
    assert (tail == np.exp(-half * half) * mass).all()
    inside = half < 12.0
    assert (tail[inside] <= 1e-12).all()
    shorter = np.maximum(half - 1.5, 1.5)
    assert (np.exp(-shorter * shorter) * mass > 1e-12)[half > 1.5].all()
    assert half[:4].tolist() == [1.5, 6.0, 4.5, 12.0]
    # H2's mass 2/|w1| bounds I2 = |Int (a/pi)/(quartic + a^2) dt|, and on
    # the diagonal at a = 1e-300 (1e150) it leaves the whole [-12, 12]
    a, u1, u2 = _window_gate_points()
    bound = routes._i2_bound(a, u1, u2)
    for k, p in enumerate(zip(a.tolist(), u1.tolist(), u2.tolist())):
        assert abs(float(REF.i2_mp(*p))) <= bound[k]
    diagonal = routes._i2_bound(np.array([1e-300]), np.array([3.0]), np.array([3.0]))
    assert routes._window(diagonal)[0].tolist() == [12.0]


def test_h2_quadrature_refuses_a_peak_just_beyond_the_line():
    # A diagonal peak of mass ~e^{-u^2}/sqrt(a) just beyond |t| = 12 at tiny
    # a: the endpoint heuristic of the [-12, 12] line could not see it, and
    # these points returned 1.6e-195 for H2 = 3.6e31 and 1.5e-137 for
    # 3.4e-3 as converged.  The window's tail bound e^{-144} 2/|w1| holds
    # the peak, so the points fail, in a batch with a good one too.
    for point in ((5.77e-191, -12.084, -12.084), (6.39e-133, 12.581, 12.581)):
        with pytest.raises(IntegrationError, match="^quadrature did not converge at"):
            h2_quadrature(*point)
        a, u1, u2 = (np.array([p, 1.0]) for p in point)
        assert _batch(routes._h2_route, a=a, u1=u1, u2=u2).converged.tolist() == [False, True]


# ------------------------------------------------- integral representations


def test_integral_rep_double():
    got = h2_integral_rep(1.0, 1.0, 0.0, "double")
    assert abs(got.value - h2(1.0, 1.0, 0.0).value) < 1e-6


def test_integral_rep_single_complex():
    for a, u1, u2 in ((1.0, 1.0, 0.0), (2.0, 0.0, 0.0)):
        got = h2_integral_rep(a, u1, u2, "single_complex")
        assert abs(got.value - h2(a, u1, u2).value) < 1e-6


def test_integral_rep_validation():
    with pytest.raises(DomainError):
        h2_integral_rep(0.0, 1.0, 0.0, "double")
    with pytest.raises(DomainError):
        h2_integral_rep(-1.0, 1.0, 0.0, "single_complex")
    with pytest.raises(DomainError):
        h2_integral_rep(1.0, 1.0, 0.0, "nope")


# The batched routes integrate many points in one call; each point must come
# out as its one-point (scalar) call computes it, within both estimates.

REP_POINTS = np.array(
    [(1.0, 1.0, 0.0), (0.3, 0.2, 0.25), (2.0, -1.0, 2.5), (0.15, 2.0, -2.0), (4.0, 0.0, 0.0)]
)


def _agree_with_one_point_calls(batch, points, route):
    for k, p in enumerate(points.tolist()):
        single = route(*map(np.atleast_1d, p))
        assert bool(batch.converged[k]) == bool(single.converged[0])
        assert abs(batch.value[k] - single.value[0]) <= batch.error_estimate[k] + single.error_estimate[0]


def test_double_rep_is_the_defining_integral():
    # the nested form with its inner Laplace integral in closed form is the
    # defining integral, so "double" returns h2_quadrature's result
    for p in REP_POINTS.tolist():
        got = h2_integral_rep(*p, "double")
        assert got == h2_quadrature(*p)
        assert abs(got.value - h2(*p).value) <= 1e-6


def test_rectangle_batch_matches_one_point_calls():
    # every row is summed in the same fixed order whatever its padding, so
    # each point's value and estimate are the one-point call's bit for bit
    for points in (REP_POINTS, _rectangle_points()):
        batch = _rectangle_route(*points.T)
        assert batch.converged.all()
        for k, p in enumerate(points.tolist()):
            r = h2_rectangle(*p)
            assert r.value.hex() == float(batch.value[k]).hex(), p
            assert r.error_estimate.hex() == float(batch.error_estimate[k]).hex(), p


def test_double_rep_nonconvergence_names_the_point():
    # the merged peak at a = 1e-30 is not resolved: estimate ~8e13
    with pytest.raises(
        IntegrationError,
        match=r"^quadrature did not converge at \(a, u1, u2\)=\(1e-30, 1\.0, 1\.0\); error estimate",
    ):
        h2_integral_rep(1e-30, 1.0, 1.0, "double")


def test_rectangle_nonconvergence_names_the_point():
    # a = 50 is past the working range: the line's values grow like e^{a/2}
    at = re.escape("(a, u1, u2)=(50.0, 2.0, -1.0); error estimate")
    with pytest.raises(IntegrationError, match=f"^quadrature did not converge at {at}"):
        h2_rectangle(50.0, 2.0, -1.0)


def test_rectangle_fails_past_its_working_range_within_its_node_rows():
    # Each point's line is one row of 2 floor(8 (12 + min(y, 12))) + 1
    # nodes, so a point past the working range fails after its few hundred
    # evaluations (the adaptive line integral took ~120k here before it
    # gave up); the scalar call names the point, with no numpy warning.
    a = np.array([100.0, 400.0, 1000.0, 2000.0])
    with np.errstate(all="ignore"):
        batch = _rectangle_route(a, np.zeros(4), np.full(4, 0.5))
    assert not batch.converged.any()
    assert batch.evaluations.tolist() == [321, 385, 385, 385]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for ai in a.tolist():
            at = re.escape(f"(a, u1, u2)=({ai!r}, 0.0, 0.5); error estimate")
            with pytest.raises(IntegrationError, match=f"^quadrature did not converge at {at}"):
                h2_rectangle(ai, 0.0, 0.5)


def test_single_complex_nonconvergence_names_the_point():
    # the window 50/a = 5e7 needs more than the 8,000 breakpoints: estimate ~5e2
    with pytest.raises(
        IntegrationError,
        match=r"^quadrature did not converge at \(a, u1, u2\)=\(1e-06, 1\.0, 0\.0\); error estimate",
    ):
        h2_integral_rep(1e-6, 1.0, 0.0, "single_complex")


def test_single_complex_fails_where_its_tail_misses_the_target():
    # the window 50/a = 5e17 adds the truncation tail e^{-50}/a = 1.9287e-6
    # to the estimate, far above the 1e-8 target, so the point fails: the
    # estimate is that tail plus the panels' 6.8e-10, and the value the
    # window reaches, 1.6368e-8, is 0.2% off H2 = 1.6402e-8
    at = re.escape("(a, u1, u2)=(1e-16, 6.0, 6.0); error estimate 1.929e-06")
    with pytest.raises(IntegrationError, match=f"^quadrature did not converge at {at}$"):
        h2_integral_rep(1e-16, 6.0, 6.0, "single_complex")
    a, u1, u2 = np.array([1e-16, 1.0]), np.array([6.0, 1.0]), np.array([6.0, 0.5])
    res = _batch(_rep_single_complex, a=a, u1=u1, u2=u2)
    assert res.converged.tolist() == [False, True]
    assert res.value[1] == h2_integral_rep(1.0, 1.0, 0.5, "single_complex").value


def test_single_complex_edges_raise_without_warnings():
    # a window of 5e301 caps the breakpoint count before its int cast and
    # does not converge; a window or phase beyond double range is refused
    unconverged = r"^quadrature did not converge at \(a, u1, u2\)=\(1e-300, 1\.0, 0\.0\);"
    with pytest.raises(IntegrationError, match=unconverged):
        h2_integral_rep(1e-300, 1.0, 0.0, "single_complex")
    for p in ((5e-324, 1.0, 0.0), (1.0, 1e300, 1e300), (1e-3, 1e200, -1e200)):
        with pytest.raises(DomainError, match=r"^single_complex window or phase overflows at"):
            h2_integral_rep(*p, "single_complex")


def _route_integrand(route, *coords):
    # the integrand the route hands the batched integrator at these points
    seen = []

    def capture(f, *args, **kwargs):
        seen.append(f)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(routes, "_integrate_intervals", capture)
        route(*(np.asarray(c, dtype=float) for c in coords))
    return seen[0]


def _real_integrand_cases(rng, n, x_max):
    # n seeded points with a log-uniform in [1e-3, 5], each with 400
    # abscissas uniform on [0, x_max(a)] and 200 log-uniform up to 1e200,
    # and the owner column the integrand takes
    a = 10.0 ** rng.uniform(-3.0, math.log10(5.0), n)
    x = np.concatenate(
        [rng.uniform(0.0, 1.0, (n, 400)) * x_max(a)[:, None], 10.0 ** rng.uniform(0.0, 200.0, (n, 200))],
        axis=1,
    )
    return a, x, np.arange(n)[:, None]


def _assert_matches_complex_form(got, want, terms, modulus):
    # the complex form is finite at every abscissa here, and so is the real
    # one; they agree within 8 eps of the terms times the modulus, and
    # exactly where the modulus underflows to 0
    assert np.isfinite(want).all() and np.isfinite(got).all()
    with np.errstate(invalid="ignore"):
        bound = np.where(modulus > 0.0, 8.0 * EPS * terms * modulus, 0.0)
    assert (np.abs(got - want) <= bound).all()


def test_single_complex_integrand_is_the_real_part_of_the_complex_form():
    # Re e^z / sqrt(1 - ix) / sqrt(pi), z = -ax + (ix/4)(4 u1 u2 - s^2 x/(i+x)),
    # written in real arithmetic: both round the phase Im z to a few eps of
    # x (|u1 u2| + s^2/4) and e^{Re z} to a few eps of |Re z|, so they agree
    # to a few eps of those terms times the modulus; and the real form stays
    # finite wherever the complex one is, up to x = 1e200, with no
    # floating-point warning
    rng = np.random.default_rng(33)
    a, x, k = _real_integrand_cases(rng, 40, lambda a: 50.0 / a)
    u1, u2 = rng.uniform(-6.0, 6.0, (2, a.size))
    got = _route_integrand(_rep_single_complex, a, u1, u2)(x, k)
    p, q4, b = (u1 * u2)[:, None], (0.25 * (u1 + u2) ** 2)[:, None], a[:, None]
    with np.errstate(all="ignore"):
        z = -b * x + 0.25j * x * (4.0 * p - 4.0 * q4 * x / (1j + x))
        want = (np.exp(z) / np.sqrt(1.0 - 1j * x)).real / SQRT_PI
        modulus = np.exp(z.real) / np.sqrt(np.hypot(1.0, x)) / SQRT_PI
        terms = 1.0 + np.abs(z.real) + x * (np.abs(p) + q4)
    _assert_matches_complex_form(got, want, terms, modulus)


def test_laplace_integrand_is_the_real_part_of_the_complex_form():
    # Re e^{(-a + iu)x - x^2/4} / sqrt(pi) as e^{-ax - x^2/4} cos(ux) / sqrt(pi),
    # on the route's window [0, 24] and up to x = 1e200, for |u| <= 6
    rng = np.random.default_rng(34)
    a, x, k = _real_integrand_cases(rng, 40, lambda a: np.full(a.size, 24.0))
    u = rng.uniform(-6.0, 6.0, a.size)
    f = _route_integrand(routes._laplace_route, a, u)
    b, c = a[:, None], u[:, None]
    # the routes run with numpy's floating-point warnings off; x^2 overflows
    with np.errstate(all="ignore"):
        got = f(x, k)
        z = (-b + 1j * c) * x - 0.25 * x * x
        want = np.exp(z).real / SQRT_PI
        terms = 1.0 + np.abs(z.real) + np.abs(c) * x
        modulus = np.exp(z.real) / SQRT_PI
    _assert_matches_complex_form(got, want, terms, modulus)


def _representation_points():
    # the 50 points of verify representations, drawn as the suite draws them
    rng = np.random.default_rng(verify._SEED + 1)
    a = rng.uniform(0.1, 5.0, 50)
    u1 = rng.uniform(-3.0, 3.0, 50)
    u2 = rng.uniform(-3.0, 3.0, 50)
    return np.stack([a, u1, u2], axis=1)


def test_single_complex_batch_matches_one_point_calls():
    # A one-point batch is the scalar call, bit for bit.  A larger batch
    # integrates all its points in one call, whose K15 sums round by how
    # many panels share a round, so its entries agree with the one-point
    # calls within both estimates rather than bit for bit.
    for p in REP_POINTS.tolist():
        single = _rep_single_complex(*map(np.atleast_1d, p))
        r = h2_integral_rep(*p, "single_complex")
        assert (single.value[0], single.error_estimate[0]) == (r.value, r.error_estimate)
        assert abs(r.value - h2(*p).value) <= 1e-6
    for points in (REP_POINTS, _representation_points()):
        batch = _rep_single_complex(*points.T)
        assert batch.converged.all() and (batch.evaluations > 0).all()
        _agree_with_one_point_calls(batch, points, _rep_single_complex)


def test_single_complex_agrees_with_the_reference_within_its_estimate():
    # the window ends at x = 50/a, where the e^{-ax} envelope leaves a tail
    # below e^{-50}/a; the estimate, which adds that tail, still bounds the
    # true error
    rng = np.random.default_rng(20)
    seeded = np.stack(
        [rng.uniform(0.1, 5.0, 20), rng.uniform(-3.0, 3.0, 20), rng.uniform(-3.0, 3.0, 20)], axis=1
    )
    points = np.concatenate([REP_POINTS, seeded])
    batch = _rep_single_complex(*points.T)
    assert batch.converged.all()
    for k, p in enumerate(points.tolist()):
        ref = float(REF.h2_mp(*p))
        assert abs(batch.value[k] - ref) <= batch.error_estimate[k], (p, batch.value[k], ref)


def test_single_complex_window_costs_what_its_tail_bound_needs(monkeypatch):
    # verify representations' 50 points: a window of at least [0, 200]
    # took 220,470 evaluations, most of them where the integrand is below
    # e^{-50}
    evaluations = []

    def counting(a, u1, u2):
        r = _rep_single_complex(a, u1, u2)
        evaluations.append(int(r.evaluations.sum()))
        return r

    monkeypatch.setattr(verify, "_rep_single_complex", counting)
    verify.verify_representations()
    assert 0 < sum(evaluations) <= 60_000


def test_representations_reject_a_point_before_the_variant_runs():
    for variant in ("double", "single_complex"):
        with pytest.raises(DomainError, match=r"^a must be > 0 on this route, got 0\.0$"):
            h2_integral_rep(0.0, 1.0, 0.0, variant)
        with pytest.raises(DomainError, match="^u2 must be finite, got nan$"):
            h2_integral_rep(1.0, 1.0, math.nan, variant)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda v: h2_integral_rep(1.0, 0.0, 0.5, v),
         "unknown variant {!r}, expected 'double' or 'single_complex'"),
        (lambda v: verify.run_suite(v),
         "unknown suite {!r}, expected one of ('symmetry', 'oracle', 'representations', "
         "'limits', 'all')"),
    ],
    ids=["variant", "suite"],
)
@pytest.mark.parametrize(
    "name", ["triple", ["double"], ["all"], {"all": 1}], ids=["str", "list", "list_all", "dict"]
)
def test_an_unknown_name_is_a_domain_error_naming_the_accepted_ones(call, message, name):
    # an unhashable name must not reach a dict lookup, which raises TypeError
    with pytest.raises(DomainError) as err:
        call(name)
    assert str(err.value) == message.format(name)


# ----------------------------------------------------------------------- i2


def test_i2_at_origin():
    # (1/pi) Int dt/(t^4+1) = 1/sqrt(2)
    assert abs(i2_closed(1.0, 0.0, 0.0) - 1.0 / math.sqrt(2.0)) < 1e-15
    q = i2_quadrature(1.0, 0.0, 0.0)
    assert abs(q.value - 1.0 / math.sqrt(2.0)) < 1e-10


def test_i2_small_a_limit():
    assert abs(i2_closed(1e-8, 1.0, 0.0) - 2.0) <= 1e-6


def test_i2_odd_in_a():
    assert i2_closed(-0.3, 1.0, 2.0) == -i2_closed(0.3, 1.0, 2.0)


def test_i2_a0_values():
    assert abs(i2_closed(0.0, 1.0, 0.0) - 2.0) < 1e-15
    with pytest.raises(DomainError, match="^double pole on the real axis$"):
        i2_closed(0.0, 1.0, 1.0)
    # the gap squared underflows, but the pole is simple: I2 = 2/|u1 - u2|
    assert i2_closed(0.0, 1e-200, 0.0) == 2e200
    # 4a overflows the pole algebra, but not I2, which is ~1/sqrt(2a) there
    assert abs(i2_closed(1e308, 0.0, 1.0) - float(REF.i2_mp(1e308, 0.0, 1.0))) <= 1e-15 * 7.1e-155


_DBL_MAX = 1.7976931348623157e308


def test_i2_keeps_its_value_wherever_the_radicand_leaves_double_range():
    """I2 against 40 digits where (u1-u2)^2 + 4|a| overflows or underflows.

    a, the gap and the centre span the whole double range, and the grid
    returns the scalar's bits.  Only a true double pole (a = 0, u1 = u2) and
    an I2 beyond DBL_MAX raise.
    """
    rng = np.random.default_rng(1)
    n = 3000
    a = rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-323, 308, n)
    gap = 10.0 ** rng.uniform(-323, 308, n)
    centre = rng.uniform(-1.0, 1.0, n) * gap
    u1, u2 = centre + gap / 2, centre - gap / 2
    # the diagonal at large |u| and a so small that 4a alone underflows the
    # sum's range: the scale follows the gap, not u1 and u2
    a[:20], u1[:20] = 10.0 ** rng.uniform(-323, -310, 20), 10.0 ** rng.uniform(0, 300, 20)
    u2[:20] = u1[:20]
    points = [*zip(a.tolist(), u1.tolist(), u2.tolist()),
              (1.0, 1e200, -1e200), (1e308, 0.0, 0.0), (0.0, 1e-200, 0.0),
              (5e-324, 1e-161, 0.0), (1e-320, 1e10, 1e10), (0.0, _DBL_MAX, -_DBL_MAX)]
    grid = i2_grid(*(np.array(c) for c in zip(*points)))
    assert not grid.codes.any()
    for k, p in enumerate(points):
        got = i2_closed(*p)
        ref = float(REF.i2_mp(*p))
        # within 1e-15 relative, or half the subnormal spacing below DBL_MIN
        assert abs(got - ref) <= 1e-15 * abs(ref) + 2.5e-324, (p, got, ref)
        assert grid.value[k].hex() == got.hex(), p
    for p, message in (((0.0, 3.0, 3.0), "double pole"), ((0.0, 5e-324, 0.0), "I2 overflows")):
        with pytest.raises(DomainError, match=message):
            i2_closed(*p)
        assert i2_grid(*p).codes == 1


def _bits(z: complex) -> bytes:
    # every bit of both parts, so signed zeros and NaN signs count too
    return struct.pack("<dd", z.real, z.imag)


def test_second_pole_group_is_conjugate_bitwise():
    """g2 == conj(g1) and 1/w2 == conj(1/w1) bit for bit.

    This is what lets h2 evaluate H2 = 2 Re g1 from two Faddeeva calls and
    i2_closed evaluate 2 Re(1/w1), with no realness check.  pole_set builds
    its second group from the first, and that group must be
    _pole_group(-a, u1, u2) bit for bit, at a = 0 and where (u1-u2)^2 or
    4a overflows as well.
    """
    rng = np.random.default_rng(20261017)
    n = 20_000
    a = 10.0 ** rng.uniform(-12.0, 4.0, n)
    u1 = rng.uniform(-12.0, 12.0, n)
    u2 = np.where(rng.random(n) < 0.3, u1 + rng.uniform(-1e-3, 1e-3, n), rng.uniform(-12.0, 12.0, n))
    for ai, x, y in zip(a.tolist(), u1.tolist(), u2.tolist()):
        ps = pole_set(ai, x, y)
        g1 = (faddeeva_w(ps.t1_plus) + faddeeva_w(-ps.t1_minus)) / (2.0 * ps.w1)
        g2 = (faddeeva_w(-ps.t2_plus) + faddeeva_w(ps.t2_minus)) / (2.0 * ps.w2)
        c1 = g1.conjugate()
        assert (g2.real.hex(), g2.imag.hex()) == (c1.real.hex(), c1.imag.hex())
        r1 = (1.0 / ps.w1).conjugate()
        r2 = 1.0 / ps.w2
        assert (r2.real.hex(), r2.imag.hex()) == (r1.real.hex(), r1.imag.hex())
        second = _pole_group(-ai, x, y)
        assert [_bits(z) for z in (ps.w2, ps.t2_plus, ps.t2_minus)] == [_bits(z) for z in second]

    edges = [
        (z, x, y)
        for z in (0.0, -0.0)
        for x, y in ((0.0, 0.0), (-0.0, -0.0), (1.0, 0.0), (-1.0, -2.0), (1.0, 1.0), (-3.0, 3.0))
    ]
    edges += [
        (1.0, 1e200, -1e200),  # (u1-u2)^2 overflows
        (1e308, 0.0, 1.0),  # 4a overflows
        (-1e308, 0.0, 1.0),
        (1e308, 1e200, -1e200),  # both
        (5e-324, 1.0, 1.0),
    ]
    for ai, x, y in edges:
        ps = pole_set(ai, x, y)
        second = _pole_group(-ai, x, y)
        assert [_bits(z) for z in (ps.w2, ps.t2_plus, ps.t2_minus)] == [_bits(z) for z in second]


def test_i2_matches_i2_quadrature():
    for a in (0.1, 1.0):
        for u1 in (-2.0, 0.0, 1.0, 3.0):
            for u2 in (-2.0, 0.0, 1.0, 3.0):
                ref = i2_quadrature(a, u1, u2)
                assert ref.method == "quadrature"
                got = i2_closed(a, u1, u2)
                assert abs(got - ref.value) <= max(1e-9, 1e-9 * abs(got))


def test_corollary_bounded_analytic_weight():
    """(a/pi) Int phi(t)/((t-u1)^2(t-u2)^2+a^2) dt -> (phi(u1)+phi(u2))/|u1-u2|.

    phi(t) = 1/(t^2+25) is analytic near the real line and bounded, the
    shape the residue argument needs; checked at a = 1e-5.
    """
    a, u1, u2 = 1e-5, 1.0, -1.0
    # peaks at u1, u2 have half-width ~ a/|u1-u2|; seed geometrically
    seeds = []
    for u in (u1, u2):
        w = a / abs(u1 - u2)
        seeds.append(u)
        for k in range(14):
            seeds += [u - w, u + w]
            w *= 4.0
            if w > 1.0:
                break

    def f(t: np.ndarray) -> np.ndarray:
        phi = 1.0 / (t * t + 25.0)
        return phi / ((t - u1) ** 2 * (t - u2) ** 2 + a * a)

    r = integrate_real_line(f, seeds=seeds)
    assert r.converged
    got = a / math.pi * r.value
    want = (1.0 / 26.0 + 1.0 / 26.0) / 2.0
    assert abs(got - want) / want < 1e-3


# ------------------------------------------------------------------- v2


def test_v2_even_in_e():
    p = ProfileParams(mu=1.0, gamma=0.1, sigma=0.2)
    lhs, rhs = v2(-1.3, p), v2(1.3, p)
    assert abs(lhs - rhs) <= 1e-12 * rhs


def test_v2_matches_convolution_quadrature():
    """Direct smearing of the relativistic shape, absolute 1e-8."""
    p = ProfileParams(mu=1.0, gamma=0.5, sigma=0.3)
    # E' = e + s x puts the Gaussian factor at e^{-x^2}
    s = p.sigma * math.sqrt(2.0)

    for e in np.arange(-3.0, 3.0 + 1e-9, 0.2):

        def f(x: np.ndarray) -> np.ndarray:
            ep = e + s * x
            lor = (p.mu * p.gamma / math.pi) / (
                (ep * ep - p.mu * p.mu) ** 2 + (p.mu * p.gamma) ** 2
            )
            gau = np.exp(-((e - ep) ** 2) / (2.0 * p.sigma**2)) / (p.sigma * SQRT_2PI)
            return s * lor * gau

        r = integrate_real_line(f, seeds=[(-p.mu - e) / s, (p.mu - e) / s, 0.0])
        assert r.converged
        assert abs(r.value - v2(float(e), p)) <= 1e-8


def test_v2_mass_matches_bw_rel_mass():
    # convolution with a unit-mass Gaussian preserves the total integral,
    # and that integral is the closed-form pole sum, not 1
    mu, gamma, sigma = 1.0, 0.5, 0.3
    p = ProfileParams(mu=mu, gamma=gamma, sigma=sigma)
    r = routes._compactified(
        lambda e, k: np.vectorize(lambda x: v2(x, p))(e), np.array([[-mu, mu]])
    )
    assert r.converged[0]
    mass = i2_closed(mu * gamma, mu, -mu)
    assert abs(r.value[0] - mass) < 1e-8


def test_v2_peak_approaches_bare_peak():
    mu, gamma = 1.0, 0.5
    p = ProfileParams(mu=mu, gamma=gamma, sigma=gamma / 100.0)
    bare = 1.0 / (math.pi * mu * gamma)
    assert abs(v2(mu, p) - bare) / bare < 1e-2
    assert abs(bw_rel(mu, p) - bare) < 1e-15


def test_v2_gamma0_limit_value():
    want = (1.0 + math.exp(-2.0)) / (2.0 * SQRT_2PI)
    assert abs(v2_gamma0_limit(1.0, 1.0, 1.0) - want) < 1e-15


def test_v2_gamma0_limit_even_and_sequence():
    assert v2_gamma0_limit(-1.2, 1.0, 0.5) == v2_gamma0_limit(1.2, 1.0, 0.5)
    limit = v2_gamma0_limit(1.2, 1.0, 0.5)
    devs = [
        abs(v2(1.2, ProfileParams(mu=1.0, gamma=g, sigma=0.5)) - limit)
        for g in (1e-2, 1e-3, 1e-4)
    ]
    assert devs == sorted(devs, reverse=True)


def test_v2_gamma0_limit_domain():
    with pytest.raises(DomainError):
        v2_gamma0_limit(1.0, 0.0, 1.0)
    with pytest.raises(ParameterError):
        v2_gamma0_limit(1.0, 1.0, 0.0)


@pytest.mark.parametrize("x", [1e-170, 1e-160])
def test_v2_where_gamma_mu_underflows(x):
    # gamma * mu is 1e-340 (0 in double) or 1e-320 (a subnormal with four
    # digits); a = gamma mu / (2 sigma^2) must not be formed through it
    params = ProfileParams(mu=x, gamma=x, sigma=1e-100)
    got = v2(x, params)
    want = float(REF.v2_mp(x, x, x, 1e-100))
    assert abs(got - want) <= 1e-14 * want
    assert v2_grid(x, x, x, 1e-100).value == got


def test_v2_parameter_errors():
    with pytest.raises(ParameterError):
        v2(0.0, ProfileParams(mu=0.0, gamma=0.5, sigma=0.3))
    with pytest.raises(ParameterError):
        v2(0.0, ProfileParams(mu=1.0, gamma=0.5, sigma=0.0))
    # sigma^2 underflows: a DomainError, not a ZeroDivisionError
    with pytest.raises(DomainError):
        v2(1.0, ProfileParams(mu=1.0, gamma=0.5, sigma=1e-170))


# ---------------------------------------------------------------- damping


def test_damping_exact_at_sigma_zero():
    assert d0(0.0, 0.5, 1.0) == 1.0
    assert d2(0.0, 0.5, 1.0) == 1.0


def test_damping_decays_from_one():
    rng = np.random.default_rng(20240826)
    for _ in range(30):
        sigma = rng.uniform(0.01, 2.0)
        gamma = rng.uniform(0.1, 1.5)
        mu = rng.uniform(0.3, 3.0)
        val0 = d0(sigma, gamma, mu)
        val2 = d2(sigma, gamma, mu)
        assert 0.0 < val0 < 1.0
        assert 0.0 < val2 < 1.0


def test_damping_small_sigma_near_one():
    devs = [abs(d2(s, 0.5, 1.0) - 1.0) for s in (0.01, 0.005, 0.0025)]
    assert devs[0] < 0.05
    assert devs == sorted(devs, reverse=True)


@pytest.mark.parametrize(
    "fn, args",
    [
        (d0, (1e-300, 1e300, 1.0)),  # V0's reduced a = gamma/(2 sqrt2 sigma) overflows
        (d0, (1.0, 1e-320, 1.0)),  # the peak density 2/(pi gamma) overflows
        (d2, (1e150, 1.0, 1e200)),  # V2's peak, ~2e-351, underflows to 0
        (d2, (1.0, 0.5, 1e-320)),  # the peak density 1/(pi mu gamma) overflows
    ],
)
def test_damping_underflowing_peak_is_domain_error(fn, args):
    with pytest.raises(DomainError):
        fn(*args)


@pytest.mark.parametrize(
    "fn, grid, ref, args",
    [
        (d0, d0_grid, REF.d0_mp, (1e-300, 1e-300, 1.0)),
        (d0, d0_grid, REF.d0_mp, (1.0, 1e-170, 1.0)),
        (d2, d2_grid, REF.d2_mp, (1.0, 0.5, 1e-170)),
    ],
)
def test_damping_where_the_peak_density_denominator_underflows(fn, grid, ref, args):
    # the bare Breit-Wigner at the peak, 2/(pi gamma) or 1/(pi mu gamma), is
    # a double here although its denominator underflows; these raised
    # "denominator underflows" before
    got = fn(*args)
    assert abs(got - float(ref(*args))) <= 1e-14 * abs(got)
    assert grid(*args).value == got


@pytest.mark.parametrize("fn, grid", [(d0, d0_grid), (d2, d2_grid)])
def test_damping_where_the_peak_density_denominator_overflows(fn, grid):
    # gamma^2 and (mu gamma)^2 overflow, and the peak densities 2/(pi gamma)
    # and 1/(pi mu gamma) raised "underflows to 0" before.  a ~ 3.5e199,
    # where H0(a, 0) = (1 - 1/(2a^2) + ...)/(a sqrt(pi)), so the ratio is 1
    # within ~1e-399, and so is d2's
    got = fn(1.0, 1e200, 1.0)
    assert abs(got - 1.0) <= 4.0 * np.finfo(float).eps
    assert grid(1.0, 1e200, 1.0).value == got


def test_non_finite_profile_values_are_domain_errors():
    # V0 = H0 / (sqrt(2 pi) sigma) overflows at a denormal sigma, and V2's
    # peak underflows to 0 at (sigma, gamma, mu) = (1e150, 1, 1e200), where
    # d2 is ~6.3e-151
    with pytest.raises(DomainError):
        v0(1.0, ProfileParams(mu=1.0, gamma=1e-310, sigma=1e-322))
    with pytest.raises(DomainError):
        d2(1e150, 1.0, 1e200)
    assert v0_grid(1.0, 1.0, 1e-310, 1e-322).error == "DomainError"
    assert d2_grid(1e150, 1.0, 1e200).error == "DomainError"


def test_damping_parameter_errors():
    with pytest.raises(ParameterError):
        d0(-0.1, 0.5, 1.0)
    with pytest.raises(ParameterError):
        d2(0.1, 0.0, 1.0)
    with pytest.raises(ParameterError):
        d2(0.1, 0.5, -1.0)


# --------------------------------------------------------------- plumbing


def test_eval_result_validation():
    # the checks run value, estimate, method: each row fails every check
    # from the one it names on, so the message shows which runs first
    value = "^EvalResult value must be finite, got "
    estimate = "^EvalResult error_estimate must be finite and >= 0, got "
    cases = [
        ((math.nan, -1.0, "mystery"), value + "nan$"),
        ((-math.inf, 0.0, "closed_form"), value + "-inf$"),
        ((1.0, -1.0, "mystery"), estimate + "-1.0$"),
        ((1.0, math.nan, "mystery"), estimate + "nan$"),
        ((1.0, math.inf, "closed_form"), estimate + "inf$"),
        ((1.0, 0.0, "mystery"), "^unknown method tag 'mystery'$"),
    ]
    for args, message in cases:
        with pytest.raises(DomainError, match=message):
            EvalResult(*args)


def test_eval_result_is_a_frozen_slotted_value_record():
    r = EvalResult(0.25, 1e-13, "closed_form")
    assert EvalResult(value=0.25, error_estimate=1e-13, method="closed_form") == r
    assert [f.name for f in dataclasses.fields(r)] == ["value", "error_estimate", "method"]
    assert not hasattr(r, "__dict__")
    for name in ("value", "error_estimate", "method"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(r, name, getattr(r, name))
    assert (r.value, r.error_estimate, r.method) == (0.25, 1e-13, "closed_form")

    # eq and hash compare the fields as a tuple; repr names them
    assert r == EvalResult(0.25, 1e-13, "closed_form")
    assert r != EvalResult(0.25, 1e-13, "quadrature")
    assert r != (0.25, 1e-13, "closed_form")
    assert hash(r) == hash((0.25, 1e-13, "closed_form"))
    assert repr(r) == "EvalResult(value=0.25, error_estimate=1e-13, method='closed_form')"

    # replace builds through the same checks
    assert dataclasses.replace(r, method="quadrature") == EvalResult(0.25, 1e-13, "quadrature")
    with pytest.raises(DomainError, match="^EvalResult value must be finite, got inf$"):
        dataclasses.replace(r, value=math.inf)
    with pytest.raises(DomainError, match="^unknown method tag 'mystery'$"):
        dataclasses.replace(r, method="mystery")

    fields = {"value": 0.25, "error_estimate": 1e-13, "method": "closed_form"}
    assert dataclasses.asdict(r) == fields
    back = pickle.loads(pickle.dumps(r))
    assert type(back) is EvalResult and back == r and hash(back) == hash(r)
    with pytest.raises(dataclasses.FrozenInstanceError):
        back.value = 1.0


def test_h2_rejects_non_finite():
    with pytest.raises(DomainError):
        h2(float("nan"), 1.0, 0.0)
    with pytest.raises(DomainError):
        h2_quadrature(1.0, float("inf"), 0.0)
    with pytest.raises(DomainError):
        h2_quadrature(0.0, 1.0, 0.0)


@pytest.mark.parametrize(
    "call, named",
    [
        (lambda: h2(1.0, 1e200, -1e200), "h2 at (a, u1, u2)=(1.0, 1e+200, -1e+200)"),
        (lambda: h2(1e308, 0.0, 0.0), "h2 at (a, u1, u2)=(1e+308, 0.0, 0.0)"),
        (lambda: h2(-1e308, 0.0, 0.0), "h2 at (a, u1, u2)=(-1e+308, 0.0, 0.0)"),
        (
            lambda: v2(1.0, ProfileParams(mu=1.0, gamma=0.5, sigma=1e-160)),
            "v2 at e=1.0, ProfileParams(mu=1.0, gamma=0.5, sigma=1e-160)",
        ),
    ],
)
def test_range_edges_raise_domain_error_naming_the_input(call, named):
    with pytest.raises(DomainError) as info:
        call()
    message = str(info.value)
    assert message.startswith(named)
    assert "outside double range" in message
