"""Relativistic line-broadening function H2 and Voigt profile V2.

H2(a, u1, u2) = (a/pi) Int e^{-t^2} / ((u1-t)^2 (u2-t)^2 + a^2) dt is the
relativistic analogue of the classical H0: smearing the relativistic
Breit-Wigner with a Gaussian gives

    V2(E; mu, gamma, sigma) = H2(a, u1, u2) / (2 sqrt(pi) sigma^2)

in the reduced coordinates of ``profiles.reduce_rel``.  The quartic
denominator factors over four complex roots, and the integral collapses to
four Faddeeva-function terms grouped by the square roots w1, w2 of
(u1-u2)^2 +- 4ia.  The second group is the complex conjugate of the first,
bit for bit in floating point, so the production path evaluates one group
g1 = (w(t1+) + w(-t1-)) / (2 w1) with two Faddeeva calls and returns
H2 = 2 Re g1.

The closed form degrades in two regimes, both covered explicitly: near the
degenerate manifold u1 = u2 with small a the two pole groups cancel
catastrophically and a Laurent series in sqrt(a) takes over, while for
min(|u1|, |u2|) large a leading-order asymptotic is available as a
cross-check.  Independent routes (direct quadrature, a shifted-contour
form, and two integral representations obtained by Gaussianizing the
denominator) exist solely to verify the closed form against each other.

Every function used by the sweeps also has a grid form (``h2_grid``,
``v2_grid``, ...) that evaluates whole arrays of points in one call.  The
grid forms repeat the scalar arithmetic operation for operation, with
CPython's complex division and square root written out in real arithmetic,
so each point matches the scalar evaluator bit for bit; the rare points in
the degenerate corner go through the scalar h2 itself.

The direct-quadrature oracles have grid forms as well (``h2_quadrature_grid``,
``i2_quadrature_grid``).  They integrate all points through the batched
refinement loop of ``quadrature``, and agree with the scalar routes within
the error estimates rather than bit for bit.

H2 is odd in a and exactly symmetric under u1 <-> u2 and under
(u1, u2) -> (-u1, -u2).  The pole algebra below is arranged so those
symmetries hold bitwise in floating point, not just approximately: the
radicand is built from (u1-u2)^2 and u1+u2 alone, and IEEE negation and
commutative addition do the rest.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .complex_fn import faddeeva_w, faddeeva_w_grid
from .errors import (
    DomainError,
    IntegrationError,
    ParameterError,
    RelVoigtError,
    check_side,
    require_finite,
)
from .profiles import (
    ProfileParams,
    _bw_nonrel,
    _bw_rel,
    _reduce_rel,
    bw_nonrel_grid,
    bw_rel_grid,
    reduce_rel_grid,
)
from .quadrature import (
    QuadratureBatch,
    QuadratureConfig,
    integrate_interval,
    integrate_real_line,
    integrate_real_line_batch,
    integrate_real_line_compactified_batch,
    integrate_semi_infinite_batch,
    peak_seeds,
    quadrature_grid,
)
from .result import EvalResult, GridFailures, GridResult, grid_arrays
from .voigt import _v0, v0_grid

__all__ = [
    "PoleSet",
    "pole_set",
    "h2",
    "h2_grid",
    "h2_quadrature",
    "h2_quadrature_grid",
    "h2_limit_a0",
    "h2_degenerate_series",
    "h2_large_u_asymptotic",
    "h2_rectangle",
    "h2_integral_rep",
    "i2_closed",
    "i2_grid",
    "i2_quadrature",
    "i2_quadrature_grid",
    "v2",
    "v2_grid",
    "v2_gamma0_limit",
    "d0",
    "d0_grid",
    "d2",
    "d2_grid",
]

_SQRT_PI = math.sqrt(math.pi)

# The closed form loses accuracy to cancellation between the two pole
# groups as w1, w2 -> 0, i.e. jointly small gap |u1-u2| and small a; the
# two-term Laurent series has relative error O(a) there and takes over.
_DEGENERATE_GAP = 1e-3
_DEGENERATE_A = 1e-3

# CPython's cmath.sqrt scales arguments whose parts are both below
# DBL_MIN by 2^53 before taking the square root, and the result by 2^-27.
_DBL_MIN = 2.2250738585072014e-308
_SQRT_SCALE_UP = 53
_SQRT_SCALE_DOWN = -27


@dataclass(frozen=True)
class PoleSet:
    """Roots of the quartic (t-u1)^2 (t-u2)^2 + a^2 and their square roots.

    w1 = sqrt((u1-u2)^2 + 4ia) and w2 = sqrt((u1-u2)^2 - 4ia), principal
    branch.  t1_plus/t1_minus = (u1+u2 +- w1)/2 solve (t-u1)(t-u2) = ia;
    t2_plus/t2_minus = (u1+u2 +- w2)/2 solve (t-u1)(t-u2) = -ia.  For
    a > 0 the two roots in the upper half-plane are t1_plus and t2_minus,
    the ones an upper contour encloses.  At a = 0 the roots collapse in
    pairs onto u1 and u2, which is representable but degenerate.
    """

    w1: complex
    w2: complex
    t1_plus: complex
    t1_minus: complex
    t2_plus: complex
    t2_minus: complex


def _pole_group(a: float, u1: float, u2: float) -> tuple[complex, complex, complex]:
    # w1, t1_plus and t1_minus of PoleSet from finite floats, unchecked;
    # the second group (w2, t2_plus, t2_minus) is this one at -a
    d = u1 - u2
    s = u1 + u2
    w1 = cmath.sqrt(complex(d * d, 4.0 * a))
    return w1, 0.5 * (s + w1), 0.5 * (s - w1)


def pole_set(a: float, u1: float, u2: float) -> PoleSet:
    """Factor the H2 denominator; exact under the H2 symmetries.

    Built from (u1-u2)^2 and u1+u2 only, so swapping u1 and u2 or negating
    both reproduces every field bitwise (squaring absorbs the sign flip of
    the difference, and the sum is commutative).
    """
    a = require_finite("a", a)
    u1 = require_finite("u1", u1)
    u2 = require_finite("u2", u2)
    w1, t1_plus, t1_minus = _pole_group(a, u1, u2)
    w2, t2_plus, t2_minus = _pole_group(-a, u1, u2)
    return PoleSet(w1, w2, t1_plus, t1_minus, t2_plus, t2_minus)


def _h2_closed_form(a: float, u1: float, u2: float) -> EvalResult:
    # requires finite a > 0 so that both w arguments lie in the upper
    # half-plane, where the Faddeeva function is bounded.  The second pole
    # group g2 = (w(-t2+) + w(t2-)) / (2 w2) is conj(g1) bit for bit
    # (cmath.sqrt, w and complex division all commute with conjugation
    # exactly), so g1 + g2 = 2 Re g1 with no imaginary residue and
    # |g1| + |g2| = 2 |g1|.
    w1, t1_plus, t1_minus = _pole_group(a, u1, u2)
    g1 = (faddeeva_w(t1_plus) + faddeeva_w(-t1_minus)) / (2.0 * w1)
    return EvalResult(2.0 * g1.real, 1e-13 * (2.0 * abs(g1)), "closed_form")


# CPython complex arithmetic written out on real arrays: the grid forms use
# these so that every operation rounds exactly as in the scalar evaluators
# (numpy's own complex division and abs differ in the last ulp).


def _cmul_real(k: float, zr, zi):
    """k * z for a float k, as CPython computes it: k is promoted to k + 0i."""
    return k * zr - 0.0 * zi, k * zi + 0.0 * zr


def _cquot(ar, ai, br, bi):
    """a / b by CPython's _Py_c_quot (Smith's algorithm); b must be nonzero."""
    real_big = np.abs(br) >= np.abs(bi)
    ratio = np.where(real_big, bi / br, br / bi)
    denom = np.where(real_big, br + bi * ratio, br * ratio + bi)
    re = np.where(real_big, ar + ai * ratio, ar * ratio + ai) / denom
    im = np.where(real_big, ai - ar * ratio, ai * ratio - ar) / denom
    return re, im


def _csqrt(x, y):
    """cmath.sqrt(complex(x, y)) for x >= 0, (x, y) != 0, as CPython computes it."""
    ax, ay = np.abs(x), np.abs(y)
    tiny = (ax < _DBL_MIN) & (ay < _DBL_MIN)
    big_ax = ax / 8.0
    s = np.where(
        tiny,
        np.ldexp(
            np.sqrt(
                np.ldexp(ax, _SQRT_SCALE_UP)
                + np.hypot(np.ldexp(ax, _SQRT_SCALE_UP), np.ldexp(ay, _SQRT_SCALE_UP))
            ),
            _SQRT_SCALE_DOWN,
        ),
        2.0 * np.sqrt(big_ax + np.hypot(big_ax, ay / 8.0)),
    )
    return s, np.copysign(ay / (2.0 * s), y)


def _h2_closed_form_grid(a, u1, u2):
    """_h2_closed_form over arrays with a > 0: value, estimate, finite mask."""
    # _pole_group's w1 and t1+-, then -t1-, in CPython's complex arithmetic
    d = u1 - u2
    s = u1 + u2
    w1r, w1i = _csqrt(d * d, 4.0 * a)
    t1p_r, t1p_i = _cmul_real(0.5, s + w1r, 0.0 + w1i)
    t1m_r, t1m_i = _cmul_real(0.5, s - w1r, 0.0 - w1i)
    fr, fi, f_ok = faddeeva_w_grid(t1p_r, t1p_i)
    gr, gi, g_ok = faddeeva_w_grid(-t1m_r, -t1m_i)
    g1r, g1i = _cquot(fr + gr, fi + gi, *_cmul_real(2.0, w1r, w1i))
    value = 2.0 * g1r
    err = 1e-13 * (2.0 * np.hypot(g1r, g1i))
    ok = f_ok & g_ok & np.isfinite(value) & np.isfinite(err)
    return value, err, ok


def h2(a: float, u1: float, u2: float) -> EvalResult:
    """Relativistic line-broadening function.

    Dispatches on the regime: exactly a = 0 returns 0 (odd-function
    convention, matching h0; the one-sided limits live in h2_limit_a0),
    a < 0 is the negated a > 0 value, the degenerate corner goes through
    the Laurent series, and everything else takes the four-term closed
    form.  The method field of the result records the path.
    """
    a = require_finite("a", a)
    u1 = require_finite("u1", u1)
    u2 = require_finite("u2", u2)
    if a == 0.0:
        return EvalResult(0.0, 0.0, "closed_form")
    if a < 0.0:
        r = h2(-a, u1, u2)
        return EvalResult(-r.value, r.error_estimate, r.method)
    if abs(u1 - u2) < _DEGENERATE_GAP and a < _DEGENERATE_A:
        return h2_degenerate_series(a, 0.5 * (u1 + u2))
    return _h2_closed_form(a, u1, u2)


def h2_grid(a, u1, u2) -> GridResult:
    """h2 over broadcast arrays of points, bit for bit with the scalar h2.

    Points in the degenerate corner (gap and a both below 1e-3) go through
    the scalar h2 one at a time, which keeps the bits of its libm exp and
    sqrt; everything else takes the closed form in one vectorised pass.
    """
    a, u1, u2 = grid_arrays(a, u1, u2)
    fails = GridFailures(a.shape)
    fails.flag(~(np.isfinite(a) & np.isfinite(u1) & np.isfinite(u2)), DomainError)
    value = np.zeros(a.shape)
    err = np.zeros(a.shape)
    with np.errstate(all="ignore"):
        aa = np.abs(a)
        live = fails.ok & (a != 0.0)
        corner = live & (np.abs(u1 - u2) < _DEGENERATE_GAP) & (aa < _DEGENERATE_A)
        closed = live & ~corner
        v, e, ok = _h2_closed_form_grid(aa[closed], u1[closed], u2[closed])
    value[closed] = np.where(a[closed] < 0.0, -v, v)
    err[closed] = e
    broken = np.zeros(a.shape, dtype=bool)
    broken[closed] = ~ok
    fails.flag(broken, DomainError)
    for i in np.flatnonzero(corner):
        try:
            r = h2(float(a.flat[i]), float(u1.flat[i]), float(u2.flat[i]))
        except RelVoigtError as exc:
            fails.flag_at(i, type(exc))
            continue
        value.flat[i] = r.value
        err.flat[i] = r.error_estimate
    return fails.result(value, err)


def _peak_seeds(a, u1, u2) -> np.ndarray:
    # the integrand has Lorentzian-like peaks at u1 and u2 of half-width
    # |a|/|u1-u2| (or |a|^{1/2} when the peaks merge); seed the panel edges
    # geometrically out from each peak narrower than 1/2
    aa = np.abs(a)
    width = aa / np.maximum(np.abs(u1 - u2), np.sqrt(aa))
    return peak_seeds(np.stack([u1, u2], axis=1), np.where(width < 0.5, width, 2.0))


def _h2_route(a, u1, u2, config) -> QuadratureBatch:
    # the defining integral of H2 at arrays of points, in one batched call
    pref = a / math.pi
    aa = a * a

    def f(t: np.ndarray, k: np.ndarray) -> np.ndarray:
        p = (u1[k] - t) * (u2[k] - t)
        return pref[k] * np.exp(-t * t) / (p * p + aa[k])

    return integrate_real_line_batch(f, a.size, config, seeds=_peak_seeds(a, u1, u2))


def _i2_route(a, u1, u2, config) -> QuadratureBatch:
    # the defining integral of I2 at arrays of points; it decays like 1/t^4,
    # so the real line is compactified rather than truncated
    pref = a / math.pi
    aa = a * a

    def f(t: np.ndarray, k: np.ndarray) -> np.ndarray:
        p = (u1[k] - t) * (u2[k] - t)
        return pref[k] / (p * p + aa[k])

    return integrate_real_line_compactified_batch(
        f, a.size, config, seeds=_peak_seeds(a, u1, u2)
    )


def _route_point(route, a: float, u1: float, u2: float, config) -> EvalResult:
    a = require_finite("a", a)
    u1 = require_finite("u1", u1)
    u2 = require_finite("u2", u2)
    if a == 0.0:
        raise DomainError("direct quadrature requires a != 0")
    r = route(np.array([a]), np.array([u1]), np.array([u2]), config)[0]
    if not r.converged:
        raise IntegrationError(
            f"quadrature did not converge at (a, u1, u2)=({a!r}, {u1!r}, {u2!r}); "
            f"error estimate {r.error_estimate:.3e}"
        )
    return EvalResult(float(r.value), r.error_estimate, "quadrature")


def _route_grid(route, a, u1, u2, config) -> GridResult:
    a, u1, u2 = grid_arrays(a, u1, u2)
    fails = GridFailures(a.shape)
    fails.flag(~(np.isfinite(a) & np.isfinite(u1) & np.isfinite(u2)), DomainError)
    fails.flag(a == 0.0, DomainError)
    return quadrature_grid(lambda *p: route(*p, config), fails, a, u1, u2)


def h2_quadrature(
    a: float, u1: float, u2: float, config: QuadratureConfig | None = None
) -> EvalResult:
    """H2 by direct adaptive quadrature of the defining integral.

    The independent oracle for the closed form.  Works for either sign of
    a (the integrand is odd in a), but not at a = 0 where the integral is
    identically zero by convention rather than value.
    """
    return _route_point(_h2_route, a, u1, u2, config)


def h2_quadrature_grid(a, u1, u2, config: QuadratureConfig | None = None) -> GridResult:
    """h2_quadrature over broadcast arrays of points, by batched quadrature.

    A point fails with the exception name h2_quadrature raises there
    (IntegrationError where it does not converge); the others agree with
    h2_quadrature within the sum of both error estimates.
    """
    return _route_grid(_h2_route, a, u1, u2, config)


def h2_limit_a0(u1: float, u2: float, side: int) -> float:
    """One-sided limit of H2 as a -> 0: +-(e^{-u1^2} + e^{-u2^2})/|u1-u2|."""
    u1 = require_finite("u1", u1)
    u2 = require_finite("u2", u2)
    side = check_side(side)
    if u1 == u2:
        raise DomainError("limit divergent on degenerate manifold")
    return side * (math.exp(-u1 * u1) + math.exp(-u2 * u2)) / abs(u1 - u2)


def h2_degenerate_series(a: float, u: float) -> EvalResult:
    """Two-term Laurent series of H2 on the degenerate manifold u1 = u2 = u.

    H2(a, u, u) = e^{-u^2}/sqrt(2a) + e^{-u^2} (2u^2 - 1) sqrt(a/2) + O(a),
    valid for small a > 0; the error estimate is the next-order scale
    e^{-u^2} a.
    """
    a = require_finite("a", a)
    u = require_finite("u", u)
    if a <= 0.0:
        raise DomainError(f"series requires a > 0, got {a!r}")
    g = math.exp(-u * u)
    value = g / math.sqrt(2.0 * a) + g * (2.0 * u * u - 1.0) * math.sqrt(0.5 * a)
    return EvalResult(value, g * a, "degenerate_series")


def h2_large_u_asymptotic(
    a: float, u1: float, u2: float, threshold: float = 15.0
) -> EvalResult:
    """Leading-order H2 for both |u1| and |u2| large: a/(sqrt(pi)(u1^2 u2^2 + a^2)).

    The next-order relative error comes from the Gaussian moments of the
    expanded quartic and is dominated by (3/2)(1/u1 + 1/u2)^2; the error
    estimate reports that scale.
    """
    a = require_finite("a", a)
    u1 = require_finite("u1", u1)
    u2 = require_finite("u2", u2)
    threshold = require_finite("threshold", threshold)
    if a == 0.0:
        raise DomainError("asymptotic form requires a != 0")
    m = min(abs(u1), abs(u2))
    if m < threshold:
        raise DomainError(
            f"asymptotic regime not reached: min(|u1|, |u2|)={m!r} below "
            f"threshold {threshold!r}"
        )
    value = a / (_SQRT_PI * (u1 * u1 * u2 * u2 + a * a))
    rel_next = 1.5 * (1.0 / abs(u1) + 1.0 / abs(u2)) ** 2
    return EvalResult(value, abs(value) * rel_next, "large_u_asymptotic")


def h2_rectangle(
    a: float,
    u1: float,
    u2: float,
    offset: float | None = None,
    config: QuadratureConfig | None = None,
) -> EvalResult:
    """H2 from a contour shifted off the real axis plus two residue terms.

    Deforming the defining integral upward across the enclosed poles gives

        H2 = (a/pi) Int_L e^{-t^2}/((t-u1)^2 (t-u2)^2 + a^2) dt
             + e^{-t1_plus^2}/w1 + e^{-t2_minus^2}/w2

    with L the horizontal line Im t = offset.  The offset must clear both
    enclosed poles; by default it sits 1 above the higher one, keeping the
    e^{offset^2} growth of the Gaussian factor on L modest.  A diagnostic
    route: as a -> 0 the line term vanishes and the residues alone
    reproduce the limit values.
    """
    a = require_finite("a", a)
    u1 = require_finite("u1", u1)
    u2 = require_finite("u2", u2)
    if a <= 0.0:
        raise DomainError(f"contour form requires a > 0, got {a!r}")
    ps = pole_set(a, u1, u2)
    im_max = max(ps.t1_plus.imag, ps.t2_minus.imag)
    if offset is None:
        offset = 1.0 + im_max
    else:
        offset = require_finite("offset", offset)
    if offset <= im_max:
        raise DomainError("contour must enclose both poles")
    cfg = config if config is not None else QuadratureConfig(abs_tol=1e-9, rel_tol=1e-9)

    shift = 1j * offset

    def f(x: np.ndarray) -> np.ndarray:
        t = x + shift
        p = (t - u1) * (t - u2)
        return np.exp(-t * t) / (p * p + a * a)

    line = integrate_real_line(
        f, cfg, seeds=[ps.t1_plus.real, ps.t1_minus.real]
    )
    if not line.converged:
        raise IntegrationError(
            f"contour quadrature did not converge at offset {offset!r}; "
            f"error estimate {line.error_estimate:.3e}"
        )
    residues = (
        cmath.exp(-ps.t1_plus * ps.t1_plus) / ps.w1
        + cmath.exp(-ps.t2_minus * ps.t2_minus) / ps.w2
    )
    total = (a / math.pi) * line.value + residues
    err = (a / math.pi) * line.error_estimate + abs(total.imag)
    return EvalResult(total.real, err, "quadrature")


def _rep_double(a, u1, u2, cfg: QuadratureConfig) -> EvalResult:
    # H2 = (1/pi) Int dt e^{-t^2} Int_0^inf e^{-ax} cos(x (t-u1)(t-u2)) dx,
    # evaluated by honest nested quadrature.  The inner integral of an
    # exponentially damped cosine is a geometric sum over whole periods,
    # which the semi-infinite integrator closes analytically.  The inner
    # x-integrals of each outer round go through one batched call, so the
    # cost is the x integration itself, not a Python loop over abscissas.
    inner_cfg = QuadratureConfig(
        abs_tol=min(1e-9, cfg.abs_tol), rel_tol=1e-10, max_subdivisions=400
    )

    # the inner integral is bounded by 1/a, so points whose Gaussian
    # envelope falls below this floor cannot move the total past the
    # tolerance; skipping them avoids the most oscillatory inner integrals
    env_floor = 1e-13 * a

    def outer(t: np.ndarray) -> np.ndarray:
        env = np.exp(-t * t)
        out = np.zeros_like(env)
        live = env >= env_floor
        c = (t[live] - u1) * (t[live] - u2)
        # for |c| >= 0.4, block on a whole number of periods with total
        # width about 1: consecutive block integrals then form an exact
        # geometric sequence whose ratio is far enough from 1 for the
        # closure test to survive quadrature noise even at high frequency
        with np.errstate(divide="ignore"):
            period = 2.0 * math.pi / np.abs(c)
        hint = np.where(
            np.abs(c) >= 0.4, period * np.maximum(1.0, np.round(1.0 / period)), np.nan
        )

        def g(x: np.ndarray, k: np.ndarray) -> np.ndarray:
            return np.exp(-a * x) * np.cos(c[k] * x)

        r = integrate_semi_infinite_batch(g, c.size, inner_cfg, period_hint=hint)
        if not r.converged.all():
            raise IntegrationError(
                f"inner x-quadrature did not converge at frequency "
                f"{float(c[~r.converged][0])!r}"
            )
        out[live] = r.value
        return env * out / math.pi

    seeds = _peak_seeds(np.array([a]), np.array([u1]), np.array([u2]))[0]
    r = integrate_real_line(outer, cfg, seeds=seeds)
    if not r.converged:
        raise IntegrationError(
            f"outer t-quadrature did not converge at (a, u1, u2)="
            f"({a!r}, {u1!r}, {u2!r})"
        )
    return EvalResult(float(r.value), r.error_estimate, "quadrature")


def _rep_single_complex(a, u1, u2, cfg: QuadratureConfig) -> EvalResult:
    # Collapsing the t integral of the double form through the Gaussian
    # integral Int dt e^{-(1-ix)t^2 - ixst} = sqrt(pi/(1-ix)) e^{-x^2 s^2
    # / (4(1-ix))} leaves
    #   H2 = (1/sqrt(pi)) Re Int_0^inf
    #            e^{-ax + (ix/4)(4 u1 u2 - (u1+u2)^2 x/(i+x))} / sqrt(1-ix) dx
    # with the principal branch of sqrt(1-ix).  The modulus of the
    # exponential is bounded by e^{-ax}, so truncation at x_max leaves a
    # tail below e^{-a x_max}/a; the phase oscillates at frequency about
    # |u1 u2| near 0 and (u1-u2)^2/4 asymptotically, and panel edges are
    # pre-seeded on that scale so no oscillation hides inside one panel.
    s = u1 + u2
    p = u1 * u2
    x_max = max(50.0 / a, 200.0)

    def f(x: np.ndarray) -> np.ndarray:
        z = -a * x + 0.25j * x * (4.0 * p - s * s * x / (1j + x))
        val = np.exp(z) / np.sqrt(1.0 - 1j * x)
        return val.real / _SQRT_PI

    freq = max(abs(p), 0.25 * (u1 - u2) ** 2, 1e-3)
    step = min(1.0, 0.5 * math.pi / freq)
    count = min(int(x_max / step) + 2, 8000)
    breaks = np.linspace(0.0, x_max, count)

    r = integrate_interval(f, 0.0, x_max, cfg, breakpoints=breaks)
    if not r.converged:
        raise IntegrationError(
            f"x-quadrature did not converge at (a, u1, u2)=({a!r}, {u1!r}, {u2!r})"
        )
    tail = math.exp(-a * x_max) / a
    return EvalResult(float(r.value), r.error_estimate + tail, "quadrature")


def h2_integral_rep(
    a: float,
    u1: float,
    u2: float,
    variant: str,
    config: QuadratureConfig | None = None,
) -> EvalResult:
    """H2 through one of two independent integral representations.

    variant "double" is the nested Gaussian-times-damped-cosine form;
    variant "single_complex" is its analytically collapsed single
    oscillatory integral.  Both are verification routes with looser
    accuracy than the closed form and both require a > 0.
    """
    a = require_finite("a", a)
    u1 = require_finite("u1", u1)
    u2 = require_finite("u2", u2)
    if a <= 0.0:
        raise DomainError(f"integral representations require a > 0, got {a!r}")
    cfg = config if config is not None else QuadratureConfig(abs_tol=1e-8, rel_tol=1e-8)
    if variant == "double":
        return _rep_double(a, u1, u2, cfg)
    if variant == "single_complex":
        return _rep_single_complex(a, u1, u2, cfg)
    raise DomainError(f"unknown variant {variant!r}, expected 'double' or 'single_complex'")


def i2_closed(a: float, u1: float, u2: float) -> float:
    """Integral of the normalized H2 denominator kernel: Re(1/w1 + 1/w2).

    I2(a, u1, u2) = (a/pi) Int dt / ((t-u1)^2 (t-u2)^2 + a^2) in closed
    form.  Odd in a; as a -> 0+ it tends to 2/|u1 - u2|, which is also the
    exact value returned at a = 0 (the two square roots collapse to
    |u1 - u2|).  At a = 0 on the degenerate manifold the kernel has a real
    double pole and no finite value exists.
    """
    a = require_finite("a", a)
    u1 = require_finite("u1", u1)
    u2 = require_finite("u2", u2)
    if a < 0.0:
        return -i2_closed(-a, u1, u2)
    # 1/w2 is conj(1/w1) bit for bit, so Re(1/w1 + 1/w2) = 2 Re(1/w1)
    w1 = _pole_group(a, u1, u2)[0]
    if w1 == 0.0:
        # a = 0 and (u1 - u2)^2 = 0, also when the gap squared underflows
        raise DomainError("double pole on the real axis")
    value = 2.0 * (1.0 / w1).real
    if not math.isfinite(value):
        raise DomainError(f"I2 overflows at (a, u1, u2)=({a!r}, {u1!r}, {u2!r})")
    return value


def i2_grid(a, u1, u2) -> GridResult:
    """i2_closed over broadcast arrays of points, bit for bit; no estimate."""
    a, u1, u2 = grid_arrays(a, u1, u2)
    fails = GridFailures(a.shape)
    fails.flag(~(np.isfinite(a) & np.isfinite(u1) & np.isfinite(u2)), DomainError)
    with np.errstate(all="ignore"):
        d = u1 - u2
        dd = d * d
        fails.flag((a == 0.0) & (dd == 0.0), DomainError)
        w1r, w1i = _csqrt(dd, 4.0 * np.abs(a))
        inv_r, _ = _cquot(1.0, 0.0, w1r, w1i)
        value = 2.0 * inv_r
    fails.flag(~np.isfinite(value), DomainError)
    return fails.result(np.where(a < 0.0, -value, value))


def i2_quadrature(
    a: float, u1: float, u2: float, config: QuadratureConfig | None = None
) -> EvalResult:
    """I2 by direct quadrature of its defining integral; oracle for i2_closed.

    The integrand decays like 1/t^4, so the real line is compactified
    rather than truncated.
    """
    return _route_point(_i2_route, a, u1, u2, config)


def i2_quadrature_grid(a, u1, u2, config: QuadratureConfig | None = None) -> GridResult:
    """i2_quadrature over broadcast arrays of points, like h2_quadrature_grid."""
    return _route_grid(_i2_route, a, u1, u2, config)


def v2(e: float, params: ProfileParams) -> float:
    """Relativistic Voigt profile: Gaussian-smeared relativistic Breit-Wigner."""
    return _v2(e, params.mu, params.gamma, params.sigma)


def _v2(e, mu, gamma, sigma) -> float:
    # v2 on the fields of a ProfileParams; h2 rejects a non-finite a, u1 or
    # u2 with the message reduce_rel would give
    if not mu > 0.0:
        raise ParameterError(f"mu must be > 0, got {mu!r}")
    if not gamma > 0.0:
        raise ParameterError(f"gamma must be > 0, got {gamma!r}")
    a, u1, u2 = _reduce_rel(e, mu, gamma, sigma)
    value = h2(a, u1, u2).value / (2.0 * _SQRT_PI * sigma * sigma)
    if not math.isfinite(value):
        raise DomainError(
            f"v2 leaves double range at e={e!r}, {ProfileParams(mu, gamma, sigma)!r}: {value!r}"
        )
    return value


def v2_grid(e, mu, gamma, sigma) -> GridResult:
    """v2 over broadcast arrays of (e, mu, gamma, sigma), bit for bit."""
    e, mu, gamma, sigma = grid_arrays(e, mu, gamma, sigma)
    fails = GridFailures(e.shape)
    fails.flag(~(np.isfinite(mu) & np.isfinite(gamma) & np.isfinite(sigma)), DomainError)
    fails.flag(~(mu > 0.0), ParameterError)
    fails.flag(~(gamma > 0.0), ParameterError)
    a, u1, u2 = reduce_rel_grid(e, mu, gamma, sigma, fails)
    live = fails.ok
    h = h2_grid(a[live], u1[live], u2[live])
    fails.codes[live] = h.codes
    value = np.zeros(e.shape)
    s = sigma[live]
    with np.errstate(all="ignore"):
        value[live] = h.value / (2.0 * _SQRT_PI * s * s)
    fails.flag(~np.isfinite(value), DomainError)
    return fails.result(value)


def v2_gamma0_limit(e: float, mu: float, sigma: float, side: int) -> float:
    """One-sided limit of V2 as gamma -> 0: a two-Gaussian line pair.

    +-(1/(2 sigma mu sqrt(2 pi))) (e^{-(E-mu)^2/2 sigma^2} + e^{-(E+mu)^2/2 sigma^2}).
    """
    e = require_finite("e", e)
    mu = require_finite("mu", mu)
    sigma = require_finite("sigma", sigma)
    side = check_side(side)
    if mu == 0.0:
        raise DomainError("limit divergent on degenerate manifold mu = 0")
    if sigma <= 0.0:
        raise ParameterError(f"sigma must be > 0, got {sigma!r}")
    q = 0.5 / (sigma * sigma)
    pair = math.exp(-q * (e - mu) ** 2) + math.exp(-q * (e + mu) ** 2)
    return side * pair / (2.0 * sigma * mu * math.sqrt(2.0 * math.pi))


def _check_ratio_params(sigma: float, gamma: float, mu: float):
    sigma = require_finite("sigma", sigma)
    gamma = require_finite("gamma", gamma)
    mu = require_finite("mu", mu)
    if gamma <= 0.0:
        raise ParameterError(f"gamma must be > 0, got {gamma!r}")
    if mu <= 0.0:
        raise ParameterError(f"mu must be > 0, got {mu!r}")
    if sigma < 0.0:
        raise ParameterError(f"sigma must be >= 0, got {sigma!r}")
    return sigma, gamma, mu


def d0(sigma: float, gamma: float, mu: float) -> float:
    """Peak damping of the classical profile: V0 at the peak over the bare
    Breit-Wigner there; exactly 1 at sigma = 0 and decaying from 1 as the
    Gaussian smearing widens."""
    return _ratio("d0", _v0, _bw_nonrel, sigma, gamma, mu)


def d2(sigma: float, gamma: float, mu: float) -> float:
    """Peak damping of the relativistic profile, normalized like d0."""
    return _ratio("d2", _v2, _bw_rel, sigma, gamma, mu)


def _ratio(name, profile, bw, sigma, gamma, mu) -> float:
    # d0/d2: the profile at its peak E = mu over the bare Breit-Wigner
    # there; _check_ratio_params leaves finite floats, so no ProfileParams
    # is built unless an error message names one
    sigma, gamma, mu = _check_ratio_params(sigma, gamma, mu)
    if sigma == 0.0:
        return 1.0
    peak = profile(mu, mu, gamma, sigma)
    density = bw(mu, mu, gamma, sigma)
    if density == 0.0:
        raise DomainError(
            f"Breit-Wigner peak density underflows to 0 at "
            f"{ProfileParams(mu, gamma, sigma)!r}"
        )
    value = peak / density
    if not math.isfinite(value):
        raise DomainError(
            f"{name} leaves double range at {ProfileParams(mu, gamma, sigma)!r}: {value!r}"
        )
    return value


def _ratio_grid(sigma, gamma, mu, profile_grid, bw_grid) -> GridResult:
    # d0/d2 over arrays: the profile at its peak E = mu over the bare
    # Breit-Wigner there, with the checks of _check_ratio_params first
    sigma, gamma, mu = grid_arrays(sigma, gamma, mu)
    fails = GridFailures(sigma.shape)
    fails.flag(~(np.isfinite(sigma) & np.isfinite(gamma) & np.isfinite(mu)), DomainError)
    fails.flag((gamma <= 0.0) | (mu <= 0.0) | (sigma < 0.0), ParameterError)
    value = np.ones(sigma.shape)
    live = fails.ok & (sigma != 0.0)
    s, g, m = sigma[live], gamma[live], mu[live]
    peak = profile_grid(m, m, g, s)
    sub = GridFailures(s.shape)
    sub.codes[...] = peak.codes
    bw = bw_grid(m, m, g, sub)
    sub.flag(bw == 0.0, DomainError)
    fails.codes[live] = sub.codes
    with np.errstate(all="ignore"):
        value[live] = peak.value / bw
    fails.flag(~np.isfinite(value), DomainError)
    return fails.result(value)


def d0_grid(sigma, gamma, mu) -> GridResult:
    """d0 over broadcast arrays of (sigma, gamma, mu), bit for bit."""
    return _ratio_grid(sigma, gamma, mu, v0_grid, bw_nonrel_grid)


def d2_grid(sigma, gamma, mu) -> GridResult:
    """d2 over broadcast arrays of (sigma, gamma, mu), bit for bit."""
    return _ratio_grid(sigma, gamma, mu, v2_grid, bw_rel_grid)
