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

This closed form is the one production route for a != 0.  Its terms are
accurate to about 1e-13 relative (the Faddeeva kernel's accuracy), but
near the diagonal u1 = u2 at large |u| and small a the two terms of g1
cancel, and the result keeps only the accuracy left after that
cancellation.  The error estimate is therefore taken on the terms before
they cancel, 1e-13 (|w(t1+)| + |w(-t1-)|) / |w1|, and grows with the loss.
A Laurent series on the diagonal (h2_degenerate_series) and a
leading-order form for min(|u1|, |u2|) large (h2_large_u_asymptotic) are
kept as cross-checks.  Independent routes (direct quadrature, a
shifted-contour form, and a single oscillatory integral representation
obtained by Gaussianizing the denominator) exist solely to verify the
closed form against each other.

Every function used by the sweeps also has a grid form (``h2_grid``,
``v2_grid``, ...) that evaluates whole arrays of points in one call.  The
grid forms repeat the scalar arithmetic operation for operation, with
CPython's complex division, square root and absolute value written out in
real arithmetic, so each point matches the scalar evaluator bit for bit.

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
import functools
import math
from dataclasses import dataclass

import numpy as np

from .complex_fn import faddeeva_w, faddeeva_w_grid
from .errors import (
    DomainError,
    ParameterError,
    check_side,
    require_finite,
)
from .profiles import (
    _DBL_MIN,
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
    integrate_real_line_batch,
    integrate_real_line_compactified_batch,
    peak_seeds,
    quadrature_grid,
    _route_point,
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

# CPython's cmath.sqrt scales arguments whose parts are both below
# DBL_MIN by 2^53 before taking the square root, and the result by 2^-27.
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
    # the second group (w2, t2_plus, t2_minus) is this one at -a, and
    # pole_set builds it from this one's w1
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
    # _pole_group(-a, u1, u2) without a second square root: cmath.sqrt
    # commutes with conjugation exactly (signed zeros and infinities too),
    # so w2 = conj(w1).  The roots are rebuilt from w2 with _pole_group's
    # own arithmetic rather than conjugated, because at a = 0 that
    # arithmetic gives t2 an imaginary part of +0.0, not conj's -0.0.
    w2 = w1.conjugate()
    s = u1 + u2
    return PoleSet(w1, w2, t1_plus, t1_minus, 0.5 * (s + w2), 0.5 * (s - w2))


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
    """h2's closed form over arrays with a > 0: value, estimate, finite mask."""
    # _pole_group's w1 and t1+-, then -t1-, in CPython's complex arithmetic
    d = u1 - u2
    s = u1 + u2
    w1r, w1i = _csqrt(d * d, 4.0 * a)
    t1p_r, t1p_i = _cmul_real(0.5, s + w1r, 0.0 + w1i)
    t1m_r, t1m_i = _cmul_real(0.5, s - w1r, 0.0 - w1i)
    fr, fi, f_ok = faddeeva_w_grid(t1p_r, t1p_i)
    gr, gi, g_ok = faddeeva_w_grid(-t1m_r, -t1m_i)
    g1r, _ = _cquot(fr + gr, fi + gi, *_cmul_real(2.0, w1r, w1i))
    value = 2.0 * g1r
    err = 1e-13 * (np.hypot(fr, fi) + np.hypot(gr, gi)) / np.hypot(w1r, w1i)
    ok = f_ok & g_ok & np.isfinite(value) & np.isfinite(err)
    return value, err, ok


def h2(a: float, u1: float, u2: float) -> EvalResult:
    """Relativistic line-broadening function.

    Exactly a = 0 returns 0 (odd-function convention, matching h0; the
    one-sided limits live in h2_limit_a0), a < 0 is the negated a > 0
    value, and every other point takes the closed form.  Its four Faddeeva
    terms are two complex-conjugate pairs, so it evaluates the two terms
    of one pair and doubles the real part.  Its error estimate is 1e-13
    times the size of those two terms before they cancel, so it grows where cancellation near u1 = u2 costs
    accuracy.  A DomainError names the point where the poles of the
    quartic leave double range.
    """
    a = require_finite("a", a)
    u1 = require_finite("u1", u1)
    u2 = require_finite("u2", u2)
    if a == 0.0:
        return EvalResult(0.0, 0.0, "closed_form")
    return EvalResult(*_h2_closed(a, u1, u2), "closed_form")


def _h2_closed(a: float, u1: float, u2: float) -> tuple[float, float]:
    # h2's closed form at finite floats with a != 0: value and estimate.
    # At |a| > 0 both w arguments lie in the upper half-plane, where the
    # Faddeeva function is bounded.  The second pole group
    # g2 = (w(-t2+) + w(t2-)) / (2 w2) is conj(g1) bit for bit (cmath.sqrt,
    # w and complex division all commute with conjugation exactly), so
    # g1 + g2 = 2 Re g1 with no imaginary residue.
    w1, t1_plus, t1_minus = _pole_group(abs(a), u1, u2)
    if not (cmath.isfinite(t1_plus) and cmath.isfinite(t1_minus)):
        raise DomainError(
            "h2 at (a, u1, u2)=(%r, %r, %r) is outside double range: its poles overflow",
            a, u1, u2,
        )
    f = faddeeva_w(t1_plus)
    g = faddeeva_w(-t1_minus)
    value = 2.0 * ((f + g) / (2.0 * w1)).real
    return value if a > 0.0 else -value, 1e-13 * (abs(f) + abs(g)) / abs(w1)


def h2_grid(a, u1, u2) -> GridResult:
    """h2 over broadcast arrays of points, bit for bit with the scalar h2.

    Every point with a != 0 takes the closed form in one vectorised pass; a
    point fails with DomainError where h2 raises it.
    """
    a, u1, u2 = grid_arrays(a, u1, u2)
    fails = GridFailures(a.shape)
    fails.flag(~(np.isfinite(a) & np.isfinite(u1) & np.isfinite(u2)), DomainError)
    value = np.zeros(a.shape)
    err = np.zeros(a.shape)
    live = fails.ok & (a != 0.0)
    with np.errstate(all="ignore"):
        v, e, ok = _h2_closed_form_grid(np.abs(a[live]), u1[live], u2[live])
    value[live] = np.where(a[live] < 0.0, -v, v)
    err[live] = e
    broken = np.zeros(a.shape, dtype=bool)
    broken[live] = ~ok
    fails.flag(broken, DomainError)
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
        p = u1[k] - t
        p *= u2[k] - t
        p *= p
        p += aa[k]
        out = t * t
        np.negative(out, out=out)
        np.exp(out, out=out)
        out *= pref[k]
        out /= p
        return out

    return integrate_real_line_batch(f, a.size, config, seeds=_peak_seeds(a, u1, u2))


def _i2_route(a, u1, u2, config) -> QuadratureBatch:
    # the defining integral of I2 at arrays of points; it decays like 1/t^4,
    # so the real line is compactified rather than truncated
    pref = a / math.pi
    aa = a * a

    def f(t: np.ndarray, k: np.ndarray) -> np.ndarray:
        p = u1[k] - t
        p *= u2[k] - t
        p *= p
        p += aa[k]
        return np.divide(pref[k], p, out=p)

    return integrate_real_line_compactified_batch(
        f, a.size, config, seeds=_peak_seeds(a, u1, u2)
    )


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
    return _route_point(_h2_route, config, False, a=a, u1=u1, u2=u2)


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


# h2_large_u_asymptotic needs min(|u1|, |u2|) at least this large
_LARGE_U_THRESHOLD = 15.0


def h2_large_u_asymptotic(a: float, u1: float, u2: float) -> EvalResult:
    """Leading-order H2 for both |u1| and |u2| large: a/(sqrt(pi)(u1^2 u2^2 + a^2)).

    Requires min(|u1|, |u2|) >= 15.  The next-order relative error comes
    from the Gaussian moments of the expanded quartic and is dominated by
    (3/2)(1/u1 + 1/u2)^2; the error estimate reports that scale.
    """
    a = require_finite("a", a)
    u1 = require_finite("u1", u1)
    u2 = require_finite("u2", u2)
    if a == 0.0:
        raise DomainError("asymptotic form requires a != 0")
    m = min(abs(u1), abs(u2))
    if m < _LARGE_U_THRESHOLD:
        raise DomainError(
            f"asymptotic regime not reached: min(|u1|, |u2|)={m!r} below "
            f"threshold {_LARGE_U_THRESHOLD!r}"
        )
    value = a / (_SQRT_PI * (u1 * u1 * u2 * u2 + a * a))
    rel_next = 1.5 * (1.0 / abs(u1) + 1.0 / abs(u2)) ** 2
    return EvalResult(value, abs(value) * rel_next, "large_u_asymptotic")


def _rectangle_route(a, u1, u2, config=None, offset=None) -> QuadratureBatch:
    # h2_rectangle at arrays of points with a > 0: the line integrals of all
    # points in one batched call, the residues per point in complex scalars.
    # Every line is at Im t = offset, or 1 above its point's higher pole.
    cfg = config if config is not None else QuadratureConfig(abs_tol=1e-9, rel_tol=1e-9)
    poles = [pole_set(*p) for p in zip(a.tolist(), u1.tolist(), u2.tolist())]
    im_max = np.array([max(ps.t1_plus.imag, ps.t2_minus.imag) for ps in poles])
    if offset is None:
        offset = 1.0 + im_max
    else:
        offset = np.full(a.size, require_finite("offset", offset))
    if not (offset > im_max).all():
        raise DomainError("contour must enclose both poles")

    shift = 1j * offset
    aa = a * a

    def f(x: np.ndarray, k: np.ndarray) -> np.ndarray:
        t = x + shift[k]
        p = t - u1[k]
        p *= t - u2[k]
        p *= p
        p += aa[k]
        t *= t
        np.negative(t, out=t)
        np.exp(t, out=t)
        t /= p
        return t

    seeds = np.array([[ps.t1_plus.real, ps.t1_minus.real] for ps in poles])
    line = integrate_real_line_batch(f, a.size, cfg, seeds=seeds)
    value = np.empty(a.size)
    err = np.empty(a.size)
    for k, (ps, ak) in enumerate(zip(poles, a.tolist())):
        residues = (
            cmath.exp(-ps.t1_plus * ps.t1_plus) / ps.w1
            + cmath.exp(-ps.t2_minus * ps.t2_minus) / ps.w2
        )
        total = (ak / math.pi) * complex(line.value[k]) + residues
        value[k] = total.real
        err[k] = (ak / math.pi) * float(line.error_estimate[k]) + abs(total.imag)
    return QuadratureBatch(value, err, line.converged, line.evaluations)


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
    route = functools.partial(_rectangle_route, offset=offset)
    return _route_point(route, config, True, a=a, u1=u1, u2=u2)


# the single_complex representation's default tolerances
_REP_CONFIG = QuadratureConfig(abs_tol=1e-8, rel_tol=1e-8)


def _rep_single_complex(a, u1, u2, config=None) -> QuadratureBatch:
    # Collapsing the t integral of the nested form through the Gaussian
    # integral Int dt e^{-(1-ix)t^2 - ixst} = sqrt(pi/(1-ix)) e^{-x^2 s^2
    # / (4(1-ix))} leaves
    #   H2 = (1/sqrt(pi)) Re Int_0^inf
    #            e^{-ax + (ix/4)(4 u1 u2 - (u1+u2)^2 x/(i+x))} / sqrt(1-ix) dx
    # with the principal branch of sqrt(1-ix), here at arrays of points with
    # a > 0.  The points are integrated one call each: a batched call's
    # weighted sums round by the batch's composition, so its entries would
    # not be the one-point call's value bit for bit.
    cfg = config if config is not None else _REP_CONFIG
    out = [_single_complex_point(*p, cfg) for p in zip(a.tolist(), u1.tolist(), u2.tolist())]
    return QuadratureBatch(*(np.array(col) for col in zip(*out)))


def _single_complex_point(a: float, u1: float, u2: float, cfg: QuadratureConfig):
    # The modulus of the integrand is at most e^{-ax}, so truncation at
    # x_max = 50/a leaves a tail below e^{-50}/a, which the estimate adds;
    # the window ends there, however small x_max is.  The phase oscillates at
    # frequency about |u1 u2| near 0 and (u1-u2)^2/4 asymptotically, and
    # panel edges are pre-seeded on that scale so no oscillation hides
    # inside one panel.  Returns value, estimate, converged, evaluations.
    s = u1 + u2
    p = u1 * u2
    x_max = 50.0 / a

    def f(x: np.ndarray) -> np.ndarray:
        z = -a * x + 0.25j * x * (4.0 * p - s * s * x / (1j + x))
        val = np.exp(z) / np.sqrt(1.0 - 1j * x)
        return val.real / _SQRT_PI

    freq = max(abs(p), 0.25 * (u1 - u2) ** 2, 1e-3)
    step = min(1.0, 0.5 * math.pi / freq)
    count = min(int(x_max / step) + 2, 8000)
    breaks = np.linspace(0.0, x_max, count)

    r = integrate_interval(f, 0.0, x_max, cfg, breakpoints=breaks)
    tail = math.exp(-a * x_max) / a
    return r.value, r.error_estimate + tail, r.converged, r.evaluations


def h2_integral_rep(
    a: float,
    u1: float,
    u2: float,
    variant: str,
    config: QuadratureConfig | None = None,
) -> EvalResult:
    """H2 through one of its integral representations; both require a > 0.

    Writing the Lorentzian factor of the defining integral as a Laplace
    integral gives the nested form

        H2 = (1/pi) Int dt e^{-t^2} Int_0^inf e^{-ax} cos(x (t-u1)(t-u2)) dx.

    variant "single_complex" collapses its t integral instead, leaving one
    oscillatory x integral: the analogue of the classical
    H(a, u) = (1/sqrt(pi)) Int_0^inf e^{-ax - x^2/4} cos(ux) dx, and the
    independent verification route, looser than the closed form.  variant
    "double" is the nested form with its inner integral taken in closed
    form, a/(a^2 + (t-u1)^2 (t-u2)^2), which is the defining integral
    itself: it runs h2_quadrature's route and returns its result.
    """
    route = {"double": _h2_route, "single_complex": _rep_single_complex}.get(variant)
    if route is None:
        raise DomainError(f"unknown variant {variant!r}, expected 'double' or 'single_complex'")
    return _route_point(route, config, True, a=a, u1=u1, u2=u2)


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
    return _route_point(_i2_route, config, False, a=a, u1=u1, u2=u2)


def i2_quadrature_grid(a, u1, u2, config: QuadratureConfig | None = None) -> GridResult:
    """i2_quadrature over broadcast arrays of points, like h2_quadrature_grid."""
    return _route_grid(_i2_route, a, u1, u2, config)


def v2(e: float, params: ProfileParams) -> float:
    """Relativistic Voigt profile: Gaussian-smeared relativistic Breit-Wigner."""
    return _v2(e, params.mu, params.gamma, params.sigma)


def _v2(e, mu, gamma, sigma) -> float:
    # v2 on the fields of a ProfileParams
    if not mu > 0.0:
        raise ParameterError(f"mu must be > 0, got {mu!r}")
    if not gamma > 0.0:
        raise ParameterError(f"gamma must be > 0, got {gamma!r}")
    a, u1, u2 = _reduce_rel(e, mu, gamma, sigma)
    if not (math.isfinite(a) and math.isfinite(u1) and math.isfinite(u2)):
        raise DomainError(
            "v2 at e=%r, ProfileParams(mu=%r, gamma=%r, sigma=%r) is outside double "
            "range: reduced coordinates (a, u1, u2)=(%r, %r, %r)",
            e, mu, gamma, sigma, a, u1, u2,
        )
    # h2 at finite (a, u1, u2), with its a = 0 -> 0 convention
    h = _h2_closed(a, u1, u2)[0] if a != 0.0 else 0.0
    value = h / (2.0 * _SQRT_PI * sigma * sigma)
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
