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
kept as cross-checks.  The independent routes that verify the closed form
(direct quadrature, a shifted-contour form, and a single oscillatory
integral representation obtained by Gaussianizing the denominator) live in
``routes``, so this module does not load the quadrature layer.

Every function used by the sweeps also has a grid form (``h2_grid``,
``v2_grid``, ...) that evaluates whole arrays of points in one call.  The
grid forms repeat the scalar arithmetic operation for operation, with
CPython's complex division, square root and absolute value written out in
real arithmetic, so each point matches the scalar evaluator bit for bit.

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

from .complex_fn import _wofz, faddeeva_w_grid
from .errors import DomainError, ParameterError, require_finite
from .profiles import (
    _DBL_MAX,
    _DBL_MIN,
    ProfileParams,
    _bw_nonrel,
    _bw_rel,
    _reduce_rel,
    _require_positive,
    _small_cauchy,
    bw_nonrel_grid,
    bw_rel_grid,
    profile_rules,
    reduce_rel_grid,
)
from .result import EvalResult, GridResult, grid_floats, grid_result
from .voigt import _v0, _v0_grid

__all__ = [
    "PoleSet",
    "pole_set",
    "h2",
    "h2_grid",
    "h2_limit_a0",
    "h2_degenerate_series",
    "h2_large_u_asymptotic",
    "i2_closed",
    "i2_grid",
    "v2",
    "v2_grid",
    "v2_gamma0_limit",
    "d0",
    "d0_grid",
    "d2",
    "d2_grid",
]

_SQRT_PI = math.sqrt(math.pi)
_EPS = 2.0**-52

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


def _cquot_real(ar, ai, br, bi):
    """(a / b).real by CPython's _Py_c_quot (Smith's algorithm); b must be nonzero."""
    real_big = np.abs(br) >= np.abs(bi)
    ratio = np.where(real_big, bi / br, br / bi)
    denom = np.where(real_big, br + bi * ratio, br * ratio + bi)
    return np.where(real_big, ar + ai * ratio, ar * ratio + ai) / denom


def _csqrt(x, y):
    """cmath.sqrt(complex(x, y)) for x >= 0, (x, y) != 0, as CPython computes it."""
    ax, ay = np.abs(x), np.abs(y)
    big_ax = ax / 8.0
    s = 2.0 * np.sqrt(big_ax + np.hypot(big_ax, ay / 8.0))
    tiny = (ax < _DBL_MIN) & (ay < _DBL_MIN)
    if tiny.any():
        up_x = np.ldexp(ax, _SQRT_SCALE_UP)
        scaled = np.sqrt(up_x + np.hypot(up_x, np.ldexp(ay, _SQRT_SCALE_UP)))
        s = np.where(tiny, np.ldexp(scaled, _SQRT_SCALE_DOWN), s)
    return s, np.copysign(ay / (2.0 * s), y)


def _h2_closed_form_grid(a, u1, u2):
    """h2 over arrays of points: value, estimate and DomainError mask.

    Every point with a != 0 takes the closed form.  At finite coordinates
    the mask holds where h2 raises, as its poles or its value leave double
    range; a non-finite coordinate is the caller's check.
    """
    # _pole_group's w1 and t1+-, then -t1-, in CPython's complex arithmetic
    d = u1 - u2
    s = u1 + u2
    w1r, w1i = _csqrt(d * d, 4.0 * np.abs(a))
    t1p_r, t1p_i = _cmul_real(0.5, s + w1r, 0.0 + w1i)
    t1m_r, t1m_i = _cmul_real(0.5, s - w1r, 0.0 - w1i)
    fr, fi, f_ok = faddeeva_w_grid(t1p_r, t1p_i)
    gr, gi, g_ok = faddeeva_w_grid(-t1m_r, -t1m_i)
    g1r = _cquot_real(fr + gr, fi + gi, *_cmul_real(2.0, w1r, w1i))
    value = 2.0 * g1r
    err = 1e-13 * (np.hypot(fr, fi) + np.hypot(gr, gi)) / np.hypot(w1r, w1i)
    zero = a == 0.0
    bad = ~(f_ok & g_ok & np.isfinite(value) & np.isfinite(err) | zero)
    value = np.where(zero, 0.0, np.where(a < 0.0, -value, value))
    return value, np.where(zero, 0.0, err), bad


def h2(a: float, u1: float, u2: float) -> EvalResult:
    """Relativistic line-broadening function.

    Exactly a = 0 returns 0 (odd-function convention, matching h0;
    h2_limit_a0 is the limit from above), a < 0 is the negated a > 0
    value, and every other point takes the closed form.  Its four Faddeeva
    terms are two complex-conjugate pairs, so it evaluates the two terms
    of one pair and doubles the real part.  Its error estimate is 1e-13
    times the size of those two terms before they cancel, so it grows where
    cancellation near u1 = u2 costs accuracy.  A DomainError names the
    point where the poles of the quartic leave double range.
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
    # the kernel without faddeeva_w's argument test, as the poles are
    # finite; the one output test, on |w(t1+)| + |w(-t1-)|, stays
    f = _wofz(t1_plus)
    g = _wofz(-t1_minus)
    size = abs(f) + abs(g)
    if not size < math.inf:
        z = t1_plus if not cmath.isfinite(f) else -t1_minus
        raise DomainError(f"w(z) overflows double precision at z={z!r}")
    value = 2.0 * ((f + g) / (2.0 * w1)).real
    return value if a > 0.0 else -value, 1e-13 * size / abs(w1)


def h2_grid(a, u1, u2) -> GridResult:
    """h2 over broadcast arrays of points, bit for bit with the scalar h2.

    Every point with a != 0 takes the closed form in one vectorised pass; a
    point fails with DomainError where h2 raises it.
    """
    shape, (a, u1, u2) = grid_floats(a=a, u1=u1, u2=u2)
    with np.errstate(all="ignore"):
        value, err, bad = _h2_closed_form_grid(a, u1, u2)
        bad |= ~(np.isfinite(a) & np.isfinite(u1) & np.isfinite(u2))
    return grid_result(shape, [(bad, DomainError)], value, err)


def h2_limit_a0(u1: float, u2: float) -> float:
    """Limit of H2 as a -> 0 from above: (e^{-u1^2} + e^{-u2^2})/|u1-u2|.

    H2 is odd in a, so the limit from below is its negative.  A DomainError
    names a point where the limit leaves double range.
    """
    u1 = require_finite("u1", u1)
    u2 = require_finite("u2", u2)
    if u1 == u2:
        raise DomainError("limit divergent on degenerate manifold")
    value = (math.exp(-u1 * u1) + math.exp(-u2 * u2)) / abs(u1 - u2)
    if not math.isfinite(value):
        raise DomainError(f"h2_limit_a0 leaves double range at (u1, u2)=({u1!r}, {u2!r})")
    return value


def h2_degenerate_series(a: float, u: float) -> EvalResult:
    """Two-term Laurent series of H2 on the degenerate manifold u1 = u2 = u.

    H2(a, u, u) = e^{-u^2}/sqrt(2a) + e^{-u^2} (2u^2 - 1) sqrt(a/2) + O(a),
    valid for small a > 0.  The estimate bounds the O(a) remainder, whose
    a/(sqrt(pi) u^4)-type part outweighs e^{-u^2} a from |u| ~ 2, by
    a (e^{-u^2} + 4/(sqrt(pi) (1 + u^2)^2)), plus (u^2 + 4) eps |value|.
    """
    a = require_finite("a", a)
    u = require_finite("u", u)
    if a <= 0.0:
        raise DomainError(f"series requires a > 0, got {a!r}")
    g = math.exp(-u * u)
    value = g / math.sqrt(2.0 * a) + g * (2.0 * u * u - 1.0) * math.sqrt(0.5 * a)
    estimate = a * (g + 4.0 / (_SQRT_PI * (1.0 + u * u) ** 2)) + (u * u + 4.0) * _EPS * abs(value)
    return EvalResult(value, estimate, "degenerate_series")


# h2_large_u_asymptotic needs min(|u1|, |u2|) at least this large
_LARGE_U_THRESHOLD = 15.0


def h2_large_u_asymptotic(a: float, u1: float, u2: float) -> EvalResult:
    """Leading-order H2 for both |u1| and |u2| large: a/(sqrt(pi)(u1^2 u2^2 + a^2)).

    Requires min(|u1|, |u2|) >= 15.  The next-order relative error comes
    from the Gaussian moments of the expanded quartic and is dominated by
    (3/2)(1/u1 + 1/u2)^2; the estimate is twice that, for the orders beyond,
    times |value|, plus 4 eps |value| (a subnormal's ulp) of rounding.  A
    denominator past DBL_MAX is formed at a power-of-2 scale, as in bw_rel.
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
    den = _SQRT_PI * (u1 * u1 * u2 * u2 + a * a)
    if den <= _DBL_MAX:
        value = a / den
    else:  # (a/sqrt(pi)) / (q^2 + a^2) with q = u1 u2, from the frexp parts
        (f1, x1), (f2, x2), (fa, xa) = math.frexp(u1), math.frexp(u2), math.frexp(a)
        value = float(_small_cauchy(f1 * f2, x1 + x2, fa, xa, _SQRT_PI))
    rel_next = 3.0 * (1.0 / abs(u1) + 1.0 / abs(u2)) ** 2
    estimate = abs(value) * rel_next + max(4.0 * _EPS * abs(value), math.ulp(value))
    return EvalResult(value, estimate, "large_u_asymptotic")


# w1's radicand (u1-u2)^2 + 4ia is formed as it stands where the sum of its
# parts lies in [_RADICAND_MIN, DBL_MAX], and at a power-of-2 scale elsewhere
_RADICAND_MIN = 2.0**-1021


def _exponent(x):
    # frexp's exponent of x, or one below every double's at x = 0
    return np.where(x == 0.0, -1100, np.frexp(x)[1])


def _i2_scaled(b, u1, u2):
    """I2 at b = |a| with w1's radicand scaled by 2^(-2k); arrays or floats.

    2^-k brings the larger of |u1 - u2| and 2 sqrt(b) into [1/2, 1) (a zero
    one ignored; a difference past DBL_MAX counts as 2^1025), so
    ds = (u1 - u2) 2^-k and w^2 = ds^2 + i b 2^(2-2k) lie well inside
    double range, and I2 = 2^-k 2 Re(1/w).  k follows the difference, not
    u1 and u2: near the diagonal at large |u| theirs would push b 2^(2-2k)
    below the smallest double.  At b = 0 and u1 = u2 the value is NaN.
    """
    d = u1 - u2
    big = np.isinf(d)
    k = np.where(big, 1025, np.maximum(_exponent(d), _exponent(2.0 * np.sqrt(b))))
    ds = np.where(big, np.ldexp(u1, -k) - np.ldexp(u2, -k), np.ldexp(d, -k))
    wr, wi = _csqrt(ds * ds, np.ldexp(b, 2 - 2 * k))
    return np.ldexp(2.0 * _cquot_real(1.0, 0.0, wr, wi), -k)


def i2_closed(a: float, u1: float, u2: float) -> float:
    """Integral of the normalized H2 denominator kernel: Re(1/w1 + 1/w2).

    I2(a, u1, u2) = (a/pi) Int dt / ((t-u1)^2 (t-u2)^2 + a^2) in closed
    form.  Odd in a; as a -> 0+ it tends to 2/|u1 - u2|, which is also the
    exact value returned at a = 0 (the two square roots collapse to
    |u1 - u2|).  At a = 0 on the degenerate manifold the kernel has a real
    double pole and no finite value exists.  Every finite point has its
    value, however far its radicand (u1-u2)^2 + 4ia lies outside double
    range; a DomainError names a point whose I2 passes DBL_MAX.
    """
    a = require_finite("a", a)
    u1 = require_finite("u1", u1)
    u2 = require_finite("u2", u2)
    # the value at |a|, negated for a < 0; 1/w2 is conj(1/w1) bit for bit,
    # so Re(1/w1 + 1/w2) = 2 Re(1/w1)
    b = -a if a < 0.0 else a
    if b == 0.0 and u1 == u2:
        raise DomainError("double pole on the real axis")
    d = u1 - u2
    if _RADICAND_MIN <= d * d + 4.0 * b <= _DBL_MAX:
        value = 2.0 * (1.0 / cmath.sqrt(complex(d * d, 4.0 * b))).real
    else:
        with np.errstate(all="ignore"):
            value = float(_i2_scaled(b, u1, u2))
        if not math.isfinite(value):
            raise DomainError(f"I2 overflows at (a, u1, u2)=({b!r}, {u1!r}, {u2!r})")
    return value if a >= 0.0 else -value


def i2_grid(a, u1, u2) -> GridResult:
    """i2_closed over broadcast arrays of points, bit for bit; no estimate."""
    shape, (a, u1, u2) = grid_floats(a=a, u1=u1, u2=u2)
    with np.errstate(all="ignore"):
        b = np.abs(a)
        d = u1 - u2
        x, y = d * d, 4.0 * b
        w1r, w1i = _csqrt(x, y)
        value = 2.0 * _cquot_real(1.0, 0.0, w1r, w1i)
        radicand = x + y
        out = ~((radicand >= _RADICAND_MIN) & (radicand <= _DBL_MAX))
        if out.any():
            value = np.where(out, _i2_scaled(b, u1, u2), value)
        # the double pole (a = 0 on the diagonal) leaves the value NaN
        bad = ~(np.isfinite(a) & np.isfinite(u1) & np.isfinite(u2) & np.isfinite(value))
    return grid_result(shape, [(bad, DomainError)], np.where(a < 0.0, -value, value))


def v2(e: float, params: ProfileParams) -> float:
    """Relativistic Voigt profile: Gaussian-smeared relativistic Breit-Wigner."""
    mu, gamma, sigma = params.mu, params.gamma, params.sigma
    if not mu > 0.0:
        raise ParameterError(f"mu must be > 0, got {mu!r}")
    if not gamma > 0.0:
        raise ParameterError(f"gamma must be > 0, got {gamma!r}")
    require_finite("e", e)
    _require_positive("sigma", sigma)
    return _v2(e, mu, gamma, sigma)


def _v2(e, mu, gamma, sigma) -> float:
    # v2 on the fields of a ProfileParams at mu, gamma, sigma > 0 and a
    # finite e, like _v0
    a, u1, u2 = _reduce_rel(float(e), mu, gamma, sigma)
    if not (math.isfinite(a) and math.isfinite(u1) and math.isfinite(u2)):
        raise DomainError(
            "v2 at e=%r, ProfileParams(mu=%r, gamma=%r, sigma=%r) is outside double range: "
            "reduced coordinates (a, u1, u2)=(%r, %r, %r)", e, mu, gamma, sigma, a, u1, u2,
        )
    # h2 at finite (a, u1, u2), with its a = 0 -> 0 convention
    h = _h2_closed(a, u1, u2)[0] if a != 0.0 else 0.0
    value = h / (2.0 * _SQRT_PI * sigma * sigma)
    if not math.isfinite(value):
        raise DomainError(
            f"v2 leaves double range at e={e!r}, {ProfileParams(mu, gamma, sigma)!r}: {value!r}"
        )
    return value


def _v2_grid(e, mu, gamma, sigma):
    # v2 over arrays at finite e and mu, gamma, sigma > 0: values and the
    # DomainError mask.  Where sigma^2 underflows a is not finite, so the
    # mask holds there as reduce_rel raises.
    a, u1, u2 = reduce_rel_grid(e, mu, gamma, sigma)
    h, _, bad = _h2_closed_form_grid(a, u1, u2)
    value = h / (2.0 * _SQRT_PI * sigma * sigma)
    bad |= ~(np.isfinite(a) & np.isfinite(u1) & np.isfinite(u2) & np.isfinite(value))
    return value, bad


def v2_grid(e, mu, gamma, sigma) -> GridResult:
    """v2 over broadcast arrays of (e, mu, gamma, sigma), bit for bit."""
    shape, (e, mu, gamma, sigma) = grid_floats(e=e, mu=mu, gamma=gamma, sigma=sigma)
    with np.errstate(all="ignore"):
        value, bad = _v2_grid(e, mu, gamma, sigma)
    invalid = ~(mu > 0.0) | ~(gamma > 0.0)
    return grid_result(shape, profile_rules(e, mu, gamma, sigma, invalid, bad), value)


def v2_gamma0_limit(e: float, mu: float, sigma: float) -> float:
    """Limit of V2 as gamma -> 0 from above: a two-Gaussian line pair.

    (1/(2 sigma mu sqrt(2 pi))) (e^{-(E-mu)^2/2 sigma^2} + e^{-(E+mu)^2/2 sigma^2}).
    There is no limit from below, as v2 needs gamma > 0.  A DomainError
    names a point where the limit overflows; a sigma^2, a square or a
    sigma mu outside double range is not one.
    """
    e = require_finite("e", e)
    mu = require_finite("mu", mu)
    sigma = require_finite("sigma", sigma)
    if mu == 0.0:
        raise DomainError("limit divergent on degenerate manifold mu = 0")
    if sigma <= 0.0:
        raise ParameterError(f"sigma must be > 0, got {sigma!r}")
    # squares as products, as ** raises on overflow; sigma mu divides out as
    # mantissas and a power of 2, or in the exponents where the pair underflows
    z1, z2 = (e - mu) / sigma, (e + mu) / sigma
    pair = math.exp(-0.5 * (z1 * z1)) + math.exp(-0.5 * (z2 * z2))
    (fs, es), (fm, em) = math.frexp(sigma), math.frexp(mu)
    try:
        if pair < _DBL_MIN:
            pre = math.log(2.0 * math.sqrt(2.0 * math.pi) * sigma) + math.log(abs(mu))
            pair = math.exp(-0.5 * (z1 * z1) - pre) + math.exp(-0.5 * (z2 * z2) - pre)
            return math.copysign(pair, mu)
        return math.ldexp(pair / (2.0 * math.sqrt(2.0 * math.pi) * fs * fm), -es - em)
    except OverflowError:
        raise DomainError(
            f"v2_gamma0_limit leaves double range at (e, mu, sigma)=({e!r}, {mu!r}, {sigma!r})"
        ) from None


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
    # there.  _check_ratio_params leaves finite floats with gamma, mu > 0,
    # and sigma > 0 past the sigma = 0 return: all the profile and density
    # cores assume, so they check nothing again, and no ProfileParams is
    # built unless an error message names one
    sigma, gamma, mu = _check_ratio_params(sigma, gamma, mu)
    if sigma == 0.0:
        return 1.0
    peak = profile(mu, mu, gamma, sigma)
    density = bw(mu, mu, gamma, sigma)
    if density == 0.0 or peak == 0.0:
        # a peak or density that underflowed to 0 leaves the ratio unknown
        what = "Breit-Wigner peak density" if density == 0.0 else f"{name} peak profile"
        raise DomainError(f"{what} underflows to 0 at {ProfileParams(mu, gamma, sigma)!r}")
    value = peak / density
    if not math.isfinite(value):
        raise DomainError(
            f"{name} leaves double range at {ProfileParams(mu, gamma, sigma)!r}: {value!r}"
        )
    return value


def _ratio_grid(sigma, gamma, mu, profile_grid, bw_grid) -> GridResult:
    # d0/d2 over arrays: the profile at its peak E = mu over the bare
    # Breit-Wigner there, with the checks of _check_ratio_params first and
    # 1 at sigma = 0
    shape, (sigma, gamma, mu) = grid_floats(sigma=sigma, gamma=gamma, mu=mu)
    with np.errstate(all="ignore"):
        peak, bad = profile_grid(mu, mu, gamma, sigma)
        density, bw_bad = bw_grid(mu, mu, gamma)
        value = peak / density
        # a zero density leaves the ratio of a finite peak inf or NaN, and
        # a zero peak leaves it unknown
        bad |= bw_bad | ~np.isfinite(value) | (peak == 0.0)
    zero = sigma == 0.0
    rules = [
        (~(np.isfinite(sigma) & np.isfinite(gamma) & np.isfinite(mu)), DomainError),
        ((gamma <= 0.0) | (mu <= 0.0) | (sigma < 0.0), ParameterError),
        (bad & ~zero, DomainError),
    ]
    return grid_result(shape, rules, np.where(zero, 1.0, value))


def d0_grid(sigma, gamma, mu) -> GridResult:
    """d0 over broadcast arrays of (sigma, gamma, mu), bit for bit."""
    return _ratio_grid(sigma, gamma, mu, _v0_grid, bw_nonrel_grid)


def d2_grid(sigma, gamma, mu) -> GridResult:
    """d2 over broadcast arrays of (sigma, gamma, mu), bit for bit."""
    return _ratio_grid(sigma, gamma, mu, _v2_grid, bw_rel_grid)
