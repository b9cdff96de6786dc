"""Quadrature routes to H2, I2 and H0 that verify the closed forms.

Each route evaluates a function by a path independent of its closed form:
direct adaptive quadrature of the defining integral (``h2_quadrature``,
``i2_quadrature``, and verify's H0 oracle), a contour shifted off the real
axis plus its residues (``h2_rectangle``), or an integral representation
(``h2_integral_rep`` and the Laplace form ``h0_laplace_rep``).  They exist
solely to check the closed forms of ``rel_voigt`` and ``voigt`` against each
other in the ``verify`` suites, and they are the only evaluators that need
``quadrature``, so the closed forms load without it; this module loads
neither them nor scipy.  Each route is one computation on arrays of points,
with its poles, residues, windows and tail terms computed on the same
arrays: one batched adaptive quadrature call, except ``h2_rectangle``,
whose line integral is one fixed trapezoidal sum per point over a padded
array of node rows.  Each route has one fixed tol, which no caller sets,
and converges where its finite estimate is at most max(tol, tol |value|).

The direct-quadrature oracles have grid forms as well (``h2_quadrature_grid``,
``i2_quadrature_grid``).  They integrate all points through the batched
refinement loop of ``quadrature``, and agree with the scalar routes within
the error estimates rather than bit for bit.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import DomainError, require_finite
from .quadrature import (
    _EPS,
    _RADIUS,
    QuadratureBatch,
    _integrate_intervals,
    _met,
    _route_point,
    integrate_real_line_batch,
    integrate_real_line_compactified_batch,
    peak_seeds,
    quadrature_grid,
)
from .result import EvalResult, GridResult, grid_floats

__all__ = [
    "h0_laplace_rep", "h2_quadrature", "h2_quadrature_grid", "h2_rectangle", "h2_integral_rep",
    "i2_quadrature", "i2_quadrature_grid",
]

_SQRT_PI = math.sqrt(math.pi)

# the routes' tolerances: 1e-10, and 1e-8 for single_complex and h2_rectangle
_TOL = 1e-10
_LOOSE_TOL = 1e-8


def _peaks(a, u1, u2):
    # Lorentzian-like peaks at u1 and u2, of half-width w = |a|/s with
    # s = max(|u1-u2|, |a|^{1/2}) and mass 1/s as a -> 0 (e^{-u^2}/s in H2).
    # Returns the seeds walking geometrically out of each peak narrower than
    # 1/2, s, and the (2, n) mask u + w == u: no double, so no node, is in it.
    aa = np.abs(a)
    scale = np.maximum(np.abs(u1 - u2), np.sqrt(aa))
    width = aa / scale
    u = np.stack([u1, u2])
    return peak_seeds(u.T, np.where(width < 0.5, width, 2.0)), scale, u + width == u


def _bound_lost_points(r: QuadratureBatch, a, aa, bound, blind) -> QuadratureBatch:
    # where a * a overflows the integrand and value are exactly 0; bound(|a|)
    # joins just those points' estimates, so every other point keeps its bits.
    # A blind point, whose value misses a peak no node can see, fails.
    lost = np.isinf(aa)
    err = r.error_estimate.copy()
    err[lost] += bound(np.abs(a[lost]))
    converged = r.converged & _met(err, r.value, _TOL) & ~blind
    return QuadratureBatch(r.value, err, converged, r.evaluations)


def _h2_route(a, u1, u2) -> QuadratureBatch:
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

    seeds, _, unseen = _peaks(a, u1, u2)
    r = integrate_real_line_batch(f, a.size, _TOL, seeds=seeds)
    # an unseen peak matters inside the window |t| <= R the line is cut to
    blind = (unseen & (np.abs([u1, u2]) <= _RADIUS)).any(axis=0)
    # |H2| <= (|a|/pi) Int e^{-t^2}/a^2 dt = 1/(|a| sqrt(pi))
    return _bound_lost_points(r, a, aa, lambda b: 1.0 / (_SQRT_PI * b), blind)


def _h0_route(a, u) -> QuadratureBatch:
    # the defining integral of H0 at arrays of points, e^{-t^2}-weighted
    # Lorentzians, with panel seeds walking out of each peak; verify's oracle
    pref = a / math.pi
    aa = a * a

    def f(t: np.ndarray, k: np.ndarray) -> np.ndarray:
        d = u[k] - t
        d *= d
        d += aa[k]
        out = t * t
        np.negative(out, out=out)
        np.exp(out, out=out)
        out *= pref[k]
        out /= d
        return out

    seeds = peak_seeds(u[:, None], np.minimum(np.abs(a), 0.5))
    return integrate_real_line_batch(f, a.size, seeds=seeds)


def _i2_route(a, u1, u2) -> QuadratureBatch:
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

    seeds, scale, unseen = _peaks(a, u1, u2)
    r = integrate_real_line_compactified_batch(f, a.size, _TOL, seeds=seeds)
    # on the whole line, an unseen peak matters unless its mass alone meets tol
    blind = unseen.any(axis=0) & ~_met(1.0 / scale, 0.0, _TOL)
    # |I2| = |2 Re(1/w1)| <= 2/|w1| and |w1|^2 = |(u1-u2)^2 + 4ia| >= 4|a|
    return _bound_lost_points(r, a, aa, lambda b: 1.0 / np.sqrt(b), blind)


def _route_grid(route, a, u1, u2) -> GridResult:
    _, coords = grid_floats(a=a, u1=u1, u2=u2)
    a, u1, u2 = np.broadcast_arrays(*coords)
    bad = ~(np.isfinite(a) & np.isfinite(u1) & np.isfinite(u2)) | (a == 0.0)
    return quadrature_grid(route, [(bad, DomainError)], a, u1, u2)


def h2_quadrature(a: float, u1: float, u2: float) -> EvalResult:
    """H2 by direct adaptive quadrature of the defining integral.

    The independent oracle for the closed form.  Works for either sign of
    a (the integrand is odd in a), but not at a = 0 where the integral is
    identically zero by convention rather than value.  Its target is an
    estimate of 1e-10, or 1e-10 |H2|, within 4,000 panel splits; it fails
    where it cannot, or where a peak in |t| <= 12 is too narrow to see.
    """
    return _route_point(_h2_route, False, a=a, u1=u1, u2=u2)


def h2_quadrature_grid(a, u1, u2) -> GridResult:
    """h2_quadrature over broadcast arrays of points, by batched quadrature.

    A point fails with the exception name h2_quadrature raises there
    (IntegrationError where it does not converge); the others agree with
    h2_quadrature within the sum of both error estimates.
    """
    return _route_grid(_h2_route, a, u1, u2)


def _enclosed_poles(a, u1, u2):
    # w1 = sqrt((u1-u2)^2 + 4ia), t1+ = (s + w1)/2 and t2- = (s - conj(w1))/2
    # with s = u1 + u2, at arrays with a > 0; not finite where s or d^2 overflows
    s = u1 + u2
    w1 = np.sqrt((u1 - u2) ** 2 + 4j * a)
    return w1, 0.5 * (s + w1), 0.5 * (s - w1.conj())


# h2_rectangle's trapezoid step on its line, whose integrand is analytic
# within ~1 of the line: the discretisation error falls like e^{-2 pi/h}
_STEP = 0.125


def _row_sums(x: np.ndarray) -> np.ndarray:
    # each row summed left to right, so its bits depend neither on the other
    # rows nor on its zero padding; a pairwise np.sum groups a row's terms
    # by the row length, which the batch sets
    return np.cumsum(x, axis=1)[:, -1]


def _strip_term(s, d, q):
    # M / (e^{2 pi d/h} - 1) for M = sqrt(pi) e^{s^2} / q, formed so that
    # e^{s^2} alone cannot overflow
    k = 2.0 * math.pi / _STEP
    return _SQRT_PI * np.exp(s * s - k * d) / (q * -np.expm1(-k * d))


def _rectangle_route(a, u1, u2, offset=None) -> QuadratureBatch:
    # h2_rectangle at arrays of points with a > 0.  Every line is at
    # Im t = y = offset, or 1 above its point's higher enclosed pole, and its
    # integral is the trapezoidal sum over the nodes x = j h with
    # |x| <= R + min(y, R).  The node rows of all points form one padded
    # array, and the residues are computed on the same arrays.
    w1, t1p, t2m = _enclosed_poles(a, u1, u2)
    finite = np.isfinite(t1p) & np.isfinite(t2m)
    if not finite.all():
        at = tuple(float(c[np.argmin(finite)]) for c in (a, u1, u2))
        raise DomainError(
            f"h2_rectangle at (a, u1, u2)={at!r} is outside double range: its poles overflow"
        )
    top = 0.5 * w1.imag  # the height of both poles, bit for bit
    y = 1.0 + top if offset is None else np.full(a.size, require_finite("offset", offset))
    if not (y > top).all():
        raise DomainError("contour must enclose both poles")

    # |e^{-t^2}| = e^{y^2 - x^2} on the line, so beyond |x| = R + y the
    # integrand is below e^{-R^2}.  Past y = R the rounding of e^{y^2} is
    # far beyond any target, so the rows stop growing there and the tail
    # term below bounds what they leave out.
    half = np.floor((_RADIUS + np.minimum(y, _RADIUS)) / _STEP)
    j = np.arange(-half.max(), half.max() + 1)
    t = _STEP * j + 1j * y[:, None]
    p = t - u1[:, None]
    p *= t - u2[:, None]
    p *= p
    p += (a * a)[:, None]
    tt = t * t
    f = np.exp(-tt)
    f /= p
    f[np.abs(j) > half[:, None]] = 0.0
    line = _STEP * _row_sums(f)
    res1 = np.exp(-t1p * t1p) / w1
    res2 = np.exp(-t2m * t2m) / w1.conj()
    total = (a / math.pi) * line + (res1 + res2)

    # Rounding.  e^{-t^2} has condition number 2|t|^2, so each node value
    # carries a few eps (2 + |t|^2) of its size, and each residue a few eps
    # (1 + 2|t|^2) of its own; where the line's values grow like e^{y^2}
    # this term dominates the estimate.
    node_rounding = _row_sums(np.abs(f) * (4.0 + 2.0 * np.abs(tt)))
    rounding = sum((1.0 + 2.0 * np.abs(z) ** 2) * np.abs(r) for z, r in ((t1p, res1), (t2m, res2)))
    # Discretisation: with M bounding Int |f| on lines up to d away, the
    # frequencies of either sign add M / (e^{2 pi d/h} - 1) (Trefethen &
    # Weideman, SIAM Review 56, 2014, Thm 5.1, one side at a time).  Below
    # the line, d stops short of the poles by a margin, so
    # |f| <= e^{y^2 - x^2} / (margin (2 top + margin))^2.  Above, where
    # |e^{-t^2}| grows by e^{2yd + d^2} but no pole lies, d = pi/h - y
    # minimises that growth against e^{-2 pi d/h}.
    g = y - top
    margin = np.minimum(_STEP / math.pi, 0.5 * g)
    down = g - margin
    up = np.maximum(math.pi / _STEP - y, down)
    far = (g * (y + top)) ** 2  # a lower bound of |quartic| on and above the line
    discretisation = _strip_term(y, down, (margin * (2.0 * top + margin)) ** 2)
    discretisation += _strip_term(y + up, up, far)
    # Truncation: beyond the last node x_n, |f| <= e^{y^2 - x^2} / far.
    x_n = _STEP * half
    tail = np.exp((y - x_n) * (y + x_n)) / (x_n * far)
    err = (a / math.pi) * (_STEP * _EPS * node_rounding + discretisation + tail)
    err += np.abs(total.imag) + 4.0 * _EPS * rounding
    # a total that left double range has no known bound, and its |imag|
    # would make the estimate NaN; inf
    err[~np.isfinite(total)] = np.inf
    value = total.real
    converged = _met(err, value, _LOOSE_TOL)
    return QuadratureBatch(value, err, converged, (2.0 * half + 1.0).astype(np.int64))


def h2_rectangle(a: float, u1: float, u2: float, offset: float | None = None) -> EvalResult:
    """H2 from a contour shifted off the real axis plus two residue terms.

    Deforming the defining integral upward across the enclosed poles gives

        H2 = (a/pi) Int_L e^{-t^2}/((t-u1)^2 (t-u2)^2 + a^2) dt
             + e^{-t1_plus^2}/w1 + e^{-t2_minus^2}/w2

    with L the horizontal line Im t = offset.  The offset must clear both
    enclosed poles; by default it sits 1 above the higher one.  A
    diagnostic route: as a -> 0 the line term vanishes and the residues
    alone reproduce the limit values.

    The line integrand is analytic between L and the poles and decays like
    e^{-x^2}, so the trapezoidal rule converges geometrically in its step
    (Trefethen & Weideman, SIAM Review 56, 2014).  L is sampled at step
    1/8 over |x| <= 12 + min(offset, 12): 209 nodes as a -> 0, ~260 at
    a = 20, at most 385, set by the line's height alone.  The error
    estimate bounds the discretisation and truncation of that sum and the
    rounding of its nodes and residues; the point fails with
    IntegrationError unless the estimate is at most 1e-8, or 1e-8 |H2|
    where |H2| > 1.

    Working range: a up to about 20.  The poles sit ~sqrt(a/2) high and
    |e^{-t^2}| = e^{offset^2} on L, so the line term cancels down to H2
    from values that grow like e^{a/2}, and the estimate with it: ~1e-13
    at a = 5, ~5e-9 at (20, 0, 0.5), where the route agrees with h2 to
    ~4e-12.  From about a = 22 points raise IntegrationError; from about
    a = 1,300 e^{offset^2} leaves double range on L and the estimate is inf.
    Poles that overflow raise DomainError.
    """
    route = functools.partial(_rectangle_route, offset=offset)
    return _route_point(route, True, a=a, u1=u1, u2=u2)


def _rep_single_complex(a, u1, u2) -> QuadratureBatch:
    # Collapsing the t integral of the nested form through the Gaussian
    # integral Int dt e^{-(1-ix)t^2 - ixst} = sqrt(pi/(1-ix)) e^{-x^2 s^2
    # / (4(1-ix))} leaves
    #   H2 = (1/sqrt(pi)) Re Int_0^inf
    #            e^{-ax + (ix/4)(4 u1 u2 - (u1+u2)^2 x/(i+x))} / sqrt(1-ix) dx
    # with the principal branch of sqrt(1-ix), here at arrays of points with
    # a > 0, in one batched call.  The modulus of the integrand is at most
    # e^{-ax}, so truncation at x_max = 50/a leaves a tail below e^{-50}/a,
    # which each point's estimate adds; the window ends there, however small
    # x_max is.  The phase oscillates at frequency about |u1 u2| near 0 and
    # (u1-u2)^2/4 asymptotically, and each point's panel edges are
    # pre-seeded on its own scale so no oscillation hides inside one panel.
    s = u1 + u2
    p = u1 * u2
    x_max = 50.0 / a
    p4, ss, dd = 4.0 * p, s * s, (u1 - u2) ** 2
    freq = np.maximum(np.maximum(np.abs(p), 0.25 * dd), 1e-3)
    step = np.minimum(1.0, 0.5 * math.pi / freq)
    # int(x_max / step) + 2 breakpoints, at most 8,000 (step is 0 where u1 u2 overflows)
    count = np.minimum(x_max / step, 7998.0).astype(np.int64) + 2
    finite = np.isfinite(np.stack([x_max, p4, ss, dd])).all(axis=0)
    if not finite.all():
        at = tuple(float(c[np.argmin(finite)]) for c in (a, u1, u2))
        raise DomainError(f"single_complex window or phase overflows at (a, u1, u2)={at!r}")

    def f(x: np.ndarray, k: np.ndarray) -> np.ndarray:
        z = -a[k] * x + 0.25j * x * (p4[k] - ss[k] * x / (1j + x))
        val = np.exp(z) / np.sqrt(1.0 - 1j * x)
        return val.real / _SQRT_PI

    # each row is np.linspace(0, x_max, count), padded by repeating x_max
    j = np.arange(count.max())
    breaks = np.where(j < count[:, None] - 1, j * (x_max / (count - 1))[:, None], x_max[:, None])
    tail = np.exp(-a * x_max) / a
    return QuadratureBatch(
        *_integrate_intervals(f, np.zeros(a.size), x_max, _LOOSE_TOL, breaks, tail)
    )


def h2_integral_rep(a: float, u1: float, u2: float, variant: str) -> EvalResult:
    """H2 through one of its integral representations; both require a > 0.

    Writing the Lorentzian factor of the defining integral as a Laplace
    integral gives the nested form

        H2 = (1/pi) Int dt e^{-t^2} Int_0^inf e^{-ax} cos(x (t-u1)(t-u2)) dx.

    variant "single_complex" collapses its t integral instead, leaving one
    oscillatory x integral: the analogue of the classical
    H(a, u) = (1/sqrt(pi)) Int_0^inf e^{-ax - x^2/4} cos(ux) dx, and the
    independent verification route, whose target, 1e-8, is looser than
    h2_quadrature's: a point fails with IntegrationError unless its
    estimate, truncation tail included, is at most 1e-8, or 1e-8 |H2|.
    variant "double" is the nested form with its inner integral taken in
    closed form, a/(a^2 + (t-u1)^2 (t-u2)^2), which is the defining
    integral itself: it runs h2_quadrature's route and returns its result.
    """
    if variant not in ("double", "single_complex"):
        raise DomainError(f"unknown variant {variant!r}, expected 'double' or 'single_complex'")
    route = _h2_route if variant == "double" else _rep_single_complex
    return _route_point(route, True, a=a, u1=u1, u2=u2)


def i2_quadrature(a: float, u1: float, u2: float) -> EvalResult:
    """I2 by direct quadrature of its defining integral; oracle for i2_closed.

    The integrand decays like 1/t^4, so the real line is compactified
    rather than truncated.  Target and failures are h2_quadrature's, but a
    peak too narrow to see fails a point wherever its a -> 0 mass
    1/max(|u1 - u2|, |a|^{1/2}) is above that target.
    """
    return _route_point(_i2_route, False, a=a, u1=u1, u2=u2)


def i2_quadrature_grid(a, u1, u2) -> GridResult:
    """i2_quadrature over broadcast arrays of points, like h2_quadrature_grid."""
    return _route_grid(_i2_route, a, u1, u2)


def _laplace_route(a, u) -> QuadratureBatch:
    # h0_laplace_rep at arrays of points with a > 0, in one batched call over
    # the window [0, 2R]: the real line's truncation under x = 2t.  The
    # integrand's modulus is at most e^{-x^2/4}, so the tail beyond 2R is
    # below erfc(R) < e^{-R^2}/(R sqrt(pi)), which each estimate adds.
    z = -a + 1j * u

    def f(x: np.ndarray, k: np.ndarray) -> np.ndarray:
        out = z[k] * x
        out -= 0.25 * x * x
        np.exp(out, out=out)
        out /= _SQRT_PI
        return out

    width = 2.0 * _RADIUS
    edges = np.broadcast_to(np.linspace(0.0, width, 17), (a.size, 17))
    tail = math.exp(-_RADIUS * _RADIUS) / (_RADIUS * _SQRT_PI)
    value, *rest = _integrate_intervals(
        f, np.zeros(a.size), np.full(a.size, width), _TOL, edges, tail
    )
    return QuadratureBatch(value.real, *rest)


def h0_laplace_rep(a: float, u: float) -> EvalResult:
    """H0 via its Laplace-type representation, a diagnostic cross-route.

    H0(a, u) = Re (1/sqrt(pi)) Int_0^inf e^{-a x + i u x - x^2/4} dx,
    valid for a > 0.  The integrand is bounded by e^{-x^2/4}, so the integral
    is taken over the window [0, 24] to h2_quadrature's target, and the tail
    beyond it, below 2e-64, is added to the error estimate.
    """
    return _route_point(_laplace_route, True, a=a, u=u)
