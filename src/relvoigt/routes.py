"""Quadrature routes to H2, I2 and H0 that verify the closed forms.

Each route evaluates a function by a path independent of its closed form:
direct adaptive quadrature of the defining integral (``h2_quadrature``,
``i2_quadrature``, and verify's H0 oracle), a contour shifted off the real
axis plus its residues (``h2_rectangle``), or an integral representation
(``h2_integral_rep`` and the Laplace form ``h0_laplace_rep``).  They exist
solely to check the closed forms of ``rel_voigt`` and ``voigt`` against each
other in the ``verify`` suites, and they are the only evaluators that need
``quadrature``, so the closed forms load without it; this module loads
neither them nor scipy.  Each route is one computation on arrays of points:
one batched quadrature call, with its poles, residues, windows and tail
terms computed on the same arrays.

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
    QuadratureConfig,
    _integrate_intervals,
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
    _, coords = grid_floats(a=a, u1=u1, u2=u2)
    a, u1, u2 = np.broadcast_arrays(*coords)
    bad = ~(np.isfinite(a) & np.isfinite(u1) & np.isfinite(u2)) | (a == 0.0)
    return quadrature_grid(lambda *p: route(*p, config), [(bad, DomainError)], a, u1, u2)


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


def _enclosed_poles(a, u1, u2):
    # w1 = sqrt((u1-u2)^2 + 4ia), t1+ = (s + w1)/2 and t2- = (s - conj(w1))/2
    # with s = u1 + u2, at arrays with a > 0; not finite where s or d^2 overflows
    s = u1 + u2
    w1 = np.sqrt((u1 - u2) ** 2 + 4j * a)
    return w1, 0.5 * (s + w1), 0.5 * (s - w1.conj())


def _rectangle_route(a, u1, u2, config=None, offset=None) -> QuadratureBatch:
    # h2_rectangle at arrays of points with a > 0.  Every line is at
    # Im t = offset, or 1 above its point's higher enclosed pole; the lines
    # of all points go in one batched call, and the residues are computed on
    # the same arrays.  Non-finite poles are enclosed by no contour.
    cfg = config if config is not None else QuadratureConfig(abs_tol=1e-9, rel_tol=1e-9)
    w1, t1p, t2m = _enclosed_poles(a, u1, u2)
    top = 0.5 * w1.imag  # the height of both poles, bit for bit
    offset = 1.0 + top if offset is None else np.full(a.size, require_finite("offset", offset))
    if not (np.isfinite(t1p) & (offset > top)).all():
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

    # |e^{-t^2}| = e^{y^2} on the line Im t = y, which leaves double range
    # once y passes ~26.6; the integrator then raises IntegrationError at
    # the non-finite values
    line = integrate_real_line_batch(f, a.size, cfg, seeds=np.stack([t1p.real, t2m.real], 1))
    res1 = np.exp(-t1p * t1p) / w1
    res2 = np.exp(-t2m * t2m) / w1.conj()
    total = (a / math.pi) * line.value + (res1 + res2)
    # e^{-t^2} has condition number 2|t|^2, so each residue carries a
    # rounding error of a few eps (1 + 2|t|^2) times its size
    rounding = sum((1.0 + 2.0 * np.abs(t) ** 2) * np.abs(r) for t, r in ((t1p, res1), (t2m, res2)))
    err = (a / math.pi) * line.error_estimate + np.abs(total.imag) + 4.0 * _EPS * rounding
    return QuadratureBatch(total.real, err, line.converged, line.evaluations)


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
    enclosed poles; by default it sits 1 above the higher one.  A
    diagnostic route: as a -> 0 the line term vanishes and the residues
    alone reproduce the limit values.

    Working range: a up to about 20.  The poles sit ~sqrt(a/2) high and
    |e^{-t^2}| = e^{offset^2} on L, so the line term cancels down to H2
    from values that grow like e^{a/2}: at (20, 0, 0.5) the route agrees
    with h2 to ~2e-11 (estimate 6e-9), and from about a = 30 typical points
    raise IntegrationError (estimates 1e-3 at a = 40, 0.35 at a = 50).
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
    # a > 0, in one batched call.  The modulus of the integrand is at most
    # e^{-ax}, so truncation at x_max = 50/a leaves a tail below e^{-50}/a,
    # which each point's estimate adds; the window ends there, however small
    # x_max is.  The phase oscillates at frequency about |u1 u2| near 0 and
    # (u1-u2)^2/4 asymptotically, and each point's panel edges are
    # pre-seeded on its own scale so no oscillation hides inside one panel.
    cfg = config if config is not None else _REP_CONFIG
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
    value, err, converged, evaluations = _integrate_intervals(
        f, np.zeros(a.size), x_max, cfg, breaks
    )
    return QuadratureBatch(value, err + np.exp(-a * x_max) / a, converged, evaluations)


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
    if variant not in ("double", "single_complex"):
        raise DomainError(f"unknown variant {variant!r}, expected 'double' or 'single_complex'")
    route = _h2_route if variant == "double" else _rep_single_complex
    return _route_point(route, config, True, a=a, u1=u1, u2=u2)


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


def _laplace_route(a, u, config=None) -> QuadratureBatch:
    # h0_laplace_rep at arrays of points with a > 0, in one batched call over
    # the window [0, 2R]: the real line's truncation under x = 2t.  The
    # integrand's modulus is at most e^{-x^2/4}, so the tail beyond 2R is
    # below erfc(R) < e^{-R^2}/(R sqrt(pi)), which each estimate adds.
    cfg = config if config is not None else QuadratureConfig()
    z = -a + 1j * u

    def f(x: np.ndarray, k: np.ndarray) -> np.ndarray:
        out = z[k] * x
        out -= 0.25 * x * x
        np.exp(out, out=out)
        out /= _SQRT_PI
        return out

    width = 2.0 * _RADIUS
    edges = np.broadcast_to(np.linspace(0.0, width, 17), (a.size, 17))
    value, err, converged, evaluations = _integrate_intervals(
        f, np.zeros(a.size), np.full(a.size, width), cfg, edges
    )
    err = err + math.exp(-_RADIUS * _RADIUS) / (_RADIUS * _SQRT_PI)
    return QuadratureBatch(value.real, err, converged & cfg.met(err, value), evaluations)


def h0_laplace_rep(
    a: float, u: float, config: QuadratureConfig | None = None
) -> EvalResult:
    """H0 via its Laplace-type representation, a diagnostic cross-route.

    H0(a, u) = Re (1/sqrt(pi)) Int_0^inf e^{-a x + i u x - x^2/4} dx,
    valid for a > 0.  The integrand is bounded by e^{-x^2/4}, so the integral
    is taken over the window [0, 24] by adaptive quadrature, and the tail
    beyond it, below 2e-64, is added to the error estimate.
    """
    return _route_point(_laplace_route, config, True, a=a, u=u)
