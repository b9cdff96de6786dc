"""Quadrature routes to H2, I2 and H0 that verify the closed forms.

Each route evaluates a function by a path independent of its closed form:
direct adaptive quadrature of the defining integral (``h2_quadrature``,
``i2_quadrature``), a contour shifted off the real axis plus its residues
(``h2_rectangle``), or an integral representation (``h2_integral_rep`` and
the Laplace form ``h0_laplace_rep``).  They exist solely to check the closed
forms of ``rel_voigt`` and ``voigt`` against each other in the ``verify``
suites, and they are the only evaluators that need ``quadrature``, so the
closed forms load without it.

The direct-quadrature oracles have grid forms as well (``h2_quadrature_grid``,
``i2_quadrature_grid``).  They integrate all points through the batched
refinement loop of ``quadrature``, and agree with the scalar routes within
the error estimates rather than bit for bit.
"""

from __future__ import annotations

import cmath
import functools
import math

import numpy as np

from .errors import DomainError, require_finite
from .quadrature import (
    QuadratureBatch,
    QuadratureConfig,
    integrate_interval,
    integrate_real_line_batch,
    integrate_real_line_compactified_batch,
    integrate_semi_infinite_batch,
    peak_seeds,
    quadrature_grid,
    _route_point,
)
from .rel_voigt import pole_set
from .result import EvalResult, GridResult, grid_arrays

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
    # h0_laplace_rep at arrays of points with a > 0, in one batched call
    z = -a + 1j * u

    def f(x: np.ndarray, k: np.ndarray) -> np.ndarray:
        out = z[k] * x
        out -= 0.25 * x * x
        np.exp(out, out=out)
        out /= _SQRT_PI
        return out

    r = integrate_semi_infinite_batch(f, a.size, config)
    return QuadratureBatch(r.value.real, r.error_estimate, r.converged, r.evaluations)


def h0_laplace_rep(
    a: float, u: float, config: QuadratureConfig | None = None
) -> EvalResult:
    """H0 via its Laplace-type representation, a diagnostic cross-route.

    H0(a, u) = Re (1/sqrt(pi)) Int_0^inf e^{-a x + i u x - x^2/4} dx,
    valid for a > 0; evaluated by semi-infinite quadrature.
    """
    return _route_point(_laplace_route, config, True, a=a, u=u)
