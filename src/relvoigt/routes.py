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
array of node rows.  A route converges where its finite estimate is at most
max(tol, tol |value|) at its one fixed tol; no caller sets a tol or a height.

Every adaptive route integrates through ``quadrature._integrate_intervals``,
the one batched integrator: a route hands it windows, panel counts, peak
seeds and tail bounds, and the integrator lays out the panels.  The two
half-line routes, ``h0_laplace_rep`` and ``single_complex``, take the real
parts of complex integrals in real arithmetic, so their estimates measure
the real part alone.  All but ``i2_quadrature`` integrate finite windows
and pass each window's analytic tail bound; the H2 and I2 routes also pass
their bound on the value lost where a * a overflows.  The H2 and H0
integrands are e^{-t^2} times a weight whose line integral is at most M
(2/|w1| for H2, 1 for H0), so each point takes its own window [-T, T], T
the smallest panel edge of the real line with e^{-T^2} M <= 1e-12.  I2
decays only like 1/t^4, so ``_compactified`` maps the whole line onto
(-pi/2, pi/2) by t = tan(theta), as QUADPACK's QAGI maps an infinite range.

The direct-quadrature oracles have grid forms as well (``h2_quadrature_grid``,
``i2_quadrature_grid``).  They integrate all points through the batched
refinement loop of ``quadrature``, and agree with the scalar routes within
the error estimates rather than bit for bit.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError
from .quadrature import (
    _EPS,
    _RADIUS,
    _TOL,
    QuadratureBatch,
    _call,
    _integrate_intervals,
    _met,
    _route_point,
    quadrature_grid,
)
from .result import EvalResult, GridResult, grid_floats

__all__ = [
    "h0_laplace_rep", "h2_quadrature", "h2_quadrature_grid", "h2_rectangle", "h2_integral_rep",
    "i2_quadrature", "i2_quadrature_grid",
]

_SQRT_PI = math.sqrt(math.pi)

_LOOSE_TOL = 1e-8  # the target of single_complex and h2_rectangle; the others run at _TOL


def _peak_seeds(centers, width) -> np.ndarray:
    """Panel seeds walking geometrically out of peaks of a given width.

    centers is an (n, c) array of peak positions and width a length-n
    array; row k of the result holds integral k's seeds: its centers, then
    for each center x the pairs x - w, x + w for w = width, 4 width,
    16 width, ... while w < 2.  Passing panel edges this way means
    adaptive refinement never has to discover a spike much narrower than
    its panel.  Rows with shorter walks are padded by repeating the
    center, which adds no panel edge.  A width of 2 or more walks nowhere,
    and so does one that is not positive (it could never reach 2).
    """
    centers = np.asarray(centers, dtype=float)
    w = np.asarray(width, dtype=float).reshape(-1, 1)
    w = np.where(w > 0.0, w, 2.0)
    steps = []
    while (w < 2.0).any():
        steps.append(w)
        w = w * 4.0
    if not steps:
        return centers
    w = np.concatenate(steps, axis=1)
    walks = [centers]
    for x in centers.T:
        x = x[:, None]
        pair = np.stack([np.where(w < 2.0, x - w, x), np.where(w < 2.0, x + w, x)], axis=2)
        walks.append(pair.reshape(len(x), -1))
    return np.concatenate(walks, axis=1)


def _compactified(f, seeds, tail=0.0) -> QuadratureBatch:
    """Integrate algebraically decaying integrands over the real line, one per row of seeds.

    seeds is an (n, m) array of panel seeds, row k for integral k.  The
    substitution t = tan(theta) maps the line onto (-pi/2, pi/2), so it is
    valid whenever (1 + t^2) f(t) -> 0 as |t| -> inf, and no node is an
    endpoint; the mapped line starts as 32 equal panels.  tail, a bound on
    what the integrand loses, joins each estimate.  An integral converges
    once its estimate meets _TOL within 4,000 panel splits; a NaN or
    infinite value at a node leaves it unconverged.
    """

    def g(theta: np.ndarray, owner: np.ndarray) -> np.ndarray:
        t = np.tan(theta)
        return _call(f, t, owner) * (1.0 + t * t)

    window = np.full(len(seeds), 0.5 * math.pi)
    return _integrate_intervals(g, -window, window, 32, _TOL, np.arctan(seeds), tail)


def _peaks(a, u1, u2):
    # Lorentzian-like peaks at u1 and u2, of half-width w = |a|/s with
    # s = max(|u1-u2|, |a|^{1/2}) and mass 1/s as a -> 0 (e^{-u^2}/s in H2).
    # Returns the seeds walking geometrically out of each peak narrower than
    # 1/2, s, and the (2, n) mask u + w == u: no double, so no node, is in it.
    aa = np.abs(a)
    scale = np.maximum(np.abs(u1 - u2), np.sqrt(aa))
    width = aa / scale
    u = np.stack([u1, u2])
    return _peak_seeds(u.T, np.where(width < 0.5, width, 2.0)), scale, u + width == u


# each point's real-line window [-T, T] ends at one of the line's panel
# edges, _WIDTH apart, T the smallest whose tail bound e^{-T^2} M is at
# most 1% of _TOL, or R where none is
_WIDTH = 1.5
_WINDOW_TAIL = 0.01 * _TOL


def _window(mass):
    # T per point, and its tail bound, where mass M bounds Int |w(t)| dt over
    # the line for an integrand e^{-t^2} w(t): beyond |t| = T it is at most
    # e^{-T^2} M, however near T a peak of w sits
    t = _WIDTH * np.arange(1.0, _RADIUS / _WIDTH + 1.0)
    bound = np.exp(-t * t) * mass[:, None]
    ok = bound <= _WINDOW_TAIL
    k = np.where(ok.any(axis=1), ok.argmax(axis=1), t.size - 1)
    return t[k], bound[np.arange(mass.size), k]


def _windowed(f, seeds, mass, lost=0.0):
    # f, e^{-t^2} times a weight of line mass at most mass, integrated over
    # each point's window from panels _WIDTH wide and the seeds inside it,
    # with the window's tail bound, plus lost, in each estimate; T, batch
    half, tail = _window(mass)
    panels = np.rint(2.0 * half / _WIDTH).astype(np.int64)
    return half, _integrate_intervals(f, -half, half, panels, _TOL, seeds, tail + lost)


def _i2_bound(a, u1, u2):
    # |I2| = |2 Re(1/w1)| <= 2/|w1| with |w1| = ((u1-u2)^4 + 16 a^2)^{1/4}:
    # the line mass of H2's weight, the integrand over e^{-t^2}
    return 2.0 / np.sqrt(np.hypot((u1 - u2) ** 2, 4.0 * np.abs(a)))


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
    # where a * a overflows the value is 0, and |H2| <= 1/(|a| sqrt(pi)) joins the estimate
    lost = np.where(np.isinf(aa), 1.0 / (_SQRT_PI * np.abs(a)), 0.0)
    half, r = _windowed(f, seeds, _i2_bound(a, u1, u2), lost)
    # an unseen peak matters inside the window; beyond it, the bound holds it
    blind = (unseen & (np.abs([u1, u2]) <= half)).any(axis=0)
    return QuadratureBatch(r.value, r.error_estimate, r.converged & ~blind, r.evaluations)


def _h0_route(a, u) -> QuadratureBatch:
    # the defining integral of H0 at arrays of points, e^{-t^2}-weighted
    # Lorentzians of line mass 1, with panel seeds walking out of each peak;
    # verify's oracle
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

    seeds = _peak_seeds(u[:, None], np.minimum(np.abs(a), 0.5))
    return _windowed(f, seeds, np.ones(a.size))[1]


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
    # where a * a overflows the value is 0, and |I2| <= 2/|w1| <= 1/sqrt(|a|) joins the estimate
    r = _compactified(f, seeds, np.where(np.isinf(aa), 1.0 / np.sqrt(np.abs(a)), 0.0))
    # on the whole line, an unseen peak matters unless its mass alone meets tol
    blind = unseen.any(axis=0) & ~_met(1.0 / scale, 0.0, _TOL)
    return QuadratureBatch(r.value, r.error_estimate, r.converged & ~blind, r.evaluations)


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
    where it cannot, or where a peak inside its window is too narrow to see.
    The window is [-T, T], T the smallest of 1.5, 3, ..., 12 whose tail
    bound e^{-T^2} 2/|w1| >= e^{-T^2} |I2| is at most 1e-12, or 12, and that
    bound joins the estimate, so a peak beyond T is held by it.
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


def _rectangle_route(a, u1, u2) -> QuadratureBatch:
    # h2_rectangle at arrays of points with a > 0.  Every line is at
    # Im t = y, 1 above its point's higher enclosed pole, and its integral
    # is the trapezoidal sum over the nodes x = j h with |x| <= R + min(y, R).
    # The node rows of all points form one padded array, and the residues
    # are computed on the same arrays.
    w1, t1p, t2m = _enclosed_poles(a, u1, u2)
    finite = np.isfinite(t1p) & np.isfinite(t2m)
    if not finite.all():
        at = tuple(float(c[np.argmin(finite)]) for c in (a, u1, u2))
        raise DomainError(
            f"h2_rectangle at (a, u1, u2)={at!r} is outside double range: its poles overflow"
        )
    top = 0.5 * w1.imag  # the height of both poles, bit for bit
    y = 1.0 + top

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


def h2_rectangle(a: float, u1: float, u2: float) -> EvalResult:
    """H2 from a contour shifted off the real axis plus two residue terms.

    Deforming the defining integral upward across the enclosed poles gives

        H2 = (a/pi) Int_L e^{-t^2}/((t-u1)^2 (t-u2)^2 + a^2) dt
             + e^{-t1_plus^2}/w1 + e^{-t2_minus^2}/w2

    with L the horizontal line Im t = y, 1 above the higher enclosed pole.
    A diagnostic route: as a -> 0 the line term vanishes and the residues
    alone reproduce the limit values.

    The line integrand is analytic between L and the poles and decays like
    e^{-x^2}, so the trapezoidal rule converges geometrically in its step
    (Trefethen & Weideman, SIAM Review 56, 2014).  Its error e^{-2 pi d/h}
    falls with L's distance d from the poles while its nodes and e^{y^2}
    rise with y, so the height is fixed at d = 1, which sizes the step 1/8,
    the nodes |x| <= 12 + min(y, 12) (209 as a -> 0, ~260 at a = 20, at
    most 385) and the error estimate.  That bounds the discretisation and
    truncation of the sum and the rounding of its nodes and residues; the
    point fails with IntegrationError unless the estimate is at most 1e-8,
    or 1e-8 |H2| where |H2| > 1.

    Working range: a up to about 20.  The poles sit ~sqrt(a/2) high and
    |e^{-t^2}| = e^{y^2} on L, so the line term cancels down to H2 from
    values that grow like e^{a/2}, and the estimate with it: ~1e-13 at
    a = 5, ~5e-9 at (20, 0, 0.5), where the route agrees with h2 to
    ~4e-12.  From about a = 22 points raise IntegrationError, with an inf
    estimate where e^{y^2} overflows (a ~ 1,300) or y rounds to the poles'
    height (a ~ 1e32).  Poles that overflow raise DomainError.
    """
    return _route_point(_rectangle_route, True, a=a, u1=u1, u2=u2)


def _rep_single_complex(a, u1, u2) -> QuadratureBatch:
    # Collapsing the t integral of the nested form through the Gaussian
    # integral Int dt e^{-(1-ix)t^2 - ixst} = sqrt(pi/(1-ix)) e^{-x^2 s^2
    # / (4(1-ix))} leaves
    #   H2 = (1/sqrt(pi)) Re Int_0^inf
    #            e^{-ax + (ix/4)(4 u1 u2 - (u1+u2)^2 x/(i+x))} / sqrt(1-ix) dx
    # with the principal branch of sqrt(1-ix), here at arrays of points with
    # a > 0, in one batched call.  In real arithmetic, with
    # x/(i+x) = x(x-i)/(1+x^2), r = x^2/(1+x^2) and
    # 1/sqrt(1-ix) = (1+x^2)^{-1/4} e^{i atan(x)/2}, the integrand is
    #   e^{Re z} cos(Im z + atan(x)/2) / ((1+x^2)^{1/4} sqrt(pi)),
    #   Re z = -ax - (s^2/4) r,  Im z = x (u1 u2 - (s^2/4) r),
    # with r formed as (x/hypot(1, x))^2 and (1+x^2)^{1/4} as
    # sqrt(hypot(1, x)), so neither overflows before x does.  The modulus
    # of the integrand is at most
    # e^{-ax}, so truncation at x_max = 50/a leaves a tail below e^{-50}/a,
    # which each point's estimate adds; the window ends there, however small
    # x_max is.  The phase oscillates at frequency about |u1 u2| near 0 and
    # (u1-u2)^2/4 asymptotically, and each point starts from equal panels
    # on its own scale, so no oscillation hides inside one panel.
    s = u1 + u2
    p = u1 * u2
    x_max = 50.0 / a
    p4, ss, dd = 4.0 * p, s * s, (u1 - u2) ** 2
    freq = np.maximum(np.maximum(np.abs(p), 0.25 * dd), 1e-3)
    step = np.minimum(1.0, 0.5 * math.pi / freq)
    # int(x_max / step) + 1 equal panels, at most 7,999 (step is 0 where u1 u2 overflows)
    panels = np.minimum(x_max / step, 7998.0).astype(np.int64) + 1
    finite = np.isfinite(np.stack([x_max, p4, ss, dd])).all(axis=0)
    if not finite.all():
        at = tuple(float(c[np.argmin(finite)]) for c in (a, u1, u2))
        raise DomainError(f"single_complex window or phase overflows at (a, u1, u2)={at!r}")

    q4 = 0.25 * ss

    def f(x: np.ndarray, k: np.ndarray) -> np.ndarray:
        # h = (1 + x^2)^{1/2}, then q = (s^2/4) r
        h = np.hypot(1.0, x)
        q = x / h
        q *= q
        q *= q4[k]
        phase = p[k] - q
        phase *= x
        phase += 0.5 * np.arctan(x)
        out = -a[k] * x
        out -= q
        np.exp(out, out=out)
        out *= np.cos(phase, out=phase)
        out /= np.sqrt(h, out=h)
        out /= _SQRT_PI
        return out

    tail = np.exp(-a * x_max) / a
    return _integrate_intervals(f, np.zeros(a.size), x_max, panels, _LOOSE_TOL, tail=tail)


def h2_integral_rep(a: float, u1: float, u2: float, variant: str) -> EvalResult:
    """H2 through one of its integral representations; both require a > 0.

    Writing the Lorentzian factor of the defining integral as a Laplace
    integral gives the nested form

        H2 = (1/pi) Int dt e^{-t^2} Int_0^inf e^{-ax} cos(x (t-u1)(t-u2)) dx.

    variant "single_complex" collapses its t integral instead, leaving one
    oscillatory x integral, the real part of a complex one, which it
    evaluates in real arithmetic: the analogue of the classical
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
    # integrand, e^{-ax - x^2/4} cos(ux) / sqrt(pi), is at most e^{-x^2/4},
    # so the tail beyond 2R is below erfc(R) < e^{-R^2}/(R sqrt(pi)), which
    # each estimate adds.
    def f(x: np.ndarray, k: np.ndarray) -> np.ndarray:
        out = -a[k] * x
        out -= 0.25 * x * x
        np.exp(out, out=out)
        out *= np.cos(u[k] * x)
        out /= _SQRT_PI
        return out

    width = np.full(a.size, 2.0 * _RADIUS)
    tail = math.exp(-_RADIUS * _RADIUS) / (_RADIUS * _SQRT_PI)
    return _integrate_intervals(f, np.zeros(a.size), width, 16, _TOL, tail=tail)


def h0_laplace_rep(a: float, u: float) -> EvalResult:
    """H0 via its Laplace-type representation, a diagnostic cross-route.

    H0(a, u) = Re (1/sqrt(pi)) Int_0^inf e^{-a x + i u x - x^2/4} dx
             = (1/sqrt(pi)) Int_0^inf e^{-a x - x^2/4} cos(u x) dx,
    valid for a > 0, and integrated in the second, real form.  The integrand
    is bounded by e^{-x^2/4}, so the integral is taken over the window
    [0, 24] to h2_quadrature's target, and the tail beyond it, below 2e-64,
    is added to the error estimate.
    """
    return _route_point(_laplace_route, True, a=a, u=u)
