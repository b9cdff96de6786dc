"""Adaptive Gauss-Kronrod quadrature, batched over many integrals at once.

This module is the package's independent numerical route: every closed form
elsewhere is cross-checked against direct integration done here, so the
integrators are built from scratch on the embedded 7/15 Gauss-Kronrod pair
(QUADPACK's dqk15, Piessens et al. 1983; the low-order result comes for
free, giving per-panel error estimates) plus interval bookkeeping, with no
third-party integration backend.

There is one refinement loop.  It carries all the integrals of a call in
lock-step: every round evaluates the new panels of all live integrals,
handing the integrand consecutive runs of at most 2,048 panels, then each
integral applies its own stop test, error-share split and budget of
_MAX_SPLITS = 4,000 splits, finishes on its own and has its panels dropped.
So one integrand call's abscissas stay bounded however many integrals a
call carries, while the loop's per-panel bookkeeping grows with the call's
initial panels.  Every route but h2_rectangle, a trapezoid sum, makes one
batched call, and a single integral is a batch of one: the ``*_batch``
integrators cover the real line, and _integrate_intervals finite windows,
such as the truncated half-lines of the H0 Laplace and H2 single_complex
routes, with each window's analytic tail bound.  The one scalar entry,
integrate_real_line, is a batch of one too, kept only for the benchmark.

There is one stop rule, _met(error, value, tol): both are finite and error
<= max(tol, tol * |value|).  Each call takes one tol, 1e-10 by default; the
refinement loop, the final estimates with their tail bounds and every route
apply the rule, so neither an estimate nor a total that overflowed ever
converges, and an integral whose total is no longer finite stops at once.

Integrand contract.  A batched integrand is called panel-major: it
receives a 2-D array of abscissas, one row per panel holding that panel's
15 nodes, and an int column of shape (rows, 1) giving the index of the
integral each row belongs to, so per-integral parameters are gathered once
per row and broadcast along it.  It returns an array of the abscissas'
shape.  (integrate_real_line_batch's tail bound makes one more call, the
first, with a row of the two truncation points per integral.)  The kernel
builds its nodes node-major, one row per Kronrod node, and hands the
integrand that block's transpose, so the abscissas may be a
non-C-contiguous view.  It may not write into them.  A return of the wrong shape raises IntegrationError
for the whole call.  A NaN or infinite value raises nothing: it leaves
its own integral's total or estimate non-finite, so that integral alone
stops unconverged, as QUADPACK reports a failed integral through its ier
status, and the call's other integrals run on.  Complex-valued integrands
are allowed (real and imaginary parts are integrated in one pass).

Everything here is pure and writes no module state after import, so
concurrent calls from multiple threads are safe; the integrand callable
itself is only ever invoked from the calling thread.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import DomainError, IntegrationError, require_finite, require_int
from .result import EvalResult, GridResult, grid_result

__all__ = [
    "QuadratureBatch",
    "QuadratureResult",
    "integrate_real_line",
    "integrate_real_line_batch",
    "integrate_real_line_compactified_batch",
    "peak_seeds",
]

_EPS = float(np.finfo(float).eps)

# 15-point Kronrod abscissas on [-1, 1]; the embedded 7-point Gauss rule
# lives on the odd-indexed nodes.  Standard QUADPACK dqk15 constants.
_XK = np.array(
    [
        -0.9914553711208126,
        -0.9491079123427585,
        -0.8648644233597691,
        -0.7415311855993944,
        -0.5860872354676911,
        -0.4058451513773972,
        -0.2077849550078985,
        0.0,
        0.2077849550078985,
        0.4058451513773972,
        0.5860872354676911,
        0.7415311855993944,
        0.8648644233597691,
        0.9491079123427585,
        0.9914553711208126,
    ]
)
_WK = np.array(
    [
        0.02293532201052922,
        0.06309209262997855,
        0.1047900103222502,
        0.1406532597155259,
        0.1690047266392679,
        0.1903505780647854,
        0.2044329400752989,
        0.2094821410847278,
        0.2044329400752989,
        0.1903505780647854,
        0.1690047266392679,
        0.1406532597155259,
        0.1047900103222502,
        0.06309209262997855,
        0.02293532201052922,
    ]
)
_WG = np.array(
    [
        0.1294849661688697,
        0.2797053914892767,
        0.3818300505051189,
        0.4179591836734694,
        0.3818300505051189,
        0.2797053914892767,
        0.1294849661688697,
    ]
)

# A round's panels go to the integrand in consecutive runs of at most
# _CHUNK, so its abscissas stay bounded however many integrals a call
# carries.  Smaller runs pay each integrand call's fixed overhead more often.
_CHUNK = 2048

# the grid forms hand their route at most this many points per call
_ROUTE_POINTS = 1024

# an integral splits at most this many panels in all
_MAX_SPLITS = 4000

# the real-line half-width R, in units of the integrand's Gaussian envelope:
# the e^{-t^2} tail beyond it is below 1e-62
_RADIUS = 12.0

Integrand = Callable[[np.ndarray], np.ndarray]
BatchIntegrand = Callable[[np.ndarray, np.ndarray], np.ndarray]


def _met(error, value, tol: float):
    """The one stop rule: error and value are finite and error <= max(tol, tol |value|)."""
    target = np.maximum(tol, tol * np.abs(value))
    return np.isfinite(error) & np.isfinite(value) & (error <= target)


@dataclass(frozen=True)
class QuadratureResult:
    """Integral value with an absolute error estimate.

    converged=True guarantees _met(error_estimate, value, tol) for the tol
    the run used; evaluations counts integrand abscissas.
    """

    value: float | complex
    error_estimate: float
    converged: bool
    evaluations: int


@dataclass(frozen=True, eq=False)
class QuadratureBatch:
    """Results of a batched call: arrays indexed like its integrals.

    Entry k holds integral k's value, absolute error estimate, converged
    flag and evaluation count, with the meaning QuadratureResult gives them.
    """

    value: np.ndarray
    error_estimate: np.ndarray
    converged: np.ndarray
    evaluations: np.ndarray


def _call(f: BatchIntegrand, x: np.ndarray, owner: np.ndarray) -> np.ndarray:
    # f at a 2-D block of abscissas, one row per owner entry; the values come
    # back as float64 or complex128, so their |f| is a float64 buffer the
    # kernel can reuse whatever dtype f returned
    fv = np.asarray(f(x, owner))
    if fv.shape != x.shape:
        raise IntegrationError("integrand must return one value per abscissa")
    return fv.astype(np.result_type(fv, np.float64), copy=False)


def _eval_panels(f: BatchIntegrand, lo: np.ndarray, hi: np.ndarray, owner: np.ndarray):
    """Apply the G7/K15 pair to a batch of panels in one integrand call.

    The nodes are built node-major, one contiguous row of panels per
    Kronrod node, and every weighted sum below is a weight vector times
    those rows; numpy ufuncs give values in the layout of their
    abscissas, so the rows stay contiguous.  The integrand sees the
    transpose, one row of 15 nodes per panel, and the panels' owners as a
    column.  Returns the Kronrod values and error estimates per panel.
    """
    half = 0.5 * (hi - lo)
    mid = 0.5 * (lo + hi)
    nodes = np.multiply.outer(_XK, half)
    nodes += mid
    fv = _call(f, nodes.T, owner[:, None]).T

    # a NaN or infinite value, and finite values whose weighted |f| sum
    # overflows, make that sum non-finite; the panel's estimate is then inf,
    # so its integral stops unconverged while the others run on, and the
    # numpy warnings the arithmetic raises on the way say nothing more
    with np.errstate(over="ignore", invalid="ignore"):
        buf = np.abs(fv)
        resabs = (_WK @ buf) * half
        overflow = ~np.isfinite(resabs)

        resk = (_WK @ fv) * half
        resg = (_WG @ fv[1:14:2]) * half
        mean = resk / (hi - lo)
        # |f - mean| reuses the |f| buffer, in place when f is real
        dev = fv - mean if np.iscomplexobj(fv) else np.subtract(fv, mean, out=buf)
        resasc = (_WK @ np.abs(dev, out=buf)) * half

        # QUADPACK-style sharpened estimate for the Kronrod value
        raw = np.abs(resk - resg)
        safe = np.where(resasc > 0.0, resasc, 1.0)
        err = np.where(
            resasc > 0.0,
            resasc * np.minimum(1.0, (200.0 * raw / safe) ** 1.5),
            raw,
        )
        err = np.maximum(err, 50.0 * _EPS * resabs)
    err[overflow] = np.inf
    return resk, err


def _sum_by(owner: np.ndarray, x: np.ndarray, n: int) -> np.ndarray:
    # per-integral sums of a real or complex panel quantity
    if np.iscomplexobj(x):
        return np.bincount(owner, x.real, n) + 1j * np.bincount(owner, x.imag, n)
    return np.bincount(owner, x, n)


def _wide(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    # panels wider than 64 ulps of their endpoints can still be split
    return (hi - lo) > 64.0 * _EPS * np.maximum(1.0, np.maximum(np.abs(lo), np.abs(hi)))


def _eval_chunks(f: BatchIntegrand, lo: np.ndarray, hi: np.ndarray, owner: np.ndarray):
    # _eval_panels on consecutive runs of at most _CHUNK panels
    parts = [
        _eval_panels(f, lo[i : i + _CHUNK], hi[i : i + _CHUNK], owner[i : i + _CHUNK])
        for i in range(0, lo.size, _CHUNK)
    ]
    return tuple(np.concatenate(col) for col in zip(*parts))


def _refine(f: BatchIntegrand, plo, phi, own, n: int, tol: float):
    """Adaptively integrate n integrals from their initial panels, in lock-step.

    plo, phi and own list every initial panel with the index (0..n-1) of
    its integral; n >= 1.  Each round evaluates the new panels of every
    live integral, at most _CHUNK panels per integrand call.  Each integral
    follows the rule of a lone integral: stop converged once
    _met(error sum, value, tol); otherwise split every panel holding more
    than its share of the error and wider than 64 ulps, worst first when
    fewer remain of its _MAX_SPLITS splits; stop unconverged
    when the budget is spent, nothing can be split or the value is no
    longer finite.  An integral's panels keep their order whatever shares
    the loop, so its sums add in the same order.  Returns per-integral
    (value, error, converged, evaluations).
    """
    val, err = _eval_chunks(f, plo, phi, own)
    wide = _wide(plo, phi)
    # a split turns one panel into two, so an integral holds its initial
    # panels plus its splits
    panels = np.bincount(own, minlength=n)
    evaluations = _XK.size * panels
    splits = np.zeros(n, dtype=np.int64)
    live = np.ones(n, dtype=bool)
    value = np.zeros(n, dtype=val.dtype)
    error = np.zeros(n)
    converged = np.zeros(n, dtype=bool)

    while True:
        total = _sum_by(own, val, n)
        total_err = np.bincount(own, err, n)
        done = _met(total_err, total, tol)

        # split every panel above its error share, worst first under budget
        share = total_err / (2.0 * np.maximum(panels + splits, 1))
        mask = (err > share[own]) & wide
        budget = _MAX_SPLITS - splits
        wanted = np.bincount(own[mask], minlength=n)
        stop = live & (done | (budget <= 0) | (wanted == 0) | ~np.isfinite(total))
        if stop.any():
            value[stop] = total[stop]
            error[stop] = total_err[stop]
            converged[stop] = done[stop]
            live &= ~stop
            if not live.any():
                return value, error, converged, evaluations
        keep = live[own]
        mask &= keep

        idx = np.flatnonzero(mask)
        o = own[idx]
        # each live integral splits min(wanted, budget) of its panels,
        # worst first when its budget runs short
        wanted *= live
        taken = np.minimum(wanted, budget)
        if (taken < wanted).any():
            order = np.lexsort((-err[idx], o))
            idx, o = idx[order], o[order]
            rank = np.arange(idx.size) - np.searchsorted(o, o)
            first = rank < budget[o]
            idx, o = idx[first], o[first]
        splits += taken

        a, b = plo[idx], phi[idx]
        m = 0.5 * (a + b)
        new_lo = np.concatenate([a, m])
        new_hi = np.concatenate([m, b])
        new_own = np.concatenate([o, o])
        new_val, new_err = _eval_chunks(f, new_lo, new_hi, new_own)
        evaluations += 2 * _XK.size * taken

        keep[idx] = False
        plo = np.concatenate([plo[keep], new_lo])
        phi = np.concatenate([phi[keep], new_hi])
        own = np.concatenate([own[keep], new_own])
        val = np.concatenate([val[keep], new_val])
        err = np.concatenate([err[keep], new_err])
        wide = np.concatenate([wide[keep], _wide(new_lo, new_hi)])


def _integrate_intervals(
    f: BatchIntegrand, lo: np.ndarray, hi: np.ndarray, tol: float, breaks=None, tail=0.0
):
    """Integrate f over [lo[k], hi[k]] for every k to tol, in one refinement loop.

    Every lo[k] < hi[k].  breaks, an (n, m) array, adds initial panel edges
    per integral; they are clipped onto [lo, hi] and duplicates are dropped.
    tail bounds what the windows leave out and joins each final estimate
    before its last stop test.  Every call checks tol here, and only here.
    The loop's bookkeeping grows with the call's initial panels; the
    integrand calls do not.  Returns (value, error, converged, evaluations).
    """
    tol = require_finite("tol", tol)
    if not tol > 0.0:
        raise DomainError(f"tol must be finite and > 0, got {tol!r}")
    if lo.size == 0:
        return np.zeros(0), np.zeros(0), np.zeros(0, dtype=bool), np.zeros(0, dtype=np.int64)
    if breaks is None:
        plo, phi, own = lo, hi, np.arange(lo.size)
    else:
        l, h = lo[:, None], hi[:, None]
        edges = np.sort(np.concatenate([l, h, np.clip(breaks, l, h)], axis=1), axis=1)
        keep = edges[:, 1:] > edges[:, :-1]
        plo, phi, own = edges[:, :-1][keep], edges[:, 1:][keep], np.nonzero(keep)[0]
    value, error, converged, evaluations = _refine(f, plo, phi, own, lo.size, tol)
    # a tail bound may overflow like a panel sum, leaving an inf estimate
    with np.errstate(over="ignore"):
        error = error + tail
    return value, error, converged & _met(error, value, tol), evaluations


def quadrature_grid(route, rules, *coords: np.ndarray) -> GridResult:
    """A batched quadrature route over the grid points that no rule fails.

    coords are arrays of one shape, and rules the (mask, exception) failure
    rules of the checks before the route, as grid_result takes them.
    route(*coords) integrates the points whose coordinates it is given and
    returns a QuadratureBatch.  It is called on up to _ROUTE_POINTS points
    at a time to bound memory: a route builds its seeds, initial panel
    edges and tail-bound rows for every point of a call at once, and its
    refinement loop holds every live panel of them.
    A point that does not converge fails with IntegrationError, as the
    scalar route raises there; a non-finite integrand value stops only its
    own point's integral, so each chunk is one route call.  The route runs
    with numpy's floating-point warnings off, as inside _route_point: a
    value that leaves double range surfaces as a failed point or a value
    within its target, not a warning.
    """
    shape = coords[0].shape
    value = np.zeros(shape)
    estimate = np.zeros(shape)
    failed = np.zeros(shape, dtype=bool)
    checked = functools.reduce(operator.or_, [mask for mask, _ in rules], np.zeros(shape, bool))
    live = np.flatnonzero(~checked)
    with np.errstate(all="ignore"):
        for k0 in range(0, live.size, _ROUTE_POINTS):
            idx = live[k0 : k0 + _ROUTE_POINTS]
            r = route(*(c.flat[idx] for c in coords))
            value.flat[idx] = r.value
            estimate.flat[idx] = r.error_estimate
            failed.flat[idx] = ~r.converged
    return grid_result(shape, [*rules, (failed, IntegrationError)], value, estimate)


def _seeds(x, n: int) -> np.ndarray:
    # panel seeds as a finite (n, m) float array, row k for integral k, and
    # m = 0 for no integrals; a complex or text seed does not cast to float
    # under "same_kind"
    try:
        x = np.asarray(x).astype(float, casting="same_kind", copy=False)
        x = x.reshape(n, x.size // max(n, 1))
    except (TypeError, ValueError):
        raise DomainError(f"seeds must be real numbers in n={n} rows of one length") from None
    if not np.isfinite(x).all():
        raise DomainError("seeds must be finite")
    return x


def peak_seeds(centers, width) -> np.ndarray:
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


def _lone(f: Integrand) -> BatchIntegrand:
    # a scalar integrand as a batched one: it sees the abscissas as one 1-D
    # array, node-major as the kernel builds them, so flattening the
    # transpose it is handed is a free view and the values come back in
    # the kernel's layout; a return of the wrong length is left for _call
    # to reject
    def g(x: np.ndarray, owner: np.ndarray) -> np.ndarray:
        fv = np.asarray(f(x.T.ravel()))
        return fv.reshape(x.T.shape).T if fv.shape == (x.size,) else fv

    return g


def integrate_real_line_batch(
    f: BatchIntegrand, n: int, tol: float = 1e-10, *, seeds=None
) -> QuadratureBatch:
    """Integrate n Gaussian-envelope integrands over the real line at once.

    Each integrand must decay like C e^{-t^2} beyond the window: the
    integrals are truncated to [-R, R] with R = 12, and the Gaussian tail
    bound (|f(-R)| + |f(R)|) / (2 R) is folded into each error estimate.
    A problem centred elsewhere or of another width substitutes
    t = c + s x itself.  seeds is an (n, m) array of panel seeds, row k
    for integral k (repeat a value to pad a short row); they become
    initial panel boundaries.  The call's memory grows with its up to
    n * (16 + m) initial panels, as its seeds do.  An integral converges once
    its estimate, tail bound included, meets tol within 4,000 panel splits;
    a NaN or infinite value at a node or truncation point leaves it unconverged.
    """
    n = require_int("n", n, 0)
    lo = np.full(n, -_RADIUS)
    hi = np.full(n, _RADIUS)
    pts = np.broadcast_to(np.linspace(-_RADIUS, _RADIUS, 17), (n, 17))
    if seeds is not None:
        pts = np.concatenate([pts, _seeds(seeds, n)], axis=1)

    # Gaussian tail bound at the truncation points; it may overflow like a
    # panel sum, and a non-finite value there leaves a non-finite estimate
    edge = np.abs(_call(f, np.stack([lo, hi], axis=1), np.arange(n)[:, None]))
    with np.errstate(over="ignore"):
        tail = (edge[:, 0] + edge[:, 1]) / (2.0 * _RADIUS)
    value, error, converged, evaluations = _integrate_intervals(f, lo, hi, tol, pts, tail)
    return QuadratureBatch(value, error, converged, evaluations + 2)


# Kept only for the benchmark: perfbench/layers.py times it with a scalar
# integrand on every traced run.  It, _lone and QuadratureResult go with
# that probe.
def integrate_real_line(
    f: Integrand, tol: float = 1e-10, *, seeds: Sequence[float] | None = None
) -> QuadratureResult:
    """integrate_real_line_batch for one scalar integrand f(t), t a 1-D array.

    A NaN or infinite value of f gives converged=False, not an exception.
    """
    r = integrate_real_line_batch(_lone(f), 1, tol, seeds=seeds)
    return QuadratureResult(
        r.value.item(), r.error_estimate.item(), r.converged.item(), r.evaluations.item()
    )


def integrate_real_line_compactified_batch(
    f: BatchIntegrand, n: int, tol: float = 1e-10, *, seeds=None
) -> QuadratureBatch:
    """Integrate n algebraically decaying integrands over the real line at once.

    Substitutes t = tan(theta) and integrates over (-pi/2, pi/2); valid
    whenever (1 + t^2) f(t) -> 0 as |t| -> inf (decay faster than 1/t^2).
    All abscissas are interior, so the endpoints are never evaluated.  This
    covers integrands the Gaussian-envelope truncation of
    integrate_real_line_batch would bias, such as pure rational densities.
    seeds is an (n, m) array, row k for integral k.  The call's memory grows
    with its up to n * (32 + m) initial panels, as its seeds do.  An integral
    converges once its estimate meets tol within 4,000 panel splits; a NaN
    or infinite value at a node leaves it unconverged.
    """
    n = require_int("n", n, 0)

    def g(theta: np.ndarray, owner: np.ndarray) -> np.ndarray:
        t = np.tan(theta)
        return _call(f, t, owner) * (1.0 + t * t)

    half_pi = 0.5 * math.pi
    pts = np.broadcast_to(np.linspace(-half_pi, half_pi, 33), (n, 33))
    if seeds is not None:
        pts = np.concatenate([pts, np.arctan(_seeds(seeds, n))], axis=1)
    edge = np.full(n, half_pi)
    return QuadratureBatch(*_integrate_intervals(g, -edge, edge, tol, pts))


def _route_point(route, positive: bool, **point) -> EvalResult:
    """A public scalar entry: one point, a first, through route(*coords).

    Every coordinate must be finite and a > 0 if positive, else nonzero;
    IntegrationError names a point that does not converge and its estimate.
    The route runs with numpy's floating-point warnings off, so a value
    that leaves double range surfaces as IntegrationError or a value within
    its target, never as a RuntimeWarning.
    """
    for name, x in point.items():
        point[name] = require_finite(name, x)
    a = point["a"]
    if positive and not a > 0.0:
        raise DomainError(f"a must be > 0 on this route, got {a!r}")
    if a == 0.0:
        raise DomainError(f"a must be nonzero on this route, got {a!r}")
    with np.errstate(all="ignore"):
        r = route(*(np.array([x]) for x in point.values()))
    value, estimate = float(r.value[0]), float(r.error_estimate[0])
    if not r.converged[0]:
        raise IntegrationError(
            f"quadrature did not converge at ({', '.join(point)})="
            f"({', '.join(map(repr, point.values()))}); "
            f"error estimate {estimate:.3e}"
        )
    return EvalResult(value, estimate, "quadrature")
