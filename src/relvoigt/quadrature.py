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
initial panels.  _integrate_intervals is the layer's one batched
interface: given windows and panel counts, as QUADPACK's QAG takes a range
and a limit, it lays out the panels and adds each window's tail bound.
Every route but h2_rectangle, a trapezoid sum, makes one call to it, over
the truncated half-lines of the H0 Laplace and H2 single_complex routes,
each point's own real-line window in the H2 and H0 oracles, or, for
i2_quadrature, the tan-mapped line of routes._compactified.  The scalar
entry integrate_real_line is one such call over the real line truncated to
[-12, 12], with a tail bound sampled at its ends; no route calls it, and it
is kept for the benchmark.

There is one stop rule, _met(error, value, tol), at _TOL = 1e-10 or a
route's looser tol, which no caller sets; the loop, the final estimates with
their tail bounds and every route apply it, so neither an estimate nor a
total that overflowed ever converges, and an integral whose total is no
longer finite stops at once.  This layer reports converged flags and raises
for no unconverged integral: routes._converged, the one caller of a route,
tests the flags and names a point that failed, so nothing here loads the
result records.

Integrand contract.  A batched integrand is called panel-major: it
receives a 2-D array of abscissas, one row per panel holding that panel's
15 nodes, and an int column of shape (rows, 1) giving the index of the
integral each row belongs to, so per-integral parameters are gathered once
per row and broadcast along it.  It returns an array of the abscissas'
shape, of real values.  (integrate_real_line's tail bound makes one more
call, the first, with one row holding its two truncation points.)  The
kernel builds its nodes node-major, one row per Kronrod node, and hands
the integrand that block's transpose, so the abscissas may be a
non-C-contiguous view.  It may not write into them.  A return of the wrong
shape, or of complex values, raises IntegrationError for the whole call.
A NaN or infinite value raises nothing: it leaves its own integral's total
or estimate non-finite, so that integral alone stops unconverged, as
QUADPACK reports a failed integral through its ier status, and the call's
other integrals run on.

Everything here is pure and writes no module state after import, so
concurrent calls from multiple threads are safe; the integrand callable
itself is only ever invoked from the calling thread.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import DomainError, IntegrationError

__all__ = ["QuadratureResult", "integrate_real_line"]

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

# an integral splits at most this many panels in all, and its target is
# _TOL, which every integrator and all routes but two run at
_MAX_SPLITS = 4000
_TOL = 1e-10

# the real-line half-width R, in units of the integrand's Gaussian envelope:
# the e^{-t^2} tail beyond it is below 1e-62; the line starts as 16 panels,
# 1.5 wide
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

    converged=True guarantees _met(error_estimate, value, _TOL), the one
    target of every integrator; evaluations counts integrand abscissas.
    """

    value: float
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
    # f at a 2-D block of abscissas, one row per owner entry, as float64
    # values; complex values are refused, as a cast would drop their
    # imaginary parts
    fv = np.asarray(f(x, owner))
    if fv.shape != x.shape:
        raise IntegrationError("integrand must return one value per abscissa")
    if fv.dtype.kind == "c":
        raise IntegrationError("integrand must return real values")
    return fv.astype(np.float64, copy=False)


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
        # |f - mean| reuses the |f| buffer, in place
        resasc = (_WK @ np.abs(np.subtract(fv, mean, out=buf), out=buf)) * half

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
    value = np.zeros(n)
    error = np.zeros(n)
    converged = np.zeros(n, dtype=bool)

    while True:
        total = np.bincount(own, val, n)
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


def _layout(lo: np.ndarray, hi: np.ndarray, panels, seeds):
    # the initial panels of _integrate_intervals as flat (lo, hi, owner)
    # arrays; its (n, m) edge rows are freed on return, before the
    # refinement loop starts
    l, h, n = lo[:, None], hi[:, None], np.broadcast_to(panels, lo.shape)[:, None]
    j = np.arange(n.max() + 1)  # each row is linspace's, padded with hi
    edges = np.where(j < n, j * ((h - l) / n) + l, h)
    if seeds is not None:
        edges = np.concatenate([edges, np.clip(seeds, l, h)], axis=1)
        edges.sort(axis=1)
    keep = edges[:, 1:] > edges[:, :-1]
    # entry k of the flat mask, in row r, is the panel from flat edge k + r
    at = np.flatnonzero(keep)
    own = at // keep.shape[1]
    at += own
    flat = edges.ravel()
    return flat[at], flat[at + 1], own


def _integrate_intervals(
    f: BatchIntegrand, lo: np.ndarray, hi: np.ndarray, panels, tol: float, seeds=None, tail=0.0
) -> QuadratureBatch:
    """Integrate f over [lo[k], hi[k]] for every k to tol, in one refinement loop.

    There is at least one window, and every lo[k] < hi[k].  Window k starts
    as panels[k] equal panels (an int or int array), with the edges that
    np.linspace(lo[k], hi[k], panels[k] + 1) gives; seeds, an (n, m) array,
    adds edges, clipped onto [lo, hi], duplicates dropped.  tail bounds
    what the windows leave out and joins each final estimate before its
    last stop test.  The loop's bookkeeping grows with the call's initial
    panels; the integrand calls do not.
    """
    plo, phi, own = _layout(lo, hi, panels, seeds)
    value, error, converged, evaluations = _refine(f, plo, phi, own, lo.size, tol)
    # a tail bound may overflow like a panel sum, leaving an inf estimate
    with np.errstate(over="ignore"):
        error = error + tail
    return QuadratureBatch(value, error, converged & _met(error, value, tol), evaluations)


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


def _seeds(x) -> np.ndarray:
    # a flat sequence of panel seeds as a finite (1, m) float array; a
    # complex or text seed does not cast to float under "same_kind"
    flat = "seeds must be a flat sequence of real numbers"
    try:
        x = np.asarray(x).astype(float, casting="same_kind", copy=False)
    except (TypeError, ValueError):
        raise DomainError(flat) from None
    if x.ndim != 1:
        raise DomainError(flat)
    if not np.isfinite(x).all():
        raise DomainError("seeds must be finite")
    return x[None, :]


def integrate_real_line(f: Integrand, *, seeds: Sequence[float] | None = None) -> QuadratureResult:
    """Integrate one Gaussian-envelope integrand f(t), t a 1-D array, over the real line.

    f must decay like C e^{-t^2} beyond the window: the integral is
    truncated to [-R, R] with R = 12, and the Gaussian tail bound
    (|f(-R)| + |f(R)|) / (2 R) is folded into the error estimate.  A
    problem centred elsewhere or of another width substitutes t = c + s x
    itself.  f must return real values: a complex value raises
    IntegrationError, as a return of the wrong shape does.  seeds, a flat
    sequence, become initial panel boundaries.  The integral converges
    once its estimate, tail bound included, meets _TOL within 4,000 panel
    splits; a NaN or infinite value of f at a node or truncation point
    gives converged=False, not an exception.
    """
    g = _lone(f)
    pts = None if seeds is None else _seeds(seeds)

    # Gaussian tail bound at the truncation points; it may overflow like a
    # panel sum, and a non-finite value there leaves a non-finite estimate
    edge = np.abs(_call(g, np.array([[-_RADIUS, _RADIUS]]), np.zeros((1, 1), dtype=np.intp)))
    with np.errstate(over="ignore"):
        tail = (edge[:, 0] + edge[:, 1]) / (2.0 * _RADIUS)
    lo, hi = np.array([-_RADIUS]), np.array([_RADIUS])
    r = _integrate_intervals(g, lo, hi, 16, _TOL, pts, tail)
    return QuadratureResult(
        r.value.item(), r.error_estimate.item(), r.converged.item(), r.evaluations.item() + 2
    )
