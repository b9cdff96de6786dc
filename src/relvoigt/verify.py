"""Cross-validation suites tying every closed form to an independent route.

Four suites, each a list of named checks summarized as VerifyReports:

* symmetry: the four exact H2 symmetry identities on a random grid, its
  six images of the grid evaluated in one h2_grid call.
* oracle: closed forms against direct quadrature of the defining
  integrals (h0, h2, i2, and the degenerate Laurent series).
* representations: the shifted-contour and integral-representation
  routes for H2 against the closed form, plus the Laplace route for H0.
* limits: every limiting regime with a stated constant or a stated
  direction of approach (a -> 0 captions, large-u asymptotics, damping
  normalization, gamma -> 0, singular degenerate growth).

Every quadrature reference comes from one call of a batched route over
all the points of its check, through routes._converged, so each route is
one refinement loop; a point that does not converge raises the
IntegrationError naming it, as the scalar entries do.  H2 and I2 depend
on u1 and u2 only through (u1 - t)(u2 - t), so the defining integral is
unchanged under u1 <-> u2 and, by t -> -t, under (u1, u2) -> (-u2, -u1).
The oracle integrates one point per orbit of both on a square u grid
whose u axis is its own mirror (the h2 grid: 2,205 of 8,405 points, in
one call with the 4 degenerate-series points), and on the triangle
u1 <= u2 elsewhere (the i2 grid: 20 of 32).  H0 is even in u by t -> -t, and
its u axis is its own mirror, so only u <= 0 is integrated (165 of 325
points).  Each value is copied to the rest of its orbit; the closed form
is still checked at every point.  The routes keep the swap bit for bit
and the mirror to within ~1e-15 relative, so each copy is an honest
quadrature of its point.  The suites are library code rather than
test-only helpers so the CLI can run them in the field; the test suite
drives the same entry points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .catalog import SUITE_NAMES
from .errors import DomainError, IntegrationError
from .profiles import ProfileParams
from .rel_voigt import (
    d0,
    d2,
    h2,
    h2_degenerate_series,
    h2_grid,
    h2_large_u_asymptotic,
    h2_limit_a0,
    i2_closed,
    i2_grid,
    v2,
    v2_gamma0_limit,
)
from .result import GridResult
from .routes import (
    _converged,
    _h0_route,
    _h2_route,
    _i2_route,
    _laplace_route,
    _rectangle_route,
    _rep_single_complex,
)
from .voigt import h0, h0_grid, h0_limit_a0

__all__ = [
    "VerifyReport",
    "verify_symmetry",
    "verify_oracle",
    "verify_representations",
    "verify_limits",
    "run_suite",
    "SUITE_NAMES",
]

_SEED = 20240817


@dataclass(frozen=True)
class VerifyReport:
    """Outcome of one verification check.

    max_abs_deviation / max_rel_deviation summarize the worst grid point.
    passed is True exactly when every point met the check's acceptance
    rule at the stated tolerance; the rule is absolute-or-relative for
    value comparisons, purely relative for asymptotic checks, and for
    structural checks (monotone approach, growth ratios) the deviation
    column holds the check's dimensionless figure of merit, which must
    stay at or below the tolerance.
    """

    name: str
    grid_size: int
    max_abs_deviation: float
    max_rel_deviation: float
    tolerance: float
    passed: bool


def _rel(devs: np.ndarray, refs: np.ndarray) -> np.ndarray:
    scale = np.where(np.abs(refs) > 0.0, np.abs(refs), 1.0)
    return devs / scale


def _pointwise(name, devs, refs, tol) -> VerifyReport:
    # accept dev <= max(tol, tol * |ref|) at every point
    devs = np.asarray(devs, dtype=float)
    refs = np.asarray(refs, dtype=float)
    ok = bool(np.all(devs <= np.maximum(tol, tol * np.abs(refs))))
    rel = _rel(devs, refs)
    return VerifyReport(name, devs.size, float(devs.max()), float(rel.max()), tol, ok)


def _relative(name, devs, refs, tol) -> VerifyReport:
    # accept dev <= tol * |ref| at every point (asymptotic agreement)
    devs = np.asarray(devs, dtype=float)
    refs = np.asarray(refs, dtype=float)
    rel = _rel(devs, refs)
    ok = bool(np.all(rel <= tol))
    return VerifyReport(name, devs.size, float(devs.max()), float(rel.max()), tol, ok)


def _structural(name, figure, grid_size, tol) -> VerifyReport:
    figure = float(figure)
    return VerifyReport(name, grid_size, figure, figure, tol, figure <= tol)


def _reference(res: GridResult, route: str, *coords: np.ndarray) -> np.ndarray:
    # the grid's values, or the failure the scalar form raises at its first
    # failed point
    bad = np.flatnonzero(res.codes)
    if bad.size:
        at = tuple(float(c.flat[bad[0]]) for c in coords)
        raise IntegrationError(f"{route} failed with {res.error.flat[bad[0]]} at {at!r}")
    return res.value


def _mirrored(u: np.ndarray) -> bool:
    # whether the list u along the grid's last axis is its own mirror,
    # u[m-1-k] == -u[k], so that t -> -t maps grid points onto grid points
    row = u.reshape(-1, u.shape[-1])[0]
    return bool(np.all(row[::-1] == -row))


def _even_reference(route, a, u) -> np.ndarray:
    # the route's values on a grid whose last axis is the list u, for an
    # integral even in u (t -> -t).  Where u is its own mirror, only the
    # half k <= m - 1 - k (u <= 0) is integrated and each value copied to
    # its mirror; the route keeps that mirror within its estimates, as the
    # mirrored sums add in reverse order.
    m = u.shape[-1]
    k = np.arange(m)
    mirror = _mirrored(u)
    if mirror:
        k = k[k <= m - 1 - k]
    want = np.empty(a.shape)
    want[..., k] = _converged(route, a=a[..., k], u=u[..., k])[0]
    if mirror:
        want[..., m - 1 - k] = want[..., k]
    return want


def _twin_reference(route, a, x, y, extra=((), (), ())):
    # the route's values on a grid whose u1 and u2 axes are the same list u,
    # from one point (i, j) per orbit of the integral's exact symmetries.
    # Both routes are symmetric in u1 <-> u2 bit for bit (the integrand
    # takes the product (u1 - t)(u2 - t), and the sorted panel edges lose
    # the seed order), so the upper triangle i <= j holds every orbit.
    # Where u is its own mirror, u[m-1-k] == -u[k], t -> -t maps (u1, u2)
    # to (-u2, -u1) as well, and only the half i + j <= m - 1 (u1 + u2 <= 0)
    # is integrated.  The routes keep that mirror only to within ~1e-15
    # relative, as their sums add in reverse order, so a mirrored value is
    # an honest quadrature of its point within its estimate.  The points
    # extra = (a, u1, u2) of another check join the same route call;
    # returns the grid's values and then, flat, theirs.
    m = a.shape[-1]
    mirror = _mirrored(y)
    i, j = np.triu_indices(m)
    if mirror:
        half = i + j <= m - 1
        i, j = i[half], j[half]
    grid = [c[..., i, j] for c in (a, x, y)]
    pts = [np.concatenate([g.ravel(), np.ravel(e)]) for g, e in zip(grid, extra)]
    value = _converged(route, **dict(zip(("a", "u1", "u2"), pts)))[0]
    n = grid[0].size
    twin = value[:n].reshape(grid[0].shape)
    want = np.empty(a.shape)
    want[..., i, j] = twin
    want[..., j, i] = twin
    if mirror:
        want[..., m - 1 - j, m - 1 - i] = twin
        want[..., m - 1 - i, m - 1 - j] = twin
    return want, value[n:]


def verify_symmetry() -> list[VerifyReport]:
    """The four H2 symmetry identities on a 500-point random grid."""
    tol = 1e-12
    rng = np.random.default_rng(_SEED)
    n = 500
    a = 10.0 ** rng.uniform(-3.0, 1.0, n)
    u1 = rng.uniform(-8.0, 8.0, n)
    u2 = rng.uniform(-8.0, 8.0, n)

    # the six images in one h2_grid call, which matches the scalar h2 bit
    # for bit; a failure names the first failed point in this order
    images = [(a, u1, u2), (a, u2, u1), (a, -u1, -u2), (-a, u1, u2), (a, -u1, u2), (a, u1, -u2)]
    pts = [np.concatenate(c) for c in zip(*images)]
    base, swap, neg, odd, mix1, mix2 = _reference(h2_grid(*pts), "h2", *pts).reshape(6, n)

    return [
        _pointwise("h2 symmetric under u1 <-> u2", np.abs(swap - base), base, tol),
        _pointwise("h2 even under (u1,u2) sign flip", np.abs(neg - base), base, tol),
        _pointwise("h2 odd in a", np.abs(odd + base), base, tol),
        _pointwise("h2 mixed sign exchange", np.abs(mix1 - mix2), base, tol),
    ]


def verify_oracle() -> list[VerifyReport]:
    """Closed forms against direct quadrature of the defining integrals."""
    reports = []

    # h0 over its full grid
    a, u = np.meshgrid([1e-3, 1e-2, 0.1, 1.0, 10.0], np.linspace(-8.0, 8.0, 65), indexing="ij")
    want = _even_reference(_h0_route, a, u)
    devs = np.abs(h0_grid(a, u).value - want)
    reports.append(_pointwise("h0 closed form vs quadrature", devs.ravel(), want.ravel(), 1e-9))

    # h2 over its full grid, integrated on one point per orbit of the swap
    # and the mirror, in one route call with the degenerate-series points
    u_grid = np.linspace(-10.0, 10.0, 41)
    a, x, y = np.meshgrid([1e-3, 1e-2, 0.1, 1.0, 10.0], u_grid, u_grid, indexing="ij")
    a0, u0 = np.meshgrid([1e-4, 1e-5], [0.0, 1.0], indexing="ij")
    want, degenerate = _twin_reference(_h2_route, a, x, y, (a0, u0, u0))
    devs = np.abs(h2_grid(a, x, y).value - want)
    reports.append(_pointwise("h2 closed form vs quadrature", devs, want, 1e-8))

    # i2 closed form
    spots = (-2.0, 0.0, 1.0, 3.0)
    a, x, y = np.meshgrid([0.1, 1.0], spots, spots, indexing="ij")
    want, _ = _twin_reference(_i2_route, a, x, y)
    devs = np.abs(i2_grid(a, x, y).value - want)
    reports.append(_pointwise("i2 closed form vs quadrature", devs.ravel(), want.ravel(), 1e-9))

    # degenerate Laurent series against quadrature, relative accuracy
    series = [h2_degenerate_series(ai, ui).value for ai, ui in zip(a0.flat, u0.flat)]
    reports.append(
        _relative(
            "h2 degenerate series vs quadrature", np.abs(series - degenerate), degenerate, 1e-3
        )
    )

    return reports


def verify_representations() -> list[VerifyReport]:
    """Alternative H2 routes against the closed form, plus the H0 Laplace route."""
    reports = []

    rng = np.random.default_rng(_SEED + 1)
    n = 50
    a = rng.uniform(0.1, 5.0, n)
    u1 = rng.uniform(-3.0, 3.0, n)
    u2 = rng.uniform(-3.0, 3.0, n)

    routes = np.stack(
        [
            h2_grid(a, u1, u2).value,
            _converged(_rectangle_route, a=a, u1=u1, u2=u2)[0],
            _converged(_rep_single_complex, a=a, u1=u1, u2=u2)[0],
        ]
    )
    devs = routes.max(axis=0) - routes.min(axis=0)
    reports.append(_pointwise("h2 three-route pairwise agreement", devs, routes[0], 1e-6))

    spots = [
        (0.5, 0.0),
        (1.0, 0.0),
        (1.0, 1.5),
        (2.0, 0.0),
        (0.2, 1.0),
        (3.0, 2.0),
        (0.7, -1.3),
        (1.5, 3.0),
        (2.5, -2.0),
        (0.3, 0.4),
    ]
    a, u = np.array(spots).T
    want = h0_grid(a, u).value
    devs = np.abs(_converged(_laplace_route, a=a, u=u)[0] - want)
    reports.append(_pointwise("h0 Laplace representation vs closed form", devs, want, 1e-9))

    return reports


def _shrink_figure(devs: list[float], decades_per_step: float) -> float:
    # deviations across successively smaller a must shrink by at least
    # sqrt(10) and at most a factor 100 per decade of a; the figure of
    # merit is the worst violation ratio (<= 1 means within band)
    worst = 0.0
    for prev, cur in zip(devs, devs[1:]):
        if cur <= 0.0:
            continue
        per_decade = (prev / cur) ** (1.0 / decades_per_step)
        worst = max(worst, math.sqrt(10.0) / per_decade, per_decade / 100.0)
    return worst


def _monotone_figure(devs: list[float]) -> float:
    # deviations along a sequence approaching a limit must not grow; the
    # figure of merit is the worst ratio of one to the one before (<= 1
    # means monotone)
    return max(b / c for c, b in zip(devs, devs[1:]))


def verify_limits() -> list[VerifyReport]:
    """Limiting constants and directions of approach."""
    reports = []
    cap0 = 1.0 + math.exp(-1.0)
    cap1 = math.exp(-1.0)

    reports.append(
        _pointwise(
            "h2 caption value at (1, 0)",
            [abs(h2(1e-6, 1.0, 0.0).value - cap0)],
            [cap0],
            5e-3,
        )
    )
    reports.append(
        _pointwise(
            "h2 caption value at (1, -1)",
            [abs(h2(1e-6, 1.0, -1.0).value - cap1)],
            [cap1],
            5e-3,
        )
    )

    figure = 0.0
    for (x, y), limit in (((1.0, 0.0), cap0), ((1.0, -1.0), cap1)):
        devs = [abs(h2(ai, x, y).value - limit) for ai in (1e-4, 1e-6, 1e-8)]
        figure = max(figure, _shrink_figure(devs, 2.0))
    reports.append(_structural("h2 caption deviation decade shrink", figure, 6, 1.0))

    devs = [abs(h0(1e-6, u) - h0_limit_a0(u)) for u in (0.0, 1.0, 2.0)]
    refs = [h0_limit_a0(u) for u in (0.0, 1.0, 2.0)]
    reports.append(_pointwise("h0 a -> 0 limit values", devs, refs, 5e-3))

    figure = 0.0
    for u in (0.0, 1.0, 2.0):
        devs = [abs(h0(ai, u) - h0_limit_a0(u)) for ai in (0.1, 0.01, 0.001)]
        figure = max(figure, _monotone_figure(devs))
    reports.append(_structural("h0 limit approach monotone", figure, 9, 1.0))

    figure = 0.0
    for x, y in ((1.0, 0.0), (2.0, -1.0)):
        limit = h2_limit_a0(x, y)
        devs = [abs(h2(ai, x, y).value - limit) for ai in (0.1, 0.01, 1e-3, 1e-4)]
        figure = max(figure, _monotone_figure(devs))
    reports.append(_structural("h2 limit approach monotone", figure, 8, 1.0))

    reports.append(
        _pointwise("i2 a -> 0 limit", [abs(i2_closed(1e-8, 1.0, 0.0) - 2.0)], [2.0], 1e-6)
    )

    # The next-order term of the large-u expansion is (3/2)(1/u1+1/u2)^2
    # relative: 1.04e-2 at (20, 30) and 2.60e-3 at (40, 60), with the true
    # deviation a bit below each.  Tolerances bound the true values with
    # margin; the ratio check pins the 1/u^2 decay itself.
    rel_devs = []
    for (x, y), tol in (((20.0, 30.0), 1e-2), ((40.0, 60.0), 3e-3)):
        ref = h2(1.0, x, y).value
        dev = abs(ref - h2_large_u_asymptotic(1.0, x, y).value)
        rel_devs.append(dev / abs(ref))
        reports.append(
            _relative(f"h2 large-u asymptotic at ({x:g}, {y:g})", [dev], [ref], tol)
        )
    figure = abs(4.0 * rel_devs[1] / rel_devs[0] - 1.0) / 0.25
    reports.append(
        _structural("h2 large-u deviation shrinks 4x per u doubling", figure, 2, 1.0)
    )

    dev = max(abs(d0(0.0, 0.5, 1.0) - 1.0), abs(d2(0.0, 0.5, 1.0) - 1.0))
    reports.append(_pointwise("damping functions exactly 1 at sigma = 0", [dev], [1.0], 0.0))

    gamma, mu = 0.5, 1.0
    sigma = gamma / 100.0
    peak = v2(mu, ProfileParams(mu=mu, gamma=gamma, sigma=sigma))
    bare = 1.0 / (math.pi * mu * gamma)
    reports.append(_relative("v2 peak approaches bare peak as sigma -> 0",
                             [abs(peak - bare)], [bare], 1e-2))

    e, mu, sigma = 1.2, 1.0, 0.5
    limit = v2_gamma0_limit(e, mu, sigma)
    devs = [
        abs(v2(e, ProfileParams(mu=mu, gamma=g, sigma=sigma)) - limit)
        for g in (1e-2, 1e-3, 1e-4)
    ]
    reports.append(
        _structural("v2 gamma -> 0 limit approach monotone", _monotone_figure(devs), 3, 1.0)
    )

    # H2 grows like a^{-1/2} on the diagonal, so a -> a/4 doubles it
    a, u = np.meshgrid([1e-4, 2.5e-5], [0.0, 1.0], indexing="ij")
    lo, hi = _converged(_h2_route, a=a, u1=u, u2=u)[0]
    figure = np.max(np.abs(hi / lo / 2.0 - 1.0))
    reports.append(_structural("h2 degenerate growth ratio a -> a/4", figure, 4, 1e-2))

    return reports


# the suites of SUITE_NAMES before "all", which chains them in this order
_SUITES = dict(zip(
    SUITE_NAMES[:-1],
    (verify_symmetry, verify_oracle, verify_representations, verify_limits),
    strict=True,
))


def run_suite(suite: str) -> list[VerifyReport]:
    """Run one named verification suite ('all' chains the four in order)."""
    if suite not in SUITE_NAMES:
        raise DomainError(f"unknown suite {suite!r}, expected one of {SUITE_NAMES}")
    if suite == "all":
        return [r for run in _SUITES.values() for r in run()]
    return _SUITES[suite]()
