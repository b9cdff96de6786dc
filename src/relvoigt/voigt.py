"""Classical line-broadening function H0 and Voigt profile V0.

H0(a, u) = (a/pi) Int e^{-t^2} / ((u-t)^2 + a^2) dt is the Gaussian-weighted
Lorentzian underlying the classical Voigt profile

    V0(E; mu, gamma, sigma) = H0(a, u) / (sqrt(2 pi) sigma)

in the reduced coordinates of ``profiles.reduce_nonrel``.  For a > 0 the
integral collapses to Re w(u + ia) with w the Faddeeva function, which is
the stable closed form used here; the equivalent two-erfc-term form
(1/2)(e^{-(u+ia)^2} erfc(a-iu) + e^{-(u-ia)^2} erfc(a+iu)) is kept as a
documented identity and exercised in tests only, since it overflows naively
for large |u|.

H0 is odd in a.  At exactly a = 0 the defining integral has a zero
prefactor, so h0 returns 0 there; the one-sided limits +-e^{-u^2}, which do
not agree, are exposed separately as h0_limit_a0.  The Laplace-type
representation that verifies H0 by quadrature is ``routes.h0_laplace_rep``.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .complex_fn import _wofz, faddeeva_w_grid
from .errors import DomainError, ParameterError, check_side, require_finite
from .profiles import (
    ProfileParams,
    _reduce_nonrel,
    _require_positive,
    profile_rules,
)
from .result import GridResult, grid_floats, grid_result

__all__ = ["h0", "h0_grid", "h0_limit_a0", "v0", "v0_grid"]

_SQRT_2PI = math.sqrt(2.0 * math.pi)


def h0(a: float, u: float) -> float:
    """Classical line-broadening function; Re w(u + ia) for a > 0, odd in a."""
    a = require_finite("a", a)
    u = require_finite("u", u)
    if a == 0.0:
        return 0.0
    # the kernel without faddeeva_w's argument test: z is finite, and its
    # output test stays, though |w| <= 1 on the upper half-plane
    z = complex(u, abs(a))
    w = _wofz(z)
    if not cmath.isfinite(w):
        raise DomainError(f"w(z) overflows double precision at z={z!r}")
    return w.real if a > 0.0 else -w.real


def _h0_grid(a, u):
    # h0 over arrays: values, and the DomainError mask, which holds where a
    # or u is not finite or the Faddeeva value leaves double range (at
    # a = 0 the argument is real and w is finite)
    wr, _, ok = faddeeva_w_grid(u, np.abs(a))
    return np.where(a == 0.0, 0.0, np.where(a < 0.0, -wr, wr)), ~ok


def h0_grid(a, u) -> GridResult:
    """h0 over broadcast arrays of points, bit for bit; no error estimate."""
    shape, (a, u) = grid_floats(a=a, u=u)
    value, bad = _h0_grid(a, u)
    return grid_result(shape, [(bad, DomainError)], value)


def h0_limit_a0(u: float, side: int) -> float:
    """One-sided limit of H0 as a -> 0 from the given side: side * e^{-u^2}."""
    u = require_finite("u", u)
    side = check_side(side)
    return side * math.exp(-u * u)


def v0(e: float, params: ProfileParams) -> float:
    """Classical Voigt profile: Gaussian-smeared nonrelativistic Breit-Wigner."""
    gamma, sigma = params.gamma, params.sigma
    if not gamma > 0.0:
        raise ParameterError(f"gamma must be > 0, got {gamma!r}")
    require_finite("e", e)
    _require_positive("sigma", sigma)
    return _v0(e, params.mu, gamma, sigma)


def _v0(e, mu, gamma, sigma) -> float:
    # v0 on the fields of a ProfileParams at gamma, sigma > 0 and an e that
    # float() takes to a finite value, as the callers check; the error
    # message shows e as given.  h0 rejects a non-finite a or u with the
    # message reduce_nonrel would give
    a, u = _reduce_nonrel(float(e), mu, gamma, sigma)
    value = h0(a, u) / (_SQRT_2PI * sigma)
    if not math.isfinite(value):
        raise DomainError(
            f"v0 leaves double range at e={e!r}, {ProfileParams(mu, gamma, sigma)!r}: {value!r}"
        )
    return value


def _v0_grid(e, mu, gamma, sigma):
    # v0 over arrays at finite e and mu and gamma, sigma > 0: values and the
    # DomainError mask
    h, bad = _h0_grid(*_reduce_nonrel(e, mu, gamma, sigma))
    value = h / (_SQRT_2PI * sigma)
    return value, bad | ~np.isfinite(value)


def v0_grid(e, mu, gamma, sigma) -> GridResult:
    """v0 over broadcast arrays of (e, mu, gamma, sigma), bit for bit."""
    shape, (e, mu, gamma, sigma) = grid_floats(e=e, mu=mu, gamma=gamma, sigma=sigma)
    with np.errstate(all="ignore"):
        value, bad = _v0_grid(e, mu, gamma, sigma)
    return grid_result(shape, profile_rules(e, mu, gamma, sigma, ~(gamma > 0.0), bad), value)
