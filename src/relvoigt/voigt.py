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
not agree, are exposed separately as h0_limit_a0.
"""

from __future__ import annotations

import math

import numpy as np

from .complex_fn import faddeeva_w, faddeeva_w_grid
from .errors import (
    DomainError,
    IntegrationError,
    ParameterError,
    check_side,
    require_finite,
)
from .profiles import ProfileParams, _reduce_nonrel, reduce_nonrel_grid
from .quadrature import QuadratureConfig, integrate_semi_infinite
from .result import EvalResult, GridFailures, GridResult, grid_arrays

__all__ = ["h0", "h0_grid", "h0_limit_a0", "h0_laplace_rep", "v0", "v0_grid"]

_SQRT_PI = math.sqrt(math.pi)
_SQRT_2PI = math.sqrt(2.0 * math.pi)


def h0(a: float, u: float) -> float:
    """Classical line-broadening function; Re w(u + ia) for a > 0, odd in a."""
    a = require_finite("a", a)
    u = require_finite("u", u)
    if a == 0.0:
        return 0.0
    if a < 0.0:
        return -h0(-a, u)
    return faddeeva_w(complex(u, a)).real


def _h0_values(a: np.ndarray, u: np.ndarray, fails: GridFailures) -> np.ndarray:
    fails.flag(~(np.isfinite(a) & np.isfinite(u)), DomainError)
    wr, _, ok = faddeeva_w_grid(u, np.abs(a))
    fails.flag(~ok & (a != 0.0), DomainError)
    return np.where(a == 0.0, 0.0, np.where(a < 0.0, -wr, wr))


def h0_grid(a, u) -> GridResult:
    """h0 over broadcast arrays of points, bit for bit; no error estimate."""
    a, u = grid_arrays(a, u)
    fails = GridFailures(a.shape)
    return fails.result(_h0_values(a, u, fails))


def h0_limit_a0(u: float, side: int) -> float:
    """One-sided limit of H0 as a -> 0 from the given side: side * e^{-u^2}."""
    u = require_finite("u", u)
    side = check_side(side)
    return side * math.exp(-u * u)


def h0_laplace_rep(
    a: float, u: float, config: QuadratureConfig | None = None
) -> EvalResult:
    """H0 via its Laplace-type representation, a diagnostic cross-route.

    H0(a, u) = Re (1/sqrt(pi)) Int_0^inf e^{-a x + i u x - x^2/4} dx,
    valid for a > 0; evaluated by semi-infinite quadrature.
    """
    a = require_finite("a", a)
    u = require_finite("u", u)
    if a <= 0.0:
        raise DomainError(f"representation requires a > 0, got a={a!r}")

    def f(x: np.ndarray) -> np.ndarray:
        return np.exp((-a + 1j * u) * x - 0.25 * x * x) / _SQRT_PI

    r = integrate_semi_infinite(f, config)
    if not r.converged:
        raise IntegrationError(
            f"semi-infinite quadrature did not converge at (a, u)=({a!r}, {u!r})"
        )
    return EvalResult(float(r.value.real), r.error_estimate, "quadrature")


def v0(e: float, params: ProfileParams) -> float:
    """Classical Voigt profile: Gaussian-smeared nonrelativistic Breit-Wigner."""
    return _v0(e, params.mu, params.gamma, params.sigma)


def _v0(e, mu, gamma, sigma) -> float:
    # v0 on the fields of a ProfileParams; h0 rejects a non-finite a or u
    # with the message reduce_nonrel would give
    if not gamma > 0.0:
        raise ParameterError(f"gamma must be > 0, got {gamma!r}")
    a, u = _reduce_nonrel(e, mu, gamma, sigma)
    value = h0(a, u) / (_SQRT_2PI * sigma)
    if not math.isfinite(value):
        raise DomainError(
            f"v0 leaves double range at e={e!r}, {ProfileParams(mu, gamma, sigma)!r}: {value!r}"
        )
    return value


def v0_grid(e, mu, gamma, sigma) -> GridResult:
    """v0 over broadcast arrays of (e, mu, gamma, sigma), bit for bit."""
    e, mu, gamma, sigma = grid_arrays(e, mu, gamma, sigma)
    fails = GridFailures(e.shape)
    fails.flag(~(np.isfinite(mu) & np.isfinite(gamma) & np.isfinite(sigma)), DomainError)
    fails.flag(~(gamma > 0.0), ParameterError)
    a, u = reduce_nonrel_grid(e, mu, gamma, sigma, fails)
    with np.errstate(all="ignore"):
        value = _h0_values(a, u, fails) / (_SQRT_2PI * sigma)
    fails.flag(~np.isfinite(value), DomainError)
    return fails.result(value)
