"""Base resonance line shapes and the reductions to dimensionless coordinates.

Three densities: the nonrelativistic Breit-Wigner (a Cauchy density in E),
its relativistic counterpart with the (E^2 - mu^2)^2 denominator, and the
Gaussian smearing kernel.  The reduce_* maps take physical (E; mu, gamma,
sigma) to the dimensionless coordinates the line-broadening functions use:

    nonrelativistic:  a = gamma / (2 sqrt(2) sigma),   u = (E - mu) / (sqrt(2) sigma)
    relativistic:     a = gamma mu / (2 sigma^2),
                      u1 = (E - mu) / (sqrt(2) sigma), u2 = (E + mu) / (sqrt(2) sigma)

Positivity of mu/gamma/sigma is enforced strictly here, at the physical
layer; the reduced-coordinate functions downstream accept any real a, u
since the underlying identities treat them as free variables.  Profiles
evaluate for all real E; physical-domain filtering is the caller's business.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ParameterError, require_finite
from .result import GridFailures

__all__ = [
    "ProfileParams",
    "ReducedCoordsNonRel",
    "ReducedCoordsRel",
    "bw_nonrel",
    "bw_nonrel_grid",
    "bw_rel",
    "bw_rel_grid",
    "gaussian",
    "reduce_nonrel",
    "reduce_nonrel_grid",
    "reduce_rel",
    "reduce_rel_grid",
]

_SQRT2 = math.sqrt(2.0)
_SQRT2PI = math.sqrt(2.0 * math.pi)
_DBL_MIN = 2.2250738585072014e-308


@dataclass(frozen=True)
class ProfileParams:
    """Resonance mass mu, width gamma and Gaussian dispersion sigma.

    Finiteness is checked at construction; positivity is enforced by each
    operation for the fields it actually uses (sigma = 0 is meaningful only
    where an explicit sigma -> 0 limit is requested, e.g. the damping
    functions).
    """

    mu: float
    gamma: float
    sigma: float

    def __post_init__(self) -> None:
        for name in ("mu", "gamma", "sigma"):
            require_finite(name, getattr(self, name))


@dataclass(frozen=True)
class ReducedCoordsNonRel:
    a: float
    u: float

    def __post_init__(self) -> None:
        require_finite("a", self.a)
        require_finite("u", self.u)


@dataclass(frozen=True)
class ReducedCoordsRel:
    a: float
    u1: float
    u2: float

    def __post_init__(self) -> None:
        require_finite("a", self.a)
        require_finite("u1", self.u1)
        require_finite("u2", self.u2)


def _require_positive(name: str, x: float) -> float:
    if not x > 0.0:
        raise ParameterError(f"{name} must be > 0, got {x!r}")
    return x


def bw_nonrel(e: float, params: ProfileParams) -> float:
    """Nonrelativistic Breit-Wigner density (Gamma/2pi)/((E-mu)^2+(Gamma/2)^2).

    Unit-normalized Cauchy density centered at mu; maximum 2/(pi Gamma).
    """
    return _bw_nonrel(e, params.mu, params.gamma, params.sigma)


def _bw_nonrel(e, mu, gamma, sigma) -> float:
    # bw_nonrel on the fields of a ProfileParams; sigma only names the
    # parameters in the error message, which is built on failure only
    e = require_finite("e", e)
    gamma = _require_positive("gamma", gamma)
    d = e - mu
    den = d * d + 0.25 * gamma * gamma
    if den == 0.0:
        raise DomainError(
            f"Breit-Wigner denominator underflows at e={e!r}, "
            f"{ProfileParams(mu, gamma, sigma)!r}"
        )
    return (gamma / (2.0 * math.pi)) / den


def bw_rel(e: float, params: ProfileParams) -> float:
    """Relativistic Breit-Wigner density (mu Gamma/pi)/((E^2-mu^2)^2+(mu Gamma)^2).

    Even in E with maxima at E = +-mu where it reaches 1/(pi mu Gamma).
    DomainError where the density is not representable: its denominator
    underflows to 0, or E^2 and mu^2 (or mu Gamma and the denominator) both
    overflow, which leaves inf - inf (or inf / inf).
    """
    return _bw_rel(e, params.mu, params.gamma, params.sigma)


def _bw_rel(e, mu, gamma, sigma) -> float:
    # bw_rel on the fields of a ProfileParams, like _bw_nonrel
    e = require_finite("e", e)
    mu = _require_positive("mu", mu)
    gamma = _require_positive("gamma", gamma)
    q = e * e - mu * mu
    mg = mu * gamma
    den = q * q + mg * mg
    if den == 0.0:
        raise DomainError(
            f"Breit-Wigner denominator underflows at e={e!r}, "
            f"{ProfileParams(mu, gamma, sigma)!r}"
        )
    value = (mg / math.pi) / den
    if not math.isfinite(value):
        raise DomainError(
            f"Breit-Wigner density leaves double range at e={e!r}, "
            f"{ProfileParams(mu, gamma, sigma)!r}: {value!r}"
        )
    return value


def gaussian(x: float, sigma: float) -> float:
    """Centered Gaussian density; callers pass x = E - E0 for a shifted peak."""
    x = require_finite("x", x)
    sigma = require_finite("sigma", sigma)
    _require_positive("sigma", sigma)
    z = x / sigma
    return math.exp(-0.5 * z * z) / (sigma * _SQRT2PI)


def reduce_nonrel(e: float, params: ProfileParams) -> ReducedCoordsNonRel:
    """Map (E; mu, gamma, sigma) to the classical reduced coordinates (a, u)."""
    return ReducedCoordsNonRel(*_reduce_nonrel(e, params.mu, params.gamma, params.sigma))


def _reduce_nonrel(e, mu, gamma, sigma) -> tuple[float, float]:
    # reduce_nonrel as a bare (a, u); either may be inf, which the caller
    # has to reject, as h0 does
    e = require_finite("e", e)
    sigma = _require_positive("sigma", sigma)
    return gamma / (2.0 * _SQRT2 * sigma), (e - mu) / (_SQRT2 * sigma)


def reduce_rel(e: float, params: ProfileParams) -> ReducedCoordsRel:
    """Map (E; mu, gamma, sigma) to the relativistic reduced coordinates.

    mu = 0 lands on the degenerate manifold u1 = u2; that is allowed here
    (the reduced functions know what to do with it), only sigma must be
    positive.
    """
    return ReducedCoordsRel(*_reduce_rel(e, params.mu, params.gamma, params.sigma))


def _reduce_rel(e, mu, gamma, sigma) -> tuple[float, float, float]:
    # reduce_rel as a bare (a, u1, u2); any of them may be inf, which the
    # caller has to reject, as h2 does
    e = require_finite("e", e)
    sigma = _require_positive("sigma", sigma)
    den = 2.0 * sigma * sigma
    if den == 0.0:
        raise DomainError(f"sigma={sigma!r} is too small: sigma^2 underflows")
    s = _SQRT2 * sigma
    gm = gamma * mu
    a = gm / den if abs(gm) >= _DBL_MIN else float(_product_quotient(gamma, mu, den))
    return a, (e - mu) / s, (e + mu) / s


def _product_quotient(x, y, z):
    # x * y / z for a product below DBL_MIN, which loses digits or is 0:
    # the frexp significands round as x * y / z does in normal range
    (mx, ex), (my, ey), (mz, ez) = np.frexp(x), np.frexp(y), np.frexp(z)
    return np.ldexp(mx * my / mz, ex + ey - ez)


# Elementwise forms of the scalar maps above, for the grid evaluators.  Each
# takes broadcast float arrays and flags in `fails`, in the scalar order,
# every point where the scalar map raises; the arithmetic is the scalar's,
# operation for operation, so successful points agree bit for bit.


def _flag_nonfinite(fails: GridFailures, *xs: np.ndarray) -> None:
    bad = np.zeros(fails.codes.shape, dtype=bool)
    for x in xs:
        bad |= ~np.isfinite(x)
    fails.flag(bad, DomainError)


def bw_nonrel_grid(e, mu, gamma, fails: GridFailures) -> np.ndarray:
    """bw_nonrel over arrays."""
    _flag_nonfinite(fails, e)
    fails.flag(~(gamma > 0.0), ParameterError)
    with np.errstate(all="ignore"):
        d = e - mu
        den = d * d + 0.25 * gamma * gamma
        fails.flag(den == 0.0, DomainError)
        return (gamma / (2.0 * math.pi)) / den


def bw_rel_grid(e, mu, gamma, fails: GridFailures) -> np.ndarray:
    """bw_rel over arrays."""
    _flag_nonfinite(fails, e)
    fails.flag(~(mu > 0.0), ParameterError)
    fails.flag(~(gamma > 0.0), ParameterError)
    with np.errstate(all="ignore"):
        q = e * e - mu * mu
        mg = mu * gamma
        den = q * q + mg * mg
        fails.flag(den == 0.0, DomainError)
        value = (mg / math.pi) / den
    fails.flag(~np.isfinite(value), DomainError)
    return value


def reduce_nonrel_grid(e, mu, gamma, sigma, fails: GridFailures):
    """reduce_nonrel over arrays: the coordinates (a, u)."""
    _flag_nonfinite(fails, e)
    fails.flag(~(sigma > 0.0), ParameterError)
    with np.errstate(all="ignore"):
        a = gamma / (2.0 * _SQRT2 * sigma)
        u = (e - mu) / (_SQRT2 * sigma)
    _flag_nonfinite(fails, a, u)
    return a, u


def reduce_rel_grid(e, mu, gamma, sigma, fails: GridFailures):
    """reduce_rel over arrays: the coordinates (a, u1, u2)."""
    _flag_nonfinite(fails, e)
    fails.flag(~(sigma > 0.0), ParameterError)
    with np.errstate(all="ignore"):
        den = 2.0 * sigma * sigma
        fails.flag(den == 0.0, DomainError)
        s = _SQRT2 * sigma
        gm = gamma * mu
        a = gm / den
        tiny = np.abs(gm) < _DBL_MIN
        if tiny.any():
            a = np.where(tiny, _product_quotient(gamma, mu, den), a)
        u1 = (e - mu) / s
        u2 = (e + mu) / s
    _flag_nonfinite(fails, a, u1, u2)
    return a, u1, u2
