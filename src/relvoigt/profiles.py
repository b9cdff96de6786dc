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
    "reduce_rel",
    "reduce_rel_grid",
]

_SQRT2 = math.sqrt(2.0)
_SQRT2PI = math.sqrt(2.0 * math.pi)
_DBL_MIN = 2.2250738585072014e-308
_DBL_MAX = 1.7976931348623157e308


@dataclass(frozen=True)
class ProfileParams:
    """Resonance mass mu, width gamma and Gaussian dispersion sigma.

    Finiteness is checked at construction, and each field is stored as a
    Python float, a numpy scalar argument included; positivity is enforced
    by each operation for the fields it actually uses (sigma = 0 is
    meaningful only where an explicit sigma -> 0 limit is requested, e.g.
    the damping functions).
    """

    mu: float
    gamma: float
    sigma: float

    def __post_init__(self) -> None:
        _store_finite(self, ("mu", "gamma", "sigma"))


@dataclass(frozen=True)
class ReducedCoordsNonRel:
    a: float
    u: float

    def __post_init__(self) -> None:
        _store_finite(self, ("a", "u"))


@dataclass(frozen=True)
class ReducedCoordsRel:
    a: float
    u1: float
    u2: float

    def __post_init__(self) -> None:
        _store_finite(self, ("a", "u1", "u2"))


def _store_finite(record, names: tuple[str, ...]) -> None:
    # each named field checked finite and stored as a Python float, so a
    # numpy scalar argument computes and prints as a float downstream
    for name in names:
        object.__setattr__(record, name, require_finite(name, getattr(record, name)))


def _require_positive(name: str, x: float) -> float:
    if not x > 0.0:
        raise ParameterError(f"{name} must be > 0, got {x!r}")
    return x


def bw_nonrel(e: float, params: ProfileParams) -> float:
    """Nonrelativistic Breit-Wigner density (Gamma/2pi)/((E-mu)^2+(Gamma/2)^2).

    Unit-normalized Cauchy density centered at mu; maximum 2/(pi Gamma).
    Where the numerator is below DBL_MIN, or the denominator is below it or
    overflows, the density is formed at a power-of-2 scale, so it is
    returned wherever it is a double, and DomainError names a point where
    it overflows (Gamma below ~4e-309).
    """
    e = require_finite("e", e)
    _require_positive("gamma", params.gamma)
    return _bw_nonrel(e, params.mu, params.gamma, params.sigma)


def _bw_nonrel(e, mu, gamma, sigma) -> float:
    # bw_nonrel on the fields of a ProfileParams at finite e and gamma > 0,
    # which the callers check; sigma only names the parameters in the error
    # message, which is built on failure only
    d = e - mu
    num = gamma / (2.0 * math.pi)
    den = d * d + 0.25 * gamma * gamma
    if num >= _DBL_MIN and _DBL_MIN <= den <= _DBL_MAX:
        return num / den
    fw, xw = math.frexp(gamma)
    value = float(_small_cauchy(*math.frexp(d), fw, xw - 1))
    if not math.isfinite(value):
        raise _out_of_range(value, e, mu, gamma, sigma)
    return value


def bw_rel(e: float, params: ProfileParams) -> float:
    """Relativistic Breit-Wigner density (mu Gamma/pi)/((E^2-mu^2)^2+(mu Gamma)^2).

    Even in E with maxima at E = +-mu where it reaches 1/(pi mu Gamma).
    E^2 - mu^2 is formed as (E - mu)(E + mu), which keeps its digits near
    E = +-mu.  A numerator or denominator out of normal range is handled as
    in bw_nonrel, so a square or mu Gamma that overflows leaves the density
    exact; DomainError where the density itself overflows.
    """
    e = require_finite("e", e)
    _require_positive("mu", params.mu)
    _require_positive("gamma", params.gamma)
    return _bw_rel(e, params.mu, params.gamma, params.sigma)


def _bw_rel(e, mu, gamma, sigma) -> float:
    # bw_rel at finite e and mu, gamma > 0, like _bw_nonrel; q = E^2 - mu^2
    # as (e - mu)(e + mu), which keeps the digits that e * e - mu * mu
    # cancels near E = +-mu
    q = (e - mu) * (e + mu)
    mg = mu * gamma
    num = mg / math.pi
    den = q * q + mg * mg
    if num >= _DBL_MIN and _DBL_MIN <= den <= _DBL_MAX:
        value = num / den
    else:
        # q's factors as significands and exponents, which hold the value
        # where q or its square leaves the normal range
        (f1, x1), (f2, x2) = math.frexp(e - mu), math.frexp(e + mu)
        (fm, xm), (fg, xg) = math.frexp(mu), math.frexp(gamma)
        value = float(_small_cauchy(f1 * f2, x1 + x2, fm * fg, xm + xg))
    if not math.isfinite(value):
        raise _out_of_range(value, e, mu, gamma, sigma)
    return value


def _small_cauchy(fq, xq, fw, xw, div=math.pi):
    # (w/div) / (q^2 + w^2) for q = fq 2^xq and w = fw 2^xw, 1/4 <= |fw| < 1,
    # given as significands and exponents where w/div or that denominator is
    # outside the normal range.  It is formed at the scale 2^c of the larger
    # of |q| and w, where neither square under- or overflows, then scaled by
    # 2^(xw - 2c), which rounds once to a subnormal, underflows to 0 or
    # overflows to inf.  Elementwise, so the scalar and grid densities agree
    # bit for bit.
    c = np.where(fq == 0.0, xw, np.maximum(xw, xq))
    big_q, big_w = np.ldexp(fq, xq - c), np.ldexp(fw, xw - c)
    with np.errstate(over="ignore"):
        return np.ldexp((fw / div) / (big_q * big_q + big_w * big_w), xw - 2 * c)


def _out_of_range(value, e, mu, gamma, sigma) -> DomainError:
    return DomainError(
        f"Breit-Wigner density leaves double range at e={e!r}, "
        f"{ProfileParams(mu, gamma, sigma)!r}: {value!r}"
    )


def gaussian(x: float, sigma: float) -> float:
    """Centered Gaussian density; callers pass x = E - E0 for a shifted peak."""
    x = require_finite("x", x)
    sigma = require_finite("sigma", sigma)
    _require_positive("sigma", sigma)
    z = x / sigma
    value = math.exp(-0.5 * z * z) / (sigma * _SQRT2PI)
    if not math.isfinite(value):
        raise DomainError(f"gaussian leaves double range at (x, sigma)=({x!r}, {sigma!r})")
    return value


def reduce_nonrel(e: float, params: ProfileParams) -> ReducedCoordsNonRel:
    """Map (E; mu, gamma, sigma) to the classical reduced coordinates (a, u)."""
    e = require_finite("e", e)
    _require_positive("sigma", params.sigma)
    return ReducedCoordsNonRel(*_reduce_nonrel(e, params.mu, params.gamma, params.sigma))


def _reduce_nonrel(e, mu, gamma, sigma) -> tuple[float, float]:
    # reduce_nonrel as a bare (a, u) at finite e and sigma > 0, which the
    # callers check; either may be inf, which the caller has to reject, as
    # h0 does.  Its operations are elementwise, so v0_grid runs it on arrays
    return gamma / (2.0 * _SQRT2 * sigma), (e - mu) / (_SQRT2 * sigma)


def reduce_rel(e: float, params: ProfileParams) -> ReducedCoordsRel:
    """Map (E; mu, gamma, sigma) to the relativistic reduced coordinates.

    mu = 0 lands on the degenerate manifold u1 = u2; that is allowed here
    (the reduced functions know what to do with it), only sigma must be
    positive.
    """
    e = require_finite("e", e)
    _require_positive("sigma", params.sigma)
    return ReducedCoordsRel(*_reduce_rel(e, params.mu, params.gamma, params.sigma))


def _reduce_rel(e, mu, gamma, sigma) -> tuple[float, float, float]:
    # reduce_rel as a bare (a, u1, u2) at finite e and sigma > 0, like
    # _reduce_nonrel; any of them may be inf, which the caller has to
    # reject, as h2 does
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


def profile_rules(e, mu, gamma, sigma, invalid, bad) -> list:
    """The failure rules of v0 or v2 over arrays, in the scalar evaluator's order.

    invalid marks the points where the profile rejects mu or gamma, and bad
    is the DomainError mask of its arithmetic (reduction, line-broadening
    function and value) at the points that pass every check before it.
    """
    return [
        (~(np.isfinite(mu) & np.isfinite(gamma) & np.isfinite(sigma)), DomainError),
        (invalid, ParameterError),
        (~np.isfinite(e), DomainError),
        (~(sigma > 0.0), ParameterError),
        (bad, DomainError),
    ]


# Elementwise forms of the scalar maps above, for the grid evaluators.  Each
# is the arithmetic of its scalar map, operation for operation, so points
# agree bit for bit; it assumes the argument checks of the scalar map, which
# its caller states as failure rules, and it runs under the caller's
# np.errstate.


def _out_of_normal(num, den):
    # the grid densities that take _small_cauchy: the scalar forms' test
    # num >= DBL_MIN and DBL_MIN <= den <= DBL_MAX fails, den NaN included
    return ~((num >= _DBL_MIN) & (den >= _DBL_MIN) & (den <= _DBL_MAX))


def bw_nonrel_grid(e, mu, gamma):
    """bw_nonrel over arrays at finite e and gamma > 0: densities, DomainError mask."""
    d = e - mu
    num = gamma / (2.0 * math.pi)
    den = d * d + 0.25 * gamma * gamma
    value = num / den
    small = _out_of_normal(num, den)
    if small.any():
        fw, xw = np.frexp(gamma)
        value = np.where(small, _small_cauchy(*np.frexp(d), fw, xw - 1), value)
    return value, ~np.isfinite(value)


def bw_rel_grid(e, mu, gamma):
    """bw_rel over arrays at finite e and mu, gamma > 0: densities, DomainError mask."""
    q = (e - mu) * (e + mu)
    mg = mu * gamma
    num = mg / math.pi
    den = q * q + mg * mg
    value = num / den
    small = _out_of_normal(num, den)
    if small.any():
        (f1, x1), (f2, x2) = np.frexp(e - mu), np.frexp(e + mu)
        (fm, xm), (fg, xg) = np.frexp(mu), np.frexp(gamma)
        value = np.where(small, _small_cauchy(f1 * f2, x1 + x2, fm * fg, xm + xg), value)
    return value, ~np.isfinite(value)


def reduce_rel_grid(e, mu, gamma, sigma):
    """reduce_rel over arrays at finite e and sigma > 0: the coordinates (a, u1, u2).

    Where sigma^2 underflows, which reduce_rel rejects, a is inf or NaN.
    """
    den = 2.0 * sigma * sigma
    s = _SQRT2 * sigma
    gm = gamma * mu
    a = gm / den
    tiny = np.abs(gm) < _DBL_MIN
    if tiny.any():
        a = np.where(tiny, _product_quotient(gamma, mu, den), a)
    return a, (e - mu) / s, (e + mu) / s
