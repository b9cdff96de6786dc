"""Independent reference values for the test suite.

Everything here is deliberately written from scratch against textbook
formulas (power series, Lentz continued fraction, defining integrals)
so that agreement with the package is a genuine two-route check and not
the same library talking to itself.  The one exception is erfc_complex,
a thin wrapper of scipy.special.erfc: the tests use it only in identities
between functions (the two-erfc form of H0, erfc(z) + erfc(-z) = 2), and
check it against the real-line values here.
"""

from __future__ import annotations

import math

from scipy import special

from relvoigt import DomainError

_SQRT_PI = math.sqrt(math.pi)
_TINY = 1e-300


def erf_series(x: float) -> float:
    """erf by its Maclaurin series; converges fast for |x| <~ 2."""
    term = x
    total = x
    x2 = x * x
    n = 0
    while abs(term) > 1e-18 * abs(total) + 1e-300:
        n += 1
        term *= -x2 / n
        total += term / (2 * n + 1)
        if n > 200:
            raise RuntimeError("erf series failed to converge")
    return 2.0 * total / _SQRT_PI


def erfc_cf(x: float, max_iter: int = 300) -> float:
    """erfc for x > 0 via the Laplace continued fraction.

    erfc(x) = e^{-x^2}/sqrt(pi) * 1/(x + (1/2)/(x + 1/(x + (3/2)/(x + ...))))
    evaluated with the modified Lentz algorithm.  Accurate to full double
    precision for x >= 1.5 or so; the series covers the rest.
    """
    if x <= 0.0:
        raise ValueError("continued fraction valid for x > 0 only")
    f = _TINY
    c = f
    d = 0.0
    for k in range(max_iter):
        # partial numerator a_k and denominator b_k of the CF
        a = 1.0 if k == 0 else 0.5 * k
        b = x
        d = b + a * d
        if d == 0.0:
            d = _TINY
        c = b + a / c
        if c == 0.0:
            c = _TINY
        d = 1.0 / d
        delta = c * d
        f *= delta
        if abs(delta - 1.0) < 1e-17:
            return math.exp(-x * x) / _SQRT_PI * f
    raise RuntimeError("erfc continued fraction failed to converge")


def erfc_real(x: float) -> float:
    """erfc on the real line: series below 1.5, continued fraction above."""
    if x < 0.0:
        return 2.0 - erfc_real(-x)
    if x == 0.0:
        return 1.0
    if x < 1.5:
        return 1.0 - erf_series(x)
    return erfc_cf(x)


def erfcx_real(x: float) -> float:
    """Scaled complement e^{x^2} erfc(x) for x >= 0, overflow-free."""
    if x < 0.0:
        raise ValueError("scaled form here is for x >= 0 only")
    if x < 1.5:
        return math.exp(x * x) * (1.0 - erf_series(x))
    # repeat the CF without the e^{-x^2} prefactor
    f = _TINY
    c = f
    d = 0.0
    for k in range(300):
        a = 1.0 if k == 0 else 0.5 * k
        b = x
        d = b + a * d
        if d == 0.0:
            d = _TINY
        c = b + a / c
        if c == 0.0:
            c = _TINY
        d = 1.0 / d
        delta = c * d
        f *= delta
        if abs(delta - 1.0) < 1e-17:
            return f / _SQRT_PI
    raise RuntimeError("erfcx continued fraction failed to converge")


def erfc_complex(z: complex) -> complex:
    """Complementary error function erfc(z) for complex z.

    Satisfies erfc(z) + erfc(-z) = 2 and erfc(conj(z)) = conj(erfc(z)).
    Raises DomainError for a non-finite z and where |erfc(z)| overflows
    double range (it grows like e^{|Im z|^2} away from the real axis).
    """
    z = complex(z)
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise DomainError(f"z must be finite, got {z!r}")
    v = complex(special.erfc(z))
    if not (math.isfinite(v.real) and math.isfinite(v.imag)):
        raise DomainError(f"erfc(z) overflows double precision at z={z!r}")
    return v
