"""The Faddeeva function w(z), on one point and over arrays.

w(z) = e^{-z^2} erfc(-iz).  For Im z > 0 it also equals the Hilbert-type
integral (1/(i pi)) Int e^{-t^2}/(t-z) dt, which is the shape every
line-broadening integral in this package reduces to after partial fractions.
Python's built-in ``complex`` is the substrate type throughout.

The numerical kernel is scipy.special's wofz (the MIT Faddeeva package),
accurate to roughly 1e-13 relative over the double range, well inside the
1e-12 budget the closed forms downstream rely on.  The wrappers here add
strict domain checks and a clear overflow contract: a DomainError is raised
exactly where the mathematical value exceeds double range (deep in the
lower half-plane), never before.

All functions are pure; safe to call from any number of threads.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import special as _special

from .errors import DomainError

__all__ = ["faddeeva_w", "faddeeva_w_grid"]


def _as_finite_complex(name: str, z: complex) -> complex:
    z = complex(z)
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise DomainError(f"{name} must be finite, got {z!r}")
    return z


def faddeeva_w(z: complex) -> complex:
    """Faddeeva function w(z) = e^{-z^2} erfc(-iz).

    Bounded on the closed upper half-plane (|w| <= 1 there, w(0) = 1); in
    the lower half-plane it grows like 2 e^{-z^2} and a DomainError is
    raised once that exceeds double range, since the value is then not
    representable.
    """
    # scalar wofz raises no floating-point warning, even where it overflows,
    # so this hot path needs no np.errstate block
    z = _as_finite_complex("z", z)
    v = complex(_special.wofz(z))
    if not (math.isfinite(v.real) and math.isfinite(v.imag)):
        raise DomainError(f"w(z) overflows double precision at z={z!r}")
    return v


def faddeeva_w_grid(
    x: np.ndarray, y: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """w(x + iy) over arrays: real part, imaginary part and a finite mask.

    The elementwise form of faddeeva_w, bit for bit: the mask is False
    exactly where faddeeva_w raises DomainError, for a non-finite argument
    or a value beyond double range, and the parts there are meaningless.
    """
    z = np.empty(np.shape(x), dtype=np.complex128)
    z.real = x
    z.imag = y
    with np.errstate(over="ignore", invalid="ignore"):
        w = _special.wofz(z)
    wr, wi = w.real, w.imag
    ok = np.isfinite(x) & np.isfinite(y) & np.isfinite(wr) & np.isfinite(wi)
    return wr, wi, ok

