"""The Faddeeva function w(z), on one point and over arrays.

w(z) = e^{-z^2} erfc(-iz).  For Im z > 0 it also equals the Hilbert-type
integral (1/(i pi)) Int e^{-t^2}/(t-z) dt, which is the shape every
line-broadening integral in this package reduces to after partial fractions.
Python's built-in ``complex`` is the substrate type throughout.

The numerical kernel is scipy.special's wofz (the MIT Faddeeva package),
accurate to roughly 1e-13 relative over the double range, well inside the
1e-12 budget the closed forms downstream rely on.  The one-point form calls
it through scipy.special.cython_special, which runs the same C++ routine as
the ufunc, bit for bit, but takes and returns a Python complex: that skips
the ufunc dispatch and the numpy-scalar round trip, about two thirds of
what a one-point ufunc call costs.  The array form keeps the ufunc.

How the kernels are loaded: scipy/special/__init__.py imports an
array-API layer that costs about half of a CLI process's start-up, and
this module needs none of it.  So when scipy.special is not yet imported,
a bare module named "scipy.special", whose __path__ is the real package
directory, stands in for the package in sys.modules.  Under it the
extension modules scipy.special._ufuncs and scipy.special.cython_special
are imported, and the stand-in is removed before this module finishes
importing.  A later ``import scipy.special`` runs the real package, which
reuses those extension modules: scipy.special.wofz is the ufunc held here.
When scipy.special is already imported, or the bare load raises any
exception, the plain import is used.

Caveats: a first ``import scipy.special`` in another thread while this
module is being imported is unsupported, since it may get the stand-in.
And the private extension modules loaded under the stand-in other than
_ufuncs (_ufuncs_cxx, _gufuncs and the like) do not become attributes of
the real package; they stay importable by name.

The wrappers add strict domain checks and a clear overflow contract: a
DomainError is raised exactly where the mathematical value exceeds double
range (deep in the lower half-plane), never before.  faddeeva_w is the
public, checked entry point.  Two per-point closed forms call the scalar
kernel _wofz directly instead: voigt.h0 at u + i|a| and rel_voigt's H2
closed form at t1+ and -t1-.  That is safe because each has already
checked its argument finite and it lies in the closed upper half-plane,
where |w| <= 1; each still tests the kernel's output and raises
faddeeva_w's DomainError message, so the contract holds, and each call
saves the wrapper's Python frame, complex() conversion and argument test.

All functions are pure; safe to call from any number of threads.
"""

from __future__ import annotations

import cmath
import importlib
import os
import sys
import types

import numpy as np

from .errors import DomainError

__all__ = ["faddeeva_w", "faddeeva_w_grid"]


def _load_kernels():
    """The wofz ufunc and cython_special's scalar wofz (see the module doc)."""
    if "scipy.special" not in sys.modules:
        try:
            return _load_kernels_bare()
        except Exception:
            # the bare load leans on scipy's private layout; whatever breaks
            # it, the plain import below is still correct
            pass
    from scipy import special
    from scipy.special.cython_special import wofz

    return special.wofz, wofz


def _load_kernels_bare():
    import scipy

    stub = types.ModuleType("scipy.special")
    stub.__path__ = [os.path.join(scipy.__path__[0], "special")]
    # cython_special imports the scipy.special package itself, so loading
    # the extension files one by one without a package does not work
    sys.modules["scipy.special"] = stub
    try:
        ufuncs = importlib.import_module("scipy.special._ufuncs")
        cython_special = importlib.import_module("scipy.special.cython_special")
    finally:
        if sys.modules.get("scipy.special") is stub:
            del sys.modules["scipy.special"]
    # the real package never imports cython_special, so a later
    # ``import scipy.special.cython_special`` would find it in sys.modules
    # and not bind it as the package's attribute; dropped from sys.modules,
    # it is re-imported then, and Cython hands back the same module object
    del sys.modules["scipy.special.cython_special"]
    return ufuncs.wofz, cython_special.wofz


_wofz_ufunc, _wofz = _load_kernels()


def faddeeva_w(z: complex) -> complex:
    """Faddeeva function w(z) = e^{-z^2} erfc(-iz).

    Bounded on the closed upper half-plane (|w| <= 1 there, w(0) = 1); in
    the lower half-plane it grows like 2 e^{-z^2} and a DomainError is
    raised once that exceeds double range, since the value is then not
    representable.
    """
    # scalar wofz raises no floating-point warning, even where it overflows,
    # so this hot path needs no np.errstate block
    z = complex(z)
    if not cmath.isfinite(z):
        raise DomainError(f"z must be finite, got {z!r}")
    v = _wofz(z)
    if not cmath.isfinite(v):
        raise DomainError(f"w(z) overflows double precision at z={z!r}")
    return v


def faddeeva_w_grid(
    x: np.ndarray, y: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """w(x + iy) over arrays: real part, imaginary part and a finite mask.

    The elementwise form of faddeeva_w over x and y broadcast together, bit
    for bit: the mask is False exactly where faddeeva_w raises DomainError,
    for a non-finite argument or a value beyond double range, and the parts
    there are meaningless.
    """
    z = np.empty(np.broadcast(x, y).shape, dtype=np.complex128)
    z.real = x
    z.imag = y
    with np.errstate(over="ignore", invalid="ignore"):
        w = _wofz_ufunc(z)
    return w.real, w.imag, np.isfinite(z) & np.isfinite(w)

