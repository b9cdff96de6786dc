"""Relativistic and classical Voigt profiles via the Faddeeva function.

The relativistic Breit-Wigner resonance smeared with a Gaussian does not
reduce to the classical Voigt profile: it is governed by a two-coordinate
line-broadening function H2(a, u1, u2) whose closed form is a sum of four
Faddeeva-function terms over the complex roots of a quartic, two of them
the complex conjugates of the other two.  This package evaluates that
closed form together with its classical counterpart H0(a, u), the physical
profiles V2 and V0, exact normalization integrals, limiting and asymptotic
regimes, and the peak-damping ratios D0 and D2.  Each function a sweep can
run also has a grid form (``h2_grid`` and friends) that evaluates whole
arrays of points in one call, bit for bit with the scalar form.

Every closed form ships with at least one independent evaluation route
(direct adaptive quadrature of the defining integral, a shifted-contour
form, integral representations) wired into the ``verify`` suites, so a
build can re-certify itself numerically at any time; the ``relvoigt`` CLI
exposes point evaluation, grid sweeps to CSV/JSON, and those suites.

The namespace is lazy (PEP 562): ``import relvoigt`` loads no submodule,
and so neither numpy nor scipy.  A public name is imported on first access
from the submodule ``_HOMES`` names for it, a submodule by its own name,
and either is then kept in the package globals.  So ``from relvoigt import
h2`` loads the closed forms but not the quadrature layer, the routes, the
sweeps, the verify suites or the CLI.
"""

import sys

__version__ = "0.1.0"

# public name -> the submodule that defines it, in the order of __all__
_HOMES = {
    "RelVoigtError": "errors",
    "DomainError": "errors",
    "ParameterError": "errors",
    "IntegrationError": "errors",
    "EvalResult": "result",
    "GridResult": "result",
    "faddeeva_w": "complex_fn",
    "ProfileParams": "profiles",
    "ReducedCoordsNonRel": "profiles",
    "ReducedCoordsRel": "profiles",
    "bw_nonrel": "profiles",
    "bw_rel": "profiles",
    "gaussian": "profiles",
    "reduce_nonrel": "profiles",
    "reduce_rel": "profiles",
    "QuadratureResult": "quadrature",
    "integrate_real_line": "quadrature",
    "h0": "voigt",
    "h0_grid": "voigt",
    "h0_limit_a0": "voigt",
    "h0_laplace_rep": "routes",
    "v0": "voigt",
    "v0_grid": "voigt",
    "PoleSet": "rel_voigt",
    "pole_set": "rel_voigt",
    "h2": "rel_voigt",
    "h2_grid": "rel_voigt",
    "h2_quadrature": "routes",
    "h2_limit_a0": "rel_voigt",
    "h2_degenerate_series": "rel_voigt",
    "h2_large_u_asymptotic": "rel_voigt",
    "h2_rectangle": "routes",
    "h2_integral_rep": "routes",
    "i2_closed": "rel_voigt",
    "i2_grid": "rel_voigt",
    "i2_quadrature": "routes",
    "v2": "rel_voigt",
    "v2_grid": "rel_voigt",
    "v2_gamma0_limit": "rel_voigt",
    "d0": "rel_voigt",
    "d0_grid": "rel_voigt",
    "d2": "rel_voigt",
    "d2_grid": "rel_voigt",
    "SweepSpec": "sweep",
    "SweepRow": "sweep",
    "SweepRows": "sweep",
    "run_sweep": "sweep",
    "VerifyReport": "verify",
    "run_suite": "verify",
}

_SUBMODULES = frozenset({
    "catalog", "cli", "complex_fn", "errors", "profiles", "quadrature",
    "rel_voigt", "result", "routes", "sweep", "verify", "voigt",
})

__all__ = ["__version__", *_HOMES]


def __getattr__(name: str):
    # runs only for a name not yet in the globals, which then keep it; it
    # loads through __import__, which -X importtime reports (import_module
    # is not)
    home = name if name in _SUBMODULES else _HOMES.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    __import__(f"{__name__}.{home}")
    value = sys.modules[f"{__name__}.{home}"]
    if name in _HOMES:
        value = getattr(value, name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
