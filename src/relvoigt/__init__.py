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
"""

from .complex_fn import faddeeva_w
from .errors import (
    DomainError,
    IntegrationError,
    ParameterError,
    RelVoigtError,
)
from .profiles import (
    ProfileParams,
    ReducedCoordsNonRel,
    ReducedCoordsRel,
    bw_nonrel,
    bw_rel,
    gaussian,
    reduce_nonrel,
    reduce_rel,
)
from .quadrature import (
    QuadratureConfig,
    QuadratureResult,
    integrate_interval,
    integrate_real_line,
    integrate_real_line_compactified,
    integrate_semi_infinite,
)
from .rel_voigt import (
    PoleSet,
    d0,
    d0_grid,
    d2,
    d2_grid,
    h2,
    h2_degenerate_series,
    h2_grid,
    h2_integral_rep,
    h2_large_u_asymptotic,
    h2_limit_a0,
    h2_quadrature,
    h2_quadrature_grid,
    h2_rectangle,
    i2_closed,
    i2_grid,
    i2_quadrature,
    i2_quadrature_grid,
    pole_set,
    v2,
    v2_gamma0_limit,
    v2_grid,
)
from .result import EvalResult, GridResult
from .sweep import SweepSpec, SweepRow, run_sweep
from .verify import VerifyReport, run_suite
from .voigt import h0, h0_grid, h0_laplace_rep, h0_limit_a0, v0, v0_grid

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "RelVoigtError",
    "DomainError",
    "ParameterError",
    "IntegrationError",
    "EvalResult",
    "GridResult",
    "faddeeva_w",
    "ProfileParams",
    "ReducedCoordsNonRel",
    "ReducedCoordsRel",
    "bw_nonrel",
    "bw_rel",
    "gaussian",
    "reduce_nonrel",
    "reduce_rel",
    "QuadratureConfig",
    "QuadratureResult",
    "integrate_interval",
    "integrate_real_line",
    "integrate_real_line_compactified",
    "integrate_semi_infinite",
    "h0",
    "h0_grid",
    "h0_limit_a0",
    "h0_laplace_rep",
    "v0",
    "v0_grid",
    "PoleSet",
    "pole_set",
    "h2",
    "h2_grid",
    "h2_quadrature",
    "h2_quadrature_grid",
    "h2_limit_a0",
    "h2_degenerate_series",
    "h2_large_u_asymptotic",
    "h2_rectangle",
    "h2_integral_rep",
    "i2_closed",
    "i2_grid",
    "i2_quadrature",
    "i2_quadrature_grid",
    "v2",
    "v2_grid",
    "v2_gamma0_limit",
    "d0",
    "d0_grid",
    "d2",
    "d2_grid",
    "SweepSpec",
    "SweepRow",
    "run_sweep",
    "VerifyReport",
    "run_suite",
]
