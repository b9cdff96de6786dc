"""Evaluation result records shared by the line-broadening functions.

H2 has several routes with different accuracy characteristics (closed
form, small-width series, large-u asymptotic, direct quadrature), so h2,
each of its other routes and every quadrature evaluator return an
EvalResult: the value together with an error estimate and a tag naming the
route that produced it.  The evaluators with one route each (h0, v0, v2,
d0, d2 and i2_closed) return a bare float.

The grid evaluators (``h0_grid``, ``h2_grid``, ...) return a GridResult: one
call over whole arrays of points, with the failure a scalar evaluator would
raise at a point recorded as that point's error name instead of aborting the
grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, IntegrationError, ParameterError

__all__ = ["EvalResult", "GridResult", "METHODS"]

# the four computational regimes
METHODS = frozenset(
    {"closed_form", "degenerate_series", "large_u_asymptotic", "quadrature"}
)

# the exceptions a grid point can fail with, indexed by GridResult.codes
_GRID_ERRORS = (None, DomainError, ParameterError, IntegrationError)
_GRID_CODES = {exc: code for code, exc in enumerate(_GRID_ERRORS)}
_GRID_NAMES = np.array(
    ["" if exc is None else exc.__name__ for exc in _GRID_ERRORS], dtype=object
)


@dataclass(frozen=True, slots=True)
class EvalResult:
    """A real function value with an absolute error estimate and method tag."""

    value: float
    error_estimate: float
    method: str

    def __post_init__(self) -> None:
        # one combined test on the common path; the checks below name the
        # first one that fails, in this order
        if (
            math.isfinite(self.value)
            and 0.0 <= self.error_estimate < math.inf
            and self.method in METHODS
        ):
            return
        if not math.isfinite(self.value):
            raise DomainError(f"EvalResult value must be finite, got {self.value!r}")
        if not (math.isfinite(self.error_estimate) and self.error_estimate >= 0.0):
            raise DomainError(
                f"EvalResult error_estimate must be finite and >= 0, "
                f"got {self.error_estimate!r}"
            )
        if self.method not in METHODS:
            raise DomainError(f"unknown method tag {self.method!r}")


@dataclass(frozen=True, eq=False)
class GridResult:
    """Elementwise results of one evaluator over a grid of points.

    value and error_estimate match the scalar evaluator bit for bit at every
    point that succeeds; error_estimate is None for evaluators whose scalar
    form returns a bare float.  codes holds 0 at those points and otherwise
    the index of the exception the scalar evaluator raises there; value and
    error_estimate are NaN at failed points.
    """

    value: np.ndarray
    error_estimate: np.ndarray | None
    codes: np.ndarray

    @property
    def error(self) -> np.ndarray:
        """Per-point exception class names, "" where the point succeeded."""
        return _GRID_NAMES[self.codes]


class GridFailures:
    """Per-point failure codes collected while a grid evaluator runs.

    The first failure flagged at a point wins, just as the first check that
    raises decides the outcome of the scalar evaluator, so grid evaluators
    flag their checks in the scalar evaluator's order.
    """

    def __init__(self, shape: tuple[int, ...]) -> None:
        self.codes = np.zeros(shape, dtype=np.int8)

    @property
    def ok(self) -> np.ndarray:
        return self.codes == 0

    def flag(self, mask: np.ndarray, exc: type[Exception]) -> None:
        self.codes[(self.codes == 0) & mask] = _GRID_CODES[exc]

    def result(self, value: np.ndarray, estimate: np.ndarray | None = None) -> GridResult:
        ok = self.ok
        value = np.where(ok, value, np.nan)
        if estimate is not None:
            estimate = np.where(ok, estimate, np.nan)
        return GridResult(value, estimate, self.codes)


def grid_arrays(*xs) -> list[np.ndarray]:
    """The arguments as float64 arrays broadcast to one shape."""
    return np.broadcast_arrays(*(np.asarray(x, dtype=np.float64) for x in xs))
