"""Evaluation result records shared by the line-broadening functions.

h2 (the closed form), its small-width series and large-u asymptote
(h2_degenerate_series, h2_large_u_asymptotic) and every quadrature route
differ in accuracy, so each returns an EvalResult: the value together with
an error estimate and a tag naming the method that produced it.  The other
evaluators (h0, v0, v2, d0, d2 and i2_closed) return a bare float.

The grid evaluators (``h0_grid``, ``h2_grid``, ...) return a GridResult: one
call over whole arrays of points, with the failure a scalar evaluator would
raise at a point recorded as that point's error name instead of aborting the
grid.  Each evaluator computes on all points at once and states its failures
as an ordered list of (mask, exception) rules, one per check of the scalar
evaluator in the scalar's order; grid_result folds them into the codes.  A
point fails with the exception of the first rule whose mask holds there, as
the first check that raises decides the scalar evaluator's outcome.  When no
mask holds anywhere, which one OR of the masks shows, the fold writes no code.
"""

from __future__ import annotations

import functools
import math
import operator
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


@dataclass(frozen=True, slots=True, init=False)
class EvalResult:
    """A real function value with an absolute error estimate and method tag.

    Every scalar h2 call builds one, so __init__ is written by hand: one
    combined validity test, then each field set through its slot
    descriptor, which the frozen __setattr__ does not guard.  Eq, hash,
    repr and pickling are the dataclass's, and dataclasses.replace
    validates through __init__.
    """

    value: float
    error_estimate: float
    method: str

    def __init__(self, value: float, error_estimate: float, method: str) -> None:
        if not (
            math.isfinite(value) and 0.0 <= error_estimate < math.inf and method in METHODS
        ):
            raise _invalid(value, error_estimate, method)
        _set_value(self, value)
        _set_error_estimate(self, error_estimate)
        _set_method(self, method)


_set_value = EvalResult.value.__set__
_set_error_estimate = EvalResult.error_estimate.__set__
_set_method = EvalResult.method.__set__


def _invalid(value, error_estimate, method) -> DomainError:
    # the error of the first EvalResult check that fails, in field order
    if not math.isfinite(value):
        return DomainError(f"EvalResult value must be finite, got {value!r}")
    if not (math.isfinite(error_estimate) and error_estimate >= 0.0):
        return DomainError(
            f"EvalResult error_estimate must be finite and >= 0, got {error_estimate!r}"
        )
    return DomainError(f"unknown method tag {method!r}")


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
        # a 0-d index picks the bare str out of _GRID_NAMES; keep it an array
        return np.asarray(_GRID_NAMES[self.codes], dtype=object)


def grid_result(shape, rules, value, estimate=None) -> GridResult:
    """The GridResult of values over a grid of this shape and their failure rules.

    rules is a list of (mask, exception) pairs whose masks broadcast to
    shape; value and estimate are NaN where a point fails.
    """
    codes = np.zeros(shape, dtype=np.int8)
    failed = functools.reduce(operator.or_, [mask for mask, _ in rules])
    if failed.any():
        # the first rule that holds wins, so the rules are written last first
        for mask, exc in reversed(rules):
            np.copyto(codes, _GRID_CODES[exc], where=mask)
        value = np.where(failed, np.nan, value)
        if estimate is not None:
            estimate = np.where(failed, np.nan, estimate)
    return GridResult(np.asarray(value), None if estimate is None else np.asarray(estimate), codes)


def grid_floats(**named) -> tuple[tuple[int, ...], list[np.ndarray]]:
    """The shape the named arguments broadcast to, and each as a float64 array.

    The grid evaluators' one conversion: DomainError names an argument that
    is not real, as the scalar evaluators do, and refuses complex arrays and
    arguments that do not broadcast.
    """
    xs = []
    for name, x in named.items():
        try:
            v = np.asarray(x)
            if v.dtype.kind == "c":
                raise TypeError
            xs.append(v.astype(np.float64, copy=False))
        except (TypeError, ValueError):
            raise DomainError(f"{name} must be a real number, got {x!r}") from None
    try:
        shape = np.broadcast(*xs).shape
    except ValueError:
        shapes = ", ".join(f"{name} {v.shape}" for name, v in zip(named, xs))
        raise DomainError(f"arguments do not broadcast together: {shapes}") from None
    return shape, xs
