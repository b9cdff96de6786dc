"""Grid sweeps over one parameter of any public profile function.

A SweepSpec pins every parameter of the chosen function except one axis,
which ranges over a linear or logarithmic grid.  run_sweep evaluates the
whole grid in one call of the function's grid evaluator (``h2_grid`` and
friends), whose rows match the scalar evaluator bit for bit, and never
aborts the grid: a point that violates a precondition produces a row
carrying the error name instead of a value.  The rows come back as a
SweepRows, which keeps the evaluator's arrays as columns and builds a
SweepRow only when a row is read.  Serializers read the columns directly
and emit CSV (fixed 17-significant-digit scientific notation, so output
is byte-stable across runs) or JSON (shortest round-trip floats).
"""

from __future__ import annotations

import math
import operator
from collections.abc import Iterator, Sequence
from dataclasses import dataclass, field
from itertools import starmap
from typing import Callable, Mapping, TextIO

import numpy as np

from . import rel_voigt, voigt
from .errors import DomainError, require_int
from .profiles import ProfileParams
from .result import _GRID_NAMES, GridResult

__all__ = [
    "FUNCTIONS", "SweepSpec", "SweepRow", "SweepRows", "run_sweep", "write_csv", "json_payload",
]


def _profile(p: Mapping[str, float]) -> ProfileParams:
    return ProfileParams(mu=p["mu"], gamma=p["gamma"], sigma=p["sigma"])


# name -> (ordered parameter names, evaluator over a parameter dict,
#          grid evaluator taking the parameters as keyword arrays)
FUNCTIONS: dict[str, tuple[tuple[str, ...], Callable, Callable]] = {
    "h0": (("a", "u"), lambda p: voigt.h0(p["a"], p["u"]), voigt.h0_grid),
    "h2": (("a", "u1", "u2"), lambda p: rel_voigt.h2(p["a"], p["u1"], p["u2"]),
           rel_voigt.h2_grid),
    "v0": (("e", "mu", "gamma", "sigma"), lambda p: voigt.v0(p["e"], _profile(p)),
           voigt.v0_grid),
    "v2": (("e", "mu", "gamma", "sigma"), lambda p: rel_voigt.v2(p["e"], _profile(p)),
           rel_voigt.v2_grid),
    "d0": (("sigma", "gamma", "mu"), lambda p: rel_voigt.d0(p["sigma"], p["gamma"], p["mu"]),
           rel_voigt.d0_grid),
    "d2": (("sigma", "gamma", "mu"), lambda p: rel_voigt.d2(p["sigma"], p["gamma"], p["mu"]),
           rel_voigt.d2_grid),
    "i2": (("a", "u1", "u2"), lambda p: rel_voigt.i2_closed(p["a"], p["u1"], p["u2"]),
           rel_voigt.i2_grid),
}


@dataclass(frozen=True)
class SweepSpec:
    """One-axis grid description for a registered function.

    fixed must supply exactly the function's other parameters; the axis
    grid is linspace(start, stop, steps) or geomspace for scale='log'
    (which requires start > 0).
    """

    function: str
    fixed: dict[str, float] = field(default_factory=dict)
    axis: str = ""
    start: float = 0.0
    stop: float = 1.0
    steps: int = 2
    scale: str = "linear"

    def __post_init__(self) -> None:
        if self.function not in FUNCTIONS:
            raise DomainError(
                f"unknown function {self.function!r}, expected one of "
                f"{sorted(FUNCTIONS)}"
            )
        names = FUNCTIONS[self.function][0]
        if self.axis not in names:
            raise DomainError(
                f"axis {self.axis!r} is not a parameter of {self.function} "
                f"(parameters: {', '.join(names)})"
            )
        fixed = {str(k): float(v) for k, v in dict(self.fixed).items()}
        object.__setattr__(self, "fixed", fixed)
        if self.axis in fixed:
            raise DomainError(f"axis {self.axis!r} must not also be fixed")
        expected = set(names) - {self.axis}
        if set(fixed) != expected:
            raise DomainError(
                f"fixed parameters for {self.function} must be exactly "
                f"{sorted(expected)}, got {sorted(fixed)}"
            )
        for k, v in fixed.items():
            if not math.isfinite(v):
                raise DomainError(f"fixed parameter {k} must be finite, got {v!r}")
        for name in ("start", "stop"):
            v = float(getattr(self, name))
            if not math.isfinite(v):
                raise DomainError(f"{name} must be finite, got {v!r}")
            object.__setattr__(self, name, v)
        if not self.start < self.stop:
            raise DomainError(f"need start < stop, got [{self.start!r}, {self.stop!r}]")
        steps = require_int("steps", self.steps)
        if steps < 2:
            raise DomainError(f"steps must be >= 2, got {steps!r}")
        object.__setattr__(self, "steps", steps)
        if self.scale not in ("linear", "log"):
            raise DomainError(f"scale must be 'linear' or 'log', got {self.scale!r}")
        if self.scale == "log" and self.start <= 0.0:
            raise DomainError(f"log scale requires start > 0, got {self.start!r}")

    def grid(self) -> np.ndarray:
        if self.scale == "log":
            return np.geomspace(self.start, self.stop, self.steps)
        return np.linspace(self.start, self.stop, self.steps)


@dataclass(frozen=True, slots=True)
class SweepRow:
    """One grid point: value and error estimate, or an error marker.

    error is the empty string on success, otherwise the exception class
    name; value and error_estimate are None for error rows, and
    error_estimate is also None for functions that return a bare float.
    """

    axis_value: float
    value: float | None
    error_estimate: float | None
    error: str


class SweepRows(Sequence[SweepRow]):
    """The rows of one sweep, held as the grid evaluator's columns.

    A read-only sequence of SweepRow: len, indexing (negative indices and
    slices too) and iteration work as on a list, but a SweepRow is built
    only when a row is indexed or iterated; write_csv and json_payload read
    the columns and build none.  Rows carry Python floats.  There is no
    append, + or comparison with a list: ``list(rows)`` gives one.
    """

    __slots__ = ("_x", "_result")

    def __init__(self, axis_values: np.ndarray, result: GridResult) -> None:
        self._x = axis_values
        self._result = result

    def __len__(self) -> int:
        return len(self._x)

    def __getitem__(self, index):
        r = self._result
        if isinstance(index, slice):
            est = None if r.error_estimate is None else r.error_estimate[index]
            return SweepRows(self._x[index], GridResult(r.value[index], est, r.codes[index]))
        i = operator.index(index)
        if i < 0:
            i += len(self._x)
        if not 0 <= i < len(self._x):
            raise IndexError(f"sweep row index {index} out of range for {len(self._x)} rows")
        x = float(self._x[i])
        if r.codes[i]:
            return SweepRow(x, None, None, _GRID_NAMES[r.codes[i]])
        est = None if r.error_estimate is None else float(r.error_estimate[i])
        return SweepRow(x, float(r.value[i]), est, "")

    def __iter__(self) -> Iterator[SweepRow]:
        return starmap(SweepRow, self._fields())

    def _fields(self) -> Iterator[tuple]:
        """(axis_value, value, error_estimate, error) per row, as Python objects."""
        r = self._result
        ok = r.codes == 0
        if r.error_estimate is None:
            estimates = [None] * len(self._x)
        else:
            estimates = np.where(ok, r.error_estimate, None).tolist()
        values = np.where(ok, r.value, None).tolist()
        return zip(self._x.tolist(), values, estimates, r.error.tolist())


# CSV line templates indexed by failure code, keyed by whether the function
# gives an error estimate
_CSV_LINES = {
    has_estimate: np.array(
        [ok_line] + [f"%.16e,,,{name}\n" for name in _GRID_NAMES[1:]], dtype=object
    )
    for has_estimate, ok_line in ((True, "%.16e,%.16e,%.16e,\n"), (False, "%.16e,%.16e,,\n"))
}


def run_sweep(spec: SweepSpec) -> SweepRows:
    """Evaluate the spec's function over its grid, one row per point."""
    grid = spec.grid()
    return SweepRows(grid, FUNCTIONS[spec.function][2](**spec.fixed, **{spec.axis: grid}))


def write_csv(spec: SweepSpec, rows: SweepRows, stream: TextIO) -> None:
    """Write rows as CSV with a header naming the axis column.

    No field can hold a comma, quote or newline (parameter names, numbers
    and exception names), so lines are formatted directly, unquoted.  The
    whole table is one %-format: each row's line template, filled with the
    numbers of every row in row order.
    """
    r = rows._result
    cols = [rows._x, r.value] if r.error_estimate is None else [rows._x, r.value, r.error_estimate]
    ok = r.codes == 0
    template = "".join(_CSV_LINES[r.error_estimate is not None][r.codes].tolist())
    # an error row keeps its axis value alone
    keep = np.column_stack([np.ones_like(ok)] + [ok] * (len(cols) - 1))
    numbers = np.column_stack(cols)[keep].tolist()
    stream.write(f"{spec.axis},value,error_estimate,error\n" + template % tuple(numbers))


def json_payload(spec: SweepSpec, rows: SweepRows) -> dict:
    """JSON-ready dict mirroring the CSV content plus the spec itself."""
    return {
        "function": spec.function,
        "axis": spec.axis,
        "fixed": {k: spec.fixed[k] for k in sorted(spec.fixed)},
        "scale": spec.scale,
        "rows": [
            {spec.axis: x, "value": value, "error_estimate": est, "error": err}
            for x, value, est, err in rows._fields()
        ],
    }
