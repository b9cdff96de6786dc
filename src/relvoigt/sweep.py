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

CSV numbers read exactly as ``"%.16e" % x`` prints them, byte for byte,
but come from one vectorised pass rather than a string per number.  Each
finite normal nonzero x is scaled by an error-free double-double product
with 2**e * 10**k, which fixes its 17 digits to within 1e-13 of a unit in
the last one.  ``"%.16e"`` itself runs, number by number, on what that
bound leaves open: numbers within 1e-6 of a rounding tie (every exact
decimal tie among them), zeros, subnormals and non-finite numbers.  The
text is built as machine words, straight into each CSV line: a number
and its comma are four uint64 words (sign, lead digit and "."; 8 digits;
8 digits; "e", exponent and ","), each word one table lookup or two
4-digit ones, and the NUL bytes that pad each word are dropped at the end.
"""

from __future__ import annotations

import functools
import math
import operator
import sys
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass, field
from itertools import starmap
from typing import Callable, Mapping, TextIO

import numpy as np

from . import rel_voigt, voigt
from .catalog import PARAMETERS
from .errors import DomainError, require_finite, require_int
from .profiles import ProfileParams
from .result import _GRID_NAMES, GridResult

__all__ = [
    "FUNCTIONS", "SweepSpec", "SweepRow", "SweepRows", "run_sweep", "write_csv", "json_payload",
]


def _profile(p: Mapping[str, float]) -> ProfileParams:
    return ProfileParams(mu=p["mu"], gamma=p["gamma"], sigma=p["sigma"])


# name -> (evaluator over a parameter dict, grid evaluator taking the
#          parameters as keyword arrays)
_EVALUATORS = {
    "h0": (lambda p: voigt.h0(p["a"], p["u"]), voigt.h0_grid),
    "h2": (lambda p: rel_voigt.h2(p["a"], p["u1"], p["u2"]), rel_voigt.h2_grid),
    "v0": (lambda p: voigt.v0(p["e"], _profile(p)), voigt.v0_grid),
    "v2": (lambda p: rel_voigt.v2(p["e"], _profile(p)), rel_voigt.v2_grid),
    "d0": (lambda p: rel_voigt.d0(p["sigma"], p["gamma"], p["mu"]), rel_voigt.d0_grid),
    "d2": (lambda p: rel_voigt.d2(p["sigma"], p["gamma"], p["mu"]), rel_voigt.d2_grid),
    "i2": (lambda p: rel_voigt.i2_closed(p["a"], p["u1"], p["u2"]), rel_voigt.i2_grid),
}

# name -> (ordered parameter names, evaluator, grid evaluator)
FUNCTIONS: dict[str, tuple[tuple[str, ...], Callable, Callable]] = {
    name: (names, *_EVALUATORS[name]) for name, names in PARAMETERS.items()
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
        if self.function not in tuple(FUNCTIONS):
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
        try:
            fixed = {str(k): v for k, v in dict(self.fixed).items()}
        except (TypeError, ValueError):
            msg = f"fixed must map parameter names to values, got {self.fixed!r}"
            raise DomainError(msg) from None
        if self.axis in fixed:
            raise DomainError(f"axis {self.axis!r} must not also be fixed")
        expected = set(names) - {self.axis}
        if set(fixed) != expected:
            raise DomainError(
                f"fixed parameters for {self.function} must be exactly "
                f"{sorted(expected)}, got {sorted(fixed)}"
            )
        fixed = {k: require_finite(f"fixed parameter {k}", v) for k, v in fixed.items()}
        object.__setattr__(self, "fixed", fixed)
        for name in ("start", "stop"):
            object.__setattr__(self, name, require_finite(name, getattr(self, name)))
        if not self.start < self.stop:
            raise DomainError(f"need start < stop, got [{self.start!r}, {self.stop!r}]")
        object.__setattr__(self, "steps", require_int("steps", self.steps, 2))
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
        return SweepRow(*next(self[i : i + 1]._fields()))

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


# ---------------------------------------------------------------- "%.16e"
#
# A finite normal nonzero double v = m * 2**e (frexp, 0.5 <= m < 1) prints
# as the 17-digit integer D = round(|v| * 10**(16 - E)) and the exponent E.
# With E0 = floor((e - 1) * log10(2)), 10**E0 <= 2**(e - 1) <= |v|, so
# P = m * (2**e * 10**(16 - E0)) lies in [1e16, 2e17).  The scale is a
# double-double hi + lo, and m * hi is split error-free into p + err
# (Dekker's TwoProduct on Veltkamp halves, no FMA).  p >= 1e16 > 2**53 is an
# integer, so int64(p) is exact, and err + m * lo carries the fraction.
# The computed P is off by less than 1e-13, so rounding at the fraction
# gives D exactly unless the fraction is within _TIE of 1/2; those numbers
# (every exact decimal tie among them) take the exact fallback "%.16e" % v,
# as do zeros, subnormals and non-finite numbers.  Where P >= 1e17 the last
# digit moves into the fraction (the scale for E0 + 1), and a D rounded up
# to 1e17 carries into the next decade.

_E_MIN, _E_MAX = -1021, 1024  # frexp exponents of the normal doubles
_SPLIT = 134217729.0  # 2**27 + 1, Veltkamp's splitting factor for binary64
_TIE = 1e-6
# an exact decimal tie at 17 digits: put in place of a number the fast path
# cannot take, it sends that number to the fallback
_TIED = 123456789012345.625
_BLOCK = 1024  # CSV rows formatted together: their temporaries stay in cache


def _scale(e: int) -> tuple[float, float, float, float, float]:
    """(hi, hi's Veltkamp halves, lo, E0) for frexp exponent e, from exact ints.

    (e - 1) * log10(2) stays at least 4.5e-4 from every nonzero integer for
    |e| < 1100, far beyond the float product's error, so the floor is exact.
    """
    e0 = math.floor((e - 1) * math.log10(2))
    k = 16 - e0
    num = (1 << max(e, 0)) * 10 ** max(k, 0)
    den = (1 << max(-e, 0)) * 10 ** max(-k, 0)
    hi = num / den  # int / int is correctly rounded
    p, q = hi.as_integer_ratio()
    lo = (num * q - p * den) / (den * q)
    t = hi * _SPLIT
    hh = t - (t - hi)
    return hi, hh, hi - hh, lo, float(e0)


class _Scales:
    """_scale of every normal frexp exponent, one column each, filled on first use.

    The content is a constant: filling a column early or twice changes no
    output.  Row 0 (hi) is written last, and a zero hi marks an unfilled
    column, so a reader never sees half a column.
    """

    def __init__(self) -> None:
        self.table = np.zeros((5, _E_MAX - _E_MIN + 1))

    def take(self, e: np.ndarray) -> np.ndarray:
        idx = e - _E_MIN
        cols = self.table.take(idx, axis=1)
        missing = cols[0] == 0.0
        if missing.any():
            new = np.unique(idx[missing])
            block = np.array([_scale(int(i) + _E_MIN) for i in new]).T
            self.table[1:, new] = block[1:]
            self.table[0, new] = block[0]
            cols = self.table.take(idx, axis=1)
        return cols


_SCALES = _Scales()


# A number's CSV field "%.16e," fills a record of _RECORD uint64 words, 32
# bytes with NULs where the text is shorter: word 0 ends in the sign, lead
# digit and ".", words 1 and 2 hold 8 digits each, and word 3 is "e", the
# exponent and the comma.  Every table is built from bytes, and a digit word
# is the OR of two 4-digit entries whose other half is NUL, so a word's
# bytes are its text whatever the byte order.

_RECORD = 4


@functools.cache
def _digits4() -> tuple[np.ndarray, np.ndarray]:
    """ASCII digits of 0000..9999 as the first and as the second half of a uint64 word."""
    n = np.arange(10000)
    digits = np.stack([n // 1000, n // 100 % 10, n // 10 % 10, n % 10], axis=1) + ord("0")
    halves = np.zeros((2, 10000, 8), np.uint8)
    halves[0, :, :4] = halves[1, :, 4:] = digits
    halves.flags.writeable = False
    first, second = halves.view(np.uint64)[..., 0]
    return first, second


def _words(parts: Iterable[bytes], size: int = 8) -> np.ndarray:
    """The parts, each NUL-padded to size bytes, as uint64 words."""
    return np.frombuffer(b"".join(part.ljust(size, b"\0") for part in parts), np.uint64)


@functools.cache
def _leads() -> np.ndarray:
    """Word 0 of a record, "[-]d." after NULs, at lead digit d + 10 * negative."""
    return _words((sign + b"%d." % d).rjust(8, b"\0") for sign in (b"", b"-") for d in range(10))


@functools.cache
def _exponents() -> np.ndarray:
    """Word 3 of a record, "e%+03d," for exponents -324..308, at exponent + 324."""
    return _words(b"e%+03d," % k for k in range(-324, 309))


@functools.cache
def _row_ends(width: int) -> tuple[np.ndarray, np.ndarray]:
    """The last word of a row with a value, and the words after an error row's axis, by code.

    A row of width 2 has no estimate column, so its value ends in one more
    comma; an error row ends ",,name\n" at either width.
    """
    end = _words([b"," * (3 - width) + b"\n"])
    names = (b",,%s\n" % name.encode("ascii") for name in _GRID_NAMES)
    return end, _words(names, 8 * (_RECORD * (width - 1) + 1)).reshape(len(_GRID_NAMES), -1)


def _put_fields(out: np.ndarray, v: np.ndarray) -> None:
    """Write "%.16e," % x for each double x of v into its record in out.

    out is a uint64 array of v's shape plus an axis of _RECORD words (a
    strided view of CSV lines will do); a record's bytes, NULs dropped, are
    exactly the text CPython's correctly rounded "%.16e" prints, and a comma.
    """
    a = np.abs(v)
    m, e = np.frexp(np.where((a >= sys.float_info.min) & (a <= sys.float_info.max), a, _TIED))
    hi, hh, hl, lo, e0 = _SCALES.take(e)
    t = m * _SPLIT
    mh = t - (t - m)
    ml = m - mh
    p = m * hi
    low = (((mh * hh - p) + mh * hl + ml * hh) + ml * hl) + m * lo
    floor = np.floor(low)
    whole = p.astype(np.int64) + floor.astype(np.int64)
    frac = low - floor
    big = whole >= 10**17
    tens = whole // 10
    frac = np.where(big, (whole - 10 * tens + frac) / 10.0, frac)
    digits = np.where(big, tens, whole) + (frac > 0.5)
    carry = digits == 10**17
    digits[carry] = 10**16
    exp10 = e0.astype(np.int64) + big + carry

    upper = digits // 10**8  # the lead digit and the next 8
    lower = digits - upper * 10**8
    top = upper // 10**4
    lead = top // 10**4
    bottom = lower // 10**4
    out[..., 0] = _leads().take(lead + 10 * (v < 0.0))
    first, second = _digits4()
    out[..., 1] = first.take(top - lead * 10**4) | second.take(upper - top * 10**4)
    out[..., 2] = first.take(bottom) | second.take(lower - bottom * 10**4)
    out[..., 3] = _exponents().take(exp10 + 324)

    ties = np.abs(frac - 0.5) < _TIE
    if ties.any():
        for i in map(tuple, np.argwhere(ties).tolist()):
            out[i] = _words([b"%.16e," % float(v[i])], 8 * _RECORD)


def _csv_lines(numbers: np.ndarray, codes: np.ndarray) -> bytes:
    """CSV lines of rows with these numbers (axis, value[, estimate]) and failure codes."""
    n, width = numbers.shape
    end, errors = _row_ends(width)
    words = np.empty((n, _RECORD * width + 1), np.uint64)
    _put_fields(words[:, :-1].reshape(n, width, _RECORD), numbers)
    words[:, -1] = end
    failed = codes.nonzero()[0]
    if len(failed):  # an error row keeps its axis record alone
        words[failed, _RECORD:] = errors.take(codes[failed], axis=0)
    return words.tobytes().translate(None, b"\0")


def run_sweep(spec: SweepSpec) -> SweepRows:
    """Evaluate the spec's function over its grid, one row per point."""
    grid = spec.grid()
    return SweepRows(grid, FUNCTIONS[spec.function][2](**spec.fixed, **{spec.axis: grid}))


def write_csv(spec: SweepSpec, rows: SweepRows, stream: TextIO) -> None:
    """Write rows as CSV with a header naming the axis column.

    No field can hold a comma, quote or newline (parameter names, numbers
    and exception names), so lines are formatted directly, unquoted.  Each
    number is printed byte for byte as "%.16e" prints it, but by a
    vectorised pass: an error-free double-double scaling fixes the 17 digits
    of a finite normal nonzero number to within 1e-13 of a unit in the last
    one, and "%.16e" itself runs, number by number, only on numbers within
    1e-6 of a rounding tie, zeros, subnormals and non-finite numbers.
    Lines are assembled 1,024 at a time as uint64 words: each number is a
    32-byte record of four words from table lookups (sign, lead digit and
    "."; two words of 8 digits; "e", exponent and comma), written straight
    into its line, and the line ends in one word, or at an error row in the
    error name from a table.  Bytes the text does not fill are NUL, and one
    pass per block drops them.
    """
    r = rows._result
    cols = [rows._x, r.value] if r.error_estimate is None else [rows._x, r.value, r.error_estimate]
    numbers = np.column_stack(cols)
    # error rows hold NaN, which only the fallback formats; their value and
    # estimate records are overwritten anyway
    numbers[r.codes != 0, 1:] = 1.0
    text = [f"{spec.axis},value,error_estimate,error\n".encode("ascii")]
    for start in range(0, len(numbers), _BLOCK):
        text.append(_csv_lines(numbers[start : start + _BLOCK], r.codes[start : start + _BLOCK]))
    stream.write(b"".join(text).decode("ascii"))


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
