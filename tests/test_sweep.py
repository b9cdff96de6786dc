"""Sweep plumbing: spec validation, grids, rows, CSV/JSON stability, CSV number format."""

from __future__ import annotations

import io
import json
import math
from collections.abc import Sequence
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from relvoigt import DomainError, EvalResult, RelVoigtError, h2
from relvoigt.sweep import (
    FUNCTIONS,
    SweepRow,
    SweepRows,
    SweepSpec,
    _format_e16,
    json_payload,
    run_sweep,
    write_csv,
)


def spec_h0(**kw):
    base = dict(
        function="h0", fixed={"a": 0.5}, axis="u",
        start=-2.0, stop=2.0, steps=5, scale="linear",
    )
    base.update(kw)
    return SweepSpec(**base)


def test_linear_grid():
    s = spec_h0()
    grid = s.grid()
    assert len(grid) == 5
    assert grid[0] == -2.0 and grid[-1] == 2.0
    assert abs(grid[1] - (-1.0)) < 1e-15


def test_log_grid():
    s = SweepSpec(
        function="h2", fixed={"u1": 1.0, "u2": 0.0}, axis="a",
        start=1e-3, stop=10.0, steps=5, scale="log",
    )
    grid = s.grid()
    assert abs(grid[0] - 1e-3) < 1e-18
    assert abs(grid[-1] - 10.0) < 1e-14
    ratios = [grid[i + 1] / grid[i] for i in range(4)]
    assert max(ratios) - min(ratios) < 1e-12


def test_spec_validation():
    with pytest.raises(DomainError):
        spec_h0(function="h9")
    with pytest.raises(DomainError):
        spec_h0(axis="q")
    with pytest.raises(DomainError):
        spec_h0(axis="a")  # axis also in fixed
    with pytest.raises(DomainError):
        spec_h0(fixed={})  # wrong complement
    with pytest.raises(DomainError):
        spec_h0(fixed={"a": 0.5, "u1": 1.0})
    with pytest.raises(DomainError):
        spec_h0(start=2.0, stop=-2.0)
    with pytest.raises(DomainError):
        spec_h0(steps=1)
    with pytest.raises(DomainError):
        spec_h0(scale="cubic")
    with pytest.raises(DomainError):
        spec_h0(start=-1.0, stop=1.0, scale="log")
    with pytest.raises(DomainError):
        spec_h0(start=float("nan"))
    # steps is a count: a fraction is not truncated to one
    for bad in (3.9, float("nan"), float("inf")):
        with pytest.raises(DomainError, match="^steps must be an integer"):
            spec_h0(steps=bad)
    assert spec_h0(steps=np.int64(3)).grid().size == 3
    # fixed may be any mapping, or a list of (name, value) pairs
    assert spec_h0(fixed=[("a", 0.5)]).fixed == {"a": 0.5}


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_spec_rejects_non_finite_fixed_parameter(bad):
    with pytest.raises(DomainError, match=f"^fixed parameter a must be finite, got {bad!r}$"):
        spec_h0(fixed={"a": bad})


@pytest.mark.parametrize(
    "kw, message",
    [
        (dict(fixed={"a": None}), "fixed parameter a must be a real number, got None"),
        (dict(fixed={"a": np.complex128(1 + 1j)}), "fixed parameter a must be a real number"),
        (dict(start="x"), "start must be a real number, got 'x'"),
        (dict(stop=[2.0]), "stop must be a real number, got [2.0]"),
        (dict(start=-math.inf), "start must be finite, got -inf"),
        (dict(function=["h0"]), "unknown function ['h0'], expected one of"),
        (dict(fixed=5), "fixed must map parameter names to values, got 5"),
        (dict(fixed=None), "fixed must map parameter names to values, got None"),
        (dict(fixed="ab"), "fixed must map parameter names to values, got 'ab'"),
        (dict(fixed=[1, 2]), "fixed must map parameter names to values, got [1, 2]"),
    ],
    ids=[
        "fixed_none", "fixed_complex", "start_str", "stop_list", "start_inf", "function_list",
        "fixed_is_int", "fixed_is_none", "fixed_is_str", "fixed_is_flat_list",
    ],
)
def test_spec_names_an_argument_that_is_not_a_finite_real(kw, message):
    # not a raw TypeError or ValueError from float(), nor a complex value
    # cut to its real part (the tests turn that ComplexWarning into an error)
    with pytest.raises(DomainError) as err:
        spec_h0(**kw)
    assert str(err.value).startswith(message)


def test_run_sweep_values():
    rows = run_sweep(spec_h0())
    assert len(rows) == 5
    mid = rows[2]
    assert mid.axis_value == 0.0
    from relvoigt import h0

    assert mid.value == h0(0.5, 0.0)
    assert mid.error == ""
    # h0 returns a bare float, no error estimate column content
    assert mid.error_estimate is None


def test_run_sweep_eval_result_carries_estimate():
    s = SweepSpec(
        function="h2", fixed={"u1": 1.0, "u2": 0.0}, axis="a",
        start=0.5, stop=1.5, steps=3, scale="linear",
    )
    rows = run_sweep(s)
    assert rows[0].value == h2(0.5, 1.0, 0.0).value
    assert rows[0].error_estimate is not None
    assert rows[0].error_estimate >= 0.0


def test_run_sweep_marks_domain_errors_and_continues():
    s = SweepSpec(
        function="v2", fixed={"e": 1.0, "mu": 1.0, "gamma": 0.5}, axis="sigma",
        start=-0.1, stop=0.3, steps=5, scale="linear",
    )
    rows = run_sweep(s)
    assert len(rows) == 5
    assert rows[0].error == "ParameterError" and rows[0].value is None
    assert rows[1].error == "ParameterError"  # sigma == 0
    assert rows[-1].error == "" and rows[-1].value > 0.0


def test_run_sweep_underflowing_sigma_rows_are_domain_errors():
    # sigma^2 underflows below about 1e-162: those rows must be DomainError
    # rows and the sweep must go on, not abort with ZeroDivisionError
    s = SweepSpec(
        function="v2", fixed={"e": 1.0, "mu": 1.0, "gamma": 0.5}, axis="sigma",
        start=1e-170, stop=1.0, steps=18, scale="log",
    )
    rows = run_sweep(s)
    assert [r.error for r in rows[:2]] == ["DomainError", "DomainError"]
    assert rows[-1].error == "" and rows[-1].value > 0.0


def _bits(x):
    return None if x is None else float(x).hex()


def _scalar_row(function, params):
    try:
        res = FUNCTIONS[function][1](params)
    except RelVoigtError as exc:
        return (None, None, type(exc).__name__)
    if isinstance(res, EvalResult):
        return (_bits(res.value), _bits(res.error_estimate), "")
    return (_bits(res), None, "")


def _parity_specs(seed):
    rng = np.random.default_rng(seed)

    def u(lo, hi):
        return float(rng.uniform(lo, hi))

    def lu(lo, hi):
        return float(10.0 ** rng.uniform(lo, hi))

    x = u(-8.0, 8.0)
    big = u(5.0, 9.0)
    return [
        # a crosses zero: a < 0 rows, and an exact a = 0 at the centre
        dict(function="h0", fixed={"u": u(-5, 5)}, axis="a", start=-2.0, stop=2.0, steps=41),
        dict(function="h0", fixed={"a": 0.0}, axis="u", start=u(-9, -1), stop=u(1, 9), steps=17),
        dict(function="h0", fixed={"a": lu(-12, 3)}, axis="u", start=u(-40, -1), stop=u(1, 40), steps=101),
        dict(function="h2", fixed={"u1": u(-3, 3), "u2": u(-3, 3)}, axis="a",
             start=-2.0, stop=2.0, steps=41),
        dict(function="h2", fixed={"a": 0.0, "u2": u(-3, 3)}, axis="u1", start=-4.0, stop=4.0, steps=17),
        # near the diagonal at small a: gap below 1e-3 with a from 1e-14 up
        dict(function="h2", fixed={"u1": x, "u2": x + u(-1e-3, 1e-3)}, axis="a",
             start=lu(-14, -10), stop=lu(-2, 0), steps=101, scale="log"),
        dict(function="h2", fixed={"a": lu(-8, -4), "u2": x}, axis="u1",
             start=x - 2e-3, stop=x + 2e-3, steps=101),
        # near the diagonal at large |u|
        dict(function="h2", fixed={"u1": big, "u2": big + u(-1e-2, 1e-2)}, axis="a",
             start=lu(-14, -10), stop=lu(-1, 1), steps=101, scale="log"),
        dict(function="h2", fixed={"a": -lu(-9, 1), "u2": -big}, axis="u1",
             start=-big - 1.0, stop=-big + 1.0, steps=101),
        # overflowing poles: h2(1, 1e200, -1e200) and its neighbours
        dict(function="h2", fixed={"a": 1.0, "u2": -1e200}, axis="u1",
             start=1e150, stop=1e200, steps=21, scale="log"),
        dict(function="h2", fixed={"u1": 0.5, "u2": -0.5}, axis="a",
             start=1e300, stop=1.7e308, steps=21, scale="log"),
        dict(function="i2", fixed={"u1": u(-3, 3), "u2": u(-3, 3)}, axis="a",
             start=-3.0, stop=3.0, steps=61),
        # a = 0 with the gap shrinking to 0 and below sqrt(DBL_MIN)
        dict(function="i2", fixed={"a": 0.0, "u2": 0.0}, axis="u1", start=-1e-150, stop=1e-150, steps=41),
        dict(function="i2", fixed={"a": 0.0, "u2": 0.0}, axis="u1", start=1e-320, stop=1.0, steps=41,
             scale="log"),
        dict(function="i2", fixed={"u1": 1.0, "u2": 1.0 + lu(-300, -1)}, axis="a",
             start=1e-320, stop=1.7e308, steps=101, scale="log"),
        # parameters crossing into invalid ranges, and underflowing sigma^2
        dict(function="v0", fixed={"e": u(0, 2), "mu": 1.0, "gamma": u(0.1, 2)}, axis="sigma",
             start=-0.5, stop=u(0.5, 3), steps=41),
        dict(function="v0", fixed={"e": u(0, 2), "mu": 1.0, "sigma": u(0.1, 2)}, axis="gamma",
             start=-0.5, stop=u(0.5, 3), steps=41),
        dict(function="v0", fixed={"e": 1.0, "mu": 1.0, "gamma": 1e-300}, axis="sigma",
             start=1e-323, stop=1.0, steps=41, scale="log"),
        dict(function="v2", fixed={"e": u(0, 2), "mu": u(0.5, 2), "gamma": u(0.1, 2)}, axis="sigma",
             start=-0.5, stop=u(0.5, 3), steps=41),
        dict(function="v2", fixed={"e": u(0, 2), "gamma": u(0.1, 2), "sigma": u(0.1, 2)}, axis="mu",
             start=-1.0, stop=u(1, 3), steps=41),
        dict(function="v2", fixed={"e": u(0, 2), "mu": 1.0, "gamma": u(0.1, 2)}, axis="sigma",
             start=1e-170, stop=1.0, steps=41, scale="log"),
        dict(function="v2", fixed={"mu": u(0.5, 2), "gamma": lu(-6, -2), "sigma": lu(-3, -1)},
             axis="e", start=-3.0, stop=3.0, steps=101),
        dict(function="d0", fixed={"gamma": u(0.1, 2), "mu": u(0.5, 2)}, axis="sigma",
             start=-1.0, stop=u(1, 3), steps=41),
        dict(function="d0", fixed={"sigma": u(0.1, 2), "mu": u(0.5, 2)}, axis="gamma",
             start=1e-200, stop=1e200, steps=41, scale="log"),
        dict(function="d2", fixed={"gamma": u(0.1, 2), "mu": u(0.5, 2)}, axis="sigma",
             start=-1.0, stop=u(1, 3), steps=41),
        dict(function="d2", fixed={"sigma": u(0.1, 2), "gamma": u(0.1, 2)}, axis="mu",
             start=1e-200, stop=1e200, steps=41, scale="log"),
        dict(function="d2", fixed={"sigma": u(0.1, 2), "mu": u(0.5, 2)}, axis="gamma",
             start=-1.0, stop=1e200, steps=41),
        # values leaving double range: V0 overflows at sigma = 1e-322, and
        # d2(1e150, 1, 1e200) meets a NaN peak density (mu^2 - mu^2 = inf - inf)
        dict(function="v0", fixed={"e": 1.0, "mu": 1.0, "gamma": 1e-310}, axis="sigma",
             start=1e-322, stop=1e-300, steps=12, scale="log"),
        dict(function="d2", fixed={"sigma": 1e150, "gamma": 1.0}, axis="mu",
             start=1e100, stop=1e200, steps=11, scale="log"),
    ]


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_run_sweep_rows_match_scalar_evaluator_bitwise(seed):
    specs = [SweepSpec(**kw) for kw in _parity_specs(seed)]
    assert {s.function for s in specs} == set(FUNCTIONS)
    errors = set()
    for spec in specs:
        rows = run_sweep(spec)
        for i, row in enumerate(rows):
            params = dict(spec.fixed)
            params[spec.axis] = row.axis_value
            want = _scalar_row(spec.function, params)
            for got in (row, rows[i]):  # iterated and indexed rows alike
                assert got.axis_value == params[spec.axis]
                assert (_bits(got.value), _bits(got.error_estimate), got.error) == want, (
                    spec.function, params)
            errors.add(row.error)
    assert errors == {"", "DomainError", "ParameterError"}


# The row-by-row serializers that write_csv and json_payload replaced, kept
# as the reference their columnar output must match byte for byte.


def _reference_rows(spec):
    """The rows built one SweepRow per point from the grid evaluator."""
    grid = spec.grid()
    res = FUNCTIONS[spec.function][2](**spec.fixed, **{spec.axis: grid})
    values = res.value.tolist()
    if res.error_estimate is None:
        estimates = [None] * len(values)
    else:
        estimates = res.error_estimate.tolist()
    return [
        SweepRow(x, None, None, err) if err else SweepRow(x, value, est, "")
        for x, value, est, err in zip(grid.tolist(), values, estimates, res.error.tolist())
    ]


def _reference_fmt(x):
    return "" if x is None else f"{x:.16e}"


def _reference_csv(spec, rows):
    lines = [f"{spec.axis},value,error_estimate,error\n"]
    lines += [
        f"{_reference_fmt(r.axis_value)},{_reference_fmt(r.value)},"
        f"{_reference_fmt(r.error_estimate)},{r.error}\n"
        for r in rows
    ]
    return "".join(lines)


def _reference_json(spec, rows):
    return {
        "function": spec.function,
        "axis": spec.axis,
        "fixed": {k: spec.fixed[k] for k in sorted(spec.fixed)},
        "scale": spec.scale,
        "rows": [
            {spec.axis: r.axis_value, "value": r.value,
             "error_estimate": r.error_estimate, "error": r.error}
            for r in rows
        ],
    }


def _row_key(row):
    """A row's fields with their exact types and bits: -0.0 differs from 0.0."""
    return (type(row),) + tuple(
        None if v is None else (type(v), v.hex())
        for v in (row.axis_value, row.value, row.error_estimate)
    ) + (row.error,)


_EDGE_SWEEPS = [
    # every row fails
    dict(function="v2", fixed={"e": 1.0, "mu": 1.0, "gamma": 0.5}, axis="sigma",
         start=-2.0, stop=-1.0, steps=7),
    # no row fails, estimates present
    dict(function="h2", fixed={"u1": 1.0, "u2": 0.0}, axis="a", start=0.5, stop=3.0, steps=9),
    # a bare-float function: the estimate column is empty
    dict(function="d0", fixed={"gamma": 0.5, "mu": 1.0}, axis="sigma", start=0.0, stop=2.0, steps=9),
    # the grid ends at -0.0, and the values far out are subnormal
    dict(function="h0", fixed={"a": 1e-300}, axis="u", start=-1e5, stop=-0.0, steps=11),
    # values near 1e+300
    dict(function="v0", fixed={"e": 1.0, "mu": 1.0, "gamma": 1e-300}, axis="sigma",
         start=1e-305, stop=1e-295, steps=11, scale="log"),
    # values near 1e-300, subnormal estimates and DomainError rows
    dict(function="h2", fixed={"u1": 0.5, "u2": -0.5}, axis="a",
         start=1e290, stop=1.7e308, steps=31, scale="log"),
    # axis values in steps of 1/8 with 15 integer digits: the odd multiples
    # of 1/8 sit exactly halfway between two 17-digit decimals
    dict(function="h0", fixed={"a": 1.0}, axis="u",
         start=123456789012345.5, stop=123456789012346.5, steps=9),
]


def test_edge_sweeps_cover_their_cases():
    rows = [list(run_sweep(SweepSpec(**kw))) for kw in _EDGE_SWEEPS]
    assert all(r.error == "ParameterError" for r in rows[0])
    assert all(r.error == "" and r.error_estimate is not None for r in rows[1])
    assert all(r.error == "" and r.error_estimate is None for r in rows[2])
    assert math.copysign(1.0, rows[3][-1].axis_value) == -1.0
    flat = [r for group in rows for r in group]
    numbers = [abs(v) for r in flat for v in (r.value, r.error_estimate) if v]
    assert any(v < 2.2250738585072014e-308 for v in numbers)  # subnormal
    assert any(1e-310 < v < 1e-299 for v in numbers)
    assert any(v > 1e299 for v in numbers)
    assert {r.error for r in flat} == {"", "DomainError", "ParameterError"}
    ties = [r.axis_value for r in rows[6] if (r.axis_value * 8) % 2 == 1]
    assert len(ties) == 4 and all(r.error == "" for r in rows[6])


@pytest.mark.parametrize("seed", [None, 1, 2, 3])
def test_serializers_match_row_by_row_reference(seed):
    kwargs = _EDGE_SWEEPS if seed is None else _parity_specs(seed)
    for kw in kwargs:
        spec = SweepSpec(**kw)
        rows = run_sweep(spec)
        reference = _reference_rows(spec)
        buf = io.StringIO()
        write_csv(spec, rows, buf)
        assert buf.getvalue() == _reference_csv(spec, reference), spec
        payload = json_payload(spec, rows)
        assert json.dumps(payload) == json.dumps(_reference_json(spec, reference)), spec
        for row in payload["rows"]:
            assert all(type(v) in (float, type(None)) for k, v in row.items() if k != "error")


@pytest.mark.parametrize("kw", _EDGE_SWEEPS[:3] + [
    # error rows and estimates together: a < 0 is a ParameterError
    dict(function="h2", fixed={"u1": 1.0, "u2": 0.0}, axis="a", start=-1.0, stop=1.0, steps=9),
])
def test_sweep_rows_sequence_protocol(kw):
    spec = SweepSpec(**kw)
    rows = run_sweep(spec)
    reference = [_row_key(r) for r in _reference_rows(spec)]
    n = spec.steps
    assert isinstance(rows, SweepRows) and isinstance(rows, Sequence)
    assert len(rows) == n
    assert [_row_key(r) for r in rows] == reference
    assert [_row_key(rows[i]) for i in range(n)] == reference
    assert [_row_key(rows[i]) for i in range(-n, 0)] == reference
    assert [_row_key(r) for r in rows[1:-1:2]] == reference[1:-1:2]
    assert _row_key(rows[np.int64(2)]) == reference[2]
    for i in (n, -n - 1):
        with pytest.raises(IndexError):
            rows[i]
    assert list(rows) == _reference_rows(spec)


def test_csv_shape_and_stability():
    s = spec_h0()
    rows = run_sweep(s)
    buf1, buf2 = io.StringIO(), io.StringIO()
    write_csv(s, rows, buf1)
    write_csv(s, run_sweep(s), buf2)
    text = buf1.getvalue()
    assert text == buf2.getvalue()  # byte-stable across runs
    lines = text.split("\n")
    assert lines[0] == "u,value,error_estimate,error"
    assert len(lines) == 7 and lines[-1] == ""
    first = lines[1].split(",")
    assert first[0] == f"{-2.0:.16e}"
    assert first[2] == ""  # no estimate for bare floats
    assert first[3] == ""


def test_csv_error_rows():
    s = SweepSpec(
        function="d2", fixed={"gamma": 0.5, "mu": 1.0}, axis="sigma",
        start=-0.5, stop=0.5, steps=3, scale="linear",
    )
    buf = io.StringIO()
    write_csv(s, run_sweep(s), buf)
    lines = buf.getvalue().split("\n")
    assert lines[1] == f"{-0.5:.16e},,,ParameterError"
    assert lines[2].startswith(f"{0.0:.16e},{1.0:.16e}")


def test_json_payload_shape():
    s = spec_h0(steps=3)
    payload = json_payload(s, run_sweep(s))
    assert payload["function"] == "h0"
    assert payload["axis"] == "u"
    assert payload["fixed"] == {"a": 0.5}
    assert payload["scale"] == "linear"
    assert len(payload["rows"]) == 3
    row = payload["rows"][0]
    assert set(row) == {"u", "value", "error_estimate", "error"}
    json.dumps(payload)  # must be serializable as-is


def test_all_functions_sweepable():
    cases = {
        "h0": ({"a": 1.0}, "u"),
        "h2": ({"u1": 1.0, "u2": 0.0}, "a"),
        "i2": ({"u1": 1.0, "u2": 0.0}, "a"),
        "v0": ({"e": 1.0, "mu": 1.0, "gamma": 0.5}, "sigma"),
        "v2": ({"e": 1.0, "mu": 1.0, "gamma": 0.5}, "sigma"),
        "d0": ({"gamma": 0.5, "mu": 1.0}, "sigma"),
        "d2": ({"gamma": 0.5, "mu": 1.0}, "sigma"),
    }
    for fn, (fixed, axis) in cases.items():
        s = SweepSpec(
            function=fn, fixed=fixed, axis=axis,
            start=0.1, stop=1.0, steps=3, scale="linear",
        )
        rows = run_sweep(s)
        assert len(rows) == 3
        assert all(r.error == "" for r in rows), fn
        assert all(math.isfinite(r.value) for r in rows), fn


# The vectorised "%.16e" formatter behind write_csv, against "%.16e" itself.


def _formatted(values):
    """The formatter's fields for values, as str, NUL bytes dropped."""
    out = _format_e16(np.asarray(values, dtype=np.float64))
    lines = np.column_stack([out, np.full(len(out), ord("\n"), np.uint8)]).ravel()
    return lines[lines != 0].tobytes().decode("ascii").split("\n")[:-1]


def _assert_formats_like_printf(values):
    values = np.asarray(values, dtype=np.float64)
    got = _formatted(values)
    want = ["%.16e" % x for x in values.tolist()]
    if got != want:
        bad = [(x.hex(), g, w) for x, g, w in zip(values.tolist(), got, want) if g != w]
        pytest.fail(f"{len(got)} fields for {len(want)} numbers; first mismatches {bad[:10]}")


def test_format_e16_random_bit_patterns():
    # every exponent and both signs, NaN and inf patterns included
    rng = np.random.default_rng(20261018)
    for _ in range(10):
        _assert_formats_like_printf(rng.integers(0, 2**64, 100_000, dtype=np.uint64).view(np.float64))


def test_format_e16_exponent_and_decade_edges():
    two = np.ldexp(1.0, np.arange(-1074, 1024))  # subnormals included
    ten = np.array([float(f"1e{k}") for k in range(-323, 309)])
    ten = np.concatenate([ten, np.nextafter(ten, 0.0), np.nextafter(ten, np.inf)])
    special = [0.0, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
               123456789012345.625, 2.0**-25, 9.9999999999999995e-08, math.inf, math.nan]
    values = np.concatenate([two, ten, special])
    _assert_formats_like_printf(np.concatenate([values, -values]))
    # ties: x * 10**(16 - E) is exactly halfway between integers, and
    # CPython rounds it half-even
    for x in (123456789012345.625, 2.0**-25):
        scaled = Fraction(x) * Fraction(10) ** (16 - math.floor(math.log10(x)))
        assert scaled % 1 == Fraction(1, 2)
    assert "%.16e" % 123456789012345.625 == "1.2345678901234562e+14"
    # the set holds doubles below 10**k whose 17 digits round up into the
    # next decade, printing as 1e(k)
    carries = 0
    for x in ten[ten > 0.0].tolist():
        k = round(math.log10(x))
        carries += Fraction(x) < Fraction(10) ** k and "%.16e" % x == f"1.0000000000000000e{k:+03d}"
    assert carries >= 10


def test_format_e16_empty_input():
    assert _format_e16(np.array([])).shape == (0, 24)
    assert _formatted([]) == []


@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=40))
def test_format_e16_matches_printf_property(values):
    _assert_formats_like_printf(values)
