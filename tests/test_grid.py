"""The grid evaluators against their scalar evaluators, and the GridResult shape contract."""

from __future__ import annotations

import re

import numpy as np
import pytest

from relvoigt import DomainError, EvalResult, RelVoigtError, routes
from relvoigt.sweep import FUNCTIONS

# values that reach every edge of the scalar evaluators: non-finite, signed
# zeros, the smallest subnormal, squares that underflow or overflow, and the
# top of the double range
SPECIAL = np.array(
    [np.nan, np.inf, -np.inf, 0.0, -0.0, 5e-324, 1e-170, 1e-160, 1e200, 1e308]
)


def _column(rng, n: int) -> np.ndarray:
    # a third each: moderate values, values of any magnitude, special values;
    # three in four are positive, so the physical evaluators, which need
    # positive parameters, succeed often enough to be checked too
    kind = rng.integers(0, 3, n)
    sign = rng.choice([-1.0, 1.0], n, p=[0.25, 0.75])
    moderate = sign * rng.uniform(0.0, 8.0, n)
    wide = sign * 10.0 ** rng.uniform(-12.0, 3.0, n)
    special = sign * rng.choice(SPECIAL, n)
    return np.choose(kind, [moderate, wide, special])


def _bits(x):
    return None if x is None else float(x).hex()


def _scalar(function: str, params: dict) -> tuple:
    try:
        res = FUNCTIONS[function][1](params)
    except RelVoigtError as exc:
        return None, None, type(exc).__name__
    if isinstance(res, EvalResult):
        return _bits(res.value), _bits(res.error_estimate), ""
    return _bits(res), None, ""


@pytest.mark.parametrize("function", sorted(FUNCTIONS))
def test_grid_matches_scalar_bitwise_with_every_argument_an_array(function):
    names, _, grid = FUNCTIONS[function]
    rng = np.random.default_rng([17, sorted(FUNCTIONS).index(function)])
    n = 4000
    cols = {name: _column(rng, n) for name in names}
    # a quarter of the points repeat the first argument's value in another
    # position, which puts them on the diagonal u1 = u2 or at the peak e = mu
    for name in names[1:]:
        tie = rng.random(n) < 0.25
        cols[name][tie] = cols[names[0]][tie]
    res = grid(**cols)
    errors = res.error.tolist()
    for i in range(n):
        params = {name: float(cols[name][i]) for name in names}
        want = _scalar(function, params)
        if errors[i]:
            got = (None, None, errors[i])
        else:
            est = None if res.error_estimate is None else _bits(res.error_estimate[i])
            got = (_bits(res.value[i]), est, "")
        assert got == want, (function, params)
    # the mix reaches successes and failures alike
    assert "" in errors and "DomainError" in errors


@pytest.mark.parametrize("function", sorted(FUNCTIONS))
def test_grid_result_shape_contract(function):
    names, _, grid = FUNCTIONS[function]
    point = {"a": 0.5, "u": 0.3, "u1": 0.4, "u2": -0.7, "e": 0.9, "mu": 1.1,
             "gamma": 0.2, "sigma": 0.3}
    args = {name: point[name] for name in names}
    first = names[0]

    def check(res, shape):
        assert isinstance(res.value, np.ndarray) and res.value.shape == shape
        assert isinstance(res.codes, np.ndarray) and res.codes.shape == shape
        assert res.codes.dtype == np.int8
        assert isinstance(res.error, np.ndarray) and res.error.shape == shape
        assert res.error.dtype == object
        if function == "h2":
            assert isinstance(res.error_estimate, np.ndarray)
            assert res.error_estimate.shape == shape
        else:
            assert res.error_estimate is None

    scalar = grid(**args)
    check(scalar, ())
    assert scalar.codes == 0 and scalar.error[()] == ""
    check(grid(**{k: np.float64(v) for k, v in args.items()}), ())
    check(grid(**{**args, first: np.zeros(0)}), (0,))
    check(grid(**{**args, first: np.zeros((0, 3))}), (0, 3))
    # (2, 3) from arrays of shape (2, 3) in every position, and from a row
    # and a column that broadcast to it
    full = grid(**{k: np.full((2, 3), v) for k, v in args.items()})
    check(full, (2, 3))
    assert (full.value == scalar.value).all() and (full.codes == 0).all()
    assert (full.error == "").all()
    first_row = np.full((1, 3), args[first])
    last_col = np.full((2, 1), args[names[-1]])
    check(grid(**{**args, first: first_row, names[-1]: last_col}), (2, 3))
    # lists and ints are accepted as float64
    listed = grid(**{**args, first: [args[first], args[first]], names[-1]: 1})
    check(listed, (2,))
    assert listed.value[0] == listed.value[1] == grid(**{**args, names[-1]: 1.0}).value


# every grid evaluator, with its parameter names and scalar evaluator over a
# parameter dict, the two quadrature grids included
_EVERY_GRID = {
    **FUNCTIONS,
    "h2_quadrature": (
        ("a", "u1", "u2"),
        lambda p: routes.h2_quadrature(p["a"], p["u1"], p["u2"]),
        routes.h2_quadrature_grid,
    ),
    "i2_quadrature": (
        ("a", "u1", "u2"),
        lambda p: routes.i2_quadrature(p["a"], p["u1"], p["u2"]),
        routes.i2_quadrature_grid,
    ),
}
_POINT = {"a": 0.5, "u": 0.3, "u1": 0.4, "u2": -0.7, "e": 0.9, "mu": 1.1, "gamma": 0.2,
          "sigma": 0.3}


@pytest.mark.parametrize("function", sorted(_EVERY_GRID))
def test_grid_names_an_argument_that_is_not_real(function):
    # the DomainError the scalar evaluator raises, naming the argument, for
    # a complex or non-numeric value; DomainError is a ValueError as well.
    # A numpy complex scalar is refused too, rather than cast to its real part
    names, scalar, grid = _EVERY_GRID[function]
    args = {name: _POINT[name] for name in names}
    numpy_complex = np.complex128(0.5 + 1j), re.escape("np.complex128(0.5+1j)")
    for name in names:
        for bad, shown in ((1j, "1j"), ("x", "'x'"), numpy_complex):
            message = f"^{name} must be a real number, got {shown}$"
            with pytest.raises(DomainError, match=message):
                scalar({**args, name: bad})
            with pytest.raises(DomainError, match=message):
                grid(**{**args, name: bad})
        # a complex array is refused too, rather than cast to its real part
        with pytest.raises(DomainError, match=f"^{name} must be a real number, got array"):
            grid(**{**args, name: np.array([1.0, 0.5 + 0.0j])})
        with pytest.raises(ValueError, match=f"^{name} must be a real number"):
            grid(**{**args, name: [[1.0], [1.0, 2.0]]})


@pytest.mark.parametrize("function", sorted(_EVERY_GRID))
def test_grid_arguments_that_do_not_broadcast_are_a_domain_error(function):
    names, _, grid = _EVERY_GRID[function]
    args = {name: _POINT[name] for name in names}
    first, last = names[0], names[-1]
    shapes = ", ".join(f"{n} {(2,) if n == first else (3,) if n == last else ()}" for n in names)
    with pytest.raises(DomainError, match=f"^arguments do not broadcast together: {re.escape(shapes)}$"):
        grid(**{**args, first: np.full(2, args[first]), last: np.full(3, args[last])})
