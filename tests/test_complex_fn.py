"""Faddeeva wrapper checks against hand-written erfc references.

The real-line reference values come from tests/oracles.py (Maclaurin
series plus Lentz continued fraction), so the package and its reference
share no code path for these numbers.
"""

from __future__ import annotations

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relvoigt import DomainError, complex_fn, faddeeva_w, h0, h2, rel_voigt, voigt
from relvoigt.complex_fn import faddeeva_w_grid
from relvoigt.quadrature import integrate_real_line, integrate_real_line_batch

from oracles import erfc_complex, erfc_real, erfcx_real
from test_cli import run_python

# e * erfc(1) and erfc(1), frozen from the continued-fraction oracle
E_ERFC_1 = 0.4275835761558069
ERFC_1 = 0.1572992070502851


def test_w_at_zero():
    assert faddeeva_w(0.0) == 1.0 + 0.0j


def test_w_at_i_matches_erfc_oracle():
    z = faddeeva_w(1j)
    assert abs(z.imag) < 1e-15
    assert abs(z.real - E_ERFC_1) < 1e-14
    assert abs(z.real - math.e * erfc_real(1.0)) < 1e-14


def test_w_at_10i_matches_scaled_oracle():
    # w(iy) = e^{y^2} erfc(y); leading asymptotic term is 1/(y sqrt(pi))
    z = faddeeva_w(10j)
    assert abs(z.imag) == 0.0
    assert abs(z.real - erfcx_real(10.0)) < 1e-14
    lead = 1.0 / (10.0 * math.sqrt(math.pi))
    assert abs(z.real - lead) / lead < 6e-3


def test_w_reflection_symmetry():
    """w(-conj(z)) == conj(w(z)) on a random grid, both half-planes."""
    rng = np.random.default_rng(20240817)
    pts = rng.uniform(-6.0, 6.0, (200, 2))
    for re, im in pts:
        z = complex(re, im)
        lhs = faddeeva_w(-z.conjugate())
        rhs = faddeeva_w(z).conjugate()
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))
    assert faddeeva_w(-complex(1, 2).conjugate()) == faddeeva_w(complex(1, 2)).conjugate()


def test_w_real_line_real_part_is_gaussian():
    for x in np.linspace(-6.0, 6.0, 121):
        got = faddeeva_w(float(x)).real
        assert abs(got - math.exp(-x * x)) <= 1e-12


def test_w_matches_defining_integral_upper_half_plane():
    """(1/(i pi)) Int e^{-t^2}/(t - z) dt reproduces w(z) for Im z > 0."""
    rng = np.random.default_rng(20240818)
    n = 0
    while n < 110:
        re = rng.uniform(-4.5, 4.5)
        im = rng.uniform(0.08, 3.0)
        z = complex(re, im)
        if abs(z) > 5.0:
            continue
        n += 1

        def f(t: np.ndarray) -> np.ndarray:
            return np.exp(-t * t) / (t - z)

        r = integrate_real_line(f, 1e-12, seeds=[re - im, re, re + im])
        assert r.converged
        w_quad = r.value / (1j * math.pi)
        ref = faddeeva_w(z)
        assert abs(w_quad - ref) <= 1e-9 * max(1.0, abs(ref))


def test_w_against_mpmath_grid():
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 30
    rng = np.random.default_rng(20240819)
    pts = rng.uniform(-8.0, 8.0, (60, 2))
    for re, im in pts:
        z = complex(re, im)
        ref = complex(mp.exp(-mp.mpc(re, im) ** 2) * mp.erfc(-1j * mp.mpc(re, im)))
        got = faddeeva_w(z)
        assert abs(got - ref) <= 1e-12 * max(1.0, abs(ref))


def test_erfc_at_zero_and_one():
    assert erfc_complex(0.0) == 1.0 + 0.0j
    got = erfc_complex(1.0)
    assert abs(got.imag) < 1e-16
    assert abs(got.real - ERFC_1) < 1e-14


def test_erfc_one_matches_defining_integral():
    # erfc(x) = (2/sqrt(pi)) Int_x^inf e^{-t^2} dt, pushed through our own
    # quadrature so the value does not come from the wrapped library: the
    # real-line integral of e^{-t^2} cut off below t = 1, with a panel edge there

    def f(t: np.ndarray, k: np.ndarray) -> np.ndarray:
        return np.where(t < 1.0, 0.0, np.exp(-t * t))

    r = integrate_real_line_batch(f, 1, 1e-13, seeds=[[1.0]])
    assert r.converged[0]
    val = 2.0 / math.sqrt(math.pi) * r.value[0]
    assert abs(val - erfc_complex(1.0).real) < 1e-12


def test_erfc_complement_identity():
    """erfc(z) + erfc(-z) = 2 exactly in exact arithmetic."""
    rng = np.random.default_rng(20240820)
    pts = rng.uniform(-4.0, 4.0, (100, 2))
    for re, im in pts:
        z = complex(re, im)
        s = erfc_complex(z) + erfc_complex(-z)
        assert abs(s - 2.0) <= 1e-12 * max(1.0, abs(erfc_complex(z)))
    z = complex(0.7, -1.3)
    assert abs(erfc_complex(z) + erfc_complex(-z) - 2.0) < 1e-12


def test_w_no_overflow_large_imag():
    # naive e^{-z^2} * erfc(-iz) overflows here; the fused form must not
    z = complex(0.5, 60.0)
    got = faddeeva_w(z)
    assert math.isfinite(got.real) and math.isfinite(got.imag)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), complex(0, float("nan"))])
def test_non_finite_inputs_rejected(bad):
    for fn in (faddeeva_w, erfc_complex):
        with pytest.raises(DomainError):
            fn(bad)


def test_w_grid_matches_scalar_bitwise():
    """faddeeva_w_grid equals faddeeva_w, and its mask marks the raises."""
    rng = np.random.default_rng(20261017)
    x = np.concatenate([rng.uniform(-30.0, 30.0, 400), [0.0, -0.0, 1.0, np.nan, 2.0]])
    y = np.concatenate([rng.uniform(-30.0, 30.0, 400), [0.0, 5.0, np.inf, 1.0, -40.0]])
    wr, wi, ok = faddeeva_w_grid(x, y)
    for i in range(len(x)):
        try:
            w = faddeeva_w(complex(x[i], y[i]))
        except DomainError:
            assert not ok[i]
            continue
        assert ok[i]
        assert (wr[i].hex(), wi[i].hex()) == (w.real.hex(), w.imag.hex())
    assert not ok[-3:].any()  # non-finite argument, non-finite argument, overflow


def _patch_closed_form_kernel(mp, kernel):
    # h0 and h2 call the kernel under the name _wofz of their own modules;
    # returns the (z, w) pairs of every call
    calls = []

    def traced(z):
        w = kernel(z)
        calls.append((z, w))
        return w

    for module in (voigt, rel_voigt):
        mp.setattr(module, "_wofz", traced)
    return calls


@pytest.mark.parametrize("bad", [complex(math.inf, 0.0), complex(math.nan, math.nan)])
def test_closed_forms_raise_the_wrapper_message_on_a_non_finite_kernel_value(monkeypatch, bad):
    # h0 and h2 call the kernel without faddeeva_w, whose output check they
    # keep: a non-finite w raises faddeeva_w's message, naming the argument
    real = complex_fn._wofz
    monkeypatch.setattr(complex_fn, "_wofz", lambda z: bad)

    def wrapper_message(z):
        with pytest.raises(DomainError) as info:
            faddeeva_w(z)
        return f"^{re.escape(str(info.value))}$"

    _, t1_plus, t1_minus = rel_voigt._pole_group(0.5, 1.0, -1.0)
    cases = [
        (lambda z: bad, lambda: h0(0.5, 1.5), complex(1.5, 0.5)),
        (lambda z: bad, lambda: h0(-0.5, 1.5), complex(1.5, 0.5)),
        (lambda z: bad, lambda: h2(0.5, 1.0, -1.0), t1_plus),
        (lambda z: bad, lambda: h2(-0.5, 1.0, -1.0), t1_plus),
        # only the second term w(-t1-) fails
        (lambda z: bad if z == -t1_minus else real(z), lambda: h2(0.5, 1.0, -1.0), -t1_minus),
    ]
    for kernel, call, z in cases:
        _patch_closed_form_kernel(monkeypatch, kernel)
        with pytest.raises(DomainError, match=wrapper_message(z)):
            call()


_FINITE = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=300, deadline=None)
@given(a=_FINITE.filter(bool), u1=_FINITE, u2=_FINITE)
def test_closed_form_kernel_arguments_lie_in_the_upper_half_plane(a, u1, u2):
    # what lets h0 and h2 skip faddeeva_w's argument test: they pass the
    # kernel finite points of the closed upper half-plane, where |w| <= 1
    with pytest.MonkeyPatch.context() as mp:
        calls = _patch_closed_form_kernel(mp, complex_fn._wofz)
        h0(a, u1)
        try:
            h2(a, u1, u2)
        except DomainError:
            pass  # the poles leave double range before any kernel call
    assert calls
    for z, w in calls:
        assert math.isfinite(z.real) and z.imag >= 0.0 and math.isfinite(z.imag)
        assert abs(w) <= 1.0


def test_w_is_the_ufunc_kernel_bit_for_bit():
    """faddeeva_w equals complex(scipy.special.wofz(z)) wherever that is finite.

    The one-point path calls the same Faddeeva routine without the ufunc;
    where the ufunc overflows, faddeeva_w raises DomainError instead.
    """
    from scipy.special import wofz

    rng = np.random.default_rng(20261020)
    x = rng.uniform(-50.0, 50.0, 6000)
    y = np.concatenate([rng.uniform(0.0, 50.0, 3000), rng.uniform(-30.0, 0.0, 3000)])
    zs = [complex(re, im) for re, im in zip(x, y)]
    big = 10.0 ** rng.uniform(-323.0, 308.0, 2000) * np.exp(1j * rng.uniform(-np.pi, np.pi, 2000))
    zs += [complex(z) for z in big]
    edges = (0.0, -0.0, 5e-324, -5e-324, 1.0, -1.0, 1e308, -1e308)
    zs += [complex(re, im) for re in edges for im in edges]
    zs += [-26.6j, -30j, 3 - 27j]
    finite = overflow = 0
    for z in zs:
        want = complex(wofz(z))
        if math.isfinite(want.real) and math.isfinite(want.imag):
            got = faddeeva_w(z)
            assert (got.real.hex(), got.imag.hex()) == (want.real.hex(), want.imag.hex()), z
            finite += 1
        else:
            with pytest.raises(DomainError, match="^w\\(z\\) overflows double precision"):
                faddeeva_w(z)
            overflow += 1
    # both branches are exercised, the overflow one by the lower half-plane
    assert finite > 7000 and overflow > 200


# A child whose meta-path finder refuses cython_special while the bare
# stand-in for scipy.special (a module with no __file__) is in place.
_REFUSING_CHILD = """
import sys

class Refuse:
    def find_spec(self, name, path=None, target=None):
        special = sys.modules.get("scipy.special")
        if name == "scipy.special.cython_special" and not hasattr(special, "__file__"):
            raise ImportError("refused while the stand-in is in place")
        return None

sys.meta_path.insert(0, Refuse())
import scipy
import relvoigt
from relvoigt import complex_fn

special = sys.modules.get("scipy.special")
assert special is None or hasattr(special, "__file__"), special
attr = vars(scipy).get("special")
assert attr is None or hasattr(attr, "__file__"), attr
# the plain import ran and supplied both kernels
assert complex_fn._wofz is sys.modules["scipy.special.cython_special"].wofz
assert complex_fn._wofz_ufunc is special.wofz
print(relvoigt.h2(0.5, 1.0, -1.0).value.hex())
"""


def test_kernel_load_falls_back_to_the_plain_import():
    r = run_python("-c", _REFUSING_CHILD)
    assert r.returncode == 0, r.stderr
    assert r.stdout.strip() == h2(0.5, 1.0, -1.0).value.hex()


_FRESH_CHILD = """
import sys
import relvoigt

# the namespace is lazy, so an h2 call is what loads the kernels; this pins
# that the bare kernel load is taken on the installed scipy
relvoigt.h2(0.5, 1.0, -1.0)
assert "relvoigt.complex_fn" in sys.modules
assert "scipy.special" not in sys.modules, "complex_fn fell back to the plain import"
import scipy.special
import scipy.special.cython_special
from relvoigt import complex_fn

assert scipy.special.wofz is complex_fn._wofz_ufunc
assert scipy.special.cython_special.wofz is complex_fn._wofz
print(scipy.special.erf(0.5).hex(), scipy.special.voigt_profile(0.1, 1.0, 1.0).hex())
"""


def test_bare_kernel_load_leaves_scipy_special_importable():
    r = run_python("-c", _FRESH_CHILD)
    assert r.returncode == 0, r.stderr
    erf, voigt = (float.fromhex(v) for v in r.stdout.split())
    assert abs(erf - math.erf(0.5)) <= 2e-16
    # V(x; sigma, gamma) = Re w((x + i gamma) / (sigma sqrt 2)) / (sigma sqrt(2 pi))
    want = faddeeva_w(complex(0.1, 1.0) / math.sqrt(2.0)).real / math.sqrt(2.0 * math.pi)
    assert abs(voigt - want) <= 1e-15 * want
