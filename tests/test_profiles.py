"""Line shape and reduced-coordinate checks."""

from __future__ import annotations

import math
import re

import numpy as np
import pytest

from relvoigt import (
    DomainError,
    ParameterError,
    ProfileParams,
    bw_nonrel,
    bw_rel,
    gaussian,
    i2_closed,
    reduce_nonrel,
    reduce_rel,
    v0,
    v2,
)
from relvoigt.profiles import bw_rel_grid
from relvoigt.quadrature import integrate_real_line_compactified_batch

SQRT2 = math.sqrt(2.0)


def test_bw_nonrel_peak_value():
    p = ProfileParams(mu=1.0, gamma=2.0, sigma=1.0)
    assert abs(bw_nonrel(1.0, p) - 1.0 / math.pi) < 1e-15


def test_bw_nonrel_symmetric_about_mu():
    p = ProfileParams(mu=0.8, gamma=0.3, sigma=1.0)
    lhs = bw_nonrel(0.8 + 0.37, p)
    rhs = bw_nonrel(0.8 - 0.37, p)
    assert abs(lhs - rhs) <= 1e-15 * lhs


def test_bw_nonrel_normalized():
    p = ProfileParams(mu=0.5, gamma=1.7, sigma=1.0)
    r = integrate_real_line_compactified_batch(
        lambda e, k: np.vectorize(lambda x: bw_nonrel(x, p))(e),
        1,
        1e-11,
        seeds=[[0.5]],
    )
    assert r.converged[0]
    assert abs(r.value[0] - 1.0) < 1e-10


def test_bw_rel_peak_and_evenness():
    p = ProfileParams(mu=1.0, gamma=0.1, sigma=1.0)
    assert abs(bw_rel(1.0, p) - 1.0 / (math.pi * 1.0 * 0.1)) < 1e-12
    assert bw_rel(-1.3, p) == bw_rel(1.3, p)


def test_bw_rel_mass_equals_pole_identity():
    """Quadrature of the relativistic shape equals the closed-form pole sum.

    In reduced variables the integral of bw_rel is exactly
    i2_closed(mu*gamma, mu, -mu): same quartic denominator, entirely
    different evaluation (adaptive panels vs complex square roots).
    """
    mu, gamma = 1.0, 0.5
    p = ProfileParams(mu=mu, gamma=gamma, sigma=1.0)
    r = integrate_real_line_compactified_batch(
        lambda e, k: np.vectorize(lambda x: bw_rel(x, p))(e),
        1,
        1e-11,
        seeds=[[-mu, mu]],
    )
    assert r.converged[0]
    ref = i2_closed(mu * gamma, mu, -mu)
    assert abs(r.value[0] - ref) < 1e-10
    # the relativistic shape is not unit-normalized
    assert abs(ref - 1.0) > 1e-3


def test_gaussian_values():
    assert abs(gaussian(0.0, 1.0) - 1.0 / math.sqrt(2.0 * math.pi)) < 1e-16
    sigma = 0.7
    assert abs(gaussian(sigma, sigma) / gaussian(0.0, sigma) - math.exp(-0.5)) < 1e-15


def test_gaussian_normalized():
    sigma = 0.3
    r = integrate_real_line_compactified_batch(
        lambda x, k: np.vectorize(lambda y: gaussian(y, sigma))(x),
        1,
        1e-11,
    )
    assert r.converged[0]
    assert abs(r.value[0] - 1.0) < 1e-10


def test_reduce_nonrel_examples():
    rc = reduce_nonrel(1.0, ProfileParams(mu=1.0, gamma=2.0 * SQRT2, sigma=1.0))
    assert abs(rc.a - 1.0) < 1e-15 and rc.u == 0.0
    rc = reduce_nonrel(SQRT2, ProfileParams(mu=0.0, gamma=1.0, sigma=1.0))
    assert abs(rc.u - 1.0) < 1e-15
    rc = reduce_nonrel(2.0, ProfileParams(mu=1.0, gamma=1.0, sigma=0.5))
    assert abs(rc.a - 1.0 / SQRT2) < 1e-15
    assert abs(rc.u - SQRT2) < 1e-15


def test_reduce_rel_examples():
    rc = reduce_rel(1.0, ProfileParams(mu=1.0, gamma=1.0, sigma=1.0 / SQRT2))
    assert abs(rc.a - 1.0) < 1e-15
    assert abs(rc.u1) == 0.0
    assert abs(rc.u2 - 2.0) < 1e-15

    # mu = 0 collapses both coordinates onto the degenerate manifold
    rc = reduce_rel(0.9, ProfileParams(mu=0.0, gamma=1.0, sigma=1.0))
    assert rc.u1 == rc.u2

    rc = reduce_rel(0.0, ProfileParams(mu=0.7, gamma=1.0, sigma=1.0))
    assert rc.u1 == -rc.u2


def test_reduce_rel_round_trip():
    """Physical -> reduced -> physical -> reduced is the identity map."""
    rng = np.random.default_rng(20240821)
    for _ in range(50):
        mu = rng.uniform(0.1, 3.0)
        gamma = rng.uniform(0.05, 2.0)
        sigma = rng.uniform(0.1, 1.5)
        e = rng.uniform(-4.0, 4.0)
        rc = reduce_rel(e, ProfileParams(mu=mu, gamma=gamma, sigma=sigma))
        # invert: u2-u1 = 2 mu/(sqrt(2) sigma), a = gamma mu/(2 sigma^2)
        sigma_back = 2.0 * mu / (SQRT2 * (rc.u2 - rc.u1))
        gamma_back = 2.0 * rc.a * sigma_back**2 / mu
        e_back = rc.u1 * SQRT2 * sigma_back + mu
        rc2 = reduce_rel(e_back, ProfileParams(mu=mu, gamma=gamma_back, sigma=sigma_back))
        assert abs(rc2.a - rc.a) <= 1e-12 * abs(rc.a)
        assert abs(rc2.u1 - rc.u1) <= 1e-12 * max(1.0, abs(rc.u1))
        assert abs(rc2.u2 - rc.u2) <= 1e-12 * max(1.0, abs(rc.u2))
        assert rc.u2 > rc.u1 and rc.a > 0


def test_positivity_on_grid():
    p = ProfileParams(mu=1.0, gamma=0.4, sigma=0.6)
    for e in np.linspace(-5.0, 5.0, 101):
        assert bw_nonrel(float(e), p) > 0.0
        assert bw_rel(float(e), p) > 0.0
        assert gaussian(float(e), p.sigma) > 0.0


def test_parameter_validation():
    good = ProfileParams(mu=1.0, gamma=0.5, sigma=0.3)
    with pytest.raises(ParameterError):
        bw_nonrel(0.0, ProfileParams(mu=1.0, gamma=0.0, sigma=0.3))
    with pytest.raises(ParameterError):
        bw_rel(0.0, ProfileParams(mu=-1.0, gamma=0.5, sigma=0.3))
    with pytest.raises(ParameterError):
        bw_rel(0.0, ProfileParams(mu=1.0, gamma=-0.5, sigma=0.3))
    with pytest.raises(ParameterError):
        gaussian(0.0, 0.0)
    with pytest.raises(ParameterError):
        reduce_nonrel(0.0, ProfileParams(mu=1.0, gamma=0.5, sigma=0.0))
    with pytest.raises(ParameterError):
        reduce_rel(0.0, ProfileParams(mu=1.0, gamma=0.5, sigma=-0.1))
    # underflowing denominators raise DomainError, not ZeroDivisionError
    with pytest.raises(DomainError):
        reduce_rel(0.0, ProfileParams(mu=1.0, gamma=0.5, sigma=1e-170))
    with pytest.raises(DomainError):
        bw_nonrel(1.0, ProfileParams(mu=1.0, gamma=1e-170, sigma=0.3))
    with pytest.raises(DomainError):
        bw_rel(1.0, ProfileParams(mu=1.0, gamma=1e-170, sigma=0.3))
    assert bw_nonrel(0.0, good) > 0.0


def test_numpy_scalar_params_act_as_floats():
    """ProfileParams stores Python floats, so numpy scalar fields change nothing."""
    # a typical point, and one whose reduced a overflows: with the numpy
    # scalars kept, v2 there warned "overflow encountered in scalar multiply"
    # instead of raising the DomainError it raises for floats
    for e, mu, gamma, sigma in ((1.2, 1.0, 0.5, 0.3), (1.0, 1e300, 1e300, 1.0)):
        p = ProfileParams(np.float64(mu), np.float64(gamma), np.float64(sigma))
        assert [type(x) for x in (p.mu, p.gamma, p.sigma)] == [float] * 3
        assert repr(p) == repr(ProfileParams(mu, gamma, sigma))
        for fn in (bw_nonrel, bw_rel, v0, v2):
            try:
                want = fn(e, ProfileParams(mu, gamma, sigma))
            except DomainError as exc:
                with pytest.raises(type(exc), match=f"^{re.escape(str(exc))}$"):
                    fn(e, p)
            else:
                got = fn(e, p)
                assert type(got) is float
                assert got == want


def test_numpy_complex_params_are_refused():
    # float() would keep a numpy complex field's real part, with a warning
    for name in ("mu", "gamma", "sigma"):
        fields = {"mu": 1.0, "gamma": 0.5, "sigma": 0.3, name: np.complex128(0.5 + 1j)}
        message = f"^{name} must be a real number, got {re.escape('np.complex128(0.5+1j)')}$"
        with pytest.raises(DomainError, match=message):
            ProfileParams(**fields)


def test_bw_rel_out_of_range_is_domain_error():
    """A density that is not representable raises; the grid flags the same points."""
    # (e, mu, gamma): E^2 and mu^2 overflow (q = inf - inf); mu gamma and
    # the denominator overflow (inf / inf); E^2 alone overflows, which is a
    # true underflow to 0; a typical point; an underflowing denominator
    pts = [
        (1e200, 1e200, 1.0),
        (1.0, 1e200, 1e200),
        (1e200, 1.0, 1.0),
        (1.0, 1.0, 0.5),
        (1.0, 1.0, 1e-170),
    ]
    with pytest.raises(DomainError, match="leaves double range"):
        bw_rel(1e200, ProfileParams(mu=1e200, gamma=1.0, sigma=1e150))
    with pytest.raises(DomainError, match="leaves double range"):
        bw_rel(1.0, ProfileParams(mu=1e200, gamma=1e200, sigma=1.0))
    assert bw_rel(1e200, ProfileParams(mu=1.0, gamma=1.0, sigma=1.0)) == 0.0

    e, mu, gamma = (np.array(c) for c in zip(*pts))
    with np.errstate(all="ignore"):
        value, bad = bw_rel_grid(e, mu, gamma)
    for i, (x, m, g) in enumerate(pts):
        try:
            want = bw_rel(x, ProfileParams(mu=m, gamma=g, sigma=1.0))
        except DomainError:
            assert bad[i]
            continue
        assert not bad[i]
        assert value[i] == want
    assert bad.tolist() == [True, True, False, False, True]
