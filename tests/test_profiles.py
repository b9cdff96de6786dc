"""Line shape and reduced-coordinate checks."""

from __future__ import annotations

import math
import re

import mpmath as mp
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
from relvoigt.profiles import bw_nonrel_grid, bw_rel_grid
from relvoigt.routes import _compactified

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
    r = _compactified(lambda e, k: np.vectorize(lambda x: bw_nonrel(x, p))(e), np.array([[0.5]]))
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
    r = _compactified(lambda e, k: np.vectorize(lambda x: bw_rel(x, p))(e), np.array([[-mu, mu]]))
    assert r.converged[0]
    ref = i2_closed(mu * gamma, mu, -mu)
    assert abs(r.value[0] - ref) < 1e-10
    # the relativistic shape is not unit-normalized
    assert abs(ref - 1.0) > 1e-3


def _bw_mp(e, mu, gamma):
    # both Breit-Wigner densities at 50 digits
    with mp.workdps(50):
        e, mu, gamma = mp.mpf(e), mp.mpf(mu), mp.mpf(gamma)
        nonrel = (gamma / (2 * mp.pi)) / ((e - mu) ** 2 + (gamma / 2) ** 2)
        mg = mu * gamma
        rel = (mg / mp.pi) / ((e * e - mu * mu) ** 2 + mg * mg)
        return float(nonrel), float(rel)


@pytest.mark.parametrize(
    "e, mu, gamma",
    [
        (1.0, 1.0, 1e-300),  # the peaks 2/(pi Gamma) and 1/(pi mu Gamma)
        (1.0, 1.0, 1e-170),
        (1.0 + 2.0**-52, 1.0, 1e-300),  # one ulp off the peak: ~Gamma/(2 pi d^2)
        (1e-160, 1e-160, 1e-20),  # mu Gamma = 1e-180, (E^2 - mu^2) = 0
        (3e-160, 1e-160, 1e-20),  # E^2 - mu^2 subnormal, 8e-320
        (-1.0, 1.0, 1e-300),  # the relativistic mirror peak at E = -mu
        (1e-150, 1e-200, 1e-200),  # mu Gamma underflows to 0; rel ~ 3.2e199
    ],
)
def test_bw_densities_where_their_denominator_underflows(e, mu, gamma):
    # Below Gamma ~ 1e-154 the denominators underflow near the peaks and
    # both densities raised "denominator underflows" although they are
    # doubles.  They are now formed at a power-of-2 scale, to a few ulps of
    # the 50-digit value, and each grid returns the scalar's bits.
    p = ProfileParams(mu=mu, gamma=gamma, sigma=1.0)
    want = _bw_mp(e, mu, gamma)
    got = (bw_nonrel(e, p), bw_rel(e, p))
    for g, w in zip(got, want):
        assert abs(g - w) <= 1e-15 * abs(w), (g, w)
    for grid, g in zip((bw_nonrel_grid, bw_rel_grid), got):
        with np.errstate(all="ignore"):
            value, bad = grid(*(np.array([x]) for x in (e, mu, gamma)))
        assert not bad[0] and value[0] == g


@pytest.mark.parametrize(
    "e, mu, gamma",
    [
        (1.0, 1.0, 1e200),  # Gamma^2 and (mu Gamma)^2 overflow at the peaks
        (1e200, 1e200, 1e-100),  # E^2 and mu^2 overflow, (E - mu)(E + mu) does not
        (-1e200, 1e200, 1e-100),  # and at the relativistic mirror peak
        (1e-100, 5e-101, 1e-310),  # subnormal Gamma/(2 pi) and mu Gamma/pi
    ],
)
def test_bw_densities_where_a_square_overflows_or_the_numerator_is_subnormal(e, mu, gamma):
    # A denominator that overflowed gave 0 or raised, and a subnormal
    # numerator lost digits, although each density is a normal double.  They
    # take the power-of-2 form too, to a few ulps of the 50-digit value, and
    # each grid returns the scalar's bits.
    p = ProfileParams(mu=mu, gamma=gamma, sigma=1.0)
    got = (bw_nonrel(e, p), bw_rel(e, p))
    for g, w in zip(got, _bw_mp(e, mu, gamma)):
        assert abs(g - w) <= 1e-15 * abs(w), (g, w)
    for grid, g in zip((bw_nonrel_grid, bw_rel_grid), got):
        with np.errstate(all="ignore"):
            value, bad = grid(*(np.array([x]) for x in (e, mu, gamma)))
        assert not bad[0] and value[0] == g


def test_bw_nonrel_keeps_the_digits_of_a_subnormal_numerator():
    # Gamma/(2 pi) = 3.2e-324 rounded to one subnormal step, 57% off a
    # density of 1.19e-185; the grid returns the scalar's bits
    x = 2.5751815583615705e-70
    got = bw_nonrel(-x, ProfileParams(mu=x, gamma=2e-323, sigma=1.0))
    want = _bw_mp(-x, x, 2e-323)[0]
    assert abs(got - want) <= 1e-15 * want
    with np.errstate(all="ignore"):
        assert bw_nonrel_grid(np.array([-x]), np.array([x]), np.array([2e-323]))[0][0] == got


def test_bw_rel_keeps_the_digits_of_e_squared_minus_mu_squared():
    # e * e - mu * mu cancels near E = +-mu, which left these densities
    # 5.2e-5 and 7.5e-14 off their 50-digit values; q = (e - mu)(e + mu)
    # keeps the digits, and the grid returns the scalar's bits
    for e, mu, gamma in (
        (12404.494449832457, 12404.494449822003, 8.195501066066618e-302),
        (-0.3871591631653713, 0.3865285733848915, 4.129317516451576e-05),
    ):
        got = bw_rel(e, ProfileParams(mu=mu, gamma=gamma, sigma=1.0))
        want = _bw_mp(e, mu, gamma)[1]
        assert abs(got - want) <= 1e-15 * want, (e, got, want)
        assert bw_rel_grid(np.array([e]), np.array([mu]), np.array([gamma]))[0][0] == got


def test_bw_densities_that_overflow_name_their_point():
    # 2/(pi Gamma) and 1/(pi mu Gamma) overflow once Gamma (or mu Gamma) is
    # below ~4e-309; the scalar names the point and the grid flags it
    p = ProfileParams(mu=1.0, gamma=1e-320, sigma=1.0)
    for fn, grid in ((bw_nonrel, bw_nonrel_grid), (bw_rel, bw_rel_grid)):
        with pytest.raises(
            DomainError,
            match=re.escape(f"Breit-Wigner density leaves double range at e=1.0, {p!r}: inf"),
        ):
            fn(1.0, p)
        with np.errstate(all="ignore"):
            assert grid(np.array([1.0]), np.array([1.0]), np.array([1e-320]))[1][0]


def test_gaussian_values():
    assert abs(gaussian(0.0, 1.0) - 1.0 / math.sqrt(2.0 * math.pi)) < 1e-16
    sigma = 0.7
    assert abs(gaussian(sigma, sigma) / gaussian(0.0, sigma) - math.exp(-0.5)) < 1e-15


def test_gaussian_names_a_point_outside_double_range():
    # 1/(sigma sqrt(2 pi)) overflows at a subnormal sigma; the density
    # raises as bw_rel, v0 and v2 do, with no warning on the way, while a
    # density that underflows is 0
    with pytest.raises(
        DomainError, match=r"^gaussian leaves double range at \(x, sigma\)=\(0\.0, 1e-320\)$"
    ):
        gaussian(0.0, 1e-320)
    assert gaussian(1e300, 1e-300) == 0.0


def test_gaussian_normalized():
    sigma = 0.3
    r = _compactified(lambda x, k: np.vectorize(lambda y: gaussian(y, sigma))(x), np.zeros((1, 0)))
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
    # an underflowing sigma^2, and peak densities that overflow, raise
    # DomainError, not ZeroDivisionError
    with pytest.raises(DomainError):
        reduce_rel(0.0, ProfileParams(mu=1.0, gamma=0.5, sigma=1e-170))
    with pytest.raises(DomainError):
        bw_nonrel(1.0, ProfileParams(mu=1.0, gamma=1e-320, sigma=0.3))
    with pytest.raises(DomainError):
        bw_rel(1.0, ProfileParams(mu=1.0, gamma=1e-320, sigma=0.3))
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
    """Only a density that is not representable raises; the grid flags the same points."""
    # (e, mu, gamma): E^2 and mu^2 overflow (q = inf - inf), a density of
    # 1/(pi 1e200); mu gamma and the denominator overflow, a true underflow
    # to 0; E^2 alone overflows, a true underflow to 0; a typical point; a
    # denominator that underflows but a density that does not; a density
    # that overflows
    pts = [
        (1e200, 1e200, 1.0),
        (1.0, 1e200, 1e200),
        (1e200, 1.0, 1.0),
        (1.0, 1.0, 0.5),
        (1.0, 1.0, 1e-170),
        (1.0, 1.0, 1e-320),
    ]
    got = bw_rel(1e200, ProfileParams(mu=1e200, gamma=1.0, sigma=1e150))
    want = _bw_mp(1e200, 1e200, 1.0)[1]
    assert abs(got - want) <= 1e-15 * want and abs(want - 1.0 / (math.pi * 1e200)) <= 1e-15 * want
    assert bw_rel(1.0, ProfileParams(mu=1e200, gamma=1e200, sigma=1.0)) == 0.0
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
    assert bad.tolist() == [False, False, False, False, False, True]
