"""Classical line-broadening function and Voigt profile."""

from __future__ import annotations

import cmath
import math

import numpy as np
import pytest

from relvoigt import (
    DomainError,
    IntegrationError,
    ParameterError,
    ProfileParams,
    bw_nonrel,
    gaussian,
    h0,
    h0_laplace_rep,
    h0_limit_a0,
    v0,
)
from relvoigt.quadrature import integrate_real_line, integrate_real_line_compactified_batch
from relvoigt.routes import _laplace_route

from oracles import erfc_complex, erfc_real

SQRT_2PI = math.sqrt(2.0 * math.pi)


def h0_quadrature(a: float, u: float, tol: float = 1e-12) -> float:
    """Defining integral (a/pi) Int e^{-t^2}/((u-t)^2+a^2) dt, trusted route."""
    width = min(abs(a), 0.5)
    seeds = [u - width, u, u + width]

    def f(t: np.ndarray) -> np.ndarray:
        return np.exp(-t * t) / ((u - t) ** 2 + a * a)

    r = integrate_real_line(f, tol, seeds=seeds)
    assert r.converged
    return a / math.pi * r.value


def test_h0_value_at_1_0():
    # equals e * erfc(1) = Re w(i)
    got = h0(1.0, 0.0)
    assert abs(got - math.e * erfc_real(1.0)) < 1e-14
    assert abs(got - 0.4275835761558069) < 1e-14


def test_h0_odd_in_a():
    assert h0(-0.5, 1.2) == -h0(0.5, 1.2)
    assert h0(0.0, 3.0) == 0.0


def test_h0_even_in_u():
    rng = np.random.default_rng(20240822)
    for _ in range(50):
        a = 10.0 ** rng.uniform(-3, 1)
        u = rng.uniform(0.0, 8.0)
        assert abs(h0(a, -u) - h0(a, u)) <= 1e-12 * h0(a, u)


def test_h0_bounded():
    rng = np.random.default_rng(20240823)
    for _ in range(200):
        a = 10.0 ** rng.uniform(-6, 2)
        u = rng.uniform(-8.0, 8.0)
        val = h0(a, u)
        assert 0.0 < val <= 1.0


def test_h0_near_gaussian_limit():
    for u in (0.0, 1.0, 2.0):
        assert abs(h0(1e-6, u) - math.exp(-u * u)) < 5e-3


def test_h0_limit_values():
    assert h0_limit_a0(0.0, 1) == 1.0
    assert h0_limit_a0(0.0, -1) == -1.0
    assert abs(h0_limit_a0(1.0, 1) - 1.0 / math.e) < 1e-16
    with pytest.raises(DomainError):
        h0_limit_a0(0.0, 2)


def test_h0_limit_approach_monotone():
    for u in (0.0, 1.0, 2.0):
        limit = math.exp(-u * u)
        devs = [abs(h0(a, u) - limit) for a in (0.1, 0.01, 0.001)]
        assert devs[0] > devs[1] > devs[2]


def test_h0_matches_quadrature_spots():
    for a in (1e-3, 0.1, 1.0, 10.0):
        for u in (0.0, 0.7, 3.3, -6.0):
            ref = h0_quadrature(a, u)
            assert abs(h0(a, u) - ref) <= 1e-9 * max(1.0, abs(ref))


def test_h0_two_erfc_identity():
    """The naive two-term erfc form agrees at moderate arguments.

    h0 evaluates Re w(u+ia); the identity below is the same thing written
    with explicit exponential prefactors, which overflow for large |u|
    and so live only in this test.
    """
    for a, u in ((0.7, 1.5), (1.0, 0.0), (0.3, -2.0)):
        z1 = complex(u, a)
        term1 = cmath.exp(-z1 * z1) * erfc_complex(complex(a, -u))
        z2 = complex(u, -a)
        term2 = cmath.exp(-z2 * z2) * erfc_complex(complex(a, u))
        ident = 0.5 * (term1 + term2)
        assert abs(ident.imag) < 1e-13
        assert abs(ident.real - h0(a, u)) < 1e-13


def test_h0_laplace_rep_matches():
    for a, u in ((1.0, 0.0), (0.5, 2.0), (2.0, 0.0)):
        r = h0_laplace_rep(a, u)
        assert r.method == "quadrature"
        assert abs(r.value - h0(a, u)) <= 1e-9


def test_h0_laplace_rep_batch_matches_one_point_calls():
    a = np.array([0.5, 1.0, 0.2, 3.0, 0.7, 2.5, 0.3])
    u = np.array([0.0, 1.5, 1.0, 2.0, -1.3, -2.0, 0.4])
    batch = _laplace_route(a, u)
    assert batch.converged.all()
    for k in range(a.size):
        single = h0_laplace_rep(a[k], u[k])
        assert abs(batch.value[k] - single.value) <= batch.error_estimate[k] + single.error_estimate
        assert abs(batch.value[k] - h0(a[k], u[k])) <= 1e-9


def test_h0_laplace_rep_estimate_bounds_its_error():
    # against 30-digit values of Re w(u + ia), w(z) = e^{-z^2} erfc(-iz), on
    # 300 seeded points with a log-uniform in [1e-2, 10] and |u| <= 8
    mp = pytest.importorskip("mpmath")
    rng = np.random.default_rng(23)
    a = 10.0 ** rng.uniform(-2.0, 1.0, 300)
    u = rng.uniform(-8.0, 8.0, 300)
    batch = _laplace_route(a, u)
    assert batch.converged.all()
    with mp.workdps(30):
        for k in range(a.size):
            z = mp.mpc(u[k], a[k])
            ref = float((mp.exp(-z * z) * mp.erfc(-1j * z)).real)
            assert abs(batch.value[k] - ref) <= batch.error_estimate[k], (a[k], u[k])


def test_h0_laplace_rep_nonconvergence_names_the_point():
    # e^{iux} at u = 1e6 oscillates faster than 4,000 splits resolve on
    # [0, 24]: estimate ~0.95
    with pytest.raises(
        IntegrationError,
        match=r"^quadrature did not converge at \(a, u\)=\(0\.001, 1000000\.0\); error estimate",
    ):
        h0_laplace_rep(1e-3, 1e6)


def test_h0_laplace_rep_requires_positive_a():
    with pytest.raises(DomainError):
        h0_laplace_rep(0.0, 1.0)
    with pytest.raises(DomainError):
        h0_laplace_rep(-1.0, 1.0)


def test_v0_normalized():
    p = ProfileParams(mu=1.0, gamma=0.2, sigma=0.3)
    r = integrate_real_line_compactified_batch(
        lambda e, k: np.vectorize(lambda x: v0(x, p))(e),
        1,
        1e-10,
        seeds=[[1.0]],
    )
    assert r.converged[0]
    assert abs(r.value[0] - 1.0) < 1e-9


def test_v0_symmetric_about_mu():
    p = ProfileParams(mu=0.5, gamma=0.4, sigma=0.25)
    for d in (0.3, 1.1, 2.0):
        lhs, rhs = v0(0.5 + d, p), v0(0.5 - d, p)
        assert abs(lhs - rhs) <= 1e-12 * lhs


def test_v0_is_the_convolution():
    """Direct numerical convolution of the two densities reproduces v0."""
    p = ProfileParams(mu=1.0, gamma=0.5, sigma=0.3)
    # E' = e + s x puts the Gaussian factor at e^{-x^2}
    s = p.sigma * math.sqrt(2.0)
    for e in (0.4, 1.0, 1.9):

        def f(x: np.ndarray) -> np.ndarray:
            ep = e + s * x
            lor = (p.gamma / (2.0 * math.pi)) / ((ep - p.mu) ** 2 + (p.gamma / 2.0) ** 2)
            gau = np.exp(-((e - ep) ** 2) / (2.0 * p.sigma**2)) / (p.sigma * SQRT_2PI)
            return s * lor * gau

        r = integrate_real_line(
            f,
            1e-12,
            seeds=[(p.mu - e) / s, 0.0],
        )
        assert r.converged
        assert abs(r.value - v0(e, p)) < 1e-10


def test_v0_peak_approaches_lorentzian_peak():
    gamma = 0.2
    peak = 2.0 / (math.pi * gamma)
    p = ProfileParams(mu=1.0, gamma=gamma, sigma=gamma / 100.0)
    assert abs(v0(1.0, p) - peak) / peak < 1e-2
    assert abs(peak - bw_nonrel(1.0, p)) < 1e-12


def test_v0_parameter_errors():
    with pytest.raises(ParameterError):
        v0(0.0, ProfileParams(mu=1.0, gamma=0.0, sigma=0.3))
    with pytest.raises(ParameterError):
        v0(0.0, ProfileParams(mu=1.0, gamma=0.5, sigma=0.0))


def test_h0_rejects_non_finite():
    with pytest.raises(DomainError):
        h0(float("nan"), 0.0)
    with pytest.raises(DomainError):
        h0(1.0, float("inf"))
