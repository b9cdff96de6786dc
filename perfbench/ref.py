"""mpmath reference values for h0, h2, v0, v2, d0, d2 and i2.

Every value is computed in multiprecision arithmetic and carries at least
40 correct significant digits before it is rounded to a double:

* h2 uses the four-term Faddeeva closed form with the working precision
  raised until the cancellation between the pole groups (measured on the
  terms themselves) still leaves 40 + guard digits.  When every pole of
  the quartic lies farther than 1e25 from the origin the Gaussian bulk
  sees only the constant term of the kernel, and the expansion
  a / (sqrt(pi) (u1^2 u2^2 + a^2)) is exact to better than 1e-48 relative;
  that branch covers the overflow inputs without 1000-digit arithmetic.
* h0 is Re w(u + ia) with w(z) = exp(-z^2) erfc(-iz).
* v0, v2, d0, d2 go through the same reduced coordinates as the package,
  formed here in multiprecision so that sigma = 1e-160 does not overflow.

``quad_h2`` and ``quad_h0`` integrate the defining integrals with
``mpmath.quad``; they are the self-check of the closed-form references
and are too slow for bulk use.
"""

from __future__ import annotations

import mpmath as mp

DIGITS = 40
_GUARD = 12
_BASE_DPS = DIGITS + _GUARD
_FAR_POLE = mp.mpf(10) ** 25


def _w(z):
    return mp.exp(-z * z) * mp.erfc(-1j * z)


def _h2_terms(a, u1, u2):
    d = u1 - u2
    s = u1 + u2
    w1 = mp.sqrt(d * d + 4j * a)
    w2 = mp.sqrt(d * d - 4j * a)
    t1p = (s + w1) / 2
    t1m = (s - w1) / 2
    t2p = (s + w2) / 2
    t2m = (s - w2) / 2
    return w1, w2, (t1p, t1m, t2p, t2m)


def _h2_pos(a, u1, u2):
    """H2 for a > 0 at the current working precision, plus digits lost."""
    w1, w2, (t1p, t1m, t2p, t2m) = _h2_terms(a, u1, u2)
    if min(abs(t) for t in (t1p, t1m, t2p, t2m)) > _FAR_POLE:
        return a / (mp.sqrt(mp.pi) * (u1 * u1 * u2 * u2 + a * a)), 0
    g1 = (_w(t1p) + _w(-t1m)) / (2 * w1)
    g2 = (_w(-t2p) + _w(t2m)) / (2 * w2)
    value = (g1 + g2).real
    scale = max(abs(g1), abs(g2))
    if value == 0:
        return value, mp.mp.dps
    lost = max(0, int(mp.ceil(mp.log10(scale / abs(value)))))
    return value, lost


def h2_mp(a, u1, u2):
    """H2(a, u1, u2) as an mpf with >= DIGITS correct digits (odd in a)."""
    dps = _BASE_DPS
    while True:
        with mp.workdps(dps):
            aa, x, y = mp.mpf(a), mp.mpf(u1), mp.mpf(u2)
            if aa == 0:
                return mp.mpf(0)
            sign = 1 if aa > 0 else -1
            value, lost = _h2_pos(abs(aa), x, y)
            if dps - lost >= _BASE_DPS:
                return sign * value
        dps = lost + _BASE_DPS + 8


def h0_mp(a, u):
    with mp.workdps(_BASE_DPS):
        aa, uu = mp.mpf(a), mp.mpf(u)
        if aa == 0:
            return mp.mpf(0)
        sign = 1 if aa > 0 else -1
        return sign * _w(mp.mpc(uu, abs(aa))).real


def i2_mp(a, u1, u2):
    with mp.workdps(_BASE_DPS):
        aa, x, y = mp.mpf(a), mp.mpf(u1), mp.mpf(u2)
        sign = -1 if aa < 0 else 1
        w1, w2, _ = _h2_terms(abs(aa), x, y)
        return sign * (1 / w1 + 1 / w2).real


def v0_mp(e, mu, gamma, sigma):
    with mp.workdps(_BASE_DPS):
        e, mu, gamma, sigma = map(mp.mpf, (e, mu, gamma, sigma))
        r2 = mp.sqrt(2)
        a = gamma / (2 * r2 * sigma)
        u = (e - mu) / (r2 * sigma)
        return h0_mp(a, u) / (mp.sqrt(2 * mp.pi) * sigma)


def v2_mp(e, mu, gamma, sigma):
    with mp.workdps(_BASE_DPS):
        e, mu, gamma, sigma = map(mp.mpf, (e, mu, gamma, sigma))
        s = mp.sqrt(2) * sigma
        a = gamma * mu / (2 * sigma * sigma)
        h = h2_mp(a, (e - mu) / s, (e + mu) / s)
        return h / (2 * mp.sqrt(mp.pi) * sigma * sigma)


def d0_mp(sigma, gamma, mu):
    if sigma == 0:
        return mp.mpf(1)
    with mp.workdps(_BASE_DPS):
        bare = 2 / (mp.pi * mp.mpf(gamma))
        return v0_mp(mu, mu, gamma, sigma) / bare


def d2_mp(sigma, gamma, mu):
    if sigma == 0:
        return mp.mpf(1)
    with mp.workdps(_BASE_DPS):
        bare = 1 / (mp.pi * mp.mpf(mu) * mp.mpf(gamma))
        return v2_mp(mu, mu, gamma, sigma) / bare


# function name -> (parameter order, multiprecision evaluator)
REFERENCES = {
    "h0": (("a", "u"), h0_mp),
    "h2": (("a", "u1", "u2"), h2_mp),
    "v0": (("e", "mu", "gamma", "sigma"), v0_mp),
    "v2": (("e", "mu", "gamma", "sigma"), v2_mp),
    "d0": (("sigma", "gamma", "mu"), d0_mp),
    "d2": (("sigma", "gamma", "mu"), d2_mp),
    "i2": (("a", "u1", "u2"), i2_mp),
}


def reference(function: str, params: dict) -> float:
    """The reference value rounded to the nearest double (0 on underflow)."""
    names, fn = REFERENCES[function]
    return float(fn(*(params[n] for n in names)))


def quad_h2(a, u1, u2, dps: int = 30):
    """Defining integral of H2 by mpmath.quad, split at the kernel peaks."""
    with mp.workdps(dps):
        a, u1, u2 = mp.mpf(a), mp.mpf(u1), mp.mpf(u2)

        def f(t):
            p = (u1 - t) * (u2 - t)
            return mp.exp(-t * t) / (p * p + a * a)

        width = abs(a) / max(abs(u1 - u2), mp.sqrt(abs(a)))
        cuts = {u1, u2}
        for u in (u1, u2):
            k = width
            while k < 4:
                cuts.update((u - k, u + k))
                k *= 4
        pts = [-mp.inf] + sorted(cuts) + [mp.inf]
        return a / mp.pi * mp.quad(f, pts, maxdegree=10)


def quad_h0(a, u, dps: int = 30):
    """Defining integral of H0 by mpmath.quad, split at the Lorentzian peak."""
    with mp.workdps(dps):
        a, u = mp.mpf(a), mp.mpf(u)

        def f(t):
            return mp.exp(-t * t) / ((u - t) ** 2 + a * a)

        cuts = {u}
        k = abs(a)
        while k < 4:
            cuts.update((u - k, u + k))
            k *= 4
        pts = [-mp.inf] + sorted(cuts) + [mp.inf]
        return a / mp.pi * mp.quad(f, pts, maxdegree=10)
