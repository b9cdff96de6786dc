"""Exception hierarchy.

DomainError marks inputs outside an operation's mathematical domain
(non-finite values, evaluation in a regime a formula is not valid for).
ParameterError is the physical-parameter flavor (mu, gamma, sigma out of
range).  IntegrationError signals quadrature breakdown: a point whose
integral does not converge, or an integrand that returns the wrong shape.

require_finite and require_int are the argument checks every module
shares.
"""

from __future__ import annotations

import math
import operator

__all__ = [
    "RelVoigtError",
    "DomainError",
    "ParameterError",
    "IntegrationError",
    "require_finite",
    "require_int",
]


class RelVoigtError(Exception):
    """Base class for every error raised by this package.

    RelVoigtError(template, *values) holds its values and formats
    template % values only when the message is read, so a caller that
    catches the error and goes on never pays for their repr.
    """

    def __str__(self) -> str:
        if len(self.args) > 1:
            return self.args[0] % self.args[1:]
        return super().__str__()


class DomainError(RelVoigtError, ValueError):
    """An input lies outside the mathematical domain of the operation."""


class ParameterError(DomainError):
    """A physical profile parameter (mu, gamma, sigma) is out of range."""


class IntegrationError(RelVoigtError, RuntimeError):
    """Quadrature did not converge at a point, or an integrand returned the wrong shape."""


def require_finite(name: str, x: float) -> float:
    """x as a float; DomainError naming the argument unless it is finite.

    x is converted by float(), so anything float() rejects, such as None,
    is a DomainError too, and so is a numpy complex value.
    """
    if type(x) is not float:
        try:
            # float() would take a numpy complex value's real part
            if not isinstance(x, float) and getattr(getattr(x, "dtype", None), "kind", "") == "c":
                raise TypeError
            x = float(x)
        except (TypeError, ValueError):
            raise DomainError(f"{name} must be a real number, got {x!r}") from None
    if not math.isfinite(x):
        raise DomainError(f"{name} must be finite, got {x!r}")
    return x


def require_int(name: str, x, least: int) -> int:
    """x as an int; DomainError naming the argument unless it is an integer >= least."""
    try:
        n = operator.index(x)
    except TypeError:
        raise DomainError(f"{name} must be an integer, got {x!r}") from None
    if n < least:
        raise DomainError(f"{name} must be >= {least}, got {n!r}")
    return n

