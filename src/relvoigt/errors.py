"""Exception hierarchy.

DomainError marks inputs outside an operation's mathematical domain
(non-finite values, evaluation in a regime a formula is not valid for).
ParameterError is the physical-parameter flavor (mu, gamma, sigma out of
range).  IntegrationError signals quadrature breakdown: a non-finite
integrand value or a scheme that cannot reach its tolerance.

require_finite, require_int and check_side are the argument checks every
module shares.
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
    "check_side",
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
    """Numerical integration failed or met a non-finite integrand value."""


def require_finite(name: str, x: float) -> float:
    """x as a float; DomainError naming the argument unless it is finite."""
    x = float(x)
    if not math.isfinite(x):
        raise DomainError(f"{name} must be finite, got {x!r}")
    return x


def require_int(name: str, x) -> int:
    """x as an int; DomainError naming the argument unless it is an integer."""
    try:
        return operator.index(x)
    except TypeError:
        raise DomainError(f"{name} must be an integer, got {x!r}") from None


def check_side(side: int) -> int:
    """The side of a one-sided limit; DomainError unless it is +1 or -1."""
    if side not in (1, -1):
        raise DomainError(f"side must be +1 or -1, got {side!r}")
    return side
