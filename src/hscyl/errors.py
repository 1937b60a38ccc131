"""Exception taxonomy shared by every module.

Two broad families matter to callers: domain errors (bad inputs, shell exit
code 2) and convergence errors (a numerical routine ran out of budget, exit
code 3).  Usage errors are raised only by the command-line layer (exit 1).
There is no error for two closed forms that disagree: a quantity that
follows from another is computed from it, and the tests compare routes.
The validators, :func:`require_int`, :func:`require_positive`,
:func:`require_split` and :func:`require_point`, live here too, so every
module can import them without an import cycle, and no ValueError,
TypeError or OverflowError escapes one of them.
"""

import math

import numpy as np


class HscylError(Exception):
    """Base class for all package errors."""


class DomainError(HscylError):
    """Input lies outside the mathematical domain of an operation."""


class ParameterDomainError(DomainError):
    """A parameter violates its stated range (e.g. p outside (1, n))."""


class ConvergenceDomainError(DomainError):
    """A closed-form integral diverges for these parameters."""


class SingularityError(DomainError):
    """Evaluation requested exactly on a singular point."""


class FitDomainError(DomainError):
    """Samples are unusable for a decay fit (span, sign, or inconclusive)."""


class GridError(DomainError):
    """Grid is unusable: too few nodes, degenerate ranges, ball off-grid."""


class ConvergenceError(HscylError):
    """An iterative routine exhausted its budget before meeting tolerance.

    ``partial`` carries the best value or result obtained before failing:
    a quadrature entry point gives the QuadratureResult of the whole
    integral so far, whose error estimate covers any piece it never
    reached (an infinite one when it could not bound that piece).
    """

    def __init__(self, message, partial=None):
        super().__init__(message)
        self.partial = partial


class UsageError(HscylError):
    """Malformed command line or configuration file."""


def require_int(value, name: str) -> int:
    """``value`` as an ``int``, or ParameterDomainError.

    Bools, arrays, non-integral numbers, nan, infinities and non-numeric
    input are all rejected the same way, so no ValueError, OverflowError or
    TypeError from ``int()`` escapes a validator.
    """
    if not isinstance(value, (bool, np.bool_)) and np.ndim(value) == 0:
        try:
            as_int = int(value)
        except (TypeError, ValueError, OverflowError):
            pass
        else:
            if as_int == value:
                return as_int
    raise ParameterDomainError(f"{name} must be an integer, got {value!r}")


def require_positive(value, name: str) -> None:
    """ParameterDomainError unless 0 < value < inf; nan fails too."""
    if not 0.0 < value < math.inf:
        raise ParameterDomainError(f"{name} must be positive and finite, got {value}")


def require_split(n, k) -> tuple[int, int]:
    """``(n, k)`` as ints for the split R^k x R^(n-k): integer n >= 3 and
    integer 2 <= k <= n, or ParameterDomainError."""
    n, k = require_int(n, "n"), require_int(k, "k")
    if n < 3 or not (2 <= k <= n):
        raise ParameterDomainError(f"need n >= 3 and 2 <= k <= n, got n={n}, k={k}")
    return n, k


def require_point(value, dim: int, name: str) -> np.ndarray:
    """``value`` as a float array of shape (dim,) with finite entries (a
    scalar counts as a point of R^1), or ParameterDomainError."""
    try:
        point = np.array(value, dtype=float, ndmin=1)
    except (TypeError, ValueError):  # ragged or non-numeric input
        pass
    else:
        if point.shape == (dim,) and np.isfinite(point).all():
            return point
    raise ParameterDomainError(f"{name} must be a point in R^{dim} with finite coordinates, "
                               f"got {value!r}")
