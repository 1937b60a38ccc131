"""Gamma/Beta special functions and sphere/ball measure constants.

Everything downstream — the Beta-function integral identities, the sharp
constant, the quadrature prefactors — funnels through these few functions.
log Gamma is the standard library's ``math.lgamma``, applied elementwise to
arrays; the test suite checks it against scipy and known values.

Convention: ``sphere_measure(m)`` is the surface measure of the unit sphere
in m-dimensional space, fixed by requiring

    integral over R^m of f(|y|) dy  =  sphere_measure(m) * integral_0^inf
                                       f(rho) rho^(m-1) d rho

for radial f.  With this convention sphere_measure(m) = m * ball_volume(m).
"""

from __future__ import annotations

import math
import numpy as np

from .errors import ParameterDomainError, _float_array, require_int

__all__ = [
    "log_gamma",
    "beta",
    "sphere_measure",
    "ball_volume",
]

_lgamma = np.vectorize(math.lgamma, otypes=[float])


def log_gamma(x):
    """Natural log of Gamma(x) for x > 0.  Accepts scalars or arrays."""
    arr = _float_array(x)
    if arr is None or np.any(~np.isfinite(arr)) or np.any(arr <= 0.0):
        raise ParameterDomainError(f"log_gamma requires x > 0, got {x}")
    if arr.ndim == 0:
        return math.lgamma(float(arr))
    return _lgamma(arr)


def beta(a, b):
    """Beta function B(a, b) for a, b > 0, evaluated in log space; array
    arguments must broadcast together."""
    a_arr, b_arr = _float_array(a), _float_array(b)
    if (a_arr is None or b_arr is None or np.any(a_arr <= 0.0) or np.any(b_arr <= 0.0)
            or any(x != y and 1 not in (x, y)
                   for x, y in zip(a_arr.shape[::-1], b_arr.shape[::-1]))):
        raise ParameterDomainError(f"beta requires positive arguments that broadcast "
                                   f"together, got ({a}, {b})")
    out = np.exp(log_gamma(a_arr) + log_gamma(b_arr) - log_gamma(a_arr + b_arr))
    if a_arr.ndim == 0 and b_arr.ndim == 0:
        return float(out)
    return out


# math.gamma(m/2 + 1) overflows from m = 342 up
_MAX_DIMENSION = 340


def _dimension(m, name: str) -> int:
    m = require_int(m, "m")
    if not 1 <= m <= _MAX_DIMENSION:
        raise ParameterDomainError(
            f"{name} requires an integer 1 <= m <= {_MAX_DIMENSION}, got {m}")
    return m


def sphere_measure(m: int) -> float:
    """Surface measure of the unit sphere in R^m: 2 pi^(m/2) / Gamma(m/2)."""
    m = _dimension(m, "sphere_measure")
    return 2.0 * math.pi ** (0.5 * m) / math.gamma(0.5 * m)


def ball_volume(m: int) -> float:
    """Volume of the unit ball in R^m: pi^(m/2) / Gamma(m/2 + 1)."""
    m = _dimension(m, "ball_volume")
    return math.pi ** (0.5 * m) / math.gamma(0.5 * m + 1.0)
