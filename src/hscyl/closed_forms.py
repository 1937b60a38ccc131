"""Closed-form objects: Beta-function integral identities, the extremal
family and its sharp constant, the explicit two/three-subspace solutions,
the fundamental solution and the Kelvin transform.

The sharp constant deserves a warning.  The published display for K
contains typos (a stray power of the shift and a wrong Beta argument), and
its 'simplified' second line disagrees with its own first line.  We
therefore solve the normalisation identity

    K^(2(n-1)^2/(n-2)) = ((n-2)/2)^(2(n-1)) * J,
    J = integral of |x|^(-1) [ (|x| + shift)^2 + |y|^2 ]^(-(n-1)),

with J taken from its exact Beta composition, and we keep the literal
published formula as a diagnostic value with its discrepancy reported,
never averaged in.  This module imports no numerical route: the tests check
J, like every other closed form here, against adaptive quadrature.

In this normalisation the constrained minimum of the Dirichlet energy is
Lambda = K^(2(n-1)/(n-2)) (the Euler-Lagrange multiplier); the best ratio
of the weighted norm to the gradient norm is Lambda^(-1/2), not K itself.
See SharpConstant.attained_ratio.  SharpConstant stores K and K_printed
only; Lambda, mu and the printed discrepancy are computed from them where
they are read, so no closed form here re-checks another.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ConvergenceDomainError,
    ParameterDomainError,
    SingularityError,
    require_int,
    require_point,
    require_positive,
    require_split,
)
from .specfn import ball_volume, beta, sphere_measure

__all__ = [
    "SharpConstant",
    "ExtremalParams",
    "ShiftedQuadraticParams",
    "beta_integral_full",
    "beta_integral_radial",
    "sharp_constant_K",
    "extremal_v",
    "extremal_profile",
    "shifted_power_solution",
    "shifted_power_profile",
    "multi_subspace_solution",
    "multi_subspace_coefficients",
    "fundamental_solution",
    "kelvin_transform",
]

# ---------------------------------------------------------------------------
# Beta-function integral identities
# ---------------------------------------------------------------------------

def beta_integral_full(n: int, k: int, m: float, s: float) -> float:
    """Closed form of the split-weight integral over R^k x R^(n-k):

        integral of (1 + |x|^2 + |y|^2)^(-m) |x|^(-s) dy dx
          = (sigma_(n-k)/2)(sigma_k/2)
            * B((n-k)/2, m - (n-k)/2) * B((k-s)/2, m - (n-s)/2).

    Requires 0 <= s < k < n and m > (n-s)/2 for convergence.
    """
    n = require_int(n, "n")
    k = require_int(k, "k")
    if not (0.0 <= s < k < n):
        raise ParameterDomainError(f"need 0 <= s < k < n, got s={s}, k={k}, n={n}")
    if math.isnan(m):  # neither converges nor diverges
        raise ParameterDomainError(f"m must be a number, got m={m}")
    if not m > 0.5 * (n - k):
        raise ConvergenceDomainError(
            f"first Beta factor diverges: need m > (n-k)/2 = {0.5 * (n - k)}, got m={m}"
        )
    if not m > 0.5 * (n - s):
        raise ConvergenceDomainError(
            f"second Beta factor diverges: need m > (n-s)/2 = {0.5 * (n - s)}, got m={m}"
        )
    return (
        0.5 * sphere_measure(n - k)
        * 0.5 * sphere_measure(k)
        * beta(0.5 * (n - k), m - 0.5 * (n - k))
        * beta(0.5 * (k - s), m - 0.5 * (n - s))
    )


def beta_integral_radial(k: int, a: float, s: float) -> float:
    """Closed form of the one-factor weighted integral over R^k:

        integral of (1 + |x|^2)^(-a) |x|^(-s) dx
          = (sigma_k/2) * B((k-s)/2, a - (k-s)/2),

    valid for k > s >= 0 and a > (k-s)/2.
    """
    k = require_int(k, "k")
    if not (k > s >= 0.0):
        raise ParameterDomainError(f"need k > s >= 0, got k={k}, s={s}")
    if math.isnan(a):  # neither converges nor diverges
        raise ParameterDomainError(f"a must be a number, got a={a}")
    if not a > 0.5 * (k - s):
        raise ConvergenceDomainError(
            f"Beta factor diverges: need a > (k-s)/2 = {0.5 * (k - s)}, got a={a}"
        )
    return 0.5 * sphere_measure(k) * beta(0.5 * (k - s), a - 0.5 * (k - s))


# ---------------------------------------------------------------------------
# Sharp constant
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SharpConstant:
    """Constant K for the s = 1, p = 2 inequality on R^k x R^(n-k); its
    companions Lambda and mu are computed from K where they are read.

    ``K_printed`` is the literal published formula, retained as a diagnostic
    together with its relative discrepancy from K.
    """

    n: int
    k: int
    K: float
    K_printed: float = float("nan")

    def __post_init__(self):
        n, k = require_split(self.n, self.k)
        require_positive(self.K, "K")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "k", k)

    @property
    def Lambda(self) -> float:
        """The Euler-Lagrange multiplier K^(2(n-1)/(n-2)), which is also the
        constrained minimum of the Dirichlet energy."""
        return self.K ** (2.0 * (self.n - 1) / (self.n - 2))

    @property
    def mu(self) -> float:
        """4 Lambda/(n-2)^2."""
        return 4.0 * self.Lambda / (self.n - 2) ** 2

    @property
    def printed_discrepancy(self) -> float:
        """Relative discrepancy |K_printed - K| / K of the published display."""
        return abs(self.K_printed - self.K) / self.K

    @property
    def attained_ratio(self) -> float:
        """Best value of the weighted norm over the gradient norm, i.e. the
        constant that multiplies the right-hand side of the inequality.
        Equals Lambda^(-1/2) = K^(-(n-1)/(n-2))."""
        return self.Lambda ** -0.5

    @property
    def shift(self) -> float:
        """Axis shift (n-2)/(4a), a = k-1, of the unit-dilation extremal."""
        return _extremal_shift(self.n, self.k)


def _extremal_shift(n: int, k: int, lam: float = 1.0) -> float:
    """Axis shift (n-2)/(4 (k-1) lam^2) of the extremal with dilation lam."""
    return (n - 2) / (4.0 * (k - 1) * lam**2)


def _y_factor(n: int, k: int) -> float:
    """The |y| integral behind J, (sigma_(n-k)/2) B((n-k)/2, (n+k)/2 - 1);
    it degenerates to 1 for k = n."""
    if k == n:
        return 1.0
    return 0.5 * sphere_measure(n - k) * beta(0.5 * (n - k), 0.5 * (n + k) - 1.0)


def _normalization_integral_closed(n: int, k: int, shift: float) -> float:
    """Beta composition of the two nested radial integrals behind J: the
    |y| factor times the |x| factor sigma_k shift^(1-n) B(k-1, n-1)."""
    return _y_factor(n, k) * sphere_measure(k) * shift ** (1.0 - n) * beta(k - 1.0, n - 1.0)


def _k_printed(n: int, k: int, shift: float) -> float:
    """Literal published formula for K (first line of its display)."""
    rhs = ((0.5 * (n - 2)) ** (2 * (n - 1))
           * _y_factor(n, k)
           * sphere_measure(k) / shift ** (n + k + 1)
           * beta(k - 1.0, n + k - 1.0))
    return rhs ** ((n - 2) / (2.0 * (n - 1) ** 2))


def sharp_constant_K(n: int, k: int) -> SharpConstant:
    """Compute K for the s = 1 extremal family on R^k x R^(n-k).

    The normalisation integral J (with unit dilation and shift (n-2)/(4a))
    is its Beta composition, and K solves

        K^(2(n-1)^2/(n-2)) = ((n-2)/2)^(2(n-1)) * J.

    The literal published formula is evaluated alongside and its relative
    discrepancy recorded.
    """
    n, k = require_split(n, k)
    shift = _extremal_shift(n, k)
    j = _normalization_integral_closed(n, k, shift)
    K = ((0.5 * (n - 2)) ** (2 * (n - 1)) * j) ** ((n - 2) / (2.0 * (n - 1) ** 2))
    return SharpConstant(n=n, k=k, K=K, K_printed=_k_printed(n, k, shift))


# ---------------------------------------------------------------------------
# Extremal family
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExtremalParams:
    """Dilation lambda and translation y0 selecting one extremal."""

    n: int
    k: int
    lam: float = 1.0
    y0: np.ndarray = field(default=None)

    def __post_init__(self):
        n, k = require_split(self.n, self.k)
        require_positive(self.lam, "lam")
        y0 = require_point(np.zeros(n - k) if self.y0 is None else self.y0, n - k, "y0")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "lam", float(self.lam))
        object.__setattr__(self, "y0", y0)


def extremal_profile(params: ExtremalParams, constant: SharpConstant):
    """Cylindrical profile (rho, r) -> v of the extremal, r = |y - y0|:

        v = lam^-(n-2) ((n-2)/2)^(n-2) K^-(n-1) ((rho + shift)^2 + r^2)^(-(n-2)/2),

    with the shift of :func:`_extremal_shift`.  The paper also prints the
    prefactor as lam^-(n-2) (4/(n-2)^2)^(-(n-2)/2) K^-(n-1); the tests check
    that shape, and Lambda^(-(n-2)/2) in place of K^-(n-1), against this one.
    """
    if (params.n, params.k) != (constant.n, constant.k):
        raise ParameterDomainError(
            f"extremal params (n={params.n}, k={params.k}) do not match "
            f"constant (n={constant.n}, k={constant.k})"
        )
    n, lam = params.n, params.lam
    pref = lam ** -(n - 2.0) * (0.5 * (n - 2)) ** (n - 2.0) * constant.K ** -(n - 1.0)
    shift = _extremal_shift(n, params.k, lam)

    def profile(rho, r):
        return pref * ((rho + shift) ** 2 + np.asarray(r) ** 2) ** (-0.5 * (n - 2))

    return profile


def extremal_v(params: ExtremalParams, constant: SharpConstant, x_norm: float, y) -> float:
    """Evaluate the extremal at (|x|, y); y lives in the R^(n-k) factor,
    so it is an empty point when k = n."""
    if not 0.0 <= x_norm < math.inf:
        raise ParameterDomainError(f"x_norm must be finite and >= 0, got {x_norm}")
    y = require_point(y, params.n - params.k, "y")
    r = float(np.linalg.norm(y - params.y0))
    return float(extremal_profile(params, constant)(x_norm, r))


# ---------------------------------------------------------------------------
# Explicit solutions on split factors
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ShiftedQuadraticParams:
    """Three-parameter family on R^(a+1) x R^(b+1), n = a + b + 2.

    p_coef and q_coef are the source coefficients of the equation the
    solution satisfies; they are derived, never set independently.
    """

    a: int
    b: int
    lam: float = 1.0
    alpha: float = 0.0
    beta: float = 0.0

    def __post_init__(self):
        a = require_int(self.a, "a")
        b = require_int(self.b, "b")
        if a < 1 or b < 1:
            raise ParameterDomainError(f"a, b must be positive integers, got {a}, {b}")
        _, (alpha, beta) = _split_family((a + 1, b + 1), self.lam, (self.alpha, self.beta))
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "lam", float(self.lam))
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "beta", beta)

    @property
    def n(self) -> int:
        return self.a + self.b + 2

    @property
    def p_coef(self) -> float:
        return multi_subspace_coefficients((self.a + 1, self.b + 1), self.lam,
                                           (self.alpha, self.beta))[0]

    @property
    def q_coef(self) -> float:
        return multi_subspace_coefficients((self.a + 1, self.b + 1), self.lam,
                                           (self.alpha, self.beta))[1]


def shifted_power_profile(params: ShiftedQuadraticParams):
    """Cylindrical profile (rho, r) -> lam^(2-n) ((rho+alpha)^2+(r+beta)^2)^((2-n)/2),
    the two-factor case of :func:`multi_subspace_solution`."""
    dims, offsets = (params.a + 1, params.b + 1), (params.alpha, params.beta)

    def profile(rho, r):
        return multi_subspace_solution(dims, params.lam, offsets, (rho, r))

    return profile


def shifted_power_solution(params: ShiftedQuadraticParams, x, y) -> float:
    """Evaluate the explicit solution at x in R^(a+1), y in R^(b+1)."""
    x = require_point(x, params.a + 1, "x")
    y = require_point(y, params.b + 1, "y")
    return float(shifted_power_profile(params)(np.linalg.norm(x), np.linalg.norm(y)))


def _split_family(dims, lam: float, offsets) -> tuple[tuple, tuple]:
    """(dims, offsets) of a split of R^n into radial factors, as ints and
    floats: integer dims >= 1 summing to n >= 3, a finite lam > 0 and one
    finite offset per factor (a point of R^len(dims)), or
    ParameterDomainError."""
    dims = tuple(require_int(d, "subspace dimension") for d in dims)
    if not dims or min(dims) < 1 or sum(dims) < 3:
        raise ParameterDomainError(
            f"need subspace dimensions >= 1 summing to n >= 3, got {dims}")
    require_positive(lam, "lam")
    return dims, tuple(require_point(offsets, len(dims), "offsets").tolist())


def multi_subspace_coefficients(dims, lam: float, offsets) -> tuple[float, ...]:
    """Source coefficients alpha_i (n-2) lam^2 a_i for a multi-factor split."""
    dims, offsets = _split_family(dims, lam, offsets)
    n = sum(dims)
    return tuple(off * (n - 2) * lam**2 * (d - 1) for off, d in zip(offsets, dims))


def multi_subspace_solution(dims, lam: float, offsets, radii):
    """Explicit solution for a split of R^n into several radial factors:

        v = lam^(2-n) ( sum_i (rho_i + offset_i)^2 )^((2-n)/2),

    with n = sum of the factor dimensions; the radii may be arrays that
    broadcast together.  Satisfies Delta v = -v^(n/(n-2)) sum_i coef_i / rho_i
    with the coefficients from :func:`multi_subspace_coefficients`.
    """
    dims, offsets = _split_family(dims, lam, offsets)
    if len(radii) != len(dims):
        raise ParameterDomainError("one radius per subspace is required")
    n = sum(dims)
    squares = ((np.asarray(r, dtype=float) + off) ** 2
               for r, off in zip(radii, offsets))
    base = next(squares)
    for _ in dims[1:]:
        # a fresh square on the left lets numpy add into its buffer
        base = next(squares) + base
    if np.any(base == 0.0):
        raise SingularityError("explicit solution has a pole at this point")
    return lam ** (2.0 - n) * base ** (0.5 * (2.0 - n))


# ---------------------------------------------------------------------------
# Fundamental solution and Kelvin transform
# ---------------------------------------------------------------------------

def _ambient(n) -> int:
    """n as an int, the dimension n >= 3 of R^n, or ParameterDomainError."""
    n = require_int(n, "n")
    if n <= 2:
        raise ParameterDomainError(f"need n > 2, got n={n}")
    return n


def fundamental_solution(n: int, z_norm: float) -> float:
    """Positive fundamental solution of the Laplacian,
    (n(n-2) omega_n)^(-1) |z|^(2-n), omega_n the unit-ball volume."""
    n = _ambient(n)
    if z_norm == 0.0:
        raise SingularityError("fundamental solution is singular at z = 0")
    if not 0.0 <= z_norm < math.inf:
        raise ParameterDomainError(f"z_norm must be finite and >= 0, got {z_norm}")
    return z_norm ** (2.0 - n) / (n * (n - 2) * ball_volume(n))


def kelvin_transform(u, n: int):
    """Inversion (Ku)(z) = |z|^(2-n) u(z / |z|^2) as a function on points.

    An involution, and an isometry of the Dirichlet energy for functions
    supported away from the puncture; evaluation at z = 0, or at anything
    but a finite point of R^n, is refused.
    """
    n = _ambient(n)

    def transformed(z):
        z = require_point(z, n, "z")
        norm_sq = float(np.dot(z, z))
        if norm_sq == 0.0:
            raise SingularityError("Kelvin transform is singular at z = 0")
        return norm_sq ** (0.5 * (2.0 - n)) * u(z / norm_sq)

    return transformed
