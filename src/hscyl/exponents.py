"""Exponent calculus for the weighted Sobolev embedding.

The ambient space is R^n = R^k x R^(n-k) and the weight |x|^(-s) measures
distance to the (n-k)-dimensional subspace {x = 0}.  This module holds all
the derived exponents (the weighted critical exponent, Hoelder conjugates,
the r/r' pair, the decay bound) plus the admissibility predicate that every
other module consults before computing anything.

All functions are pure and stateless.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

from .errors import ParameterDomainError, require_int, require_real, require_split

__all__ = [
    "ExponentContext",
    "ExponentReport",
    "hs_conjugate",
    "critical_pair",
    "admissible",
    "aux_exponents",
    "galaxy_mass_window",
    "galaxy_mass_inside",
]


def _check_ps(p: float, s: float, n: int) -> tuple[float, float]:
    p = require_real(p, "p", 1.0, n)
    return p, require_real(s, "s", 0.0, p, "[]")


@dataclass(frozen=True)
class ExponentContext:
    """Parameter quadruple (n, k, p, s).

    The constructor enforces the hard ranges (integer n >= 3, integer
    2 <= k <= n, 1 < p < n, 0 <= s <= p).  The remaining conditions s < k
    and s(n-k) < k(n-p) are what :func:`admissible` reports, so that
    out-of-window contexts can be *represented* and classified rather than
    being unconstructible.
    """

    n: int
    k: int
    p: float
    s: float

    def __post_init__(self):
        n, k = require_split(self.n, self.k)
        p, s = _check_ps(self.p, self.s, n)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "s", s)


@dataclass(frozen=True)
class ExponentReport:
    """Every derived exponent of an admissible context in one bundle."""

    p_star_s: float
    p_prime: float
    r: float
    r_prime: float  # math.inf at the endpoint s = p
    sigma: float
    p_sigma: float
    decay_bound: float
    kappa: Callable[[float], float] = field(repr=False)


def hs_conjugate(p: float, s: float, n: int) -> float:
    """Weighted critical exponent p(n-s)/(n-p).

    Interpolates between the Sobolev conjugate np/(n-p) at s = 0 and p
    itself at s = p.
    """
    n = require_int(n, "n")
    p, s = _check_ps(p, s, n)
    return p * (n - s) / (n - p)


def critical_pair(p: float, s: float, n: int) -> tuple[float, float]:
    """The pair (r, r') with r = n/(n-p+s) and r' its Hoelder conjugate.

    r' equals p*/(p*(s) - p), which simplifies to n/(p-s); at the endpoint
    s = p it is reported as an explicit math.inf, never as an overflow.
    """
    n = require_int(n, "n")
    p, s = _check_ps(p, s, n)
    r = n / (n - p + s)
    if s == p:
        return r, math.inf
    return r, n / (p - s)


def decay_bound(n: int, p: float) -> float:
    """(n-p)/(p-1), the supremum of the guaranteed decay rates of
    finite-energy solutions; n - 2, the rate of |z|^(2-n), at p = 2.
    Needs integer n and 1 < p < n."""
    n = require_int(n, "n")
    p = require_real(p, "p", 1.0, n)
    return (n - p) / (p - 1.0)


def admissible(ctx: ExponentContext) -> bool:
    """True iff s<k and s(n-k) < k(n-p) both hold (the context itself
    guarantees 1<p<n and 0<=s<=p).

    The last condition guarantees r*s < k, so the weighted embedding with
    exponent r*s is still available during iteration arguments.
    """
    n, k, p, s = ctx.n, ctx.k, ctx.p, ctx.s
    return s < k and s * (n - k) < k * (n - p)


def aux_exponents(ctx: ExponentContext) -> ExponentReport:
    """Fill an :class:`ExponentReport` for an admissible context.

    sigma is s(n-p)/(2p(n-s)) and p_sigma is the critical exponent that
    appears when the inequality is rewritten with the weight split off as
    |x|^(-sigma * p_sigma); decay_bound is :func:`decay_bound`.
    """
    if not admissible(ctx):
        raise ParameterDomainError(f"context {ctx} is not admissible")
    n, k, p, s = ctx.n, ctx.k, ctx.p, ctx.s
    r, r_prime = critical_pair(p, s, n)

    def kappa(t: float) -> float:
        return hs_conjugate(p, require_real(t, "t", 0.0, min(p, s), "[)"), n) / p

    return ExponentReport(
        p_star_s=hs_conjugate(p, s, n),
        p_prime=p / (p - 1.0),
        r=r,
        r_prime=r_prime,
        sigma=s * (n - p) / (2.0 * p * (n - s)),
        p_sigma=hs_conjugate(p, s, n),
        decay_bound=decay_bound(n, p),
        kappa=kappa,
    )


def galaxy_mass_window(gamma: float) -> tuple[float, float]:
    """Exponent window (2*(gamma), 6) for the n = 3 stellar-dynamics model.

    For a potential with weight decay exponent gamma in (0, 2), solutions
    with nonlinearity exponent q strictly inside the window have finite
    mass.  2*(gamma) = 2(3-gamma)/(3-2).
    """
    gamma = require_real(gamma, "gamma", 0.0, 2.0)
    return 2.0 * (3.0 - gamma), 6.0


def galaxy_mass_inside(q: float, gamma: float) -> bool:
    """True iff q lies strictly inside the finite-mass window."""
    low, high = galaxy_mass_window(gamma)
    return low < require_real(q, "q", ends="[]") < high
