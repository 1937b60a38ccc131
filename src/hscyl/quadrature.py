"""Adaptive quadrature for singular weighted integrals in radial and
cylindrical reduction.

This is the independent check against every closed-form identity in the
package, so it deliberately shares no code with the Beta-function route:
panels are Gauss-Kronrod 7/15 and the endpoint weight rho^(k-1-s) is
folded into the integrand (its exponent exceeds -1 whenever k > s, so
interior-node panels converge without any special singular rule).  Radial
ranges are split at rho = 1 and transformed by rho = w^2 near the origin
and rho = u^(-2) on the semi-infinite tail; both double the weight
exponents, so the half-integer powers a fractional s produces become
polynomial and panels converge at full order (a single rho/(1+rho)
compression leaves fractional-power endpoints that measurably stall
refinement).

All integrands must accept numpy arrays in their radial argument; plain
scalar callables are detected and wrapped, at a cost.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConvergenceError,
    GridError,
    ParameterDomainError,
    SingularityError,
    require_int,
    require_split,
)
from .specfn import sphere_measure

__all__ = [
    "QuadratureResult",
    "CylindricalDomain",
    "integrate_radial",
    "integrate_cylindrical",
    "singular_newtonian_integral",
    "DEFAULT_TOL",
    "DEFAULT_BUDGET",
]

DEFAULT_TOL = 1e-10
DEFAULT_BUDGET = 10**7

# Gauss-Kronrod 7/15 nodes and weights on [-1, 1].
_XGK = np.array([
    0.991455371120813, 0.949107912342759, 0.864864423359769,
    0.741531185599394, 0.586087235467691, 0.405845151377397,
    0.207784955007898, 0.000000000000000,
])
_WGK = np.array([
    0.022935322010529, 0.063092092629979, 0.104790010322250,
    0.140653259715525, 0.169004726639267, 0.190350578064785,
    0.204432940075298, 0.209482141084728,
])
_WG = np.array([
    0.129484966168870, 0.279705391489277,
    0.381830050505119, 0.417959183673469,
])

_NODES = np.concatenate((-_XGK[:-1], _XGK[::-1]))            # 15 ascending
_W_K = np.concatenate((_WGK[:-1], _WGK[::-1]))
_W_G = np.zeros(15)
_W_G[1:15:2] = np.concatenate((_WG[:-1], _WG[::-1]))         # Gauss subset


@dataclass(frozen=True)
class QuadratureResult:
    """Value of an integral, the error bound the routine believes, and the
    number of integrand evaluations spent obtaining it."""

    value: float
    error_estimate: float
    evaluations: int


@dataclass(frozen=True)
class CylindricalDomain:
    """Integration ranges in (rho, r).

    Semi-infinite ranges are the default.  Each range is split at 1 and
    mapped by rho = w^2 below it and rho = u^(-2) on a semi-infinite tail
    (see the module docstring).  ``r_max`` must be None when the
    reduction has no second radial direction (k = n).
    """

    rho_max: float = math.inf
    r_max: float | None = math.inf

    def __post_init__(self):
        if not self.rho_max > 0.0:
            raise ParameterDomainError(f"rho_max must be positive, got {self.rho_max}")
        if self.r_max is not None and not self.r_max > 0.0:
            raise ParameterDomainError(f"r_max must be positive, got {self.r_max}")


class _Budget:
    """Shared evaluation counter for nested adaptive passes."""

    __slots__ = ("used", "limit")

    def __init__(self, limit: int):
        self.used = 0
        self.limit = int(limit)

    def spend(self, n: int, partial=None):
        self.used += n
        if self.used > self.limit:
            raise ConvergenceError(
                f"quadrature evaluation budget {self.limit} exhausted", partial=partial
            )


def _vectorized_1d(f):
    """Return f if it maps arrays to same-shape arrays, else a wrapped copy.

    Only the shape failures of a scalar-only callable given an array
    (TypeError, ValueError) select the wrapper; any other error from the
    probe propagates."""
    probe = np.array([0.37, 0.73])
    try:
        out = np.asarray(f(probe), dtype=float)
        if out.shape == probe.shape:
            return f
    except (TypeError, ValueError):
        pass
    return lambda x: np.array([float(f(xi)) for xi in np.atleast_1d(x)])


def _nodewise(g):
    """Batch integrand for _adaptive from a scalar g(x) -> (value, error),
    called once per abscissa (for integrands that are themselves
    adaptive integrals)."""
    def fvec(xs):
        vals = np.empty_like(xs)
        errs = np.empty_like(xs)
        for i, x in enumerate(xs):
            vals[i], errs[i] = g(float(x))
        return vals, errs
    return fvec


def _panel_eval(fvec, lefts, rights):
    """Evaluate GK15 on a batch of panels.

    fvec maps an array of abscissae to (values, carried_errors); returns
    per-panel Kronrod values, error estimates and the evaluation count.
    """
    lefts = np.asarray(lefts, dtype=float)
    rights = np.asarray(rights, dtype=float)
    h = 0.5 * (rights - lefts)
    c = 0.5 * (rights + lefts)
    pts = c[:, None] + h[:, None] * _NODES[None, :]
    vals, side = fvec(pts.ravel())
    vals = vals.reshape(pts.shape)
    side = side.reshape(pts.shape)
    bad = ~np.isfinite(vals)
    if np.any(bad):
        vals = np.where(bad, 0.0, vals)
    i_k = (vals @ _W_K) * h
    i_g = (vals @ _W_G) * h
    err = np.abs(i_k - i_g) + (np.abs(side) @ _W_K) * np.abs(h)
    err[np.any(bad, axis=1)] = math.inf
    return i_k, err, pts.size


def _adaptive(fvec, a, b, tol, budget: _Budget, initial_splits=8):
    """Globally adaptive GK15 on [a, b] with relative tolerance ``tol``.

    fvec(x) -> (values, carried_errors); carried errors (e.g. from an inner
    integral) are folded into each panel's error estimate.  Returns
    (value, error_estimate).
    """
    edges = np.linspace(a, b, initial_splits + 1)
    lefts, rights = edges[:-1], edges[1:]
    vals, errs, n_eval = _panel_eval(fvec, lefts, rights)
    budget.spend(n_eval)
    min_width = 64.0 * np.finfo(float).eps * (b - a)

    while True:
        total = float(np.sum(vals))
        total_err = float(np.sum(errs))
        if total_err <= tol * abs(total) or total_err == 0.0:
            return total, total_err
        order = np.argsort(errs)[::-1]
        n_split = max(1, min(64, len(order) // 2 + 1))
        worst = order[:n_split]
        worst = worst[errs[worst] > 0.25 * tol * abs(total) / max(len(errs), 1)]
        if len(worst) == 0:
            return total, total_err
        if np.any((rights[worst] - lefts[worst]) < min_width):
            raise ConvergenceError(
                "quadrature cannot resolve integrand (panel width underflow); "
                f"partial value {total!r} with error {total_err!r}",
                partial=QuadratureResult(total, total_err, budget.used),
            )
        partial = QuadratureResult(float(np.sum(vals)), float(np.sum(errs)), budget.used)
        mids = 0.5 * (lefts[worst] + rights[worst])
        new_l = np.concatenate((lefts[worst], mids))
        new_r = np.concatenate((mids, rights[worst]))
        new_v, new_e, n_eval = _panel_eval(fvec, new_l, new_r)
        budget.spend(n_eval, partial=partial)
        keep = np.ones(len(vals), dtype=bool)
        keep[worst] = False
        lefts = np.concatenate((lefts[keep], new_l))
        rights = np.concatenate((rights[keep], new_r))
        vals = np.concatenate((vals[keep], new_v))
        errs = np.concatenate((errs[keep], new_e))


def _radial_segments_with_side(g2, weight_pow: float, upper: float):
    """Transformed integrand pieces covering integral of g(rho) rho^weight_pow,
    for g2 returning (values, carried_errors).

    The range is split at rho = 1.  The head uses rho = w^2 and the
    semi-infinite tail rho = u^(-2); both double the weight exponent, so
    the half-integer powers that arise from fractional s become smooth
    polynomial factors and panels converge at full Gauss-Kronrod order
    (a plain rho/(1+rho) compression leaves fractional-power endpoints
    that measurably stall the refinement).  Finite tails run directly in
    rho.  Returns a list of (fvec, a, b) pieces.
    """
    beta = weight_pow
    head_top = min(1.0, upper)

    def head(w):
        jac = 2.0 * w ** (2.0 * beta + 1.0)
        vals, errs = g2(w * w)
        return vals * jac, errs * jac

    pieces = [(head, 0.0, math.sqrt(head_top))]
    if upper <= 1.0:
        return pieces
    if math.isinf(upper):
        def tail(u):
            jac = 2.0 * u ** (-(2.0 * beta + 3.0))
            vals, errs = g2(u**-2.0)
            return vals * jac, errs * jac
        pieces.append((tail, 0.0, 1.0))
    else:
        def finite_tail(rho):
            vals, errs = g2(rho)
            return vals * rho**beta, errs * rho**beta
        pieces.append((finite_tail, 1.0, float(upper)))
    return pieces


def _radial_segments(g, weight_pow: float, upper: float):
    """Segment pieces for a plain array->array integrand g."""
    def g2(rho):
        vals = np.asarray(g(rho), dtype=float)
        return vals, np.zeros_like(vals)
    return _radial_segments_with_side(g2, weight_pow, upper)


def _integrate_segments(pieces, tol, counter):
    value = 0.0
    err = 0.0
    for fvec, a, b in pieces:
        v, e = _adaptive(fvec, a, b, tol, counter)
        value += v
        err += e
    return value, err


def integrate_radial(g, k: int, s: float, tol: float = DEFAULT_TOL, *,
                     upper: float = math.inf,
                     budget: int = DEFAULT_BUDGET) -> QuadratureResult:
    """sigma_k * integral_0^upper g(rho) rho^(k-1-s) d rho.

    The weight exponent k-1-s stays above -1 because k > s, so the origin
    is integrable and is never sampled.  Divergent tails (or a genuinely
    non-integrable g) exhaust the budget and raise ConvergenceError.
    """
    k = require_int(k, "k")
    if k < 1:
        raise ParameterDomainError(f"k must be an integer >= 1, got {k}")
    if not (k > s >= 0.0):
        raise ParameterDomainError(f"need k > s >= 0, got k={k}, s={s}")
    if not tol > 0.0:
        raise ParameterDomainError(f"tol must be positive, got {tol}")
    g = _vectorized_1d(g)
    counter = _Budget(budget)
    pieces = _radial_segments(g, k - 1.0 - s, upper)
    value, err = _integrate_segments(pieces, 0.5 * tol, counter)
    sigma = sphere_measure(k)
    return QuadratureResult(sigma * value, sigma * err, counter.used)


def integrate_cylindrical(f, n: int, k: int, s: float,
                          domain: CylindricalDomain | None = None,
                          tol: float = DEFAULT_TOL, *,
                          budget: int = DEFAULT_BUDGET) -> QuadratureResult:
    """sigma_k sigma_(n-k) * double integral of
    f(rho, r) rho^(k-1-s) r^(n-k-1) over the (rho, r) quadrant.

    Computed as an iterated integral, adaptively in both directions; inner
    (rho) errors ride along into the outer error estimate.  For k = n the
    second direction is absent: f is evaluated as f(rho, 0.0) and only the
    sigma_k prefactor applies.
    """
    n, k = require_split(n, k)
    if not (k > s >= 0.0):
        raise ParameterDomainError(f"need k > s >= 0, got k={k}, s={s}")
    if domain is None:
        domain = CylindricalDomain(r_max=None if k == n else math.inf)
    if k == n:
        if domain.r_max is not None:
            raise GridError("k = n leaves no second radial direction, but an "
                            "r range was supplied")
        return integrate_radial(lambda rho: f(rho, 0.0), k, s, tol,
                                upper=domain.rho_max, budget=budget)
    if domain.r_max is None:
        raise GridError(f"k = {k} < n = {n} requires an r range")

    counter = _Budget(budget)
    inner_tol = 0.25 * tol
    weight_pow = k - 1.0 - s

    def inner(r: float) -> tuple[float, float]:
        pieces = _radial_segments(lambda rho: f(rho, r), weight_pow,
                                  domain.rho_max)
        return _integrate_segments(pieces, inner_tol, counter)

    # reuse the radial segment maps for the outer direction: the inner
    # value plays the role of g(r) and the r measure is the weight
    outer_pieces = _radial_segments_with_side(_nodewise(inner), n - k - 1.0,
                                              domain.r_max)
    value, err = _integrate_segments(outer_pieces, 0.25 * tol, counter)
    sigma = sphere_measure(k) * sphere_measure(n - k)
    return QuadratureResult(sigma * value, sigma * err, counter.used)


def singular_newtonian_integral(z, n: int, k: int, s: float,
                                tol: float = 1e-6, *,
                                budget: int = DEFAULT_BUDGET) -> QuadratureResult:
    """Newtonian-kernel integral over the half-radius ball centred at z:

        I(z) = integral over {|z - zeta| <= |z|/2} of
               |z - zeta|^(2-n) |xi|^(-s) d zeta,

    where zeta = (xi, eta) splits along R^k x R^(n-k).  After shifting to
    w = z - zeta the ball is parameterised by the radii u = |w_x| and
    v = |w_y| of the two factors, with the mean of |xi|^(-s) over the
    directions of w_x taken once per u node (a constant times u^(-s) when
    s = 0 or x = 0).  I scales like |z|^(2-s).
    """
    n, k = require_split(n, k)
    if not (0.0 <= s < min(k, 2)):
        raise ParameterDomainError(f"need 0 <= s < min(k, 2), got s={s}")
    z = np.asarray(z, dtype=float)
    if z.shape != (n,):
        raise ParameterDomainError(f"z must be a point in R^{n}, got shape {z.shape}")
    znorm = float(np.linalg.norm(z))
    if znorm == 0.0:
        raise SingularityError("singular Newtonian integral undefined at z = 0")
    xnorm = float(np.linalg.norm(z[:k]))
    radius = 0.5 * znorm

    counter = _Budget(budget)
    # mean of |x - w_x|^(-s) over directions of w_x, for |w_x| = u
    flat_theta = (s == 0.0) or (xnorm == 0.0)
    theta_mean = sphere_measure(k) / sphere_measure(k - 1)

    def theta_integral(u: float) -> tuple[float, float]:
        """integral over (0, pi) of sin^(k-2)(theta) |x - w_x|^(-s) d theta
        at |w_x| = u, written via |x - w_x|^2 = c^2 + 4 u |x| sin^2(theta/2)
        (exact, no cancellation).  Near the slice u = |x| the integrand
        peaks at theta = 0 with width c/sqrt(u|x|); a tangent map puts a
        fixed number of panels across the peak whatever c is.
        """
        if flat_theta:
            return theta_mean * (1.0 if s == 0.0 else u ** (-s)), 0.0
        c = abs(xnorm - u)
        if c == 0.0:
            return math.inf, math.inf
        four_ux = 4.0 * u * xnorm

        def f_theta(th):
            base = c * c + four_ux * np.sin(0.5 * th) ** 2
            kern = base ** (-0.5 * s)
            if k > 2:
                kern = kern * np.sin(th) ** (k - 2)
            return kern, np.zeros_like(th)

        width = c / math.sqrt(u * xnorm) if four_ux > 0.0 else math.inf
        if width >= 0.5:
            return _adaptive(f_theta, 0.0, math.pi, 0.1 * tol, counter)
        theta_split = min(1.0, 1e3 * width)

        def f_peak(psi):
            th = width * np.tan(psi)
            jac = width / np.cos(psi) ** 2
            vals, _ = f_theta(th)
            return vals * jac, np.zeros_like(psi)

        near, err_near = _adaptive(f_peak, 0.0, math.atan(theta_split / width),
                                   0.05 * tol, counter)
        far, err_far = _adaptive(f_theta, theta_split, math.pi, 0.05 * tol,
                                 counter)
        return near + far, err_near + err_far

    if k == n:
        @_nodewise
        def f_t(t):
            m, e = theta_integral(t)
            return t * m, t * e

        val, err = _adaptive(f_t, 0.0, radius, 0.5 * tol, counter)
        pref = sphere_measure(k - 1)
        return QuadratureResult(pref * val, pref * err, counter.used)

    # general case: iterate over the two radial factors of w directly, so
    # the angular mean (the expensive piece: its integrand develops a
    # near-singular slice at u = |x|) is evaluated once per u node
    def v_integral(u: float) -> tuple[float, float]:
        vmax = math.sqrt(max(radius * radius - u * u, 0.0))
        if vmax == 0.0:
            return 0.0, 0.0

        def f_v(vs):
            vals = vs ** (n - k - 1.0) * (u * u + vs * vs) ** (0.5 * (2.0 - n))
            return vals, np.zeros_like(vs)

        return _adaptive(f_v, 0.0, vmax, tol / 6.0, counter)

    @_nodewise
    def outer_g(u):
        mean, err_t = theta_integral(u)
        vol, err_v = v_integral(u)
        return mean * vol, abs(mean) * err_v + abs(vol) * err_t + err_t * err_v

    pieces = _radial_segments_with_side(outer_g, k - 1.0, radius)
    val, err = _integrate_segments(pieces, tol / 3.0, counter)
    pref = sphere_measure(n - k) * sphere_measure(k - 1)
    return QuadratureResult(pref * val, pref * err, counter.used)
