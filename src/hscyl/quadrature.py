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

The Newtonian-kernel ball integral iterates over the radii of the two
factors.  Its inner integrals peak at 0 with widths that vary from node to
node, and one map, x = width sinh(xi), puts a fixed number of panels
across any of those peaks (``_peaked``).  The outer range is split at the
slice u = |x|, where the angular mean is singular, and each side runs in
its distance from the slice; on the axis x = 0 the mean's u^(-s) joins the
outer weight.  At the ball's edge u = R the v range shrinks like
sqrt(R^2 - u^2), so the outer integrand ends in (R - u)^((n-k)/2).  For
odd n - k that half-integer power stalls refinement at the edge, so the
outer piece that ends there runs in tau, with its variable x on [a, b] at
x = b - (b - a)(1 - tau)^2 (``_edge_map``); R - u is linear in b - x at
the edge, so the power becomes polynomial in tau.  For even n - k, and for
k = n, the end is smooth and the map would only cost passes.

Integrands receive numpy arrays: g(rho) in the radial case and two
same-shape arrays f(rho, r) in the cylindrical one.  A callable that takes
only scalars is detected by one probe and called point by point, at a
cost.  A non-finite integrand value raises SingularityError; it is never
replaced.  A ConvergenceError (an exhausted budget, an unresolvable
integrand) carries the whole integral so far as its ``partial``, with an
infinite error estimate while a piece of the range is still unreached.
Nested integrals run as batches: each pass of an outer integral computes
the inner integrals at all of its new abscissae in one adaptive loop, in
which every integral follows the refinement rule of a lone run at its own
tolerance and is summed in a lone run's order, so a batch gives each
integral its lone-run value bit for bit.  A batch may hold integrals of
several kinds (``_peaked``): each Newtonian outer pass makes one batch of
the inner integrals it has, the angular mean and the v integral.
Each integral's first pass is small, four panels (two on a sinh-mapped
peak), because a nested batch pays it once per outer node; refinement
then splits only the panels that need it.  A result counts the adaptive
passes it made, nested ones included, besides its integrand evaluations.
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
    require_point,
    require_real,
    require_split,
)
from .specfn import sphere_measure

__all__ = [
    "QuadratureResult",
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
    """Value of an integral, the error bound the routine believes, the
    number of integrand evaluations spent obtaining it and the number of
    adaptive passes (panel evaluations) that spent them, nested ones
    included."""

    value: float
    error_estimate: float
    evaluations: int
    passes: int


class _Budget:
    """Shared evaluation and pass counter for nested adaptive passes; its
    limit is DEFAULT_BUDGET as it stands when the counter is built."""

    __slots__ = ("used", "passes", "limit")

    def __init__(self):
        self.used = 0
        self.passes = 0
        self.limit = DEFAULT_BUDGET

    def spend(self, n: int):
        """Count one pass of n evaluations, or raise before they are made
        if they would pass the limit."""
        if self.used + n > self.limit:
            raise ConvergenceError(f"quadrature evaluation budget {self.limit} exhausted")
        self.used += n
        self.passes += 1


def _vectorized(f, nargs: int = 1):
    """Return f if it maps nargs same-shape arrays to an array of that
    shape, else a copy that broadcasts its arguments and calls f once per
    point.

    Only the shape failures of a scalar-only callable given arrays
    (TypeError, ValueError) select the wrapper; any other error from the
    probe propagates."""
    probe = np.array([0.37, 0.73])
    try:
        out = np.asarray(f(*[probe] * nargs), dtype=float)
        if out.shape == probe.shape:
            return f
    except (TypeError, ValueError):
        pass
    return np.vectorize(f, otypes=[float])


def _exact(f):
    """Batch integrand with no carried error from a plain f(x, owner)."""
    return lambda x, owner: (np.asarray(f(x, owner), dtype=float), np.zeros_like(x))


def _panel_eval(fvec, lefts, rights, owner, budget: _Budget):
    """Spend the evaluations from ``budget``, then evaluate GK15 on panels
    [lefts[i], rights[i]] of the integrals owner[i]; returns per-panel
    Kronrod values and error estimates (see _adaptive for fvec).

    A non-finite integrand value raises SingularityError naming the first
    abscissa that gave one, in the variable of the panels (after any map).
    """
    h = 0.5 * (rights - lefts)
    c = 0.5 * (rights + lefts)
    pts = (c[:, None] + h[:, None] * _NODES[None, :]).ravel()
    budget.spend(pts.size)
    vals, side = fvec(pts, owner.repeat(_NODES.size))
    if not np.isfinite(vals).all():
        bad = np.flatnonzero(~np.isfinite(vals))[0]
        raise SingularityError(f"integrand is {float(vals[bad])} at abscissa "
                               f"{float(pts[bad])!r}")
    vals = vals.reshape(-1, _NODES.size)
    side = side.reshape(-1, _NODES.size)
    # fixed-order row sums, not a matrix product: a BLAS product rounds a
    # row differently depending on the batch it sits in
    i_k = np.add.reduce(vals * _W_K, axis=1) * h
    i_g = np.add.reduce(vals * _W_G, axis=1) * h
    err = np.abs(i_k - i_g) + np.add.reduce(np.abs(side) * _W_K, axis=1) * np.abs(h)
    return i_k, err


def _adaptive(fvec, a, b, tol, budget: _Budget, floor=0.0, first_panels=4):
    """Globally adaptive GK15 on the independent intervals [a[i], b[i]],
    each integral to an error of ``tol[i]`` times its own magnitude or its
    absolute ``floor[i]``, whichever is larger (a scalar ``tol`` or
    ``floor`` holds for all of them).

    Each integral starts on ``first_panels`` equal panels and then
    splits its worst ones until it meets its target.  A nested batch pays
    the start once per outer node, so it is kept small: four panels, and
    two on a sinh-mapped peak (``_peaked``), where the map has already
    spread the peak evenly.

    fvec(x, owner) -> (values, carried_errors), where owner[j] is the
    integral that abscissa x[j] belongs to; carried errors (e.g. from an
    inner integral) are folded into each panel's error estimate.  Every
    integral follows the refinement rule of a lone run at its own
    tolerance, and each pass evaluates the new panels of all integrals
    still open in one call.  New panels are appended, so each integral's
    panels stand in its lone run's order, the order np.bincount sums them
    in.  Returns the arrays (values, error_estimates).

    A ConvergenceError leaves with ``partial`` set to these arrays as they
    stood after the last complete pass: an open integral holds the sum of
    its panels then, and one not yet evaluated holds 0 with an infinite
    error.  What an inner integral set is replaced, since the outer sum
    covers the panels whose evaluation failed.
    """
    values, errors = np.zeros(a.size), np.full(a.size, math.inf)
    tol, floor = np.full(a.size, tol), np.full(a.size, floor)
    span = b - a
    min_width = 64.0 * np.finfo(float).eps * span
    # equal panels, as np.linspace computes them, with the last edge exactly b
    edges = np.arange(first_panels + 1) * (span / first_panels)[:, None] + a[:, None]
    edges[:, -1] = b
    new_l, new_r = edges[:, :-1].ravel(), edges[:, 1:].ravel()
    new_o = np.repeat(np.arange(a.size), first_panels)
    panels, owner = np.empty((4, 0)), new_o[:0]

    while new_o.size:
        try:
            new_v, new_e = _panel_eval(fvec, new_l, new_r, new_o, budget)
        except ConvergenceError as exc:
            exc.partial = values, errors
            raise
        # per integral, in lone-run order: its unsplit panels, then the
        # left and right halves
        owner = np.concatenate((owner, new_o))
        panels = np.concatenate((panels, (new_l, new_r, new_v, new_e)), axis=1)
        lefts, rights, vals, errs = panels
        count = np.bincount(owner, minlength=a.size)
        total = np.bincount(owner, vals, a.size)
        total_err = np.bincount(owner, errs, a.size)
        open_ = count > 0
        # final for the integrals that meet their target, partial for the rest
        values[open_], errors[open_] = total[open_], total_err[open_]
        target = np.maximum(tol * np.abs(total), floor)
        met = (total_err <= target) | (total_err == 0.0)
        order = np.lexsort((-errs, owner))                # worst panel first
        by_owner = owner[order]
        rank = np.arange(owner.size) - (count.cumsum() - count)[by_owner]
        pick = ((rank < np.minimum(64, count // 2 + 1)[by_owner])
                & (errs[order] > 0.25 * target[by_owner] / count[by_owner])
                & ~met[by_owner])
        worst = order[pick]
        if ((rights[worst] - lefts[worst]) < min_width[owner[worst]]).any():
            raise ConvergenceError(
                "quadrature cannot resolve integrand (panel width underflow)",
                partial=(values, errors))
        mids = 0.5 * (lefts[worst] + rights[worst])
        new_l = np.concatenate((lefts[worst], mids))
        new_r = np.concatenate((mids, rights[worst]))
        new_o = np.concatenate((owner[worst], owner[worst]))
        keep = np.bincount(new_o, minlength=a.size)[owner] > 0    # still open
        keep[worst] = False
        panels, owner = panels[:, keep], owner[keep]
    return values, errors


def _peaked(kinds, budget: _Budget):
    """Integrals over [0, upper[j]] of integrands that peak at x = 0, for
    a list of kinds (f, width, upper, tol): each kind holds the integrals
    of f(x, j), j < width.size, each with its own peak width[j], to its
    kind's tolerance ``tol``.  All the integrals of all the kinds run as
    one adaptive batch, in which each owner is sent to its kind's f;
    returns one (values, error_estimates) pair per kind.

    x = width[j] sinh(xi) spreads a peak of any width over a fixed range
    of xi and grows only logarithmically in upper/width, so one adaptive
    run resolves narrow and wide peaks alike (the sinh transformation for
    nearly singular integrals, Johnston & Elliott 2005).
    """
    sizes = [kind[1].size for kind in kinds]
    starts = np.cumsum([0] + sizes)
    # a leading empty array lets an empty list of kinds make an empty batch
    width, upper = (np.concatenate([np.empty(0)] + [kind[i] for kind in kinds])
                    for i in (1, 2))
    if (width < np.finfo(float).tiny).any():
        raise ConvergenceError("quadrature cannot resolve a peak whose width "
                               "underflows (an outer map underflowed)")

    def f(xi, j):
        x = width[j] * np.sinh(xi)
        out = np.empty_like(x)
        for (f_kind, *_), lo, hi in zip(kinds, starts, starts[1:]):
            own = (lo <= j) & (j < hi)
            out[own] = f_kind(x[own], j[own] - lo)
        return out * (width[j] * np.cosh(xi))

    values, errors = _adaptive(_exact(f), np.zeros_like(width), np.arcsinh(upper / width),
                               np.repeat([kind[3] for kind in kinds], sizes), budget,
                               first_panels=2)
    return [(values[lo:hi], errors[lo:hi]) for lo, hi in zip(starts, starts[1:])]


def _radial_segments(g2, weight_pow: float, upper: float):
    """Transformed integrand pieces covering integral of g(rho) rho^weight_pow,
    for g2(rho, owner) returning (values, carried_errors).

    The range is split at rho = 1: the head runs in w with rho = w^2, a
    semi-infinite tail in u with rho = u^(-2) (see the module docstring),
    and a finite tail directly in rho.  Where w^2 would still leave the
    head singular (weight_pow < -1/2), rho = w^(1/(weight_pow+1)) makes
    its weight constant instead.  Returns a list of (fvec, a, b) pieces.
    """
    def piece(to_rho, a, b):
        def fvec(x, owner):
            rho, jac = to_rho(x)
            vals, errs = g2(rho, owner)
            return vals * jac, errs * jac
        return fvec, a, b

    beta = weight_pow
    p = 2.0 if beta >= -0.5 else 1.0 / (beta + 1.0)
    pieces = [piece(lambda w: (w**p, p * w ** (p * (beta + 1.0) - 1.0)),
                    0.0, min(1.0, upper) ** (1.0 / p))]
    if math.isinf(upper):
        pieces.append(piece(lambda u: (u**-2.0, 2.0 * u ** (-(2.0 * beta + 3.0))),
                            0.0, 1.0))
    elif upper > 1.0:
        pieces.append(piece(lambda rho: (rho, rho**beta), 1.0, upper))
    return pieces


def _edge_map(piece):
    """The piece (fvec, a, b) in tau on [0, 1], with x = b - (b - a)(1 - tau)^2,
    so an endpoint behaviour (b - x)^(j/2) becomes polynomial in tau.

    x is formed as a + (b - a) tau (2 - tau), which keeps x - a accurate
    as tau -> 0, where a may be a singular point of its own."""
    fvec, a, b = piece
    span = b - a

    def mapped(tau, owner):
        vals, errs = fvec(a + span * (tau * (2.0 - tau)), owner)
        jac = 2.0 * span * (1.0 - tau)
        return vals * jac, errs * jac
    return mapped, 0.0, 1.0


def _integrate_segments(pieces, tol, counter, m: int = 1):
    """Sum of the pieces, for each of m integrals that share them.

    A later piece is held to ``tol`` relative to the sum so far, not only
    to itself: a sliver piece whose value is rounding noise could never
    meet a tolerance relative to that noise.  A ConvergenceError leaves
    with ``partial`` set to the sum so far, the failed piece's partial
    included, and an infinite error while a piece remains unreached."""
    value, err = np.zeros(m), np.zeros(m)
    for i, (fvec, a, b) in enumerate(pieces):
        try:
            v, e = _adaptive(fvec, np.full(m, a), np.full(m, b), tol, counter,
                             tol * np.abs(value))
        except ConvergenceError as exc:
            v, e = exc.partial
            exc.partial = value + v, err + e + (math.inf if i + 1 < len(pieces) else 0.0)
            raise
        value += v
        err += e
    return value, err


def _integrate(pieces, tol, counter, scale: float) -> QuadratureResult:
    """``scale`` times the sum of the pieces for one integral; a
    ConvergenceError leaves with the same form of the sum so far."""
    def result(value, err):
        return QuadratureResult(scale * float(value[0]), scale * float(err[0]),
                                counter.used, counter.passes)
    try:
        return result(*_integrate_segments(pieces, tol, counter))
    except ConvergenceError as exc:
        exc.partial = result(*exc.partial)
        raise


def integrate_radial(g, k: int, s: float, tol: float = DEFAULT_TOL, *,
                     upper: float = math.inf) -> QuadratureResult:
    """sigma_k * integral_0^upper g(rho) rho^(k-1-s) d rho.

    The weight exponent k-1-s stays above -1 because k > s, so the origin
    is integrable and is never sampled.  Divergent tails (or a genuinely
    non-integrable g) exhaust the DEFAULT_BUDGET evaluations and raise
    ConvergenceError.
    """
    k = require_int(k, "k")
    if k < 1:
        raise ParameterDomainError(f"k must be an integer >= 1, got {k}")
    s = require_real(s, "s", 0.0, k, "[)")
    upper = require_real(upper, "upper", 0.0, ends="(]")
    tol = require_real(tol, "tol", 0.0)
    counter = _Budget()
    g = _vectorized(g)
    pieces = _radial_segments(_exact(lambda rho, owner: g(rho)), k - 1.0 - s, upper)
    return _integrate(pieces, 0.5 * tol, counter, sphere_measure(k))


def integrate_cylindrical(f, n: int, k: int, s: float, tol: float = DEFAULT_TOL, *,
                          rho_max: float = math.inf,
                          r_max: float = math.inf) -> QuadratureResult:
    """sigma_k sigma_(n-k) * double integral of
    f(rho, r) rho^(k-1-s) r^(n-k-1) over 0 < rho < rho_max, 0 < r < r_max.

    Computed as an iterated integral, adaptively in both directions; inner
    (rho) errors ride along into the outer error estimate.  f receives
    same-shape arrays of rho and r.  Each range is split and mapped as in
    :func:`integrate_radial`, and either bound may be inf.  For k = n the
    second direction is absent: f is evaluated as f(rho, 0.0), only the
    sigma_k prefactor applies, and a finite r_max is a GridError.
    """
    n, k = require_split(n, k)
    s = require_real(s, "s", 0.0, k, "[)")
    tol = require_real(tol, "tol", 0.0)
    rho_max = require_real(rho_max, "rho_max", 0.0, ends="(]")
    r_max = require_real(r_max, "r_max", 0.0, ends="(]")
    if k == n:
        if r_max < math.inf:
            raise GridError("k = n leaves no second radial direction, but a finite "
                            "r_max was supplied")
        return integrate_radial(lambda rho: f(rho, 0.0), k, s, tol, upper=rho_max)
    counter = _Budget()
    f = _vectorized(f, 2)

    def inner(r, _):
        """The rho integrals at every outer node r, as one batch."""
        pieces = _radial_segments(_exact(lambda rho, j: f(rho, r[j])),
                                  k - 1.0 - s, rho_max)
        return _integrate_segments(pieces, 0.25 * tol, counter, r.size)

    # reuse the radial segment maps for the outer direction: the inner
    # value plays the role of g(r) and the r measure is the weight
    outer_pieces = _radial_segments(inner, n - k - 1.0, r_max)
    return _integrate(outer_pieces, 0.25 * tol, counter,
                      sphere_measure(k) * sphere_measure(n - k))


def singular_newtonian_integral(z, n: int, k: int, s: float,
                                tol: float = 1e-6) -> QuadratureResult:
    """Newtonian-kernel integral over the half-radius ball centred at z:

        I(z) = integral over {|z - zeta| <= |z|/2} of
               |z - zeta|^(2-n) |xi|^(-s) d zeta,

    where zeta = (xi, eta) splits along R^k x R^(n-k).  After shifting to
    w = z - zeta the ball is parameterised by the radii u = |w_x| and
    v = |w_y| of the two factors.  Each u node takes the mean of |xi|^(-s)
    over the directions of w_x, and u^(k-2) times the integral of the
    kernel over v (1 when k = n).  Both inner integrands peak at 0, with
    widths c/sqrt(u|x|) (c = |u - |x||) and u.  Each outer pass makes one
    ``_peaked`` batch of those it has: the mean unless it is flat (s = 0,
    or the axis x = 0), and the v integral unless k = n.  The outer
    weight is u, or u^(1-s) on the axis, where the mean is a constant
    times u^(-s).  When the slice u = |x| lies inside the ball
    the mean has a cusp, log or pole there, so the outer range is split at
    the slice and each side runs in its distance c from it.  At the ball's
    edge u -> R the v range sqrt(R^2 - u^2) leaves the outer integrand
    behaving like (R - u)^((n-k)/2); for odd n - k the piece that ends
    there is mapped by x = b - (b - a)(1 - tau)^2, which turns that
    half-integer power into a polynomial in tau.  Even n - k and k = n
    need no map.  I scales like |z|^(2-s).
    """
    n, k = require_split(n, k)
    s = require_real(s, "s", 0.0, min(k, 2), "[)")
    tol = require_real(tol, "tol", 0.0)
    z = require_point(z, n, "z")
    znorm = float(np.linalg.norm(z))
    if znorm == 0.0:
        raise SingularityError("singular Newtonian integral undefined at z = 0")
    xnorm = float(np.linalg.norm(z[:k]))
    radius = 0.5 * znorm

    counter = _Budget()
    # mean of |x - w_x|^(-s) over directions of w_x, for |w_x| = u: flat
    # (its u^(-s) on the axis goes into the outer weight) or peaked
    flat_theta = (s == 0.0) or (xnorm == 0.0)
    theta_mean = sphere_measure(k) / sphere_measure(k - 1)

    def theta_peak(u, c):
        """The integrals over (0, pi) of sin^(k-2)(theta) |x - w_x|^(-s)
        / c^(-s) at each |w_x| = u, a distance c = |u - |x|| from the
        slice, as a (integrand, width, upper, tol) kind of _peaked."""
        width = c / np.sqrt(u * xnorm)

        def kernel(th, j):
            # |x - w_x|^(-s) / c^(-s), from the exact (no cancellation)
            # |x - w_x|^2 = c^2 (1 + (2 sin(theta/2) / width)^2)
            kern = np.hypot(1.0, 2.0 * np.sin(0.5 * th) / width[j]) ** -s
            return kern * np.sin(th) ** (k - 2) if k > 2 else kern
        return kernel, width, np.full_like(u, math.pi), 0.1 * tol

    def v_peak(u):
        """u^(k-2) times the integrals of |w|^(2-n) v^(n-k-1) over v at
        each u, as a (integrand, width, upper, tol) kind of _peaked."""
        vmax = np.sqrt(np.maximum(radius * radius - u * u, 0.0))

        def f(v, j):
            # t^(n-k-1) (1 + t^2)^((2-n)/2) / u in t = v/u, arranged so
            # that neither a tiny u nor a large t overflows
            t = v / u[j]
            hyp = np.hypot(1.0, t)
            return (t / hyp) ** (n - k - 1.0) * hyp ** (1.0 - k) / u[j]
        return f, u, vmax, tol / 6.0

    # iterate over the two radial factors of w directly, so the angular
    # mean (the expensive piece) is evaluated once per u node
    def outer_g(u, c):
        # one batch of the inner integrals there are: a flat mean is
        # theta_mean, and the v factor is 1 when k = n
        kinds = ([] if flat_theta else [theta_peak(u, c)]) + ([v_peak(u)] if k < n else [])
        inner = _peaked(kinds, counter)
        mean, err_t = ((np.full_like(u, theta_mean), np.zeros_like(u)) if flat_theta
                       else inner.pop(0))
        vol, err_v = inner.pop() if k < n else (np.ones_like(u), np.zeros_like(u))
        if not flat_theta:
            # times c^(-s), in an order in which a tiny c overflows nothing
            mean, err_t = mean / c * c ** (1.0 - s), err_t / c * c ** (1.0 - s)
        return mean * vol, np.abs(mean) * err_v + np.abs(vol) * err_t + err_t * err_v

    if flat_theta or xnorm >= radius:
        pieces = _radial_segments(lambda u, _: outer_g(u, xnorm - u),
                                  1.0 - s if xnorm == 0.0 else 1.0, radius)
    else:
        # c = d t^p on each side of the slice: the mean behaves like
        # const + c^(k-1-s) (log c at s = k-1), a pole when s > k-1 that
        # p = 1/(k-s) makes constant in t; p = 2 leaves t^(2(k-1-s)+1)
        p = 1.0 / (k - s) if s > k - 1.0 else 2.0

        def side(d, sign):
            def fvec(t, _):
                c = d * t**p
                u = xnorm + sign * c
                vals, errs = outer_g(u, c)
                jac = u * d * p * t ** (p - 1.0)
                return vals * jac, errs * jac
            return fvec, 0.0, 1.0

        pieces = [side(xnorm, -1.0), side(radius - xnorm, 1.0)]
    if (n - k) % 2:
        # the last piece ends at u = R in (R - u)^((n-k)/2)
        pieces[-1] = _edge_map(pieces[-1])
    return _integrate(pieces, tol / 3.0, counter,
                      sphere_measure(k - 1) * (sphere_measure(n - k) if k < n else 1.0))
