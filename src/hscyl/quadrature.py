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
node, and x = width sinh(xi) puts a fixed number of panels across any of
those peaks (``_peaked``).  Its outer range is split at the slice u = |x|,
where the angular mean is singular.  For odd n - k the outer integrand
ends in a half-integer power of R - u at the ball's edge, which the map
t = b - (b - a)(1 - tau)^2 of the last piece's variable t makes
polynomial in tau (``_edge_map``).

Each level of an integral is one adaptive loop over all of its pieces.
A piece is a change of variable, every piece is evaluated on the first
pass, and the integral then splits its worst panels, in whichever piece
they lie, until their summed error estimates meet tol times the whole
integral (global adaptivity, as in QUADPACK).  Nested integrals run as
batches: each pass of an outer integral computes the inner integrals at
all of its new abscissae in one adaptive loop, in which every integral
follows the refinement rule of a lone run at its own tolerance and is
summed in a lone run's order, so a batch gives each integral its
lone-run value bit for bit.  A batch may hold integrals of several kinds
(``_peaked``).

Integrands receive numpy arrays: g(rho) in the radial case and two
same-shape arrays f(rho, r) in the cylindrical one.  A callable that takes
only scalars is detected by one probe and called point by point, at a
cost.  A non-finite integrand value raises SingularityError; it is never
replaced.  A ConvergenceError (an exhausted budget, an unresolvable
integrand) carries the whole integral so far as its ``partial``, with an
infinite error estimate until the first pass is complete.  A result
counts the adaptive passes it made, nested ones included, besides its
integrand evaluations.
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
    [lefts[i], rights[i]] of the intervals owner[i]; returns per-panel
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


def _adaptive(fvec, a, b, tol, budget: _Budget, group, first_panels=4):
    """Globally adaptive GK15 on the intervals [a[i], b[i]], where
    interval i is a part of integral group[i]: each integral splits the
    worst panels of all its intervals until their summed error estimates
    meet ``tol[g]`` (or a scalar ``tol``) times the magnitude of its sum.
    Each interval starts on ``first_panels`` equal panels: four, or two on
    a sinh-mapped peak (``_peaked``), since a nested batch pays the start
    once per outer node.

    fvec(x, owner) -> (values, carried_errors), where owner[j] is the
    interval of abscissa x[j]; carried errors (e.g. from an inner
    integral) are folded into each panel's error estimate.  Each pass
    evaluates the new panels of all open integrals in one call.  New
    panels are appended, so an integral whose intervals stand in its lone
    run's order has its panels in that order, the one np.bincount sums
    them in, and follows its lone run bit for bit, at its own tolerance.
    Returns the arrays (values, error_estimates) of the integrals.

    A ConvergenceError leaves with ``partial`` set to these arrays as they
    stood after the last complete pass, 0 with an infinite error before
    the first; it replaces what an inner integral set, since the outer sum
    covers the panels whose evaluation failed.
    """
    m = group.max(initial=-1) + 1
    values, errors = np.zeros(m), np.full(m, math.inf)
    tol = np.full(m, tol)
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
        grp = group[owner]
        count = np.bincount(grp, minlength=m)
        total = np.bincount(grp, vals, m)
        total_err = np.bincount(grp, errs, m)
        open_ = count > 0
        # final for the integrals that meet their target, partial for the rest
        values[open_], errors[open_] = total[open_], total_err[open_]
        target = tol * np.abs(total)
        met = (total_err <= target) | (total_err == 0.0)
        order = np.lexsort((-errs, grp))                  # worst panel first
        by_grp = grp[order]
        rank = np.arange(grp.size) - (count.cumsum() - count)[by_grp]
        pick = ((rank < np.minimum(64, count // 2 + 1)[by_grp])
                & (errs[order] > 0.25 * target[by_grp] / count[by_grp])
                & ~met[by_grp])
        worst = order[pick]
        if ((rights[worst] - lefts[worst]) < min_width[owner[worst]]).any():
            raise ConvergenceError(
                "quadrature cannot resolve integrand (panel width underflow)",
                partial=(values, errors))
        mids = 0.5 * (lefts[worst] + rights[worst])
        new_l = np.concatenate((lefts[worst], mids))
        new_r = np.concatenate((mids, rights[worst]))
        new_o = np.concatenate((owner[worst], owner[worst]))
        keep = np.bincount(group[new_o], minlength=m)[grp] > 0    # still open
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
                               np.arange(width.size), first_panels=2)
    return [(values[lo:hi], errors[lo:hi]) for lo, hi in zip(starts, starts[1:])]


def _radial_segments(weight_pow: float, upper: float):
    """Pieces (to_x, a, b) whose sum is the integral of g(rho)
    rho^weight_pow over (0, upper), with the weight in the Jacobian.

    The range is split at rho = 1: the head runs in w with rho = w^2, a
    semi-infinite tail in u with rho = u^(-2) (see the module docstring),
    and a finite tail directly in rho.  Where w^2 would still leave the
    head singular (weight_pow < -1/2), rho = w^(1/(weight_pow+1)) makes
    its weight constant instead.
    """
    beta = weight_pow
    p = 2.0 if beta >= -0.5 else 1.0 / (beta + 1.0)
    pieces = [(lambda w: (w**p, p * w ** (p * (beta + 1.0) - 1.0)),
               0.0, min(1.0, upper) ** (1.0 / p))]
    if math.isinf(upper):
        pieces.append((lambda u: (u**-2.0, 2.0 * u ** (-(2.0 * beta + 3.0))), 0.0, 1.0))
    elif upper > 1.0:
        pieces.append((lambda rho: (rho, rho**beta), 1.0, upper))
    return pieces


def _edge_map(piece):
    """The piece (to_x, a, b) in tau on [0, 1], with t = b - (b - a)(1 - tau)^2,
    so an endpoint behaviour (b - t)^(j/2) becomes polynomial in tau.

    t is formed as a + (b - a) tau (2 - tau), which keeps t - a accurate
    as tau -> 0, where a may be a singular point of its own."""
    to_x, a, b = piece
    span = b - a

    def mapped(tau):
        x, jac = to_x(a + span * (tau * (2.0 - tau)))
        return x, jac * (2.0 * span * (1.0 - tau))
    return mapped, 0.0, 1.0


def _integrate_pieces(f, pieces, m: int, tol, budget: _Budget):
    """The integrals of f(x, j) dx, j < m, each over all the pieces, as
    one adaptive batch; f returns (values, carried_errors) and is called
    once per pass.

    A piece (to_x, a, b) is a change of variable, to_x(t) -> (x, dx/dt)
    for t in [a, b].  Interval piece * m + j is that piece of integral j,
    so each integral's intervals, and so its panels, stand in its lone
    run's order.  Returns (values, error_estimates) of the m integrals."""
    to_x, a, b = zip(*pieces)

    def fvec(t, owner):
        piece, j = np.divmod(owner, m)
        x, jac = np.empty_like(t), np.empty_like(t)
        for i, to_x_i in enumerate(to_x):
            own = piece == i
            x[own], jac[own] = to_x_i(t[own])
        vals, errs = f(x, j)
        return vals * jac, errs * jac

    return _adaptive(fvec, np.repeat(a, m), np.repeat(b, m), tol, budget,
                     np.arange(len(pieces) * m) % m)


def _integrate(f, pieces, tol, counter, scale: float) -> QuadratureResult:
    """``scale`` times the integral of f over the pieces; a
    ConvergenceError leaves with the same form of the integral so far."""
    def result(value, err):
        return QuadratureResult(scale * float(value[0]), scale * float(err[0]),
                                counter.used, counter.passes)
    try:
        return result(*_integrate_pieces(f, pieces, 1, tol, counter))
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
    g = _vectorized(g)
    return _integrate(_exact(lambda rho, _: g(rho)), _radial_segments(k - 1.0 - s, upper),
                      0.5 * tol, _Budget(), sphere_measure(k))


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
    rho_pieces = _radial_segments(k - 1.0 - s, rho_max)

    def inner(r, _):
        """The rho integrals at every outer node r, as one batch."""
        return _integrate_pieces(_exact(lambda rho, j: f(rho, r[j])), rho_pieces,
                                 r.size, 0.25 * tol, counter)

    # the inner value plays the role of g(r) and the r measure is the weight
    return _integrate(inner, _radial_segments(n - k - 1.0, r_max), 0.25 * tol, counter,
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
    there is mapped by t = b - (b - a)(1 - tau)^2, which turns that
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
        def outer(u, _):
            return outer_g(u, xnorm - u)
        pieces = _radial_segments(1.0 - s if xnorm == 0.0 else 1.0, radius)
    else:
        # each side of the slice runs in its distance c = d t^p from it,
        # which its map gives signed, as u - |x| = -c or c: the mean
        # behaves like const + c^(k-1-s) (log c at s = k-1), a pole when
        # s > k-1 that p = 1/(k-s) makes constant in t; p = 2 leaves
        # t^(2(k-1-s)+1)
        p = 1.0 / (k - s) if s > k - 1.0 else 2.0

        def outer(dist, _):
            # c is the map's own |dist|: recomputed as |u - |x|| it would
            # lose every digit below the rounding of u
            u = xnorm + dist
            vals, errs = outer_g(u, np.abs(dist))
            return vals * u, errs * u

        def side(sign, d):
            return (lambda t: (sign * (d * t**p), d * p * t ** (p - 1.0))), 0.0, 1.0

        pieces = [side(-1.0, xnorm), side(1.0, radius - xnorm)]
    if (n - k) % 2:
        # the last piece ends at u = R in (R - u)^((n-k)/2)
        pieces[-1] = _edge_map(pieces[-1])
    return _integrate(outer, pieces, tol / 3.0, counter,
                      sphere_measure(k - 1) * (sphere_measure(n - k) if k < n else 1.0))
