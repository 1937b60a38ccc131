"""Decay-rate estimation and local sup/mean boundedness checks.

Profiles that solve the weighted critical equation must decay like the
fundamental solution, |z|^(2-n) (two-sided for genuine solutions, upper
bound for subsolutions), and like |z|^(-q) for every q < (n-p)/(p-1) in
the general-p setting.  Here we fit a power law to ray samples of a
profile by least squares in log-log coordinates and compare the fitted
exponent against those rates.

The local max estimate is checked at desk scale: the sup of a solution
over a half ball B(z, |z|/4), divided by its q0-mean over B(z, |z|/2),
should stay bounded as |z| runs over a dyadic range.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cylgrid import CylGrid
from .errors import (FitDomainError, GridError, ParameterDomainError, _float_array,
                     require_nodes, require_positive)
from .exponents import decay_bound
from .specfn import sphere_measure

__all__ = [
    "RaySamples",
    "DecayFit",
    "DecayVerdict",
    "fit_decay",
    "check_decay_bounds",
    "local_sup_ratio",
    "sample_ray",
    "estimate_core_scale",
]

DIRECTIONS = ("rho-axis", "r-axis", "diagonal")
CONCLUSIVE_R2 = 0.99
DEFAULT_BOUND_TOL = 0.1
#: minimum radii span for a fit: three octaves, i.e. a decade up to rounding
MIN_SPAN = 8.0


@dataclass(frozen=True)
class RaySamples:
    """Positive profile values along one ray, at increasing radii."""

    direction: str
    radii: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        if self.direction not in DIRECTIONS:
            raise ParameterDomainError(
                f"direction must be one of {DIRECTIONS}, got {self.direction!r}"
            )
        radii = require_nodes(self.radii, "radii")
        values = _float_array(self.values)
        if values is None or values.shape != radii.shape or not np.all(np.isfinite(values)):
            raise ParameterDomainError("values must be finite numbers aligned with the radii")
        radii.setflags(write=False)
        values.setflags(write=False)
        object.__setattr__(self, "radii", radii)
        object.__setattr__(self, "values", values)


@dataclass(frozen=True)
class DecayFit:
    """Power-law fit value ~ amplitude * radius^(-exponent)."""

    exponent: float
    amplitude: float
    r_squared: float

    @property
    def conclusive(self) -> bool:
        return self.r_squared >= CONCLUSIVE_R2


@dataclass(frozen=True)
class DecayVerdict:
    mode: str
    exponent: float
    bound: float
    tol: float
    passed: bool


def fit_decay(samples: RaySamples) -> DecayFit:
    """Least-squares fit of log(value) against log(radius).

    Needs at least 4 positive samples spanning about a decade of radii
    (three octaves are accepted); the exponent is reported positive for
    decay.
    """
    radii, values = samples.radii, samples.values
    if radii.size < 4:
        raise FitDomainError(f"need at least 4 samples, got {radii.size}")
    if radii[-1] < MIN_SPAN * radii[0]:
        raise FitDomainError(
            f"radii span only a factor {radii[-1] / radii[0]:.3g}; "
            f"about a decade (>= {MIN_SPAN:g}x) is required"
        )
    if np.any(values <= 0.0):
        raise FitDomainError("values must be positive for a log-log fit")
    x = np.log(radii)
    y = np.log(values)
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_res = float(np.sum(resid**2))
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    if ss_tot <= 1e-28:
        r_squared = 1.0 if ss_res <= 1e-24 else 0.0
    else:
        r_squared = 1.0 - ss_res / ss_tot
    return DecayFit(exponent=-float(slope), amplitude=float(np.exp(intercept)),
                    r_squared=r_squared)


def check_decay_bounds(fit: DecayFit, n: int, p: float, mode: str,
                       tol: float = DEFAULT_BOUND_TOL) -> DecayVerdict:
    """Compare a conclusive fit against the theoretical rates.

    The bound is :func:`hscyl.exponents.decay_bound` (n - 2 at p = 2):

    subsolution-upper  : exponent >= bound - tol          (p = 2)
    solution-two-sided : |exponent - bound| <= tol        (p = 2)
    general-p          : exponent >= bound - tol
    """
    if not 0.0 <= tol < math.inf:
        raise ParameterDomainError(f"need finite tol >= 0, got tol={tol}")
    if not fit.conclusive:
        raise FitDomainError(
            f"fit is inconclusive (r^2 = {fit.r_squared:.4f} < {CONCLUSIVE_R2})"
        )
    if mode not in ("subsolution-upper", "solution-two-sided", "general-p"):
        raise ParameterDomainError(f"unknown decay-check mode {mode!r}")
    if mode != "general-p" and p != 2:
        raise ParameterDomainError(f"mode {mode!r} applies to p = 2 only, got p={p}")
    bound = decay_bound(n, p)
    if mode == "solution-two-sided":
        passed = abs(fit.exponent - bound) <= tol
    else:
        passed = fit.exponent >= bound - tol
    return DecayVerdict(mode=mode, exponent=fit.exponent, bound=bound,
                        tol=tol, passed=bool(passed))


def _bilinear(grid: CylGrid, rho: float, r: float) -> float:
    i = int(np.clip(np.searchsorted(grid.rho_nodes, rho) - 1, 0,
                    grid.rho_nodes.size - 2))
    j = int(np.clip(np.searchsorted(grid.r_nodes, r) - 1, 0, grid.r_nodes.size - 2))
    x0, x1 = grid.rho_nodes[i], grid.rho_nodes[i + 1]
    y0, y1 = grid.r_nodes[j], grid.r_nodes[j + 1]
    tx = (rho - x0) / (x1 - x0)
    ty = (r - y0) / (y1 - y0)
    v = grid.values
    return float((1 - tx) * (1 - ty) * v[i, j] + tx * (1 - ty) * v[i + 1, j]
                 + (1 - tx) * ty * v[i, j + 1] + tx * ty * v[i + 1, j + 1])


def sample_ray(grid: CylGrid, direction: str, min_radius: float = 0.0,
               max_radius: float | None = None) -> RaySamples:
    """Extract profile values along one ray of the grid.

    rho-axis and r-axis rays use the first row of nodes in the transverse
    direction; the diagonal ray is bilinearly interpolated along
    rho = r = t/sqrt(2) at 64 geometric radii.  Samples outside
    [min_radius, max_radius] are dropped.
    """
    if grid.k == grid.n and direction != "rho-axis":
        raise GridError("1-D grids only carry the rho-axis ray")
    if direction == "rho-axis":
        radii = grid.rho_nodes
        values = grid.values if grid.k == grid.n else grid.values[:, 0]
    elif direction == "r-axis":
        radii = grid.r_nodes
        values = grid.values[0, :]
    elif direction == "diagonal":
        top = min(grid.rho_nodes[-1], grid.r_nodes[-1]) * math.sqrt(2.0)
        lo = max(grid.rho_nodes[0], grid.r_nodes[0]) * math.sqrt(2.0) * 1.01
        radii = np.geomspace(lo, top * 0.999, 64)
        values = np.array([_bilinear(grid, t / math.sqrt(2.0), t / math.sqrt(2.0))
                           for t in radii])
    else:
        raise ParameterDomainError(f"direction must be one of {DIRECTIONS}")
    hi = max_radius if max_radius is not None else float(radii[-1])
    keep = (radii >= min_radius) & (radii <= hi) & (values > 0.0)
    radii, values = radii[keep], values[keep]
    if radii.size < 2:
        raise FitDomainError("ray sampling produced fewer than 2 usable samples")
    return RaySamples(direction=direction, radii=radii, values=values)


def estimate_core_scale(radii, values) -> float:
    """Radius at which the profile first drops to half its innermost value,
    or the last radius if it never does.  The radii and values must be
    aligned 1-D samples with a positive innermost value."""
    radii, values = _float_array(radii), _float_array(values)
    if (radii is None or values is None or radii.ndim != 1 or values.shape != radii.shape
            or not radii.size or not values[0] > 0.0):
        raise FitDomainError("cannot estimate a core scale from these samples")
    below = np.nonzero(values <= 0.5 * values[0])[0]
    if below.size == 0:
        return float(radii[-1])
    return float(radii[below[0]])


def local_sup_ratio(grid: CylGrid, center_radius: float, q0: float) -> float:
    """Sup over the half ball divided by the q0-mean over the ball.

    The centre sits on the diagonal of the (rho, r) quadrant at distance
    ``center_radius`` from the origin; the ball has radius
    center_radius/2 and the half ball half that, both taken in the
    reduced coordinates with the cylindrical cell measure.  Bounded
    uniformly in the centre for solutions of the critical equation.
    """
    if not 2.0 <= q0 < math.inf:
        raise ParameterDomainError(f"need finite q0 >= 2, got q0={q0}")
    if grid.k == grid.n:
        raise GridError("local_sup_ratio needs a 2-D cylindrical grid")
    require_positive(center_radius, "center_radius")
    c = center_radius / math.sqrt(2.0)
    ball_r = 0.5 * center_radius
    # an axis grid's cells reach the axis, a window grid's only its first node
    inner = 0.0 if grid.axis_ghost else max(grid.rho_nodes[0], grid.r_nodes[0])
    if c + ball_r > min(grid.rho_nodes[-1], grid.r_nodes[-1]) or c - ball_r < inner:
        raise GridError(
            f"ball of radius {ball_r:.3g} around ({c:.3g}, {c:.3g}) leaves the grid"
        )
    # the ball's bounding box, one node wider on each side so that rounding
    # at its edges drops no node of the ball; masks keep row-major order
    window = tuple(slice(max(np.searchsorted(nodes, c - ball_r) - 1, 0),
                         np.searchsorted(nodes, c + ball_r, "right") + 1)
                   for nodes in (grid.rho_nodes, grid.r_nodes))
    rho, r = grid.rho_nodes[window[0]], grid.r_nodes[window[1]]
    dist_sq = (rho[:, None] - c) ** 2 + (r[None, :] - c) ** 2
    in_ball = dist_sq <= ball_r**2
    in_half = dist_sq <= (0.5 * ball_r) ** 2
    if not np.any(in_half) or np.count_nonzero(in_ball) < 8:
        raise GridError("grid too coarse to resolve the ball at this centre")
    # grid.measure() restricted to the window, built from the window alone
    rho_vol, r_vol = (vol[w] for vol, w in zip(grid.cell_volumes(), window))
    measure = (sphere_measure(grid.k) * sphere_measure(grid.n - grid.k)
               * np.multiply.outer(rho_vol, r_vol))
    vals = grid.values[window]
    mean_q = (np.sum(measure[in_ball] * np.abs(vals[in_ball]) ** q0)
              / np.sum(measure[in_ball])) ** (1.0 / q0)
    sup_half = float(np.max(vals[in_half]))
    if mean_q == 0.0:
        raise FitDomainError("profile vanishes on the ball; ratio undefined")
    return sup_half / mean_q
