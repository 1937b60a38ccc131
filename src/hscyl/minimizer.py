"""Rayleigh-quotient minimisation on the cylindrical grid.

We minimise the Dirichlet energy E(u) subject to the weighted-norm
constraint N(u) = integral of u^q / rho^s = 1, q = 2(n-s)/(n-2), by a
normalized gradient flow: descend along

    d = L u + E(u) rho^(-s) u^(q-1)

(the constrained-gradient direction; L is the reduced Laplacian) and
project back onto N = 1 by rescaling.  At a stationary point the pairing
<d, u> = 0 forces L u = -E rho^(-s) u^(q-1), so the flow's fixed points
are exactly the constrained critical points and the converged energy is
the Euler-Lagrange multiplier.

Discretisation: a finite-volume form of L (exact cell moments of the
rho^a r^b measure, zero-flux axis faces, homogeneous Dirichlet at the
outer boundary).  This makes mass * L exactly symmetric negative
semidefinite, so the discrete energy -<u, L u> is a true quadratic form
and d is its constrained gradient in the mass-weighted inner product.

Time stepping is semi-implicit, (1 - step L) u+ = u + step E rho^(-s)
u^(q-1): the normalised gradient flow of Bao & Du (SIAM J. Sci. Comput.
25, 2004).  It is unconditionally stable, so the pseudo-time step can be
large even on graded grids whose smallest cells would force an explicit
step below 1e-6.  The default step, 1e4, makes each step close to
nonlinear inverse iteration; a step that would raise the energy is
halved.  The flow stops on stationarity, not on the energy change: at
the first state whose residual ||d||_M / E is at most sqrt(tol).  Near a
nondegenerate minimum the energy error is quadratic in that residual, so
tol reads as a relative energy accuracy, and where the flow stops does
not depend on the step.  Each step evaluates its candidate once: one
power u^(q-1) and one operator product give the projected state's
energy, its residual and the next right-hand side.

Each step solves (1 - step L) u+ = rhs axis by axis, by fast
diagonalisation (Lynch, Rice & Thomas, Numer. Math. 6, 1964).  L is a
Kronecker sum of one tridiagonal operator per grid axis.  The trailing (r)
axis is diagonalised once per flow: its interior operator is -V^(-1) K
with K the symmetric flux matrix and V the cell volumes, so the pencil
K z = mu V z has a V-orthonormal eigenbasis.  In that basis the system
splits into one tridiagonal rho-axis system per eigenvalue, and the
stacked systems are one tridiagonal matrix, factorised and solved in O(N)
by LAPACK.  Halving the step refactorises only that tridiagonal matrix.
A k = n grid has no trailing axis, so each step is one tridiagonal solve.

Caution on grading: the continuum problem is dilation invariant, and on
strongly graded grids (grading around 2 and above) the discretisation
error tilts that neutral direction downhill — the profile slides toward
the axis and the discrete energy dips below the continuum minimum.
Grading 1.5, the GridSpec default, is the validated choice; the result
carries a core-resolution diagnostic and a warning fires if the profile
collapses.
One-dimensional (k = n) flows collapse even at grading 1.0: the core
shrinks with the spacing, and for n = 4 the energy lies about 6% below
the continuum minimum on 256 and 512 nodes.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.linalg import eigh, lapack

from .asymptotics import estimate_core_scale
from .cylgrid import CylGrid, GridSpec, build_grid, cell_volumes
from .errors import (
    ConvergenceError,
    InternalConsistencyError,
    ParameterDomainError,
)
from .exponents import ExponentContext, admissible, hs_conjugate
from .specfn import beta as beta_fn
from .specfn import sphere_measure

__all__ = [
    "MinimizeOptions",
    "MinimizeResult",
    "DiscreteRayleigh",
    "minimize_rayleigh",
    "recover_constant",
]

INIT_MODES = ("positive-bump", "analytic-extremal", "user-grid")


@dataclass
class MinimizeOptions:
    """Knobs for the flow; defaults are the calibrated s = 1 settings.

    step is the pseudo-time step of the semi-implicit flow; the default is
    large enough that each step is close to nonlinear inverse iteration.
    tol is a relative energy accuracy: the flow stops once the
    constrained-gradient residual ||d||_M / E is at most sqrt(tol)."""

    step: float = 1e4
    max_iters: int = 4000
    tol: float = 1e-10
    init: str = "positive-bump"
    init_grid: CylGrid | None = None
    init_scale: float | None = None  # core scale of the analytic-extremal seed

    def __post_init__(self):
        if self.init not in INIT_MODES:
            raise ParameterDomainError(f"init must be one of {INIT_MODES}, got {self.init!r}")
        if not self.step > 0.0:
            raise ParameterDomainError(f"step must be positive, got {self.step}")
        if self.max_iters < 1:
            raise ParameterDomainError(f"max_iters must be >= 1, got {self.max_iters}")
        if not self.tol > 0.0:
            raise ParameterDomainError(f"tol must be positive, got {self.tol}")


@dataclass(frozen=True)
class MinimizeResult:
    """Converged minimum, the recovered constant estimate, the minimiser
    itself, the accepted-step history, boundary-truncation diagnostics and
    the final constrained-gradient residual ||d||_M / E (stationarity).

    history rows are (iteration, energy, constraint_defect); energies are
    non-increasing and every defect is at (rescaling) rounding level.
    """

    E_min: float
    K_est: float
    grid: CylGrid
    history: tuple
    iterations: int
    truncation_estimate: float
    core_scale: float
    stationarity: float


class DiscreteRayleigh:
    """Discrete energy/constraint pair and the flow direction.

    Exposes exactly the objects the flow uses so that the descent
    direction can be validated against a finite-difference gradient of
    rayleigh() (in the mass-weighted metric the direction is
    -(1/2) grad of E/N^(2/q) on N = 1).
    """

    def __init__(self, n: int, k: int, s: float, grid: CylGrid):
        if (grid.n, grid.k) != (n, k):
            raise ParameterDomainError("grid does not match the requested (n, k)")
        if not grid.axis_ghost:
            raise ParameterDomainError("the flow needs an axis-adjacent grid, "
                                       "not a window grid")
        self.n, self.k, self.s = n, k, float(s)
        self.q = hs_conjugate(2.0, s, n)
        self.grid = grid
        self.shape = tuple(nodes.size for nodes, _ in grid.axes)
        self.axis_vols = [cell_volumes(nodes, c) for nodes, c in grid.axes]
        sigma = math.prod(sphere_measure(c + 1) for _, c in grid.axes)
        self.mass = sigma * functools.reduce(np.multiply.outer, self.axis_vols)
        self.axis_ops = [self._axis_matrix(nodes, c, vol)
                         for (nodes, c), vol in zip(grid.axes, self.axis_vols)]
        # Kronecker sum: a on the leading axes plus b on the trailing one
        self.op = functools.reduce(lambda a, b: sp.kronsum(b, a, format="csr"),
                                   self.axis_ops)
        self.interior = np.ones(self.shape, dtype=bool)
        for axis in range(len(self.shape)):
            np.moveaxis(self.interior, axis, 0)[-1] = False  # Dirichlet pin
        w = grid.rho_nodes ** (-self.s)
        self.weight_s = np.broadcast_to(w.reshape(w.shape + (1,) * (len(self.shape) - 1)),
                                        self.shape)

    @staticmethod
    def _axis_matrix(nodes, weight_pow, vol):
        """Finite-volume 1-D operator: flux faces at midpoints, zero flux
        at the axis, Dirichlet pin at the outer node (row zeroed)."""
        x = np.asarray(nodes, dtype=float)
        m = x.size
        faces = 0.5 * (x[1:] + x[:-1])
        wf = faces**weight_pow / np.diff(x)
        main = np.zeros(m)
        lower = np.zeros(m - 1)
        upper = np.zeros(m - 1)
        main[:-1] -= wf / vol[:-1]
        upper[:] = wf / vol[:-1]
        main[1:] -= wf / vol[1:]
        lower[:] = wf / vol[1:]
        main[-1] = lower[-1] = 0.0
        return sp.diags([lower, main, upper], [-1, 0, 1], format="csr")

    def apply_op(self, u: np.ndarray) -> np.ndarray:
        return (self.op @ u.ravel()).reshape(self.shape)

    def energy(self, u: np.ndarray) -> float:
        return float(-np.sum(self.mass * u * self.apply_op(u)))

    def constraint(self, u: np.ndarray) -> float:
        return float(np.sum(self.mass * self.weight_s * np.abs(u) ** self.q))

    def project(self, u: np.ndarray) -> np.ndarray:
        nval = self.constraint(u)
        if not nval > 0.0:
            raise ConvergenceError("flow state has vanished (zero constraint norm)")
        return u / nval ** (1.0 / self.q)

    def direction(self, u: np.ndarray) -> np.ndarray:
        """Flow direction L u + E(u) rho^(-s) u^(q-1), zero on the pinned
        boundary."""
        d = self.apply_op(u) + self.energy(u) * self.weight_s * np.abs(u) ** (self.q - 1.0)
        return np.where(self.interior, d, 0.0)

    def evaluate(self, candidate: np.ndarray):
        """The flow's per-step evaluation of a non-negative candidate:
        (u, E(u), L u, rho^(-s) u^(q-1)) for u = project(candidate), from
        one power of the candidate and one operator product."""
        weighted = self.weight_s * candidate ** (self.q - 1.0)
        nval = float(np.vdot(self.mass * weighted, candidate))
        if not nval > 0.0:
            raise ConvergenceError("flow state has vanished (zero constraint norm)")
        scale = nval ** (-1.0 / self.q)
        u = candidate * scale
        lu = self.apply_op(u)
        weighted *= scale ** (self.q - 1.0)
        return u, -float(np.vdot(self.mass * u, lu)), lu, weighted

    def rayleigh(self, u: np.ndarray) -> float:
        return self.energy(u) / self.constraint(u) ** (2.0 / self.q)


def _initial_values(problem: DiscreteRayleigh, spec: GridSpec, opts: MinimizeOptions):
    grid = problem.grid
    if opts.init == "user-grid":
        if opts.init_grid is None:
            raise ParameterDomainError("init='user-grid' requires init_grid")
        if opts.init_grid.values.shape != problem.shape:
            raise ParameterDomainError("init_grid shape does not match the grid")
        u = np.array(opts.init_grid.values, dtype=float)
        if np.any(u < 0.0):
            raise ParameterDomainError("user initial grid must be non-negative")
    elif opts.init == "analytic-extremal":
        if problem.s != 1.0:
            raise ParameterDomainError("analytic-extremal seeding is calibrated "
                                       "for s = 1 only")
        core = opts.init_scale if opts.init_scale is not None else spec.rho_max / 200.0
        u = grid.sampled(
            lambda rho, r: ((rho + core) ** 2 + r**2) ** (-0.5 * (grid.n - 2))).values
    else:  # positive-bump
        width = spec.rho_max / 10.0
        u = grid.sampled(lambda rho, r: np.exp(-(rho**2 + r**2) / width**2)).values
    return np.where(problem.interior, u, 0.0)


class _AxisSolver:
    """Solver for (1 - tau L) u = rhs, with L the flow operator of a
    DiscreteRayleigh: eigenbasis across the trailing axis, one stacked
    tridiagonal LAPACK solve along the leading one (see the module
    docstring).  Pinned outer nodes come out exactly 0."""

    def __init__(self, problem: DiscreteRayleigh, tau: float):
        lead, *trailing = problem.axis_ops
        self.shape = problem.shape
        self._lead = (lead.diagonal(-1), lead.diagonal(), lead.diagonal(1))
        if trailing:
            vol = problem.axis_vols[1]
            flux = -(vol[:, None] * trailing[0].toarray())[:-1, :-1]
            self._vol = vol[:-1]
            # Z^T V Z = I, and A_int Z = -Z diag(mu)
            self._mu, self._basis = eigh(flux, np.diag(self._vol))
        else:
            self._mu, self._basis = np.zeros(1), None
        self.factor(tau)

    def factor(self, tau: float) -> None:
        """LU-factorise the stacked systems (1 + tau mu_j) I - tau A_lead."""
        lower, main, upper = self._lead
        diag = ((1.0 + tau * self._mu)[:, None] - tau * main).ravel()
        # no coupling between consecutive blocks
        off = np.zeros((2, self._mu.size, main.size))
        off[0, :, :-1] = -tau * lower
        off[1, :, :-1] = -tau * upper
        *self._lu, info = lapack.dgttrf(off[0].ravel()[:-1], diag, off[1].ravel()[:-1])
        if info != 0:
            raise InternalConsistencyError(
                f"flow matrix at step {tau} is singular (dgttrf info = {info})")

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        if self._basis is None:
            return lapack.dgttrs(*self._lu, rhs)[0]
        coef = self._basis.T @ (rhs[:, :-1] * self._vol).T
        coef = lapack.dgttrs(*self._lu, coef.ravel())[0].reshape(coef.shape)
        u = np.zeros(self.shape)
        u[:, :-1] = (self._basis @ coef).T
        return u


def _truncation_estimate(problem: DiscreteRayleigh, u: np.ndarray) -> float:
    """Tail energy beyond the box, assuming fundamental-solution decay.

    The amplitude is read off the profile at 45% of the box radius and
    corrected for the first-order Dirichlet image term (the truncated
    profile runs like A (zeta^(2-n) - R^(2-n)), so the raw ring amplitude
    underestimates A by 1 - f^(n-2) at ring fraction f); the closed form
    then integrates |grad(A zeta^(2-n))|^2 over zeta > R with the
    cylindrical measure.
    """
    n, k = problem.n, problem.k
    grid = problem.grid
    box = grid.rho_nodes[-1]
    fraction = 0.45
    # the node nearest the diagonal at radius fraction * box, one index per axis
    zc = fraction * box / math.sqrt(len(grid.axes))
    idx = tuple(int(np.searchsorted(nodes, zc)) for nodes, _ in grid.axes)
    radius_sq = sum(nodes[i] ** 2 for i, (nodes, _) in zip(idx, grid.axes))
    amp = float(u[idx]) * radius_sq ** (0.5 * (n - 2))
    amp /= 1.0 - fraction ** (n - 2.0)
    sigma = math.prod(sphere_measure(c + 1) for _, c in grid.axes)
    angular = 0.5 * beta_fn(0.5 * k, 0.5 * (n - k)) if k < n else 1.0
    return sigma * angular * (n - 2.0) * amp**2 * box ** (2.0 - n)


def minimize_rayleigh(n: int, k: int, s: float, grid_spec: GridSpec,
                      opts: MinimizeOptions | None = None) -> MinimizeResult:
    """Run the normalized gradient flow and return the converged minimum.

    The flow stops at the first state whose constrained-gradient residual
    ||d||_M / E is at most sqrt(opts.tol); near a nondegenerate minimum
    the energy error is quadratic in that residual, so opts.tol is a
    relative energy accuracy whatever the step.  Raises ConvergenceError
    (with the partial result attached) when max_iters is exhausted first,
    or when the step has to be halved below 1e-12 of opts.step.
    """
    opts = opts or MinimizeOptions()
    ctx = ExponentContext(n=n, k=k, p=2.0, s=s)
    if not admissible(ctx):
        raise ParameterDomainError(f"(n={n}, k={k}, p=2, s={s}) is not admissible")
    grid = build_grid(n, k, grid_spec.rho_max, grid_spec.r_max,
                      grid_spec.n_rho, grid_spec.n_r, grid_spec.grading)
    problem = DiscreteRayleigh(n, k, s, grid)
    u, energy, lu, weighted = problem.evaluate(_initial_values(problem, grid_spec, opts))

    step = float(opts.step)
    solver = _AxisSolver(problem, step)

    def accepted(it):
        """Record the current state in the history; return its residual
        ||d||_M / E, with d the flow direction."""
        defect = abs(float(np.vdot(problem.mass * u, weighted)) - 1.0)
        history.append((it, energy, defect))
        d = np.where(problem.interior, lu + energy * weighted, 0.0)
        return math.sqrt(float(np.vdot(problem.mass * d, d))) / energy

    def result():
        return _package(problem, u, energy, history, it, residual)

    history = []
    it = 0
    residual = accepted(it)
    while residual > math.sqrt(opts.tol):
        if it >= opts.max_iters:
            raise ConvergenceError(
                f"no convergence within max_iters = {opts.max_iters}",
                partial=result(),
            )
        it += 1
        rhs = np.where(problem.interior, u + step * energy * weighted, 0.0)
        candidate = problem.evaluate(np.clip(solver.solve(rhs), 0.0, None))
        new_energy = candidate[1]
        if not math.isfinite(new_energy) or new_energy > energy + 1e-14 * abs(energy):
            step *= 0.5
            if step < 1e-12 * opts.step:
                raise ConvergenceError(
                    "flow step collapsed without reaching tolerance",
                    partial=result(),
                )
            solver.factor(step)
            continue
        u, energy, lu, weighted = candidate
        residual = accepted(it)
    if not np.min(u[problem.interior]) > 0.0:
        raise ConvergenceError(
            "flow converged to a profile that is not strictly positive",
            partial=result(),
        )
    return result()


def _package(problem, u, energy, history, iterations, stationarity) -> MinimizeResult:
    grid = problem.grid.with_values(u)
    profile = u.reshape(grid.rho_nodes.size, -1)[:, 0]
    # a partial result may carry a vanished axis profile: no core scale then
    core = (estimate_core_scale(grid.rho_nodes, profile) if profile[0] > 0.0
            else float("nan"))
    first_node = float(problem.grid.rho_nodes[0])
    if math.isfinite(core) and core < 8.0 * first_node:
        warnings.warn(
            "minimiser core collapsed near the axis "
            f"(core scale {core:.3g} vs first node {first_node:.3g}); "
            "reduce grading or refine the grid",
            RuntimeWarning,
            stacklevel=4,  # the caller of minimize_rayleigh
        )
    return MinimizeResult(
        E_min=energy,
        K_est=energy ** -0.5 if energy > 0 else float("nan"),
        grid=grid,
        history=tuple(history),
        iterations=iterations,
        truncation_estimate=_truncation_estimate(problem, u),
        core_scale=core,
        stationarity=stationarity,
    )


def recover_constant(result: MinimizeResult) -> float:
    """Constant estimate E_min^(-1/2): with N(u) = 1 the inequality forces
    the gradient norm to be at least the reciprocal constant, with
    equality exactly at extremals."""
    if not result.E_min > 0.0:
        raise InternalConsistencyError(
            f"converged energy must be positive, got {result.E_min}"
        )
    return result.E_min ** -0.5
