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

Discretisation for k < n: a finite-volume form of L (exact cell moments
of the rho^a r^b measure, zero-flux axis faces, homogeneous Dirichlet at
the outer boundary).  This makes mass * L exactly symmetric negative
semidefinite, so the discrete energy -<u, L u> is a true quadratic form
and d is its constrained gradient in the mass-weighted inner product.

For k = n, w = |z|^c u with c = (n-2)/2 is P1 on the uniform axis
t = log|z| in [-log rho_max, log rho_max] with n_rho cells, zero at both
ends.  Then E = S int (w_t^2 + c^2 w^2) dt = S w.(K + c^2 M) w, with the
P1 stiffness K and mass M and S = |S^(n-1)|, while N = S int |w|^q dt and
the load b of |w|^(q-2) w take a 4-point Gauss rule per cell.  A dilation
is a shift in t, and the Kelvin inversion, t -> -t, maps the box
1/rho_max < |z| < rho_max onto itself; grading and r_max play no part.
Every state is admissible, so E_min >= Lambda where that rule is exact
(n = 3, 4 at s = 1).  E_min / Lambda - 1 reads 4.5e-2 (n = 3) and 1.3e-3
(n = 4) at box 120 with 2048 cells, where the box dominates, and 1.8e-4
and 2.4e-4 at box e^20 with 256 cells.

Time stepping is semi-implicit, (1 - step L) u+ = u + step E rho^(-s)
u^(q-1): the normalised gradient flow of Bao & Du (SIAM J. Sci. Comput.
25, 2004); for k = n, (M + step (K + c^2 M)) w+ = M w + step E b.  It is
unconditionally stable, so the pseudo-time step can be large even on
graded grids whose smallest cells would force an explicit step below
1e-6.  The default step, 1e4, makes each step close to nonlinear inverse
iteration; a step that would raise the energy is halved.  The flow stops
on stationarity, not on the energy change: at the first state whose
residual ||d||_M / E is at most sqrt(tol).  Near a nondegenerate minimum
the energy error is quadratic in that residual, so tol reads as a
relative energy accuracy, and where the flow stops does not depend on
the step.  Each step evaluates its candidate once: one power u^(q-1) and
one operator product give the projected state's energy, its residual and
the next right-hand side.

Each flow holds one problem object, built from the GridSpec, which both
evaluates a state and takes the step's solve: DiscreteRayleigh(n, k, s,
spec) on the spec's graded grid for k < n, _RadialRayleigh(n, s, spec)
for k = n.  The finite-volume L is a Kronecker sum of one tridiagonal
operator per grid axis, each held as two coefficient arrays in
difference form.  DiscreteRayleigh solves (1 - step L) u+ = rhs by fast
diagonalisation (Lynch, Rice & Thomas, Numer. Math. 6, 1964), with
both axes diagonalised once, when the problem is built.  An axis's
interior operator is -V^(-1) K with K the symmetric flux matrix and V
the cell volumes, so the eigenvectors Y of the tridiagonal V^(-1/2) K
V^(-1/2), with eigenvalues mu on the rho axis and nu on the r axis, give
a V-orthonormal eigenbasis Z = V^(-1/2) Y.  A step maps rhs into both
bases, Z_rho^T (V_rho rhs V_r) Z_r, divides by 1 + step (mu_i + nu_j)
and maps back with Z_rho and Z_r^T.  The basis change carries the spread
of the cell volumes, so it loses digits where an axis weight exponent is
large on a strongly graded grid: against a sparse direct solve, (8,7) at
160 nodes reads 5e-11 at grading 1.5 and 3e-9 at grading 2.  For k = n a
DST-I diagonalises M and K: a step is a DST, one divide and the DST
back.  Either way the step enters only the divide, so halving it costs
nothing.

The plain step converges linearly, held back by one slow mode: the nearly
neutral dilation direction (for k = n, a seed off the centre of the t
axis).  Each accepted step is therefore followed by Anderson
extrapolation (type II, depth ANDERSON_DEPTH; Walker & Ni, SIAM J.
Numer. Anal. 49, 2011) of the fixed-point map u -> G(u), the projected
plain step: the last ANDERSON_DEPTH differences of states and of
residuals G(u) - u, kept in two lists, give a mixed state, with
coefficients from a least-squares fit in the mass inner product.  The
mixed state is evaluated once and kept only if it is finite, strictly
positive in the interior and no higher in energy than the plain step's
state; so the energy history stays non-increasing, and the flow stops
by the same stationarity rule.  A halved step changes the map, so it
clears the mixing history.

Caution on grading: the continuum problem is dilation invariant, and on
strongly graded grids (grading around 2 and above) the discretisation
error tilts that neutral direction downhill — the profile slides toward
the axis and the discrete energy dips below the continuum minimum.
Grading 1.5, the GridSpec default, is the validated choice; the result
carries a core-resolution diagnostic and a warning fires if the profile
collapses.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .asymptotics import estimate_core_scale
from .cylgrid import CylGrid, GridSpec, build_grid
from .errors import (
    ConvergenceError,
    ParameterDomainError,
    require_int,
    require_real,
)
from .exponents import ExponentContext, admissible, hs_conjugate
from .specfn import sphere_measure

__all__ = [
    "MinimizeOptions",
    "MinimizeResult",
    "DiscreteRayleigh",
    "minimize_rayleigh",
]

INIT_MODES = ("positive-bump", "analytic-extremal")
ANDERSON_DEPTH = 2  # state and residual differences kept by the flow's mixing
MAX_ITERS = 4000  # steps a flow may take, read when it runs


@dataclass(frozen=True)
class MinimizeOptions:
    """Knobs for the flow; defaults are the calibrated s = 1 settings.

    step is the pseudo-time step of the semi-implicit flow; the default is
    large enough that each step is close to nonlinear inverse iteration.
    tol is a relative energy accuracy: the flow stops once the
    constrained-gradient residual ||d||_M / E is at most sqrt(tol).  The
    cap on the number of steps is the module constant MAX_ITERS.
    The options are immutable, so they are checked once, when built
    (``dataclasses.replace`` builds and checks a new set)."""

    step: float = 1e4
    tol: float = 1e-10
    init: str = "positive-bump"
    init_scale: float | None = None  # core scale of the analytic-extremal seed

    def __post_init__(self):
        if self.init not in INIT_MODES:
            raise ParameterDomainError(f"init must be one of {INIT_MODES}, got {self.init!r}")
        object.__setattr__(self, "step", require_real(self.step, "step", 0.0))
        if self.init_scale is not None:
            if self.init != "analytic-extremal":  # the bump seed has no core scale
                raise ParameterDomainError("init_scale applies only to init='analytic-extremal'")
            object.__setattr__(self, "init_scale",
                               require_real(self.init_scale, "init_scale", 0.0))
        object.__setattr__(self, "tol", require_real(self.tol, "tol", 0.0))


@dataclass(frozen=True)
class MinimizeResult:
    """Converged minimum, the minimiser itself, the accepted-step history,
    its core scale and the final constrained-gradient residual
    ||d||_M / E (stationarity).

    history rows are (iteration, energy, constraint_defect); energies are
    non-increasing and every defect is at (rescaling) rounding level.
    iterations counts every step, rejected_steps the step halvings among
    them and extrapolated_steps the accepted steps that kept the mixed
    state.
    """

    E_min: float
    grid: CylGrid
    history: tuple
    iterations: int
    core_scale: float
    stationarity: float
    rejected_steps: int
    extrapolated_steps: int

    @property
    def K_est(self) -> float:
        """The constant estimate E_min^(-1/2), nan unless E_min > 0."""
        return self.E_min ** -0.5 if self.E_min > 0 else float("nan")


class DiscreteRayleigh:
    """The k < n flow problem: the discrete energy/constraint pair, the
    flow direction and the step's solve.

    Exposes exactly the objects the flow uses so that the descent
    direction can be validated against a finite-difference gradient of
    rayleigh() (in the mass-weighted metric the direction is
    -(1/2) grad of E/N^(2/q) on N = 1).  Both axes are diagonalised once,
    here, for solve (see the module docstring).
    """

    def __init__(self, n: int, k: int, s: float, spec: GridSpec):
        from scipy.linalg import eigh_tridiagonal

        if k == n:
            raise ParameterDomainError("the k = n flow runs on the t axis, not on a CylGrid")
        self.grid = grid = build_grid(n, k, spec.rho_max, spec.r_max, spec.n_rho, spec.n_r,
                                      spec.grading)
        self.n, self.k, self.s = n, k, float(s)
        self.q = hs_conjugate(2.0, s, n)
        self.shape = grid.values.shape
        self.axis_vols = grid.cell_volumes()
        self.mass = grid.measure()
        # row i of an axis is p[i] (u[i+1] - u[i]) - q[i] (u[i] - u[i-1]),
        # from the face conductances x_f^c / h over the cell volumes: no flux
        # crosses the axis face (q[0] = 0), and the pinned outer row is 0.
        # The interior rows are -V^(-1) K with K the symmetric flux matrix;
        # V^(-1/2) K V^(-1/2) = Y diag(mu) Y^T has diagonal p + q and
        # off-diagonal -sqrt(p[i] q[i+1]) = K[i, i+1] / sqrt(V[i] V[i+1]),
        # so Z = V^(-1/2) Y has Z^T V Z = I and A_int Z = -Z diag(mu);
        # each axis keeps Z^T V = Y^T V^(1/2) (forward) and Z (back)
        self.axis_coeffs, mus, self._forward, self._back = [], [], [], []
        for (nodes, c), vol in zip(grid.axes, self.axis_vols):
            conductance = (0.5 * (nodes[1:] + nodes[:-1])) ** c / np.diff(nodes)
            p, q = conductance / vol[:-1], np.append(0.0, conductance[:-1]) / vol[:-1]
            mu, basis = eigh_tridiagonal(p + q, -np.sqrt(p[:-1] * q[1:]))
            root = np.sqrt(vol[:-1])[:, None]
            self.axis_coeffs.append((p, q))
            mus.append(mu)
            self._forward.append((basis * root).T)
            self._back.append(basis / root)
        self._mu = mus[0][:, None] + mus[1]  # mu_i + nu_j
        self.interior = np.zeros(self.shape, dtype=bool)
        self.interior[:-1, :-1] = True  # the outer rows are Dirichlet pins
        self.weight_s = np.broadcast_to(grid.rho_nodes[:, None] ** (-self.s), self.shape)

    def apply_op(self, u: np.ndarray) -> np.ndarray:
        """L u: the Kronecker sum of the axis operators, as differences
        along each axis in turn."""
        lu = np.zeros(u.shape)
        # each axis is the last axis of (u.T, lu.T) or of (u, lu)
        for (p, q), v, out in zip(self.axis_coeffs, (u.T, u), (lu.T, lu)):
            diff = v[..., 1:] - v[..., :-1]
            out[..., :-1] += p * diff
            out[..., 1:-1] -= q[1:] * diff[..., :-1]
        return lu

    def apply_mass(self, x: np.ndarray) -> np.ndarray:
        return self.mass * x  # states stacked on any leading axes

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

    def solve(self, rhs: np.ndarray, tau: float) -> np.ndarray:
        """(1 - tau L) u = rhs by fast diagonalisation on both axes; the
        pinned outer nodes come out exactly 0."""
        (fwd_rho, fwd_r), (back_rho, back_r) = self._forward, self._back
        coef = fwd_rho @ rhs[:-1, :-1] @ fwd_r.T / (1.0 + tau * self._mu)
        u = np.zeros(self.shape)
        u[:-1, :-1] = back_rho @ coef @ back_r.T
        return u


class _RadialRayleigh:
    """The k = n problem on the t axis (module docstring): DiscreteRayleigh's
    evaluate and solve, for states u at rho_i = exp(t_i),
    i = 1..cells, with w = dilation * u and the mass S M in w.  The
    orthonormal DST-I diagonalises M (modal_mass) and M^(-1) (K + c^2 M)."""

    def __init__(self, n: int, s: float, spec: GridSpec):
        cells = require_int(spec.n_rho, "n_rho")
        if cells < 8:
            raise ParameterDomainError("the t axis needs n_rho >= 8")
        log_max = math.log(require_real(spec.rho_max, "rho_max of the t axis", 1.0))
        self.s, self.q, self.c = float(s), hs_conjugate(2.0, s, n), 0.5 * (n - 2)
        self.h = 2.0 * log_max / cells
        t = self.h * np.arange(1, cells + 1) - log_max
        self.grid = CylGrid(n, n, np.exp(t), np.empty(0), np.zeros(cells))
        self.interior = np.arange(cells) < cells - 1
        self.dilation, self.sigma = np.exp(self.c * t), sphere_measure(n)
        cos = np.cos(np.pi * np.arange(1, cells) / cells)
        self.modal_mass = self.h * (2.0 + cos) / 3.0
        self.ratio = 2.0 * (1.0 - cos) / (self.h * self.modal_mass) + self.c**2
        x, weights = np.polynomial.legendre.leggauss(4)
        self._hats = 0.5 * np.array([1.0 - x, 1.0 + x])  # at a cell's Gauss points
        self._weights = 0.5 * self.h * weights

    def apply_mass(self, x: np.ndarray) -> np.ndarray:
        """S M applied to states x (pinned entries 0) on any leading axes."""
        w = x * self.dilation
        out = 4.0 * w
        out[..., 1:] += w[..., :-1]
        out[..., :-1] += w[..., 1:]
        return out * (self.sigma * self.h / 6.0 * self.dilation)

    def evaluate(self, candidate: np.ndarray):
        """As DiscreteRayleigh's, with L u and rho^(-s) u^(q-1) in w."""
        from scipy.fft import dst

        w = np.concatenate(([0.0], candidate * self.dilation))
        at_points = np.stack((w[:-1], w[1:]), axis=1) @ self._hats
        powered = self._weights * at_points ** (self.q - 1.0)
        nval = self.sigma * float(np.vdot(powered, at_points))
        if not nval > 0.0:
            raise ConvergenceError("flow state has vanished (zero constraint norm)")
        scale = nval ** (-1.0 / self.q)
        ends = scale ** (self.q - 1.0) * (powered @ self._hats.T)
        load = dst(ends[1:, 0] + ends[:-1, 1], 1, norm="ortho") / self.modal_mass
        coef = scale * dst(w[1:-1], 1, norm="ortho")
        energy = self.sigma * float(np.vdot(self.ratio * self.modal_mass * coef, coef))
        lu = np.append(-dst(self.ratio * coef, 1, norm="ortho"), 0.0) / self.dilation
        weighted = np.append(dst(load, 1, norm="ortho"), 0.0) / self.dilation
        return candidate * scale, energy, lu, weighted

    def solve(self, rhs: np.ndarray, tau: float) -> np.ndarray:
        """(M + tau (K + c^2 M)) w = M w_rhs; the pinned node comes out 0."""
        from scipy.fft import dst

        coef = dst(rhs[:-1] * self.dilation[:-1], 1, norm="ortho") / (1.0 + tau * self.ratio)
        return np.append(dst(coef, 1, norm="ortho"), 0.0) / self.dilation


def _initial_values(problem, spec: GridSpec, opts: MinimizeOptions):
    grid = problem.grid
    c = 0.5 * (grid.n - 2)
    if opts.init == "analytic-extremal":
        if problem.s != 1.0:
            raise ParameterDomainError("analytic-extremal seeding is calibrated "
                                       "for s = 1 only")
        core = opts.init_scale if opts.init_scale is not None else spec.rho_max / 200.0
        profile = lambda rho, r: ((rho + core) ** 2 + r**2) ** -c
    else:  # positive-bump: sech(log|z|) in w = |z|^c u, for every split
        def profile(rho, r):
            z = np.hypot(rho, r)
            return 2.0 / ((z + 1.0 / z) * z**c)
    return np.where(problem.interior, grid.sampled(profile).values, 0.0)


class _Mixer:
    """Anderson extrapolation (type II, depth ANDERSON_DEPTH) of the flow's
    fixed-point map u -> G(u).  From the last differences dX of states and
    dF of residuals f = G(u) - u it forms G(u) - (dX + dF) gamma, where
    gamma minimises ||f - dF gamma||_M in the mass-weighted norm."""

    def __init__(self, problem):
        self._apply_mass = problem.apply_mass
        self.clear()

    def clear(self) -> None:
        """Forget the history (the map changes when the step is halved)."""
        self._prev = None
        self._dx, self._df = [], []

    def mix(self, u: np.ndarray, image: np.ndarray) -> np.ndarray | None:
        """Record the state u and its image G(u); return the extrapolated
        state, or None while there is no difference to mix."""
        f = image - u
        if self._prev is not None:
            self._dx.append(u - self._prev[0])
            self._df.append(f - self._prev[1])
            del self._dx[:-ANDERSON_DEPTH], self._df[:-ANDERSON_DEPTH]
        self._prev = (u, f)
        if not self._df:
            return None
        weighted = [self._apply_mass(df) for df in self._df]
        gram = [[np.vdot(w, df) for df in self._df] for w in weighted]
        gamma = np.linalg.lstsq(gram, [np.vdot(w, f) for w in weighted], rcond=None)[0]
        mixed = image.copy()
        for g, dx, df in zip(gamma, self._dx, self._df):
            mixed -= g * (dx + df)
        return mixed


def minimize_rayleigh(n: int, k: int, s: float, grid_spec: GridSpec,
                      opts: MinimizeOptions | None = None) -> MinimizeResult:
    """Run the normalized gradient flow and return the converged minimum.

    The flow stops at the first state whose constrained-gradient residual
    ||d||_M / E is at most sqrt(opts.tol); near a nondegenerate minimum
    the energy error is quadratic in that residual, so opts.tol is a
    relative energy accuracy whatever the step.  Raises ConvergenceError
    (with the partial result attached) when MAX_ITERS steps are taken first,
    or when the step has to be halved below 1e-12 of opts.step.
    """
    opts = opts or MinimizeOptions()
    ctx = ExponentContext(n=n, k=k, p=2.0, s=s)
    if not admissible(ctx):
        raise ParameterDomainError(f"(n={n}, k={k}, p=2, s={s}) is not admissible")
    step = opts.step
    problem = (_RadialRayleigh(n, s, grid_spec) if k == n
               else DiscreteRayleigh(n, k, s, grid_spec))
    u, energy, lu, weighted = problem.evaluate(_initial_values(problem, grid_spec, opts))

    def accepted(it):
        """Record the current state in the history; return its residual
        ||d||_M / E, with d the flow direction."""
        defect = abs(float(np.vdot(problem.apply_mass(u), weighted)) - 1.0)
        history.append((it, energy, defect))
        d = lu + energy * weighted
        return math.sqrt(float(np.vdot(problem.apply_mass(d), d))) / energy

    def result():
        return _package(problem, u, energy, history, it, residual,
                        rejected, extrapolated)

    history = []
    it = rejected = extrapolated = 0
    mixer = _Mixer(problem)
    residual = accepted(it)
    while residual > math.sqrt(opts.tol):
        if it >= MAX_ITERS:
            raise ConvergenceError(
                f"no convergence within MAX_ITERS = {MAX_ITERS} steps",
                partial=result(),
            )
        it += 1
        rhs = u + step * energy * weighted
        candidate = problem.evaluate(np.clip(problem.solve(rhs, step), 0.0, None))
        new_energy = candidate[1]
        if not math.isfinite(new_energy) or new_energy > energy + 1e-14 * abs(energy):
            step *= 0.5
            rejected += 1
            if step < 1e-12 * opts.step:
                raise ConvergenceError(
                    "flow step collapsed without reaching tolerance",
                    partial=result(),
                )
            mixer.clear()
            continue
        mixed = mixer.mix(u, candidate[0])
        # the mixed state replaces the plain one only if it is positive and
        # no higher in energy (a non-finite one fails one of the two tests),
        # so the history stays non-increasing
        if mixed is not None and np.min(mixed[problem.interior]) > 0.0:
            trial = problem.evaluate(mixed)
            if trial[1] <= new_energy:
                candidate = trial
                extrapolated += 1
        u, energy, lu, weighted = candidate
        residual = accepted(it)
    if not np.min(u[problem.interior]) > 0.0:
        raise ConvergenceError(
            "flow converged to a profile that is not strictly positive",
            partial=result(),
        )
    return result()


def _package(problem, u, energy, history, iterations, stationarity,
             rejected_steps, extrapolated_steps) -> MinimizeResult:
    grid = problem.grid.with_values(u)
    profile = u.reshape(grid.rho_nodes.size, -1)[:, 0]
    # from the peak, as u vanishes at the t axis's inner edge; a partial
    # result may carry a vanished profile: no core scale then
    peak = int(np.argmax(profile))
    core = (estimate_core_scale(grid.rho_nodes[peak:], profile[peak:])
            if profile[peak] > 0.0 else float("nan"))
    first_node = float(grid.rho_nodes[0])
    if grid.k < grid.n and math.isfinite(core) and core < 8.0 * first_node:
        warnings.warn(
            "minimiser core collapsed near the axis "
            f"(core scale {core:.3g} vs first node {first_node:.3g}); "
            "reduce grading or refine the grid",
            RuntimeWarning,
            stacklevel=4,  # the caller of minimize_rayleigh
        )
    return MinimizeResult(
        E_min=energy,
        grid=grid,
        history=tuple(history),
        iterations=iterations,
        core_scale=core,
        stationarity=stationarity,
        rejected_steps=rejected_steps,
        extrapolated_steps=extrapolated_steps,
    )
