import dataclasses
import math

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import spsolve

from hscyl import (
    ConvergenceError,
    DiscreteRayleigh,
    GridSpec,
    InternalConsistencyError,
    MinimizeOptions,
    MinimizeResult,
    ParameterDomainError,
    build_grid,
    minimize_rayleigh,
    recover_constant,
)
from hscyl.minimizer import _AxisSolver

SMALL = GridSpec(rho_max=60.0, r_max=60.0, n_rho=64, n_r=64, grading=1.5)


def _residual(n, k, s, result):
    """||d||_M / E_min of a returned state, recomputed through direction()."""
    problem = DiscreteRayleigh(n, k, s, result.grid)
    d = problem.direction(result.grid.values)
    return math.sqrt(float(np.sum(problem.mass * d**2))) / result.E_min


@pytest.fixture(scope="module")
def small_run(const32):
    opts = MinimizeOptions(init="analytic-extremal", init_scale=0.5, tol=1e-10)
    return minimize_rayleigh(3, 2, 1.0, SMALL, opts)


def test_small_run_recovers_energy(const32, small_run):
    # the continuum minimum is Lambda; a 64^2 grid lands within a few percent
    assert small_run.E_min == pytest.approx(const32.Lambda, rel=0.05)
    assert small_run.K_est == pytest.approx(small_run.E_min**-0.5, rel=1e-12)
    assert recover_constant(small_run) == pytest.approx(small_run.K_est, rel=1e-12)


def test_history_monotone_and_constraint_tight(small_run):
    energies = [row[1] for row in small_run.history]
    assert all(b <= a + 1e-12 * abs(a) for a, b in zip(energies, energies[1:]))
    assert max(row[2] for row in small_run.history) <= 1e-10
    assert small_run.history[0][0] == 0
    assert small_run.iterations == small_run.history[-1][0]


def test_minimizer_profile_monotone(small_run):
    u = small_run.grid.values
    assert np.all(np.diff(u, axis=0) <= 1e-8)
    assert np.all(np.diff(u, axis=1) <= 1e-8)


def test_minimizer_positive_in_interior(small_run):
    assert np.all(small_run.grid.values[:-1, :-1] > 0.0)
    assert np.allclose(small_run.grid.values[-1, :], 0.0)
    assert np.allclose(small_run.grid.values[:, -1], 0.0)


def test_bump_init_reaches_same_minimum_and_shape(const32, small_run):
    opts = MinimizeOptions(init="positive-bump", tol=1e-10)
    bump = minimize_rayleigh(3, 2, 1.0, SMALL, opts)
    assert bump.E_min == pytest.approx(small_run.E_min, rel=0.02)

    grid = bump.grid
    problem = DiscreteRayleigh(3, 2, 1.0, build_grid(
        3, 2, SMALL.rho_max, SMALL.r_max, SMALL.n_rho, SMALL.n_r, SMALL.grading))
    mass = problem.mass

    # unique discrete ground state: both seeds converge to the same profile
    # (profile agreement goes like the stationarity residual, the square
    # root of the energy tolerance, along the near-neutral dilation
    # direction)
    diff = bump.grid.values - small_run.grid.values
    rel = math.sqrt(float(np.sum(mass * diff**2))
                    / float(np.sum(mass * small_run.grid.values**2)))
    assert rel <= 5e-3

    # and it matches the analytic family after a dilation fit, in relative
    # weighted L2 over the interior (the region away from the Dirichlet
    # boundary layer, radius <= box/8)
    P, R = np.meshgrid(grid.rho_nodes, grid.r_nodes, indexing="ij")
    region = np.where((P**2 + R**2) <= (SMALL.rho_max / 8.0) ** 2, mass, 0.0)
    u = bump.grid.values
    u_norm = u / math.sqrt(float(np.sum(region * u * u)))
    best = math.inf
    for core in np.geomspace(0.05, 3.0, 61):
        v = ((P + core) ** 2 + R**2) ** -0.5
        v = v / math.sqrt(float(np.sum(region * v * v)))
        best = min(best, math.sqrt(float(np.sum(region * (u_norm - v) ** 2))))
    assert best <= 0.05


def test_dilation_invariance_of_minimum(small_run):
    opts = MinimizeOptions(init="analytic-extremal", init_scale=1.0, tol=1e-10)
    dilated = minimize_rayleigh(3, 2, 1.0, SMALL, opts)
    assert dilated.E_min == pytest.approx(small_run.E_min, rel=0.01)


def test_scale_consistency_against_truncation_estimate(small_run):
    big = GridSpec(rho_max=120.0, r_max=120.0, n_rho=128, n_r=128, grading=1.5)
    opts = MinimizeOptions(init="analytic-extremal", init_scale=0.5, tol=1e-10)
    wide = minimize_rayleigh(3, 2, 1.0, big, opts)
    assert abs(wide.E_min - small_run.E_min) <= small_run.truncation_estimate


@pytest.mark.parametrize("n, k", [(3, 2), (3, 3)])
def test_gradient_direction_matches_fd_gradient(rng, n, k):
    # cosine between the flow direction and the (mass-metric) gradient of
    # the discrete Rayleigh functional at a random positive state
    grid = build_grid(n, k, 20.0, 20.0, 12, 12, grading=1.5)
    problem = DiscreteRayleigh(n, k, 1.0, grid)
    u = rng.uniform(0.2, 1.0, size=problem.shape)
    u = np.where(problem.interior, u, 0.0)
    u = problem.project(u)

    direction = problem.direction(u)

    eps = 1e-7
    grad = np.zeros_like(u)
    for idx in np.ndindex(problem.shape):
        if not problem.interior[idx]:
            continue
        up = u.copy(); up[idx] += eps
        dn = u.copy(); dn[idx] -= eps
        grad[idx] = (problem.rayleigh(up) - problem.rayleigh(dn)) / (2 * eps)
    descent = -grad / problem.mass

    num = float(np.sum(direction * descent))
    den = float(np.linalg.norm(direction) * np.linalg.norm(descent))
    assert num / den >= 0.999


@pytest.mark.parametrize("n, k", [(3, 2), (4, 2), (3, 3), (4, 4)])
@pytest.mark.parametrize("grading", [1.0, 1.5, 2.0])
def test_flow_solve_matches_sparse_direct_solve(n, k, grading):
    # the per-axis solve of (1 - tau L) u = rhs against a sparse direct
    # solve; tau = 1 is the halved default step, refactorised in place
    grid = build_grid(n, k, 60.0, 60.0, 40, 36, grading=grading)
    problem = DiscreteRayleigh(n, k, 1.0, grid)
    solver = _AxisSolver(problem, 2.0)
    rng = np.random.default_rng(7)
    for tau in (2.0, 1.0, 1e4):
        if tau != 2.0:
            solver.factor(tau)
        rhs = np.where(problem.interior, rng.uniform(-1.0, 1.0, size=problem.shape), 0.0)
        mat = sp.identity(problem.op.shape[0], format="csc") - tau * problem.op.tocsc()
        ref = spsolve(mat, rhs.ravel()).reshape(problem.shape)
        u = solver.solve(rhs)
        assert u.shape == problem.shape
        assert np.max(np.abs(u - ref)) <= 1e-10 * np.max(np.abs(ref))
        assert np.all(u[~problem.interior] == 0.0)


def test_converged_flow_is_stationary(small_run):
    # the constrained-gradient residual ||d||_M / E of the converged state,
    # recomputed from the returned grid; the flow stops on the residual of
    # its fused per-step evaluation, and reports it
    residual = _residual(3, 2, 1.0, small_run)
    assert residual <= 1e-5
    assert small_run.stationarity == pytest.approx(residual, rel=1e-9)


@pytest.mark.filterwarnings("ignore:minimiser core collapsed:RuntimeWarning")
@pytest.mark.parametrize("n", [3, 4])
def test_one_dimensional_flows_are_stationary(n):
    # the 2048-node k = n flows of the benchmark's ladder; a stop on the
    # relative energy change at 1e-10 leaves them at 1.2e-3 (n = 3) and
    # 9.2e-4 (n = 4)
    spec = GridSpec(rho_max=120.0, r_max=120.0, n_rho=2048, n_r=2048, grading=1.5)
    res = minimize_rayleigh(n, n, 1.0, spec, MinimizeOptions(init="analytic-extremal",
                                                              tol=1e-10))
    assert _residual(n, n, 1.0, res) <= 1e-5


def test_minimum_does_not_depend_on_the_step(small_run):
    # small_run takes the default step (its residual is gated above); the
    # same flow at step 2 needs ten times the iterations and stops at the
    # same minimum
    opts = MinimizeOptions(init="analytic-extremal", init_scale=0.5, step=2.0, tol=1e-10)
    slow = minimize_rayleigh(3, 2, 1.0, SMALL, opts)
    assert slow.E_min == pytest.approx(small_run.E_min, rel=1e-6)
    assert _residual(3, 2, 1.0, slow) <= 1e-5


@pytest.mark.parametrize("n, k", [(3, 2), (3, 3)])
def test_fused_evaluation_matches_the_separate_methods(rng, n, k):
    grid = build_grid(n, k, 20.0, 20.0, 12, 12, grading=1.5)
    problem = DiscreteRayleigh(n, k, 1.0, grid)
    candidate = np.where(problem.interior, rng.uniform(0.2, 1.0, size=problem.shape), 0.0)
    u, energy, lu, weighted = problem.evaluate(candidate)

    def rel(a, b):
        return np.max(np.abs(a - b)) / np.max(np.abs(b))

    ref = problem.project(candidate)
    assert rel(u, ref) <= 1e-12
    assert energy == pytest.approx(problem.energy(ref), rel=1e-12)
    assert rel(lu, problem.apply_op(ref)) <= 1e-12
    d = np.where(problem.interior, lu + energy * weighted, 0.0)
    assert rel(d, problem.direction(ref)) <= 1e-12


def test_one_dimensional_flow():
    # k = n: the grid has the rho axis only.  The core collapses onto the
    # axis even at grading 1.0, and the flow says so.
    spec = GridSpec(rho_max=60.0, r_max=60.0, n_rho=256, n_r=256, grading=1.0)
    with pytest.warns(RuntimeWarning, match="core collapsed"):
        res = minimize_rayleigh(3, 3, 1.0, spec)
    u = res.grid.values
    assert u.shape == (256,)
    energies = [row[1] for row in res.history]
    assert all(b <= a + 1e-12 * abs(a) for a, b in zip(energies, energies[1:]))
    assert max(row[2] for row in res.history) <= 1e-10
    assert u[-1] == 0.0
    assert np.all(u[:-1] > 0.0)
    assert _residual(3, 3, 1.0, res) <= 1e-5


def test_inadmissible_parameters_rejected():
    with pytest.raises(ParameterDomainError):
        minimize_rayleigh(3, 2, 2.0, SMALL)  # s = 2 >= k fails the window
    with pytest.raises(ParameterDomainError):
        MinimizeOptions(init="nonsense")
    with pytest.raises(ParameterDomainError):
        MinimizeOptions(step=-0.5)


def test_nonconvergence_carries_partial_result():
    opts = MinimizeOptions(init="positive-bump", max_iters=1, tol=1e-14)
    with pytest.raises(ConvergenceError) as err:
        minimize_rayleigh(3, 2, 1.0, SMALL, opts)
    partial = err.value.partial
    assert isinstance(partial, MinimizeResult)
    assert partial.E_min > 0.0
    assert partial.stationarity == pytest.approx(_residual(3, 2, 1.0, partial), rel=1e-9)
    assert partial.stationarity > math.sqrt(opts.tol)


def test_recover_constant_algebra(small_run):
    assert recover_constant(dataclasses.replace(small_run, E_min=0.25)) == 2.0
    with pytest.raises(InternalConsistencyError):
        recover_constant(dataclasses.replace(small_run, E_min=0.0))


def test_user_grid_init(small_run):
    opts = MinimizeOptions(init="user-grid", init_grid=small_run.grid, tol=1e-10)
    res = minimize_rayleigh(3, 2, 1.0, SMALL, opts)
    assert res.E_min == pytest.approx(small_run.E_min, rel=1e-6)
    assert res.iterations <= small_run.iterations
