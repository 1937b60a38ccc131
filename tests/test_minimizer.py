import math
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import spsolve

from hscyl import (
    ConvergenceError,
    DiscreteRayleigh,
    GridSpec,
    MinimizeOptions,
    MinimizeResult,
    ParameterDomainError,
    minimize_rayleigh,
    sharp_constant_K,
)
from hscyl.minimizer import _Mixer, _RadialRayleigh
from hscyl.specfn import sphere_measure

SMALL = GridSpec(rho_max=60.0, r_max=60.0, n_rho=64, n_r=64, grading=1.5)
#: the t axis [-20, 20] of the k = n flow
WIDE = GridSpec(rho_max=math.exp(20.0), r_max=1.0, n_rho=256, n_r=8)
#: the small grids of the k < n operator and gradient checks
TINY = GridSpec(rho_max=20.0, r_max=20.0, n_rho=12, n_r=12, grading=1.5)


def _residual(n, k, s, result):
    """||d||_M / E_min of a returned k < n state on SMALL, recomputed
    through direction()."""
    problem = DiscreteRayleigh(n, k, s, SMALL)
    d = problem.direction(result.grid.values)
    return math.sqrt(float(np.sum(problem.mass * d**2))) / result.E_min


def _p1_system(n, s, rho_nodes, u):
    """The k = n system of a state u on nodes rho_i = exp(t_i), assembled
    as sparse matrices and without the DST: S times the P1 mass M and
    A = K + c^2 M on the interior t nodes, S times the load b of
    |w|^(q-2) w by a 4-point Gauss rule per cell, and E and N of
    w = |z|^c u."""
    t = np.log(rho_nodes)
    h = t[1] - t[0]
    c, q, sigma = 0.5 * (n - 2), 2.0 * (n - s) / (n - 2), sphere_measure(n)
    size = t.size - 1

    def tridiagonal(main, off):
        return sp.diags([off, main, off], [-1, 0, 1], shape=(size, size), format="csc")

    mass = sigma * tridiagonal(4.0 * h / 6.0, h / 6.0)
    a = sigma * tridiagonal(2.0 / h, -1.0 / h) + c**2 * mass
    w = np.concatenate(([0.0], rho_nodes**c * u))
    x, g = np.polynomial.legendre.leggauss(4)
    x, g = 0.5 * (1.0 + x), 0.5 * h * g
    # row i: the Gauss points of the cell from node i to node i + 1
    at = np.outer(w[:-1], 1.0 - x) + np.outer(w[1:], x)
    powered = g * at ** (q - 1.0)
    b = powered[1:] @ (1.0 - x) + powered[:-1] @ x  # node j is in cells j and j - 1
    nval = sigma * float(np.sum(powered * at))
    w = w[1:-1]
    return mass, a, sigma * b, w, float(w @ (a @ w)), nval


def _p1_residual(n, s, result):
    """||E b - A w||_(M^-1) / E_min of a returned k = n state, from the
    assembled system (S M, S A and S b: the flow's mass carries S)."""
    mass, a, b, w, energy, nval = _p1_system(n, s, result.grid.rho_nodes,
                                             result.grid.values)
    assert nval == pytest.approx(1.0, rel=1e-10)
    assert energy == pytest.approx(result.E_min, rel=1e-10)
    r = energy * b - a @ w
    return math.sqrt(r @ spsolve(mass, r)) / energy


@pytest.fixture(scope="module")
def small_run(const32):
    opts = MinimizeOptions(init="analytic-extremal", init_scale=0.5, tol=1e-10)
    return minimize_rayleigh(3, 2, 1.0, SMALL, opts)


def test_small_run_recovers_energy(const32, small_run):
    # the continuum minimum is Lambda; a 64^2 grid lands within a few percent
    assert small_run.E_min == pytest.approx(const32.Lambda, rel=0.05)
    assert small_run.K_est == pytest.approx(small_run.E_min**-0.5, rel=1e-12)


def test_small_run_counters(small_run):
    # the default step is never halved on SMALL, and the mixing is used
    # (without it the same flow takes 68 steps)
    assert small_run.rejected_steps == 0
    assert small_run.extrapolated_steps >= 1
    assert small_run.iterations <= 20
    assert len(small_run.history) == small_run.iterations + 1


def test_minimum_matches_the_plain_flow(small_run):
    # the same flow without mixing, run test-locally from the same seed to
    # residual 1e-8 with the flow's own solver and fused evaluation
    problem = DiscreteRayleigh(3, 2, 1.0, SMALL)
    seed = problem.grid.sampled(lambda rho, r: ((rho + 0.5) ** 2 + r**2) ** -0.5).values
    u, energy, lu, weighted = problem.evaluate(np.where(problem.interior, seed, 0.0))
    step = MinimizeOptions().step
    for _ in range(2000):
        d = np.where(problem.interior, lu + energy * weighted, 0.0)
        if math.sqrt(float(np.sum(problem.mass * d**2))) / energy <= 1e-8:
            break
        rhs = np.where(problem.interior, u + step * energy * weighted, 0.0)
        previous = energy
        u, energy, lu, weighted = problem.evaluate(np.clip(problem.solve(rhs, step), 0.0, None))
        assert energy <= previous * (1.0 + 1e-14)
    else:
        pytest.fail("the plain flow did not reach residual 1e-8")
    assert abs(small_run.E_min - energy) <= 1e-10 * energy


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
    mass = DiscreteRayleigh(3, 2, 1.0, SMALL).mass

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


@pytest.mark.parametrize("n, k", [(3, 2), (4, 2)])
def test_gradient_direction_matches_fd_gradient(rng, n, k):
    # cosine between the flow direction and the (mass-metric) gradient of
    # the discrete Rayleigh functional at a random positive state
    problem = DiscreteRayleigh(n, k, 1.0, TINY)
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


def _reference_operator(problem):
    """L assembled as a sparse matrix, independently of DiscreteRayleigh's
    coefficients: per axis, the finite-volume tridiagonal with flux faces
    at the midpoints, zero flux at the axis and the outer row zeroed (the
    Dirichlet pin); then their Kronecker sum, with the leading (rho) axis
    varying slowest in the raveled grid."""
    ops = []
    for (x, c), vol in zip(problem.grid.axes, problem.axis_vols):
        wf = (0.5 * (x[1:] + x[:-1])) ** c / np.diff(x)
        main = np.zeros(x.size)
        main[:-1] -= wf / vol[:-1]
        main[1:] -= wf / vol[1:]
        lower = wf / vol[1:]
        main[-1] = lower[-1] = 0.0
        ops.append(sp.diags([lower, main, wf / vol[:-1]], [-1, 0, 1], format="csc"))
    return sp.kronsum(ops[1], ops[0], format="csc")


@pytest.mark.parametrize("n, k", [(3, 2), (4, 2)])
@pytest.mark.parametrize("grading", [1.0, 1.5, 2.0])
def test_apply_op_matches_assembled_operator(n, k, grading):
    problem = DiscreteRayleigh(n, k, 1.0, GridSpec(60.0, 60.0, 40, 36, grading))
    u = np.random.default_rng(7).uniform(-1.0, 1.0, size=problem.shape)
    ref = (_reference_operator(problem) @ u.ravel()).reshape(problem.shape)
    assert np.max(np.abs(problem.apply_op(u) - ref)) <= 1e-14 * np.max(np.abs(ref))


@pytest.mark.parametrize("n, k", [(3, 2), (4, 2), (5, 3), (6, 2)])
@pytest.mark.parametrize("grading", [1.0, 1.5, 2.0])
def test_flow_solve_matches_sparse_direct_solve(n, k, grading):
    # the modal solve of (1 - tau L) u = rhs against a sparse direct solve,
    # at the default step, halved, and at a small step, halved, from one solver
    problem = DiscreteRayleigh(n, k, 1.0, GridSpec(60.0, 60.0, 40, 36, grading))
    op = _reference_operator(problem)
    rng = np.random.default_rng(7)
    for tau in (1e4, 5e3, 2.0, 1.0):
        rhs = np.where(problem.interior, rng.uniform(-1.0, 1.0, size=problem.shape), 0.0)
        mat = sp.identity(op.shape[0], format="csc") - tau * op
        ref = spsolve(mat, rhs.ravel()).reshape(problem.shape)
        u = problem.solve(rhs, tau)
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


@pytest.mark.parametrize("n", [3, 4])
def test_one_dimensional_flows_are_stationary(n):
    # the 2048-cell k = n flows of the benchmark's ladder, on the annulus
    # 1/120 < |z| < 120: the seed is even about t = log(0.6), off the
    # centre of the box, and the box keeps E_min well above Lambda
    spec = GridSpec(rho_max=120.0, r_max=120.0, n_rho=2048, n_r=2048, grading=1.5)
    res = minimize_rayleigh(n, n, 1.0, spec, MinimizeOptions(init="analytic-extremal",
                                                              tol=1e-10))
    assert res.E_min >= sharp_constant_K(n, n).Lambda
    residual = _p1_residual(n, 1.0, res)
    assert residual <= 1e-5
    assert res.stationarity == pytest.approx(residual, rel=1e-6)


def test_minimum_does_not_depend_on_the_step(small_run):
    # small_run takes the default step (its residual is gated above); the
    # same flow at step 2 needs several times the iterations and stops at
    # the same minimum
    opts = MinimizeOptions(init="analytic-extremal", init_scale=0.5, step=2.0, tol=1e-10)
    slow = minimize_rayleigh(3, 2, 1.0, SMALL, opts)
    assert slow.E_min == pytest.approx(small_run.E_min, rel=1e-6)
    assert _residual(3, 2, 1.0, slow) <= 1e-5


@pytest.mark.parametrize("n, k", [(3, 2), (4, 2)])
def test_fused_evaluation_matches_the_separate_methods(rng, n, k):
    problem = DiscreteRayleigh(n, k, 1.0, TINY)
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
    # k = n: P1 on the t axis [-20, 20] from the sech(t) seed, which is
    # centred in the box.  Every P1 state is admissible and the Gauss rule
    # is exact for q = 4 and 3, so E_min >= Lambda; K_est is gated at 2e-4
    for n in (3, 4):
        const = sharp_constant_K(n, n)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = minimize_rayleigh(n, n, 1.0, WIDE)
        u = res.grid.values
        assert u.shape == (256,)
        assert np.allclose(np.log(res.grid.rho_nodes), np.linspace(-20.0, 20.0, 257)[1:],
                           rtol=0.0, atol=1e-13)
        energies = [row[1] for row in res.history]
        assert all(b <= a + 1e-12 * abs(a) for a, b in zip(energies, energies[1:]))
        assert max(row[2] for row in res.history) <= 1e-10
        assert u[-1] == 0.0
        assert np.all(u[:-1] > 0.0)
        assert res.E_min >= const.Lambda
        assert abs(res.K_est / const.attained_ratio - 1.0) <= 2e-4
        assert _p1_residual(n, 1.0, res) <= 1e-5
        assert res.iterations <= 20


@pytest.mark.parametrize("n", [3, 5])
def test_modal_step_matches_dense_p1_solve(rng, n):
    # the DST evaluation and step against the dense P1 system, at the
    # default step and at a halved one
    problem = _RadialRayleigh(n, 0.5, GridSpec(rho_max=30.0, r_max=1.0, n_rho=40, n_r=8))
    nodes = problem.grid.rho_nodes
    candidate = np.where(problem.interior, rng.uniform(0.2, 1.0, size=nodes.size), 0.0)
    u, energy, lu, weighted = problem.evaluate(candidate)
    mass, a, b, w, dense_energy, nval = _p1_system(n, 0.5, nodes, u)
    mass, a = mass.toarray(), a.toarray()
    dilation = nodes[:-1] ** problem.c

    def rel(x, y):
        return np.max(np.abs(x - y)) / np.max(np.abs(y))

    assert nval == pytest.approx(1.0, rel=1e-12)
    assert energy == pytest.approx(dense_energy, rel=1e-12)
    assert rel(lu[:-1] * dilation, -np.linalg.solve(mass, a @ w)) <= 1e-10
    assert rel(weighted[:-1] * dilation, np.linalg.solve(mass, b)) <= 1e-10
    assert lu[-1] == weighted[-1] == 0.0
    for tau in (1e4, 5e3):
        rhs = np.where(problem.interior, rng.uniform(-1.0, 1.0, size=nodes.size), 0.0)
        ref = np.linalg.solve(mass + tau * a, mass @ (rhs[:-1] * dilation))
        out = problem.solve(rhs, tau)
        assert out[-1] == 0.0
        assert rel(out[:-1] * dilation, ref) <= 1e-10


@pytest.mark.parametrize("make", [lambda: DiscreteRayleigh(3, 2, 1.0, TINY),
                                  lambda: _RadialRayleigh(3, 1.0, WIDE)], ids=["k<n", "k=n"])
def test_pinned_nodes_come_out_exactly_zero(rng, make):
    # the flow masks neither its right-hand side nor its direction: a solve
    # reads only the interior of rhs and returns 0 at the pins, and an
    # evaluation of a state that is 0 at the pins returns L u and
    # rho^(-s) u^(q-1) that are 0 there
    problem = make()
    pinned = ~problem.interior
    rhs = rng.uniform(0.2, 1.0, size=pinned.shape)
    interior_only = np.where(problem.interior, rhs, 0.0)
    for tau in (1e4, 2.0):
        out = problem.solve(rhs, tau)
        assert np.all(out[pinned] == 0.0)
        assert np.array_equal(out, problem.solve(interior_only, tau))
    _, _, lu, weighted = problem.evaluate(interior_only)
    assert np.all(lu[pinned] == 0.0) and np.all(weighted[pinned] == 0.0)


def test_mixer_is_exact_for_an_affine_map_in_two_dimensions():
    # depth-2 type-II Anderson fed the plain iterates of G(u) = A u + b in
    # R^2 with identity mass: once two differences span R^2, the mixed
    # state is the fixed point
    a, b = np.array([[0.5, 0.2], [-0.1, 0.3]]), np.array([1.0, -2.0])
    fixed = np.linalg.solve(np.eye(2) - a, b)
    mixer = _Mixer(SimpleNamespace(apply_mass=lambda x: x))
    u, mixed = np.array([3.0, 1.0]), []
    for _ in range(4):
        image = a @ u + b
        mixed.append(mixer.mix(u, image))
        u = image
    assert mixed[0] is None
    assert np.linalg.norm(mixed[1] - fixed) > 1e-3 * np.linalg.norm(fixed)
    for state in mixed[2:]:  # the history keeps the last two differences
        assert np.linalg.norm(state - fixed) <= 1e-12 * np.linalg.norm(fixed)


def test_inadmissible_parameters_rejected():
    with pytest.raises(ParameterDomainError):
        minimize_rayleigh(3, 2, 2.0, SMALL)  # s = 2 >= k fails the window
    with pytest.raises(ParameterDomainError, match="t axis"):
        DiscreteRayleigh(3, 3, 1.0, WIDE)
    with pytest.raises(ParameterDomainError):
        MinimizeOptions(init="nonsense")
    for step in (-0.5, math.inf, math.nan):
        with pytest.raises(ParameterDomainError, match="step"):
            MinimizeOptions(step=step)
    for scale in (-1.0, 0.0, math.inf, math.nan):
        with pytest.raises(ParameterDomainError, match="init_scale"):
            MinimizeOptions(init="analytic-extremal", init_scale=scale)
    with pytest.raises(ParameterDomainError, match="init_scale"):
        MinimizeOptions(init="positive-bump", init_scale=0.6)  # the bump has no core scale
    with pytest.raises(ParameterDomainError):
        MinimizeOptions(init="user-grid")
    for max_iters in (2.5, True, None):
        with pytest.raises(ParameterDomainError, match="max_iters"):
            MinimizeOptions(max_iters=max_iters)
    for tol in (0.0, -1.0, math.nan, math.inf):  # inf would stop at the seed
        with pytest.raises(ParameterDomainError, match="tol"):
            MinimizeOptions(tol=tol)


def test_nonconvergence_carries_partial_result():
    opts = MinimizeOptions(init="positive-bump", max_iters=1, tol=1e-14)
    with pytest.raises(ConvergenceError) as err:
        minimize_rayleigh(3, 2, 1.0, SMALL, opts)
    partial = err.value.partial
    assert isinstance(partial, MinimizeResult)
    assert partial.E_min > 0.0
    assert partial.stationarity == pytest.approx(_residual(3, 2, 1.0, partial), rel=1e-9)
    assert partial.stationarity > math.sqrt(opts.tol)
    assert (partial.rejected_steps, partial.extrapolated_steps) == (0, 0)


def _rough(state):
    """The state times 0.1 and 1.9 in a checkerboard: positive, but far
    higher in energy than any state the flow has accepted."""
    return state * (1.0 + 0.9 * (-1.0) ** np.indices(state.shape).sum(axis=0))


@pytest.mark.parametrize("problem_cls, n, k, spec",
                         [(DiscreteRayleigh, 3, 2, SMALL), (_RadialRayleigh, 3, 3, WIDE)])
def test_a_step_that_raises_the_energy_is_halved(monkeypatch, problem_cls, n, k, spec):
    # the third solve comes back rough: that step is rejected, the step
    # halved for good and the mixing history cleared, and the flow still
    # stops at the unpatched minimum
    opts = MinimizeOptions(tol=1e-12)
    plain = minimize_rayleigh(n, k, 1.0, spec, opts)
    solve, clear, taus, clears = problem_cls.solve, _Mixer.clear, [], []

    def rough_third_solve(problem, rhs, tau):
        taus.append(tau)
        out = solve(problem, rhs, tau)
        return _rough(out) if len(taus) == 3 else out

    monkeypatch.setattr(problem_cls, "solve", rough_third_solve)
    monkeypatch.setattr(_Mixer, "clear", lambda mixer: clears.append(len(taus)) or clear(mixer))
    res = minimize_rayleigh(n, k, 1.0, spec, opts)
    assert res.rejected_steps == 1
    assert clears == [0, 3]  # when the mixer is built, and at the rejected step
    assert taus[:3] == [opts.step] * 3
    assert taus[3:] == [0.5 * opts.step] * (len(taus) - 3)
    assert len(res.history) == res.iterations  # the rejected step adds no row
    energies = [row[1] for row in res.history]
    assert all(b <= a + 1e-12 * abs(a) for a, b in zip(energies, energies[1:]))
    assert abs(res.E_min - plain.E_min) <= 1e-10 * plain.E_min


@pytest.mark.parametrize("call", [
    lambda: DiscreteRayleigh(3, 2, 1.0, TINY).project(np.zeros((12, 12))),
    lambda: DiscreteRayleigh(3, 2, 1.0, TINY).evaluate(np.zeros((12, 12))),
    lambda: _RadialRayleigh(3, 1.0, WIDE).evaluate(np.zeros(256)),
], ids=["k<n-project", "k<n-evaluate", "k=n-evaluate"])
def test_a_zero_state_has_vanished(call):
    with pytest.raises(ConvergenceError, match="flow state has vanished"):
        call()


@pytest.mark.parametrize("problem_cls, n, k, spec",
                         [(DiscreteRayleigh, 3, 2, SMALL), (_RadialRayleigh, 3, 3, WIDE)])
def test_a_step_that_never_lowers_the_energy_collapses(monkeypatch, problem_cls, n, k, spec):
    solve = problem_cls.solve
    monkeypatch.setattr(problem_cls, "solve",
                        lambda problem, rhs, tau: _rough(solve(problem, rhs, tau)))
    with pytest.raises(ConvergenceError, match="flow step collapsed") as err:
        minimize_rayleigh(n, k, 1.0, spec)
    partial = err.value.partial
    assert isinstance(partial, MinimizeResult)
    # halved until below 1e-12 of the step: 2^-40 < 1e-12 < 2^-39
    assert partial.rejected_steps == partial.iterations == 40
    assert len(partial.history) == 1  # the seed alone
    assert partial.E_min == partial.history[0][1] > 0.0
    assert partial.extrapolated_steps == 0
