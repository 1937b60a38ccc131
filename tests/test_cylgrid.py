import math
import traceback

import numpy as np
import pytest

from hscyl import (
    CylGrid,
    GridError,
    ParameterDomainError,
    ShiftedQuadraticParams,
    build_grid,
    cyl_laplacian,
    dump_grid,
    el_residual,
    gradient_energy,
    hs_conjugate,
    load_grid,
    shifted_power_profile,
    shifted_quadratic_residual,
    sphere_measure,
    window_grid,
)

PI2 = math.pi**2


def test_build_grid_uniform_spacing():
    g = build_grid(3, 2, 10.0, 10.0, 16, 16, grading=1.0)
    assert g.rho_nodes[0] == pytest.approx(0.625)
    assert np.allclose(np.diff(g.rho_nodes), 0.625)
    assert g.values.shape == (16, 16)


def test_build_grid_grading_law():
    g = build_grid(3, 2, 10.0, 10.0, 32, 32, grading=2.0)
    assert g.rho_nodes[0] == pytest.approx(10.0 / 32**2)
    assert g.rho_nodes[-1] == pytest.approx(10.0)


def test_build_grid_degenerate_k_equals_n():
    g = build_grid(4, 4, 5.0, 5.0, 12, 12, grading=1.0)
    assert g.r_nodes.size == 0
    assert g.values.shape == (12,)


def test_build_grid_validation():
    with pytest.raises(ParameterDomainError):
        build_grid(3, 2, 10.0, 10.0, 4, 16, grading=2.0)
    with pytest.raises(ParameterDomainError):
        build_grid(3, 2, 10.0, 10.0, 16, 16, grading=0.5)
    with pytest.raises(GridError):
        CylGrid(3, 2, np.array([1.0, 0.5]), np.array([1.0]), np.zeros((2, 1)))


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_grid_rejects_non_finite_values(k, bad):
    grid = build_grid(3, k, 10.0, 10.0, 8, 8, grading=2.0)
    values = np.ones(grid.values.shape)
    values.flat[5] = bad
    with pytest.raises(GridError, match="finite"):
        grid.with_values(values)
    with pytest.raises(GridError, match="finite"):
        CylGrid(3, k, grid.rho_nodes, grid.r_nodes, values)


def test_grid_values_immutable():
    g = build_grid(3, 2, 10.0, 10.0, 16, 16, grading=2.0)
    with pytest.raises(ValueError):
        g.values[0, 0] = 1.0


def _meshgrid_sampled(grid, profile):
    """Values of a profile evaluated on the full meshgrid of the nodes."""
    if grid.k == grid.n:
        return profile(grid.rho_nodes, 0.0)
    P, R = np.meshgrid(grid.rho_nodes, grid.r_nodes, indexing="ij")
    return profile(P, R)


def test_sampled_open_mesh_matches_meshgrid(const32, monkeypatch):
    # elementwise profiles give the same bits on the open mesh
    from hscyl import ExtremalParams, GridSpec, MinimizeOptions, extremal_profile
    from hscyl.minimizer import DiscreteRayleigh, _initial_values, _RadialRayleigh

    axis = build_grid(3, 2, 30.0, 20.0, 40, 24, grading=1.5)
    window = window_grid(4, 2, 1.0, 2.0, 1.5, 3.0, 33, 17)
    profiles = [(axis, extremal_profile(ExtremalParams(n=3, k=2, lam=0.7), const32)),
                (window, shifted_power_profile(
                    ShiftedQuadraticParams(a=1, b=1, lam=1.3, alpha=0.4, beta=0.9)))]
    for grid, profile in profiles:
        assert np.array_equal(grid.sampled(profile).values, _meshgrid_sampled(grid, profile))

    spec = GridSpec(rho_max=40.0, r_max=40.0, n_rho=24, n_r=20, grading=1.5)
    # the k = n seeds live on the flow's t axis
    for problem in (DiscreteRayleigh(3, 2, 1.0, spec), _RadialRayleigh(3, 1.0, spec)):
        for opts in (MinimizeOptions(init="analytic-extremal", init_scale=0.6),
                     MinimizeOptions(init="positive-bump")):
            seed = _initial_values(problem, spec, opts)
            with monkeypatch.context() as patch:
                patch.setattr(CylGrid, "sampled", lambda g, prof: g.with_values(
                    _meshgrid_sampled(g, prof)))
                assert np.array_equal(seed, _initial_values(problem, spec, opts))

    # a profile that ignores its arguments fills the grid
    assert np.array_equal(axis.sampled(lambda rho, r: 2.5).values, np.full((40, 24), 2.5))
    line = build_grid(3, 3, 5.0, 5.0, 9, 9, grading=2.0)
    assert np.array_equal(line.sampled(lambda rho, r: -1.0).values, np.full(9, -1.0))


def test_laplacian_exact_on_paraboloid():
    # L(rho^2 + r^2) = 2 + 2a + 2 + 2b = 2n, and L(rho^2) = 2 + 2a = 2n for k = n
    for (n, k) in [(3, 2), (4, 2), (5, 3), (3, 3), (4, 4)]:
        g = build_grid(n, k, 8.0, 8.0, 20, 20, grading=1.0)
        lap = cyl_laplacian(g.sampled(lambda rho, r: rho**2 + r**2))
        assert np.allclose(lap.values, 2.0 * n, rtol=0, atol=1e-8)


def test_laplacian_of_constant_vanishes():
    g = build_grid(3, 2, 8.0, 8.0, 16, 16, grading=2.0)
    lap = cyl_laplacian(g.sampled(lambda rho, r: np.ones_like(rho + r)))
    assert np.allclose(lap.values, 0.0, atol=1e-10)


def test_laplacian_harmonic_profile_second_order():
    # |z|^(2-n) for n = 4, k = 2 is harmonic away from the origin
    def profile(rho, r):
        return (rho**2 + r**2) ** -1.0

    errs = []
    for nodes in (32, 64, 128):
        g = build_grid(4, 2, 4.0, 4.0, nodes, nodes, grading=1.0)
        lap = cyl_laplacian(g.sampled(profile))
        win_r = (g.rho_nodes >= 1.0) & (g.rho_nodes <= 3.0)
        win_t = (g.r_nodes >= 1.0) & (g.r_nodes <= 3.0)
        errs.append(float(np.abs(lap.values[np.ix_(win_r, win_t)]).max()))
    assert errs[0] / errs[1] == pytest.approx(4.0, abs=0.6)
    assert errs[1] / errs[2] == pytest.approx(4.0, abs=0.6)


def test_stencil_second_order_on_manufactured_field():
    # smooth field, even in both radial variables
    def u(rho, r):
        return np.cos(rho) * np.cos(2.0 * r)

    def exact(rho, r, a, b):
        u_rr = -np.cos(rho) * np.cos(2 * r)
        u_r = -np.sin(rho) * np.cos(2 * r)
        u_tt = -4.0 * np.cos(rho) * np.cos(2 * r)
        u_t = -2.0 * np.cos(rho) * np.sin(2 * r)
        return u_rr + a / rho * u_r + u_tt + b / r * u_t

    errs = []
    for nodes in (40, 80, 160):
        g = build_grid(5, 3, 3.0, 3.0, nodes, nodes, grading=1.5)
        lap = cyl_laplacian(g.sampled(u))
        P, R = np.meshgrid(g.rho_nodes, g.r_nodes, indexing="ij")
        reference = exact(P, R, g.a, g.b)
        errs.append(float(np.abs(lap.values - reference)[: -2, : -2].max()))
    assert errs[0] / errs[1] == pytest.approx(4.0, abs=0.5)
    assert errs[1] / errs[2] == pytest.approx(4.0, abs=0.5)


def test_axis_symmetry_zero_derivative():
    # with the even-reflection ghost, the radial derivative extrapolated to
    # the axis vanishes identically for even data
    from hscyl.cylgrid import _fd_weights

    for nodes in (32, 64):
        g = build_grid(3, 2, 2.0, 2.0, nodes, nodes, grading=1.0)
        x0, x1 = g.rho_nodes[0], g.rho_nodes[1]
        w = _fd_weights(0.0, np.array([-x0, x0, x1]), 1)
        u = np.cos(g.rho_nodes)
        axis_slope = (w[0] + w[1]) * u[0] + w[2] * u[1]
        assert abs(axis_slope) < 1e-10


def _loop_reference(x, axis_ghost, order):
    """Dense (D1 or D2) from one _fd_weights solve per row: the per-node
    construction the closed-form interior rows replace."""
    from hscyl.cylgrid import _fd_weights

    m = x.size
    ref = np.zeros((m, m))
    if axis_ghost:
        w = _fd_weights(x[0], np.array([-x[0], x[0], x[1]]), order)
        ref[0, :2] = w[0] + w[1], w[2]
    else:
        ref[0, :4] = _fd_weights(x[0], x[:4], order)
    for i in range(1, m - 1):
        ref[i, i - 1:i + 2] = _fd_weights(x[i], x[i - 1:i + 2], order)
    ref[-1, -4:] = _fd_weights(x[-1], x[-4:], order)
    return ref


def _dense(stencil, m):
    """The dense matrix of a stencil in difference form: interior row i is
    (-q, q - p, p) on nodes i-1, i, i+1."""
    p, q, head, tail = stencil
    dense = np.zeros((m, m))
    dense[0, :head.size] = head
    for i in range(1, m - 1):
        dense[i, i - 1:i + 2] = -q[i - 1], q[i - 1] - p[i - 1], p[i - 1]
    dense[-1, m - tail.size:] = tail
    return dense


@pytest.mark.parametrize("nodes", [8, 1024])
@pytest.mark.parametrize("layout", ["uniform", "graded-1.5", "graded-2", "window"])
@pytest.mark.parametrize("axis_ghost", [True, False])
def test_axis_operators_match_per_node_weights(nodes, layout, axis_ghost):
    # float64 bound fixed before measuring: 1e-14 of the row's largest weight
    from hscyl.cylgrid import _axis_stencils

    if layout == "window":
        x = window_grid(3, 2, 0.5, 4.0, 0.5, 4.0, nodes, nodes).rho_nodes
    else:
        grading = {"uniform": 1.0, "graded-1.5": 1.5, "graded-2": 2.0}[layout]
        x = build_grid(3, 2, 7.0, 7.0, nodes, nodes, grading).rho_nodes
    d1_ref, d2_ref = (_loop_reference(x, axis_ghost, order) for order in (1, 2))
    # L_axis = D2 + diag(c/x) D1 for c = a = 2 on rho and c = b = 1 on r,
    # and L_axis = D2 for c = 0
    grid = CylGrid(5, 3, x, x, np.zeros((x.size, x.size)), axis_ghost=axis_ghost)
    for nodes_, c in grid.axes + ((x, 0),):
        d1, lap = _axis_stencils(nodes_, c, grid.axis_ghost)
        for ref, stencil in ((d1_ref, d1), (d2_ref + (c / x)[:, None] * d1_ref, lap)):
            row_scale = np.abs(ref).max(axis=1, keepdims=True)
            assert np.all(np.abs(_dense(stencil, x.size) - ref) <= 1e-14 * row_scale)


def _along_axes(mats, u):
    """Each dense 1-D operator applied along its own axis of u."""
    return [np.moveaxis(np.tensordot(mat, u, axes=(1, axis)), 0, axis)
            for axis, mat in enumerate(mats)]


# the block seams against dense references: a bound fixed before the first
# run, 1e-13 of the same sums taken over the absolute weights and values
SEAM_REL = 1e-13


@pytest.mark.parametrize("layout", ["axis", "window", "1d"])
def test_row_block_seams_match_dense_operators(monkeypatch, layout):
    from hscyl import cylgrid

    # a small block puts several seams inside grids the dense references
    # can hold; the sweep reads the constant on every call
    monkeypatch.setattr(cylgrid, "_BLOCK_NODES", 64)
    if layout == "axis":
        g = build_grid(5, 3, 6.0, 5.0, 29, 11, grading=1.5)
    elif layout == "window":
        g = window_grid(5, 3, 0.5, 4.0, 0.7, 3.0, 23, 13)
    else:
        g = build_grid(4, 4, 6.0, 6.0, 211, 211, grading=1.5)
    rows, width = g.values.shape[0], g.values[0].size
    step = cylgrid._BLOCK_NODES // width
    assert rows >= 3 * step and rows % step
    g = g.sampled(lambda rho, r: 1.0 + np.exp(-0.3 * rho**2 - 0.5 * r**2) + 0.1 * rho)
    u = g.values
    d1_refs = [_loop_reference(nodes, g.axis_ghost, 1) for nodes, _ in g.axes]
    lap_refs = [_loop_reference(nodes, g.axis_ghost, 2) + (c / nodes)[:, None] * d1
                for (nodes, c), d1 in zip(g.axes, d1_refs)]
    lap = sum(_along_axes(lap_refs, u))
    lap_scale = sum(_along_axes([np.abs(m) for m in lap_refs], np.abs(u)))
    d1s = _along_axes(d1_refs, u)
    # (|D1 u| + |D1| |u|)^2 bounds (D1 u)^2 and its rounding alike
    grad_scale = sum((np.abs(d) + s) ** 2 for d, s in
                     zip(d1s, _along_axes([np.abs(m) for m in d1_refs], np.abs(u))))
    assert np.all(np.abs(cyl_laplacian(g).values - lap) <= SEAM_REL * lap_scale)

    coef = (0.7 / g.rho_nodes).reshape((-1,) + (1,) * (u.ndim - 1))
    source = coef * u ** (hs_conjugate(2.0, 1.0, g.n) - 1.0)
    assert np.all(np.abs(el_residual(g, 0.7, 1.0).values - (lap + source))
                  <= SEAM_REL * (lap_scale + np.abs(source)))

    energy = float(np.sum(g.measure() * sum(d**2 for d in d1s)))
    assert abs(gradient_energy(g) - energy) <= SEAM_REL * np.sum(g.measure() * grad_scale)

    if u.ndim == 2:
        params = ShiftedQuadraticParams(a=2, b=1, lam=1.3, alpha=0.4, beta=0.6)
        shifts = [2.0 * c * params.lam**2 * s / nodes
                  for (nodes, c), s in zip(g.axes, (params.alpha, params.beta))]
        shift = shifts[0][:, None] + shifts[1][None, :]
        grad_term = 0.5 * params.n * sum(d**2 for d in d1s) / u
        reference = lap - grad_term - shift
        scale = lap_scale + 0.5 * params.n * grad_scale / u + np.abs(shift)
        assert np.all(np.abs(shifted_quadratic_residual(g, params).values - reference)
                      <= SEAM_REL * scale)


@pytest.mark.parametrize("n, k", [(3, 2), (5, 3), (4, 4)])
@pytest.mark.parametrize("layout", ["axis", "window"])
def test_measure_sums_to_weighted_box_area(n, k, layout):
    # sum of sigma_k sigma_(n-k) rho^a r^b over the box [lo, hi]^2 (or [lo, hi])
    hi = 6.0
    if layout == "axis":
        lo, g = 0.0, build_grid(n, k, hi, hi, 40, 40, grading=1.5)
    else:
        lo, g = 0.5, window_grid(n, k, 0.5, hi, 0.5, hi, 40, 40)
    exact = 1.0
    for _, c in g.axes:
        exact *= sphere_measure(c + 1) * (hi ** (c + 1) - lo ** (c + 1)) / (c + 1)
    assert g.measure().shape == g.values.shape
    assert g.measure().sum() == pytest.approx(exact, rel=1e-14)


def test_gradient_energy_of_sobolev_bubble():
    g = build_grid(3, 2, 400.0, 400.0, 512, 512, grading=2.0)
    g = g.sampled(lambda rho, r: (1.0 + rho**2 + r**2) ** -0.5)
    assert gradient_energy(g) == pytest.approx(3.0 * PI2 / 4.0, rel=0.01)


def test_gradient_energy_constant_zero():
    g = build_grid(3, 2, 10.0, 10.0, 24, 24, grading=2.0)
    g = g.sampled(lambda rho, r: np.full_like(rho + r, 3.7))
    assert gradient_energy(g) == pytest.approx(0.0, abs=1e-18)


def test_gradient_energy_of_extremal_matches_quadrature(const32, extremal32):
    # discrete energy of the sampled extremal vs cylindrical quadrature of
    # its analytic squared gradient (both equal the constrained minimum)
    from hscyl import integrate_cylindrical

    amp = 0.5 * const32.K**-2
    shift = const32.shift

    def grad_sq(rho, r):
        return amp**2 * ((rho + shift) ** 2 + r**2) ** -2.0

    reference = integrate_cylindrical(grad_sq, 3, 2, 0.0, tol=1e-10)
    assert reference.value == pytest.approx(const32.Lambda, rel=1e-9)

    g = build_grid(3, 2, 300.0, 300.0, 512, 512, grading=2.0).sampled(extremal32)
    assert gradient_energy(g) == pytest.approx(reference.value, rel=0.02)


def test_gradient_energy_dilation_invariance():
    def base(rho, r):
        return (1.0 + rho**2 + r**2) ** -0.5

    t = 2.0
    g = build_grid(3, 2, 300.0, 300.0, 400, 400, grading=2.0)
    e_base = gradient_energy(g.sampled(base))
    e_scaled = gradient_energy(g.sampled(lambda rho, r: t**0.5 * base(t * rho, t * r)))
    assert e_scaled == pytest.approx(e_base, rel=0.02)


def test_el_residual_harmonic_case():
    # fundamental-solution profile with Lambda = 0: residual is pure truncation
    def profile(rho, r):
        return (rho**2 + r**2) ** -1.0

    g = build_grid(4, 2, 4.0, 4.0, 96, 96, grading=1.0)
    res = el_residual(g.sampled(profile), 0.0, 1.0)
    win_r = (g.rho_nodes >= 1.0) & (g.rho_nodes <= 3.0)
    win_t = (g.r_nodes >= 1.0) & (g.r_nodes <= 3.0)
    assert np.abs(res.values[np.ix_(win_r, win_t)]).max() < 2e-3


def test_el_residual_dilation_family(const32):
    from hscyl import ExtremalParams, extremal_profile

    for lam in (0.5, 1.0, 2.0):
        prof = extremal_profile(ExtremalParams(n=3, k=2, lam=lam), const32)
        g = build_grid(3, 2, 4.0, 4.0, 96, 96, grading=1.0)
        res = el_residual(g.sampled(prof), const32.Lambda, 1.0)
        win_r = (g.rho_nodes >= 0.5) & (g.rho_nodes <= 3.0)
        win_t = (g.r_nodes >= 0.5) & (g.r_nodes <= 3.0)
        assert np.abs(res.values[np.ix_(win_r, win_t)]).max() < 5e-3


def test_el_residual_rejects_nonpositive():
    g = build_grid(3, 2, 4.0, 4.0, 16, 16, grading=2.0)
    with pytest.raises(ParameterDomainError):
        el_residual(g, 1.0, 1.0)  # zero values


def test_shifted_quadratic_residual_quadratic_is_rounding_level():
    params = ShiftedQuadraticParams(a=1, b=1, lam=1.0, alpha=0.0, beta=0.0)
    g = window_grid(4, 2, 1.0, 2.0, 1.0, 2.0, 256, 256)
    phi = g.sampled(lambda rho, r: rho**2 + r**2)
    res = shifted_quadratic_residual(phi, params)
    assert np.abs(res.values[1:-1, 1:-1]).max() < 1e-8


def test_shifted_quadratic_residual_with_offsets():
    params = ShiftedQuadraticParams(a=1, b=1, lam=1.0, alpha=1.0, beta=1.0)
    g = window_grid(4, 2, 1.0, 2.0, 1.0, 2.0, 512, 512)
    phi = g.sampled(lambda rho, r: (rho + 1.0) ** 2 + (r + 1.0) ** 2)
    res = shifted_quadratic_residual(phi, params)
    assert np.abs(res.values[1:-1, 1:-1]).max() < 1e-6


def test_shifted_quadratic_residual_split_mismatch():
    params = ShiftedQuadraticParams(a=2, b=1)
    g = window_grid(4, 2, 1.0, 2.0, 1.0, 2.0, 16, 16)
    phi = g.sampled(lambda rho, r: rho**2 + r**2)
    with pytest.raises(ParameterDomainError):
        shifted_quadratic_residual(phi, params)


def test_power_substitution_reproduces_solution_equation():
    # Delta(phi^tau), tau = (2-n)/2, equals -phi^(tau-1) (p/rho + q/r)
    params = ShiftedQuadraticParams(a=1, b=1, lam=1.0, alpha=0.5, beta=0.25)
    n = params.n
    tau = 0.5 * (2.0 - n)
    g = window_grid(n, params.a + 1, 1.0, 2.0, 1.0, 2.0, 512, 512)
    phi = g.sampled(lambda rho, r: params.lam**2 * ((rho + params.alpha) ** 2
                                                    + (r + params.beta) ** 2))
    v = g.with_values(phi.values**tau)
    lap = cyl_laplacian(v)
    expected = -phi.values ** (tau - 1.0) * (
        (params.p_coef / g.rho_nodes)[:, None]
        + (params.q_coef / g.r_nodes)[None, :])
    diff = np.abs(lap.values - expected)[1:-1, 1:-1].max()
    assert diff < 1e-6


def test_shifted_power_profile_matches_power_of_quadratic():
    params = ShiftedQuadraticParams(a=2, b=1, lam=2.0, alpha=1.0, beta=0.0)
    prof = shifted_power_profile(params)
    rho, r = 1.3, 0.6
    phi = params.lam**2 * ((rho + 1.0) ** 2 + r**2)
    assert prof(rho, r) == pytest.approx(phi ** (0.5 * (2 - params.n)), rel=1e-13)


def test_grid_dump_roundtrip_bitexact(tmp_path, rng):
    g = build_grid(4, 2, 7.3, 5.1, 12, 9, grading=1.7)
    g = g.with_values(rng.standard_normal(g.values.shape))
    path = tmp_path / "grid.csv"
    dump_grid(g, path)
    back = load_grid(path)
    assert back.n == g.n and back.k == g.k and back.grading == g.grading
    assert np.array_equal(back.rho_nodes, g.rho_nodes)
    assert np.array_equal(back.r_nodes, g.r_nodes)
    assert np.array_equal(back.values, g.values)


def test_grid_dump_roundtrip_one_dimensional(tmp_path, rng):
    g = build_grid(4, 4, 3.0, 3.0, 10, 10, grading=2.0)
    g = g.with_values(np.exp(rng.standard_normal(10)))
    path = tmp_path / "grid1d.csv"
    dump_grid(g, path)
    back = load_grid(path)
    assert back.r_nodes.size == 0
    assert np.array_equal(back.values, g.values)


_EXTREMES = (-0.0, 5e-324, 1.7976931348623157e308, -1.7976931348623157e308)


@pytest.mark.parametrize("k, n_rho, n_r, planted", [
    (2, 72, 64, ()), (3, 10, 0, ()), (2, 8, 5000, ()), (3, 5000, 0, ()), (2, 8, 8, _EXTREMES)],
    ids=["2d", "1d", "long-r", "long-1d", "extremes"])
def test_grid_dump_rows_are_savetxt_bytes(tmp_path, k, n_rho, n_r, planted):
    # the CLI's decay-fit --grid and plot readers parse these bytes; the
    # 2-D grid spans more than one block of dump_grid's rows, each block of
    # the long-r grid is one rho row, and the long 1-D grid spans two blocks
    g = build_grid(3, k, 7.3, 5.1, n_rho, n_r, grading=1.7)
    draws = np.random.default_rng(5)
    values = (draws.standard_normal(g.values.shape)
              * 10.0 ** draws.integers(-300, 300, g.values.shape))
    values.flat[:len(planted)] = planted
    g = g.with_values(values)
    rho, r = (np.meshgrid(g.rho_nodes, g.r_nodes, indexing="ij") if n_r
              else (g.rho_nodes, np.zeros(n_rho)))
    expected = tmp_path / "savetxt.csv"
    np.savetxt(expected, np.column_stack((rho.ravel(), r.ravel(), g.values.ravel())),
               fmt="%.17g", delimiter=",")
    dump_grid(g, tmp_path / "grid.csv")
    assert (tmp_path / "grid.csv").read_bytes().split(b"\n", 2)[2] == expected.read_bytes()



@pytest.mark.parametrize("k, first_r", [(3, "1"), (2, "0")])
def test_load_grid_rejects_r_values_that_do_not_fit_k(tmp_path, k, first_r):
    # a 1-D dump's one r value is 0, which is no node; a 2-D dump's r
    # values are all nodes
    g = build_grid(3, k, 5.0, 5.0, 8, 8, grading=2.0)
    path = tmp_path / "grid.csv"
    dump_grid(g, path)
    lines = path.read_text().splitlines()
    r0 = lines[2].split(",")[1]
    path.write_text("\n".join(lines[:2] + [
        line.replace(f",{r0},", f",{first_r},") for line in lines[2:]]) + "\n")
    with pytest.raises(GridError):
        load_grid(path)


def test_load_grid_passes_on_a_non_ascii_data_row(tmp_path):
    # a byte past the first chunk the text layer decodes fails inside
    # loadtxt: an unreadable file, not a malformed row
    g = build_grid(3, 3, 5.0, 5.0, 2000, 8, grading=1.0)
    path = tmp_path / "grid.csv"
    dump_grid(g, path)
    path.write_bytes(path.read_bytes() + b"1e9,0,\xe9\n")
    with pytest.raises(UnicodeDecodeError) as err:
        load_grid(path)
    assert "loadtxt" in [frame.name for frame in traceback.extract_tb(err.value.__traceback__)]


BAD_DUMPS = {
    "short row": lambda lines: lines[:2] + ["1.0,2.0"] + lines[3:],
    "non-numeric row": lambda lines: lines[:2] + ["1.0,abc,3.0"] + lines[3:],
    "no metadata line": lambda lines: lines[1:],
    "no rho,r,value header": lambda lines: lines[:1] + ["x,y,z"] + lines[2:],
    "four columns in every row": lambda lines: lines[:2] + [line + ",0" for line in lines[2:]],
    "malformed metadata": lambda lines: [lines[0].replace("axis_ghost=1", "axis_ghost=yes")]
    + lines[1:],
    "missing row": lambda lines: lines[:-1],
    "no rows": lambda lines: lines[:2],
    "duplicate row in place of another": lambda lines: lines[:-1] + [lines[2]],
    # every row of the outermost rho node reads nan there, so the table
    # stays full and the node set gains a nan
    "nan node": lambda lines: lines[:2] + [
        "nan," + line.split(",", 1)[1]
        if line.split(",")[0] == lines[-1].split(",")[0] else line for line in lines[2:]],
}


@pytest.mark.parametrize("k, defect", [(k, d) for k in (2, 3) for d in sorted(BAD_DUMPS)
                                       # a 1-D dump short of its last row is
                                       # a complete dump of a shorter grid
                                       if (k, d) != (3, "missing row")])
def test_load_grid_rejects_bad_dumps(tmp_path, k, defect):
    g = build_grid(3, k, 5.0, 5.0, 8, 8, grading=2.0)
    path = tmp_path / "grid.csv"
    dump_grid(g.with_values(np.arange(g.values.size).reshape(g.values.shape)), path)
    path.write_text("\n".join(BAD_DUMPS[defect](path.read_text().splitlines())) + "\n")
    with pytest.raises(GridError):
        load_grid(path)
