import math

import pytest

import numpy as np

from hscyl import (
    ConvergenceDomainError,
    CylGrid,
    DecayFit,
    DomainError,
    ExponentContext,
    ExtremalParams,
    FitDomainError,
    GridError,
    GridSpec,
    MinimizeOptions,
    ParameterDomainError,
    RaySamples,
    ShiftedQuadraticParams,
    beta,
    beta_integral_full,
    beta_integral_radial,
    build_grid,
    check_decay_bounds,
    cyl_laplacian,
    estimate_core_scale,
    extremal_v,
    fit_decay,
    fundamental_solution,
    gradient_energy,
    integrate_cylindrical,
    integrate_radial,
    kelvin_transform,
    local_sup_ratio,
    log_gamma,
    minimize_rayleigh,
    multi_subspace_coefficients,
    multi_subspace_solution,
    sample_ray,
    sharp_constant_K,
    shifted_power_solution,
    shifted_quadratic_residual,
    singular_newtonian_integral,
    sphere_measure,
    window_grid,
)
from hscyl.errors import require_point
from hscyl.exponents import decay_bound
from hscyl.svgplot import render_line_plot

ENTRY_POINTS = {
    "build_grid": lambda v: build_grid(v, 2, 10.0, 10.0, 16, 16, grading=2.0),
    "ExponentContext": lambda v: ExponentContext(n=v, k=2, p=2.0, s=1.0),
    "sphere_measure": sphere_measure,
    "fundamental_solution": lambda v: fundamental_solution(v, 1.0),
}


@pytest.mark.parametrize("value", [True, 3.5, math.nan, math.inf, -math.inf, "3", None])
@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_integer_parameters_reject_non_integers(entry, value):
    with pytest.raises(ParameterDomainError):
        ENTRY_POINTS[entry](value)


_GRID = build_grid(3, 2, 40.0, 40.0, 64, 64, grading=1.0).sampled(
    lambda rho, r: 1.0 / (1.0 + rho**2 + r**2))

#: float parameters -> the values each must refuse with a DomainError
#: (ParameterDomainError, or GridError for a CylGrid node)
FLOAT_ENTRY_POINTS = {
    "build_grid.rho_max": (lambda v: build_grid(3, 2, v, 10.0, 16, 16, grading=2.0), [math.inf]),
    "build_grid.r_max": (lambda v: build_grid(3, 2, 10.0, v, 16, 16, grading=2.0), [math.inf]),
    "window_grid.rho_hi": (lambda v: window_grid(3, 2, 1.0, v, 1.0, 2.0, 16, 16),
                           [math.inf]),
    "window_grid.r_hi": (lambda v: window_grid(3, 2, 1.0, 2.0, 1.0, v, 16, 16), [math.inf]),
    "CylGrid.node": (lambda v: CylGrid(3, 3, [1.0, 3.0, v], [], np.zeros(3)),
                     [math.nan, math.inf]),
    "RaySamples.radius": (lambda v: RaySamples("rho-axis", [1.0, 2.0, v], [1.0, 0.5, 0.25]),
                          [math.nan, math.inf]),
    "RaySamples.value": (lambda v: RaySamples("rho-axis", [1.0, 2.0, 4.0], [1.0, v, 0.25]),
                         [math.nan, math.inf]),
    "ExtremalParams.lam": (lambda v: ExtremalParams(n=3, k=2, lam=v), [math.inf]),
    "ExtremalParams.y0": (lambda v: ExtremalParams(n=3, k=2, y0=[v]), [math.nan, math.inf]),
    "extremal_v.x_norm": (lambda v: extremal_v(ExtremalParams(n=3, k=2), sharp_constant_K(3, 2),
                                               v, [0.0]), [math.nan, math.inf]),
    "ShiftedQuadraticParams.lam": (lambda v: ShiftedQuadraticParams(a=1, b=1, lam=v),
                                   [math.inf]),
    "ShiftedQuadraticParams.alpha": (lambda v: ShiftedQuadraticParams(a=1, b=1, alpha=v),
                                     [math.nan, math.inf]),
    "ShiftedQuadraticParams.beta": (lambda v: ShiftedQuadraticParams(a=1, b=1, beta=v),
                                    [math.nan, -math.inf]),
    "multi_subspace_coefficients.lam": (lambda v: multi_subspace_coefficients(
        (2, 2), v, (1.0, 1.0)), [math.nan, math.inf]),
    "multi_subspace_coefficients.offset": (lambda v: multi_subspace_coefficients(
        (2, 2), 1.0, (1.0, v)), [math.nan, math.inf]),
    "multi_subspace_solution.lam": (lambda v: multi_subspace_solution(
        (2, 1), v, (1.0, 1.0), (1.0, 1.0)), [math.inf]),
    "multi_subspace_solution.offset": (lambda v: multi_subspace_solution(
        (2, 1), 1.0, (v, 1.0), (1.0, 1.0)), [math.nan, math.inf]),
    "fundamental_solution.z_norm": (lambda v: fundamental_solution(3, v), [math.nan, math.inf]),
    "local_sup_ratio.q0": (lambda v: local_sup_ratio(_GRID, 4.0, q0=v), [math.nan, math.inf]),
    "check_decay_bounds.tol": (lambda v: check_decay_bounds(
        DecayFit(exponent=1.0, amplitude=1.0, r_squared=1.0), 3, 2.0,
        "solution-two-sided", tol=v), [math.nan, -1.0, math.inf]),
    "gradient_energy.p_exp": (lambda v: gradient_energy(_GRID, p_exp=v), [math.inf]),
}


@pytest.mark.parametrize("entry, value", [(entry, value)
                                          for entry, (_, values) in FLOAT_ENTRY_POINTS.items()
                                          for value in values])
def test_float_parameters_reject_non_finite_and_out_of_range(entry, value):
    with pytest.raises(DomainError):
        FLOAT_ENTRY_POINTS[entry][0](value)


SPLIT_ENTRY_POINTS = {
    "ExponentContext": lambda n, k: ExponentContext(n=n, k=k, p=1.5, s=1.0),
    "CylGrid": lambda n, k: CylGrid(n, k, np.arange(1.0, 9.0), np.arange(1.0, 9.0),
                                    np.zeros((8, 8))),
    "ExtremalParams": lambda n, k: ExtremalParams(n=n, k=k),
    "sharp_constant_K": sharp_constant_K,
    "integrate_cylindrical": lambda n, k: integrate_cylindrical(
        lambda rho, r: np.exp(-rho - r), n, k, 0.5),
    "singular_newtonian_integral": lambda n, k: singular_newtonian_integral(
        np.ones(n), n, k, 0.5),
}


@pytest.mark.parametrize("n, k", [(2, 2), (3, 1), (3, 4)])
@pytest.mark.parametrize("entry", sorted(SPLIT_ENTRY_POINTS))
def test_split_parameters_reject_bad_splits(entry, n, k):
    with pytest.raises(ParameterDomainError):
        SPLIT_ENTRY_POINTS[entry](n, k)


_KELVIN = kelvin_transform(lambda z: 1.0, 3)

#: inputs outside a split, a decay bound or R^n -> ParameterDomainError
MALFORMED_INPUTS = {
    "multi_subspace_solution.negative_dim": lambda: multi_subspace_solution(
        (-1, 4), 1.0, (0.0, 0.0), (1.0, 1.0)),
    "multi_subspace_solution.zero_dim": lambda: multi_subspace_solution(
        (0, 3), 1.0, (0.0, 0.0), (1.0, 1.0)),
    "multi_subspace_coefficients.n_2": lambda: multi_subspace_coefficients(
        (1, 1), 1.0, (0.0, 0.0)),
    "multi_subspace_coefficients.no_dims": lambda: multi_subspace_coefficients((), 1.0, ()),
    "check_decay_bounds.fractional_n": lambda: check_decay_bounds(
        DecayFit(exponent=0.5, amplitude=1.0, r_squared=1.0), 2.5, 2.0, "solution-two-sided"),
    "extremal_v.nan_y": lambda: extremal_v(ExtremalParams(n=3, k=2), sharp_constant_K(3, 2),
                                           0.5, [math.nan]),
    "shifted_power_solution.nan_x": lambda: shifted_power_solution(
        ShiftedQuadraticParams(a=1, b=1), [math.nan, 0.0], [1.0, 0.0]),
    "kelvin_transform.nan_z": lambda: _KELVIN([math.nan, 0.0, 0.0]),
    "kelvin_transform.inf_z": lambda: _KELVIN([math.inf, 0.0, 0.0]),
    "singular_newtonian_integral.nan_z": lambda: singular_newtonian_integral(
        [math.nan, 0.0, 1.0], 3, 2, 0.5),
    "multi_subspace_solution.text_offset": lambda: multi_subspace_solution(
        (2, 2), 1.0, ("a", 0.0), (1.0, 1.0)),
    "log_gamma.text": lambda: log_gamma("a"),
    "beta.text": lambda: beta("a", 1.0),
    "beta.ragged": lambda: beta([1.0, [2.0]], 1.0),
    "beta_integral_full.nan_m": lambda: beta_integral_full(3, 2, math.nan, 1.0),
    "beta_integral_radial.nan_a": lambda: beta_integral_radial(2, math.nan, 1.0),
    "RaySamples.text_values": lambda: RaySamples("rho-axis", [1.0, 2.0], "ab"),
    "RaySamples.ragged_values": lambda: RaySamples("rho-axis", [1.0, 2.0], [[1.0], [1.0, 2.0]]),
    "RaySamples.text_radii": lambda: RaySamples("rho-axis", ["a", "b"], [1.0, 0.5]),
    "RaySamples.two_dimensional_radii": lambda: RaySamples("rho-axis", [[1.0, 2.0]],
                                                           [[1.0, 0.5]]),
    **{f"{name}.budget_{label}": (lambda run=run, budget=budget: run(budget))
       for name, run in [
           ("integrate_radial", lambda b: integrate_radial(
               lambda rho: np.exp(-rho), 1, 0.0, budget=b)),
           ("integrate_cylindrical", lambda b: integrate_cylindrical(
               lambda rho, r: np.exp(-rho - r), 3, 2, 0.5, budget=b)),
           ("singular_newtonian_integral", lambda b: singular_newtonian_integral(
               [1.0, 0.5, 0.5], 3, 2, 1.0, budget=b))]
       for label, budget in [("negative", -1), ("zero", 0), ("nan", math.nan),
                             ("fractional", 2.5)]},
}


@pytest.mark.parametrize("entry", sorted(MALFORMED_INPUTS))
def test_malformed_inputs_are_parameter_domain_errors(entry):
    with pytest.raises(ParameterDomainError):
        MALFORMED_INPUTS[entry]()


_FLAT = build_grid(3, 2, 40.0, 40.0, 8, 8, grading=1.0).sampled(lambda rho, r: 1.0 + 0.0 * rho)
_SMALL_FLOW = GridSpec(20.0, 20.0, 12, 12, grading=1.5)

#: raise sites of input checks, each pinned by its message: (error, match, call)
RAISE_SITES = {
    "RaySamples.misaligned": (ParameterDomainError, "aligned", lambda: RaySamples(
        "rho-axis", [1.0, 2.0, 4.0], [1.0, 0.5])),
    "fit_decay.non_positive": (FitDomainError, "positive", lambda: fit_decay(RaySamples(
        "rho-axis", [1.0, 2.0, 4.0, 8.0, 16.0], [1.0, 0.5, 0.0, 0.1, 0.01]))),
    "sample_ray.no_usable_samples": (FitDomainError, "fewer than 2", lambda: sample_ray(
        _FLAT.with_values(np.zeros((8, 8))), "rho-axis")),
    "estimate_core_scale.empty": (FitDomainError, "core scale", lambda: estimate_core_scale(
        [], [])),
    "estimate_core_scale.non_positive_peak": (FitDomainError, "core scale",
                                              lambda: estimate_core_scale([1.0, 2.0],
                                                                          [0.0, 1.0])),
    "estimate_core_scale.nan_peak": (FitDomainError, "core scale", lambda: estimate_core_scale(
        [1.0, 2.0], [math.nan, 1.0])),
    "estimate_core_scale.misaligned": (FitDomainError, "core scale", lambda: estimate_core_scale(
        [1.0, 2.0, 3.0], [1.0, 0.2])),
    "local_sup_ratio.k_equals_n": (GridError, "2-D", lambda: local_sup_ratio(
        build_grid(3, 3, 40.0, 40.0, 16, 16, grading=1.0), 8.0, 4.0)),
    "local_sup_ratio.coarse": (GridError, "too coarse", lambda: local_sup_ratio(
        _FLAT, 10.0, 4.0)),
    "local_sup_ratio.vanishing": (FitDomainError, "vanishes", lambda: local_sup_ratio(
        _GRID.with_values(np.zeros(_GRID.values.shape)), 8.0, 4.0)),
    "beta_integral_full.second_divergence": (ConvergenceDomainError, "second",
                                             lambda: beta_integral_full(4, 2, 1.5, 0.0)),
    "multi_subspace_solution.radii_count": (ParameterDomainError, "one radius",
                                            lambda: multi_subspace_solution(
                                                (2, 2), 1.0, (0.0, 0.0), (1.0,))),
    "CylGrid.r_nodes_for_k_equals_n": (GridError, "no r nodes", lambda: CylGrid(
        3, 3, [1.0, 2.0, 3.0], [1.0, 2.0], np.zeros(3))),
    "CylGrid.no_r_nodes_for_k_below_n": (GridError, "no r nodes", lambda: CylGrid(
        3, 2, [1.0, 2.0, 3.0], [], np.zeros((3, 0)))),
    "CylGrid.two_dimensional_rho_nodes": (GridError, "rho_nodes must be 1-D", lambda: CylGrid(
        3, 2, [[1.0, 2.0]], [1.0, 2.0], np.zeros((2, 2)))),
    "CylGrid.text_rho_nodes": (GridError, "rho_nodes", lambda: CylGrid(
        3, 3, ["a", "b", "c"], [], np.zeros(3))),
    "CylGrid.text_values": (GridError, "finite numbers", lambda: CylGrid(
        3, 3, [1.0, 2.0], [], "ab")),
    "CylGrid.ragged_values": (GridError, "finite numbers", lambda: CylGrid(
        3, 2, [1.0, 2.0], [1.0, 2.0], [[1.0], [1.0, 2.0]])),
    "CylGrid.shape_1d": (GridError, "1-D grid", lambda: CylGrid(
        3, 3, [1.0, 2.0, 3.0], [], np.zeros(2))),
    "CylGrid.shape_2d": (GridError, r"grid \(3, 2\)", lambda: CylGrid(
        3, 2, [1.0, 2.0, 3.0], [1.0, 2.0], np.zeros((2, 3)))),
    "cyl_laplacian.two_node_axis": (GridError, "at least 3 nodes", lambda: cyl_laplacian(
        CylGrid(3, 2, [1.0, 2.0], [1.0, 2.0, 3.0], np.ones((2, 3))))),
    "shifted_quadratic_residual.non_positive": (
        ParameterDomainError, "strictly positive", lambda: shifted_quadratic_residual(
            window_grid(4, 2, 1.0, 2.0, 1.0, 2.0, 16, 16).sampled(lambda rho, r: rho - 1.5),
            ShiftedQuadraticParams(a=1, b=1))),
    "require_point.ragged": (ParameterDomainError, "point in R\\^2", lambda: require_point(
        [[1.0], [1.0, 2.0]], 2, "z")),
    "decay_bound.p_at_n": (ParameterDomainError, "1 < p < n", lambda: decay_bound(3, 3.0)),
    "decay_bound.p_at_1": (ParameterDomainError, "1 < p < n", lambda: decay_bound(3, 1.0)),
    "MinimizeOptions.max_iters_0": (ParameterDomainError, "max_iters", lambda: MinimizeOptions(
        max_iters=0)),
    "minimize_rayleigh.t_axis_cells": (ParameterDomainError, "t axis", lambda: minimize_rayleigh(
        3, 3, 1.0, GridSpec(120.0, 120.0, 4, 4))),
    "minimize_rayleigh.t_axis_box": (ParameterDomainError, "t axis", lambda: minimize_rayleigh(
        3, 3, 1.0, GridSpec(1.0, 1.0, 64, 64))),
    "minimize_rayleigh.analytic_seed_off_s_1": (
        ParameterDomainError, "s = 1 only", lambda: minimize_rayleigh(
            3, 2, 0.5, _SMALL_FLOW, MinimizeOptions(init="analytic-extremal"))),
    "integrate_cylindrical.s_at_k": (ParameterDomainError, "k > s", lambda: integrate_cylindrical(
        lambda rho, r: np.exp(-rho - r), 3, 2, 2.0)),
    "render_line_plot.no_series": (ParameterDomainError, "nothing to plot",
                                   lambda: render_line_plot([], "unused.svg")),
    "render_line_plot.one_point": (ParameterDomainError, "fewer than 2", lambda: render_line_plot(
        [([1.0, 2.0], [1.0, -1.0], "y")], "unused.svg", log_y=True)),
}


@pytest.mark.parametrize("entry", sorted(RAISE_SITES))
def test_input_checks_raise_their_typed_error(entry):
    error, match, call = RAISE_SITES[entry]
    with pytest.raises(error, match=match):
        call()
