import math

import pytest

import numpy as np

from hscyl import (
    CylGrid,
    DecayFit,
    DomainError,
    ExponentContext,
    ExtremalParams,
    ParameterDomainError,
    RaySamples,
    ShiftedQuadraticParams,
    build_grid,
    check_decay_bounds,
    extremal_v,
    fundamental_solution,
    gradient_energy,
    integrate_cylindrical,
    kelvin_transform,
    local_sup_ratio,
    multi_subspace_coefficients,
    multi_subspace_solution,
    sharp_constant_K,
    shifted_power_solution,
    singular_newtonian_integral,
    sphere_measure,
    window_grid,
)

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
}


@pytest.mark.parametrize("entry", sorted(MALFORMED_INPUTS))
def test_malformed_inputs_are_parameter_domain_errors(entry):
    with pytest.raises(ParameterDomainError):
        MALFORMED_INPUTS[entry]()
