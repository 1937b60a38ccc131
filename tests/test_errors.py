import math

import pytest

import numpy as np

from hscyl import (
    CylGrid,
    ExponentContext,
    ExtremalParams,
    ParameterDomainError,
    build_grid,
    fundamental_solution,
    integrate_cylindrical,
    sharp_constant_K,
    singular_newtonian_integral,
    sphere_measure,
)

ENTRY_POINTS = {
    "build_grid": lambda v: build_grid(v, 2, 10.0, 10.0, 16, 16),
    "ExponentContext": lambda v: ExponentContext(n=v, k=2, p=2.0, s=1.0),
    "sphere_measure": sphere_measure,
    "fundamental_solution": lambda v: fundamental_solution(v, 1.0),
}


@pytest.mark.parametrize("value", [True, 3.5, math.nan, math.inf, -math.inf, "3", None])
@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_integer_parameters_reject_non_integers(entry, value):
    with pytest.raises(ParameterDomainError):
        ENTRY_POINTS[entry](value)


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
