import math

import pytest

from hscyl import (
    ExponentContext,
    ParameterDomainError,
    build_grid,
    fundamental_solution,
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
