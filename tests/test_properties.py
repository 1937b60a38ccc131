"""Property tests over the admissible parameter space: each closed form
against its quadrature oracle, on a fixed, bounded set of draws."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hscyl import beta_integral_full, integrate_cylindrical, singular_newtonian_integral


def fixed(max_examples):
    """A fixed, bounded draw: the same examples on every run."""
    return settings(derandomize=True, database=None, deadline=None,
                    max_examples=max_examples)


@st.composite
def beta_cases(draw):
    n = draw(st.integers(3, 6))
    k = draw(st.integers(2, n - 1))
    s = draw(st.floats(0.0, min(k, 2), exclude_max=True))
    m = draw(st.floats(0.5 * (n - s) + 0.5, 0.5 * (n - s) + 3.0))
    return n, k, s, m


@fixed(30)
@given(beta_cases())
def test_beta_identity_matches_quadrature(case):
    n, k, s, m = case
    quad = integrate_cylindrical(lambda rho, r: (1.0 + rho**2 + r**2) ** -m,
                                 n, k, s, tol=1e-9)
    assert quad.value == pytest.approx(beta_integral_full(n, k, m, s), rel=1e-8)


@pytest.mark.parametrize("n, k", [(3, 2), (4, 2), (4, 3), (5, 2), (5, 3), (5, 4),
                                  (3, 3), (4, 4), (5, 5)])
@fixed(4)
@given(
    direction=st.lists(st.floats(-1.0, 1.0), min_size=5, max_size=5),
    norm=st.floats(0.25, 4.0),
    s=st.floats(0.0, 1.0),
)
def test_newtonian_integral_is_homogeneous(n, k, direction, norm, s):
    # I(z) scales like |z|^(2-s).  Every map scales with z, and scaling by
    # 2 is exact, so I(z) and I(2z) would make the same relative error;
    # 1.7 is not exact.  The bound is 4 times the default tol
    z = np.array(direction[:n])
    length = float(np.linalg.norm(z))
    assume(length > 1e-3)
    z *= norm / length
    base = singular_newtonian_integral(z, n, k, s)
    scaled = singular_newtonian_integral(1.7 * z, n, k, s)
    assert math.isfinite(base.value) and base.value > 0.0
    assert scaled.value / base.value == pytest.approx(1.7 ** (2.0 - s), rel=4e-6)
