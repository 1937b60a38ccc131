"""Property tests over the admissible parameter space: each closed form
against its quadrature oracle, the exponent identities and the Kelvin
involution, on a fixed, bounded set of draws."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hscyl import (
    ExponentContext,
    admissible,
    aux_exponents,
    beta_integral_full,
    hs_conjugate,
    integrate_cylindrical,
    kelvin_transform,
    singular_newtonian_integral,
)


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


@st.composite
def admissible_contexts(draw, n):
    k = draw(st.integers(2, n))
    p = draw(st.floats(1.0 + 1e-6, n - 1e-6))
    s = draw(st.floats(0.0, p, exclude_max=True))
    ctx = ExponentContext(n, k, p, s)
    assume(admissible(ctx))
    # the check below evaluates p*(t) at t = r s, whose condition number
    # t / (n - t) equals s / (n - p): the rounding of r s alone costs about
    # 1.5e-16 s / (n - p), which reaches the 1e-12 bound near s / (n - p) = 6e3
    assume(s <= 1e3 * (n - p))
    return ctx


@pytest.mark.parametrize("n", range(3, 9))
@fixed(20)
@given(data=st.data())
def test_exponent_identities(n, data):
    ctx = data.draw(admissible_contexts(n))
    rep = aux_exponents(ctx)
    # r p = p*(r s)
    lhs = rep.r * ctx.p
    rhs = hs_conjugate(ctx.p, rep.r * ctx.s, ctx.n)
    assert abs(lhs - rhs) <= 1e-12 * abs(lhs)
    # Hoelder conjugacy when finite
    if math.isfinite(rep.r_prime):
        assert abs(1.0 / rep.r + 1.0 / rep.r_prime - 1.0) <= 1e-12
    # the admissibility window forces r s < k
    assert rep.r * ctx.s < ctx.k
    # p <= p*(s) <= p*(0)
    assert ctx.p - 1e-12 <= rep.p_star_s <= hs_conjugate(ctx.p, 0.0, ctx.n) + 1e-12
    assert 0.0 <= rep.sigma < 1.0


@pytest.mark.parametrize("n", range(3, 9))
@fixed(10)
@given(
    direction=st.lists(st.floats(-1.0, 1.0), min_size=8, max_size=8),
    norm=st.floats(0.1, 10.0),
)
def test_kelvin_involution(n, direction, norm):
    def u(z):
        return 1.0 / (1.0 + float(np.dot(z, z)))

    z = np.array(direction[:n])
    length = float(np.linalg.norm(z))
    assume(length > 1e-3)
    z *= norm / length
    double = kelvin_transform(kelvin_transform(u, n), n)
    assert double(z) == pytest.approx(u(z), rel=1e-12)
