"""Property tests over the admissible parameter space: each closed form
against its quadrature oracle, the exponent identities, the Kelvin
involution and the k = n flow against its ground state, on a fixed,
bounded set of draws."""

import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from test_minimizer import _p1_residual

from hscyl import (
    ExponentContext,
    GridSpec,
    admissible,
    aux_exponents,
    beta_integral_full,
    hs_conjugate,
    integrate_cylindrical,
    kelvin_transform,
    minimize_rayleigh,
    sharp_constant_K,
    singular_newtonian_integral,
)
from hscyl.specfn import beta, sphere_measure


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


def _ground_state_energy(n, s):
    """E* = min of S int (w'^2 + c^2 w^2) dt over S int |w|^q dt = 1 on the
    whole t line, c = (n-2)/2, q = 2(n-s)/(n-2): the energy of the k = n
    problem's ground state w ~ sech^(2/(q-2))(c (q-2) t / 2), the classical
    solution of -w'' + c^2 w = E w^(q-1) (cf. Lieb, Ann. Math. 118, 1983)."""
    c, q = 0.5 * (n - 2), 2.0 * (n - s) / (n - 2)
    a = q / (q - 2.0)
    integral = (0.5 * q) ** a * beta(a, 0.5) / (0.5 * (q - 2.0))
    return (sphere_measure(n) * integral) ** (1.0 - 2.0 / q) * c ** (1.0 + 2.0 / q)


@fixed(20)
@given(n=st.integers(3, 8), s=st.floats(0.0, 1.9))
@example(n=8, s=1.9)
def test_radial_flow_approaches_its_ground_state(n, s):
    # at s = 1 the ground state is the extremal, and E* is Lambda
    assert _ground_state_energy(n, 1.0) == pytest.approx(sharp_constant_K(n, n).Lambda,
                                                         rel=1e-13)
    # the ground state is sech^alpha(beta t); the box ends where it has
    # fallen to 1e-7 of its peak, so it grows like the core width 1/beta =
    # 2/(2-s), and its error (about 1e-14) is far below the grid's.  The
    # bounds come from a sweep of n = 3..8 and 20 values of s, which read
    # (E/E* - 1) / (beta h)^2 of 0.019-0.061 and 3-35 steps
    alpha, core = (n - 2) / (2.0 - s), 2.0 / (2.0 - s)
    half = core * math.acosh(1e7 ** (1.0 / alpha))
    cells = 256
    res = minimize_rayleigh(n, n, s, GridSpec(rho_max=math.exp(half), r_max=1.0,
                                              n_rho=cells, n_r=8))
    excess = res.E_min / _ground_state_energy(n, s) - 1.0
    spacing = 2.0 * half / cells / core  # in core widths
    assert 0.0 <= excess <= 0.1 * spacing**2
    assert res.iterations <= 50
    assert _p1_residual(n, s, res) <= 1e-5
