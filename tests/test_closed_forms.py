import dataclasses
import math

import numpy as np
import pytest

from hscyl import (
    ConvergenceDomainError,
    ExtremalParams,
    ParameterDomainError,
    SharpConstant,
    ShiftedQuadraticParams,
    SingularityError,
    beta_integral_full,
    beta_integral_radial,
    extremal_profile,
    extremal_v,
    fundamental_solution,
    integrate_cylindrical,
    integrate_radial,
    kelvin_transform,
    log_gamma,
    multi_subspace_coefficients,
    multi_subspace_solution,
    shifted_power_solution,
    sharp_constant_K,
)
from hscyl.closed_forms import _extremal_shift

PI = math.pi
PI2 = math.pi**2


# ---------------------------------------------------------------------------
# Beta-function integral identities
# ---------------------------------------------------------------------------

def test_beta_integral_full_hand_values():
    assert beta_integral_full(3, 2, 2.0, 1.0) == pytest.approx(PI2, rel=1e-13)
    # s = 0 reduces to the plain three-dimensional integral, also pi^2
    assert beta_integral_full(3, 2, 2.0, 0.0) == pytest.approx(PI2, rel=1e-13)


def test_beta_integral_full_against_quadrature():
    for (n, k, m, s) in [(3, 2, 2.0, 1.0), (4, 2, 3.0, 0.5), (5, 3, 3.0, 1.0)]:
        closed = beta_integral_full(n, k, m, s)
        quad = integrate_cylindrical(
            lambda rho, r: (1.0 + rho**2 + r**2) ** -m, n, k, s, tol=1e-10)
        assert quad.value == pytest.approx(closed, rel=1e-9)


def test_beta_integral_full_s_zero_matches_pure_radial():
    # consistency of the two Beta factors with the radial closed form
    for (n, m) in [(3, 2.0), (4, 3.0), (5, 3.0)]:
        for k in range(2, n):
            expected = math.exp(0.5 * n * math.log(PI)
                                + log_gamma(m - 0.5 * n) - log_gamma(m))
            assert beta_integral_full(n, k, m, 0.0) == pytest.approx(expected, rel=1e-10)


def test_beta_integral_full_divergence_errors():
    with pytest.raises(ConvergenceDomainError):
        beta_integral_full(4, 2, 1.0, 0.0)  # m <= (n-s)/2
    with pytest.raises(ConvergenceDomainError):
        beta_integral_full(5, 2, 1.4, 0.5)
    with pytest.raises(ParameterDomainError):
        beta_integral_full(3, 3, 2.0, 0.0)  # k < n required
    with pytest.raises(ParameterDomainError):
        beta_integral_full(3, 2, 2.0, 2.5)  # s >= k


def test_beta_integral_radial_values():
    assert beta_integral_radial(2, 2.0, 1.0) == pytest.approx(PI2 / 2.0, rel=1e-13)
    assert beta_integral_radial(2, 2.0, 0.0) == pytest.approx(PI, rel=1e-13)
    oracle = integrate_radial(lambda rho: (1.0 + rho**2) ** -2.0, 2, 1.0, tol=1e-11)
    assert beta_integral_radial(2, 2.0, 1.0) == pytest.approx(oracle.value, rel=1e-9)


def test_beta_integral_radial_divergence():
    with pytest.raises(ConvergenceDomainError):
        beta_integral_radial(2, 0.5, 0.0)
    with pytest.raises(ParameterDomainError):
        beta_integral_radial(2, 2.0, 3.0)


# ---------------------------------------------------------------------------
# Sharp constant
# ---------------------------------------------------------------------------

def test_sharp_constant_regression_values(const32):
    # frozen values of K from the corrected Beta composition
    # ((n-2)/2)^(2(n-1)) J with J = y-factor sigma_k p^(1-n) B(k-1, n-1);
    # criterion 1 checks that J against adaptive quadrature
    assert const32.K == pytest.approx(1.2208399114663184, rel=1e-9)
    c43 = sharp_constant_K(4, 3)
    assert c43.K == pytest.approx(1.6248792076489084, rel=1e-9)


def test_sharp_constant_algebraic_invariants(const32):
    n = const32.n
    assert const32.Lambda == pytest.approx(const32.K ** (2 * (n - 1) / (n - 2)), rel=1e-13)
    assert const32.mu == pytest.approx(4 * const32.Lambda / (n - 2) ** 2, rel=1e-13)
    assert const32.attained_ratio == pytest.approx(const32.Lambda**-0.5, rel=1e-13)
    assert const32.K > 0


def test_sharp_constant_printed_route_recorded(const32):
    # the literal published display disagrees with the Beta composition;
    # the discrepancy must be reported, not hidden (or averaged away)
    assert math.isfinite(const32.K_printed)
    assert const32.printed_discrepancy > 0.01
    assert const32.printed_discrepancy == pytest.approx(
        abs(const32.K_printed - const32.K) / const32.K, rel=1e-12)


def test_sharp_constant_k_equals_n():
    c44 = sharp_constant_K(4, 4)
    shift = 2.0 / (4.0 * 3.0)
    j_expected = (2 * PI2) * shift**-3.0 / 30.0  # sigma_4 shift^(1-n) B(3,3)
    assert c44.K == pytest.approx(j_expected ** (2.0 / 18.0), rel=1e-8)


def test_sharp_constant_validation():
    with pytest.raises(ParameterDomainError):
        sharp_constant_K(3, 1)
    with pytest.raises(ParameterDomainError):
        sharp_constant_K(2, 2)


# ---------------------------------------------------------------------------
# Extremal family
# ---------------------------------------------------------------------------

def test_extremal_value_at_origin(const32):
    params = ExtremalParams(n=3, k=2, lam=1.0)
    v0 = extremal_v(params, const32, 0.0, np.zeros(1))
    assert v0 == pytest.approx(2.0 * const32.K**-2, rel=1e-12)


def test_extremal_asymptotic_amplitude(const32, extremal32):
    # v * |z|^(n-2) tends to lam^-(n-2) ((n-2)/2)^(n-2) K^-(n-1)
    target = 0.5 * const32.K**-2
    for radius in (1e6, 1e8):
        assert extremal32(0.0, radius) * radius == pytest.approx(target, rel=1e-10)


def test_extremal_normalization(const32, extremal32):
    res = integrate_cylindrical(lambda rho, r: extremal32(rho, r) ** 4.0,
                                3, 2, 1.0, tol=1e-10)
    assert res.value == pytest.approx(1.0, abs=5e-9)


def test_extremal_translation_and_validation(const32):
    params = ExtremalParams(n=3, k=2, lam=1.0, y0=np.array([2.0]))
    centered = ExtremalParams(n=3, k=2, lam=1.0)
    assert extremal_v(params, const32, 0.5, np.array([2.0])) == pytest.approx(
        extremal_v(centered, const32, 0.5, np.array([0.0])), rel=1e-14)
    with pytest.raises(ParameterDomainError):
        extremal_v(ExtremalParams(n=4, k=2), const32, 0.0, np.zeros(2))
    with pytest.raises(ParameterDomainError):
        ExtremalParams(n=3, k=2, lam=-1.0)
    with pytest.raises(ParameterDomainError):
        extremal_v(centered, const32, -0.5, np.zeros(1))


def test_extremal_prefactor_forms_asserted():
    # the profile uses lam^-(n-2) ((n-2)/2)^(n-2) K^-(n-1); the paper's
    # other shape (4/(n-2)^2)^(-(n-2)/2), and Lambda^(-(n-2)/2) in place of
    # K^-(n-1), must give the same profile on every split
    lam, rho, r = 2.0, 0.3, 0.4
    for n in range(3, 9):
        for k in range(2, n + 1):
            const = sharp_constant_K(n, k)
            profile = extremal_profile(ExtremalParams(n=n, k=k, lam=lam), const)
            base = ((rho + _extremal_shift(n, k, lam)) ** 2 + r**2) ** (-0.5 * (n - 2))
            printed = lam ** -(n - 2.0) * (4.0 / (n - 2) ** 2) ** (-0.5 * (n - 2))
            for amplitude in (const.K ** -(n - 1.0), const.Lambda ** (-0.5 * (n - 2))):
                assert profile(rho, r) == pytest.approx(printed * amplitude * base,
                                                        rel=1e-12)


@pytest.mark.parametrize("n, k, K", [(2, 2, 1.0), (3, 1, 1.0), (3, 4, 1.0), (3.5, 2, 1.0),
                                     (3, 2, 0.0), (3, 2, -1.0), (3, 2, math.nan),
                                     (3, 2, math.inf)])
def test_sharp_constant_rejects_bad_fields(n, k, K):
    # checked when built: n = 2 used to escape as ZeroDivisionError
    with pytest.raises(ParameterDomainError):
        SharpConstant(n=n, k=k, K=K)


def test_sharp_constant_derives_its_companions():
    # Lambda, mu and the discrepancy are read from K and K_printed, so a
    # constant built by hand carries the same companions
    const = SharpConstant(n=4, k=3, K=1.5, K_printed=1.2)
    assert const.Lambda == 1.5 ** 3.0
    assert const.mu == const.Lambda
    assert const.printed_discrepancy == pytest.approx(0.2, rel=1e-15)
    assert math.isnan(SharpConstant(n=3, k=2, K=1.0).printed_discrepancy)
    assert [f.name for f in dataclasses.fields(SharpConstant)] == ["n", "k", "K", "K_printed"]


# ---------------------------------------------------------------------------
# Explicit solutions on split factors
# ---------------------------------------------------------------------------

def test_shifted_quadratic_coefficients():
    p = ShiftedQuadraticParams(a=1, b=1, lam=1.0, alpha=1.0, beta=1.0)
    assert p.n == 4
    assert p.p_coef == pytest.approx(2.0)
    assert p.q_coef == pytest.approx(2.0)
    p2 = ShiftedQuadraticParams(a=2, b=1, lam=2.0, alpha=1.0, beta=0.0)
    assert p2.n == 5
    assert p2.p_coef == pytest.approx(24.0)
    assert p2.q_coef == pytest.approx(0.0)


def test_shifted_power_degenerate_case_is_fundamental_profile():
    p = ShiftedQuadraticParams(a=1, b=1, lam=1.0, alpha=0.0, beta=0.0)
    assert p.p_coef == 0.0 and p.q_coef == 0.0
    x = np.array([0.3, 0.4])
    y = np.array([1.2, 0.0])
    znorm2 = np.dot(x, x) + np.dot(y, y)
    assert shifted_power_solution(p, x, y) == pytest.approx(znorm2 ** (-1.0), rel=1e-14)


def test_shifted_power_pole_and_validation():
    p = ShiftedQuadraticParams(a=1, b=1, lam=1.0, alpha=0.0, beta=0.0)
    with pytest.raises(SingularityError):
        shifted_power_solution(p, np.zeros(2), np.zeros(2))
    with pytest.raises(ParameterDomainError):
        ShiftedQuadraticParams(a=0, b=1)
    with pytest.raises(ParameterDomainError):
        shifted_power_solution(p, np.zeros(3), np.zeros(2))


def _fd_reduced_laplacian(profile, radii, degrees, h=1e-3):
    """High-order FD of sum_i [d_ii + (a_i/rho_i) d_i] at one point."""
    total = 0.0
    for i, a_i in enumerate(degrees):
        def along(t):
            args = list(radii)
            args[i] = t
            return profile(args)
        x = radii[i]
        f2 = (-along(x - 2 * h) + 16 * along(x - h) - 30 * along(x)
              + 16 * along(x + h) - along(x + 2 * h)) / (12 * h * h)
        f1 = (along(x - 2 * h) - 8 * along(x - h) + 8 * along(x + h)
              - along(x + 2 * h)) / (12 * h)
        total += f2 + a_i / x * f1
    return total


def test_three_subspace_solution_residual_spot_check():
    dims = (2, 2, 1)
    lam = 1.0
    offsets = (0.5, 0.25, 0.75)
    n = sum(dims)
    coefs = multi_subspace_coefficients(dims, lam, offsets)

    def profile(radii):
        return multi_subspace_solution(dims, lam, offsets, radii)

    for radii in [(1.1, 0.9, 1.3), (0.7, 1.4, 0.6), (2.0, 0.5, 1.0)]:
        lap = _fd_reduced_laplacian(profile, list(radii), [d - 1 for d in dims])
        v = profile(list(radii))
        source = sum(c / r for c, r in zip(coefs, radii))
        residual = lap + v ** (n / (n - 2.0)) * source
        assert abs(residual) < 1e-6


def test_multi_subspace_validation():
    with pytest.raises(ParameterDomainError):
        multi_subspace_solution((2, 2), 1.0, (0.0,), (1.0, 1.0))
    with pytest.raises(SingularityError):
        multi_subspace_solution((2, 1), 1.0, (0.0, 0.0), (0.0, 0.0))


# ---------------------------------------------------------------------------
# Fundamental solution and Kelvin transform
# ---------------------------------------------------------------------------

def test_fundamental_solution_values():
    assert fundamental_solution(3, 1.0) == pytest.approx(1.0 / (4 * PI), rel=1e-13)
    assert fundamental_solution(4, 2.0) == pytest.approx(1.0 / (16 * PI2), rel=1e-13)


def test_fundamental_solution_homogeneity():
    for n in (3, 4, 6):
        assert fundamental_solution(n, 2.6) == pytest.approx(
            2.0 ** (2 - n) * fundamental_solution(n, 1.3), rel=1e-13)


def test_fundamental_solution_errors():
    with pytest.raises(SingularityError):
        fundamental_solution(3, 0.0)
    with pytest.raises(ParameterDomainError):
        fundamental_solution(2, 1.0)


def test_kelvin_fixes_fundamental_profile(rng):
    n = 3
    power = kelvin_transform(lambda z: float(np.dot(z, z)) ** (0.5 * (2 - n)), n)
    for _ in range(5):
        z = rng.standard_normal(n) * 3.0
        assert power(z) == pytest.approx(1.0, rel=1e-12)


def test_kelvin_singularity_at_origin():
    ku = kelvin_transform(lambda z: 1.0, 3)
    with pytest.raises(SingularityError):
        ku(np.zeros(3))


@pytest.mark.parametrize("z", [[1.0, 2.0], [1.0, 2.0, 0.0, 0.0], [[1.0, 2.0, 0.5]], 1.0])
def test_kelvin_refuses_points_of_the_wrong_dimension(z):
    ku = kelvin_transform(lambda z: 1.0, 3)
    with pytest.raises(ParameterDomainError, match=r"z must be a point in R\^3"):
        ku(np.array(z))


def test_kelvin_annulus_energy_isometry():
    # u is a radial bump supported in the annulus 1/2 <= |z| <= 1, so the
    # Dirichlet energies of u there and of Ku over 1 <= |z| <= 2 agree.
    n = 3

    def u_radial(rho):
        inside = (rho >= 0.5) & (rho <= 1.0)
        return np.where(inside, np.sin(PI * (2 * rho - 1)) ** 2, 0.0)

    def du_radial(rho):
        inside = (rho >= 0.5) & (rho <= 1.0)
        return np.where(inside, 2 * PI * np.sin(2 * PI * (2 * rho - 1)), 0.0)

    energy_u = integrate_radial(lambda rho: du_radial(rho) ** 2, n, 0.0,
                                tol=1e-10, upper=1.0)

    ku = kelvin_transform(lambda z: float(u_radial(np.linalg.norm(z))), n)

    def ku_radial(rho):
        return ku(np.array([rho, 0.0, 0.0]))

    h = 1e-5

    def dku_sq(rho):
        if rho < 1.0 + 2 * h or rho > 2.0 - 2 * h:
            return 0.0
        return ((ku_radial(rho + h) - ku_radial(rho - h)) / (2 * h)) ** 2

    energy_ku = integrate_radial(dku_sq, n, 0.0, tol=1e-9, upper=2.0)
    assert energy_ku.value == pytest.approx(energy_u.value, rel=1e-6)
