import math

import numpy as np
import pytest
import scipy.special

from hscyl import (
    ParameterDomainError,
    ball_volume,
    beta,
    integrate_radial,
    log_gamma,
    sphere_measure,
)


def test_log_gamma_against_stdlib_grid():
    xs = np.concatenate([np.linspace(0.5, 5, 400), np.geomspace(5, 100, 400)])
    mine = log_gamma(xs)
    # log_gamma is math.lgamma, so the independent reference is scipy
    ref = scipy.special.gammaln(xs)
    assert np.all(np.abs(mine - ref) <= 1e-13 * np.maximum(1.0, np.abs(ref)))


def test_log_gamma_against_scipy_small_arguments():
    xs = np.linspace(0.01, 0.5, 200)
    assert np.allclose(log_gamma(xs), scipy.special.gammaln(xs), rtol=1e-13, atol=1e-13)


def test_log_gamma_known_values():
    assert abs(log_gamma(1.0)) < 5e-15
    assert log_gamma(0.5) == pytest.approx(math.log(math.sqrt(math.pi)), rel=1e-14)
    assert log_gamma(5.0) == pytest.approx(math.log(24.0), rel=1e-14)


def test_log_gamma_rejects_nonpositive():
    with pytest.raises(ParameterDomainError):
        log_gamma(0.0)
    with pytest.raises(ParameterDomainError):
        log_gamma(-3.2)


def test_beta_known_values():
    assert beta(0.5, 0.5) == pytest.approx(math.pi, rel=1e-13)
    for b in (0.25, 1.0, 7.5):
        assert beta(1.0, b) == pytest.approx(1.0 / b, rel=1e-13)
    assert beta(2.0, 3.0) == pytest.approx(1.0 / 12.0, rel=1e-13)


def test_beta_symmetry_and_recurrence(rng):
    a = rng.uniform(0.02, 50.0, size=300)
    b = rng.uniform(0.02, 50.0, size=300)
    assert np.allclose(beta(a, b), beta(b, a), rtol=1e-12)
    # B(a+1, b) = B(a, b) * a / (a + b)
    assert np.allclose(beta(a + 1.0, b), beta(a, b) * a / (a + b), rtol=1e-12)


def test_beta_array_and_mixed_shapes_against_scipy():
    a = np.linspace(0.1, 30.0, 12).reshape(3, 4)
    b = np.geomspace(0.05, 40.0, 4)
    for x, y in ((a, b), (a, 2.5), (0.75, b), (b, b[::-1])):
        mine = beta(x, y)
        ref = scipy.special.beta(x, y)
        assert isinstance(mine, np.ndarray) and mine.shape == np.shape(ref)
        assert np.allclose(mine, ref, rtol=1e-12, atol=0.0)


def test_beta_rejects_nonpositive():
    with pytest.raises(ParameterDomainError):
        beta(0.0, 1.0)
    with pytest.raises(ParameterDomainError):
        beta(1.0, -2.0)


def test_sphere_measure_known_values():
    assert sphere_measure(1) == 2.0
    assert sphere_measure(2) == 2.0 * math.pi
    assert sphere_measure(1) == pytest.approx(2.0, rel=1e-14)
    assert sphere_measure(2) == pytest.approx(2.0 * math.pi, rel=1e-14)
    assert sphere_measure(3) == pytest.approx(4.0 * math.pi, rel=1e-14)
    assert sphere_measure(4) == pytest.approx(2.0 * math.pi**2, rel=1e-14)
    assert ball_volume(4) == pytest.approx(math.pi**2 / 2.0, rel=1e-14)


def test_sphere_equals_dimension_times_ball():
    for m in range(1, 12):
        assert sphere_measure(m) == pytest.approx(m * ball_volume(m), rel=1e-13)


def test_radial_convention_matches_full_space_gaussian():
    # integral of exp(-|y|^2) over R^3 equals pi^(3/2) under the convention
    res = integrate_radial(lambda rho: np.exp(-(rho**2)), 3, 0.0, tol=1e-11)
    assert res.value == pytest.approx(math.pi**1.5, rel=1e-10)


def test_dimension_validation():
    with pytest.raises(ParameterDomainError):
        sphere_measure(0)
    with pytest.raises(ParameterDomainError):
        ball_volume(-1)
    with pytest.raises(ParameterDomainError):
        sphere_measure(2.5)
    for m in (341, 342, 10**6):
        with pytest.raises(ParameterDomainError):
            sphere_measure(m)
        with pytest.raises(ParameterDomainError):
            ball_volume(m)
