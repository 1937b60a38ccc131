import math

import numpy as np
import pytest

from hscyl import (
    FitDomainError,
    GridError,
    ParameterDomainError,
    RaySamples,
    build_grid,
    check_decay_bounds,
    estimate_core_scale,
    fit_decay,
    local_sup_ratio,
    sample_ray,
    window_grid,
)


def test_fit_exact_power_law():
    radii = np.array([10.0, 20.0, 40.0, 80.0])
    fit = fit_decay(RaySamples("diagonal", radii, 5.0 * radii**-2.0))
    assert fit.exponent == pytest.approx(2.0, abs=1e-12)
    assert fit.amplitude == pytest.approx(5.0, rel=1e-10)
    assert fit.r_squared == pytest.approx(1.0)


@pytest.mark.parametrize("scale, exponent, amplitude", [(1e300, 3.0, math.inf),
                                                         (1e-300, -3.0, 0.0)])
def test_fit_amplitude_may_overflow_or_underflow(scale, exponent, amplitude):
    # amplitude = exp(intercept) extrapolates to radius 1, far from these
    # radii; DecayFit admits the inf and the 0 it rounds to
    radii = np.geomspace(1e10, 1e11, 6)
    with np.errstate(over="ignore"):
        fit = fit_decay(RaySamples("diagonal", radii, scale * (radii / 1e10) ** -exponent))
    assert fit.amplitude == amplitude
    assert fit.exponent == pytest.approx(exponent, rel=1e-9)
    assert fit.r_squared <= 1.0


def test_fit_constant_samples():
    radii = np.geomspace(1.0, 100.0, 8)
    fit = fit_decay(RaySamples("rho-axis", radii, np.full(8, 2.5)))
    assert fit.exponent == pytest.approx(0.0, abs=1e-14)
    assert fit.conclusive


def test_fit_rescaling_invariance(rng):
    radii = np.geomspace(2.0, 200.0, 12)
    values = 3.0 * radii**-1.7 * np.exp(rng.normal(0.0, 1e-3, size=12))
    base = fit_decay(RaySamples("r-axis", radii, values))
    scaled = fit_decay(RaySamples("r-axis", radii, 7.0 * values))
    assert scaled.exponent == pytest.approx(base.exponent, rel=1e-12)
    assert scaled.amplitude == pytest.approx(7.0 * base.amplitude, rel=1e-10)


def test_fit_extremal_tail(const32, extremal32):
    radii = np.geomspace(1e2, 1e4, 30)
    fit = fit_decay(RaySamples("r-axis", radii, extremal32(0.0, radii)))
    assert abs(fit.exponent - 1.0) < 0.05
    assert fit.r_squared > 0.999


def test_fit_domain_errors():
    with pytest.raises(FitDomainError):
        fit_decay(RaySamples("r-axis", np.array([1.0, 2.0, 4.0]),
                             np.array([1.0, 0.5, 0.25])))
    with pytest.raises(FitDomainError):
        fit_decay(RaySamples("r-axis", np.array([1.0, 2.0, 3.0, 4.0]),
                             np.array([1.0, 0.5, 0.4, 0.25])))
    with pytest.raises(ParameterDomainError):
        RaySamples("sideways", np.array([1.0, 2.0]), np.array([1.0, 1.0]))
    with pytest.raises(ParameterDomainError):
        RaySamples("r-axis", np.array([2.0, 1.0]), np.array([1.0, 1.0]))


def _fit(exponent, r_squared=1.0):
    from hscyl import DecayFit

    return DecayFit(exponent=exponent, amplitude=1.0, r_squared=r_squared)


def test_check_decay_bounds_modes():
    assert check_decay_bounds(_fit(1.02), 3, 2.0, "solution-two-sided").passed
    assert not check_decay_bounds(_fit(0.5), 3, 2.0, "solution-two-sided").passed
    assert check_decay_bounds(_fit(1.95), 4, 2.0, "general-p").passed
    assert check_decay_bounds(_fit(1.2), 3, 2.0, "subsolution-upper").passed
    assert not check_decay_bounds(_fit(0.7), 3, 2.0, "subsolution-upper").passed


def test_check_decay_bounds_errors():
    with pytest.raises(FitDomainError):
        check_decay_bounds(_fit(1.0, r_squared=0.5), 3, 2.0, "solution-two-sided")
    with pytest.raises(ParameterDomainError):
        check_decay_bounds(_fit(1.0), 3, 3.0, "solution-two-sided")
    with pytest.raises(ParameterDomainError):
        check_decay_bounds(_fit(1.0), 3, 2.0, "upside-down")


def test_sample_ray_directions(const32, extremal32):
    grid = build_grid(3, 2, 64.0, 64.0, 128, 128, grading=1.5).sampled(extremal32)
    for direction in ("rho-axis", "r-axis", "diagonal"):
        samples = sample_ray(grid, direction, min_radius=2.0, max_radius=40.0)
        fit = fit_decay(samples)
        assert abs(fit.exponent - 1.0) < 0.15
    with pytest.raises(ParameterDomainError):
        sample_ray(grid, "backwards")


def test_sample_ray_one_dimensional():
    g = build_grid(4, 4, 50.0, 50.0, 64, 64, grading=1.0)
    g = g.with_values(g.rho_nodes**-2.0)
    samples = sample_ray(g, "rho-axis")
    assert fit_decay(samples).exponent == pytest.approx(2.0, abs=1e-10)
    with pytest.raises(GridError):
        sample_ray(g, "r-axis")


def test_estimate_core_scale():
    radii = np.geomspace(0.01, 100.0, 400)
    values = (1.0 + radii**2) ** -0.5
    # value halves where 1 + rho^2 = 4
    assert estimate_core_scale(radii, values) == pytest.approx(math.sqrt(3.0), rel=0.05)
    # a profile that never halves reports the outermost radius
    assert estimate_core_scale(radii[:10], values[:10]) == radii[9]


def test_local_sup_ratio_constant_field():
    g = build_grid(3, 2, 12.0, 12.0, 96, 96, grading=1.0)
    g = g.with_values(np.ones_like(g.values))
    assert local_sup_ratio(g, 4.0, 4.0) == pytest.approx(1.0, rel=1e-12)


def test_local_sup_ratio_extremal_bounded(const32, extremal32):
    grid = build_grid(3, 2, 48.0, 48.0, 512, 512, grading=1.0).sampled(extremal32)
    ratios = [local_sup_ratio(grid, t, 4.0) for t in (8.0, 16.0, 32.0)]
    assert max(ratios) / min(ratios) <= 2.0


def test_local_sup_ratio_validation(const32, extremal32):
    grid = build_grid(3, 2, 16.0, 16.0, 64, 64, grading=1.0).sampled(extremal32)
    with pytest.raises(ParameterDomainError):
        local_sup_ratio(grid, 4.0, 1.5)  # q0 below p = 2
    with pytest.raises(GridError):
        local_sup_ratio(grid, 40.0, 4.0)  # ball leaves the grid


def test_local_sup_ratio_window_grid(const32, extremal32):
    # the window's nodes and cells above 1 are the axis grid's; below its
    # first node a window grid has no cells, so a ball reaching there is refused
    axis = build_grid(3, 2, 20.0, 20.0, 640, 640, grading=1.0).sampled(extremal32)
    window = window_grid(3, 2, 1.0, 20.0, 1.0, 20.0, 609, 609).sampled(extremal32)
    with pytest.raises(GridError):
        local_sup_ratio(window, 3.0, 4.0)  # the ball reaches down to 0.62
    assert local_sup_ratio(window, 6.0, 4.0) == pytest.approx(
        local_sup_ratio(axis, 6.0, 4.0), rel=1e-12)


def _full_grid_sup_ratio(grid, center_radius, q0):
    """local_sup_ratio evaluated over every node of the grid."""
    c, ball_r = center_radius / math.sqrt(2.0), 0.5 * center_radius
    P, R = np.meshgrid(grid.rho_nodes, grid.r_nodes, indexing="ij")
    dist_sq = (P - c) ** 2 + (R - c) ** 2
    in_ball, in_half = dist_sq <= ball_r**2, dist_sq <= (0.5 * ball_r) ** 2
    measure, vals = grid.measure(), grid.values
    mean_q = (np.sum(measure[in_ball] * np.abs(vals[in_ball]) ** q0)
              / np.sum(measure[in_ball])) ** (1.0 / q0)
    return float(np.max(vals[in_half])) / mean_q


def test_local_sup_ratio_window_of_the_ball_is_bit_exact(extremal32):
    # the ball's index window gathers its nodes in the full grid's order
    axis = build_grid(3, 2, 48.0, 48.0, 200, 180, grading=1.3).sampled(extremal32)
    window = window_grid(3, 2, 1.0, 20.0, 1.2, 21.0, 157, 171).sampled(extremal32)
    for grid, centres in ((axis, (2.0, 4.0, 8.0, 16.0, 32.0, 37.0)),
                          (window, (6.0, 7.3, 12.0, 16.5))):
        for t in centres:
            for q0 in (2.0, 4.0):
                assert local_sup_ratio(grid, t, q0) == _full_grid_sup_ratio(grid, t, q0)
    with pytest.raises(GridError):
        local_sup_ratio(axis, 40.0, 4.0)  # the ball leaves the grid
