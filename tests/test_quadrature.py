import math

import numpy as np
import pytest

from hscyl import (
    ConvergenceError,
    GridError,
    ParameterDomainError,
    QuadratureResult,
    SingularityError,
    beta_integral_full,
    beta_integral_radial,
    integrate_cylindrical,
    integrate_radial,
    singular_newtonian_integral,
    sphere_measure,
)
from hscyl import quadrature
from hscyl.quadrature import _adaptive, _Budget, _exact, _peaked

PI2 = math.pi**2


def test_radial_weighted_lorentzian():
    res = integrate_radial(lambda rho: (1.0 + rho**2) ** -2.0, 2, 1.0, tol=1e-10)
    assert res.value == pytest.approx(beta_integral_radial(2, 2.0, 1.0), rel=1e-9)
    assert res.value == pytest.approx(PI2 / 2.0, rel=1e-9)
    assert res.error_estimate >= 0.0
    assert res.evaluations > 0


def test_radial_three_dimensional_case():
    res = integrate_radial(lambda rho: (1.0 + rho**2) ** -2.0, 3, 0.0, tol=1e-10)
    assert res.value == pytest.approx(PI2, rel=1e-9)


def test_radial_divergent_integrand_errors(monkeypatch):
    monkeypatch.setattr(quadrature, "DEFAULT_BUDGET", 200_000)
    with pytest.raises(ConvergenceError):
        integrate_radial(lambda rho: np.ones_like(rho), 2, 0.0, tol=1e-10)


def test_budget_exhaustion_carries_the_partial_result(monkeypatch):
    # the kink at rho = 0.3 leaves the first four panels open, so the
    # split spends past the budget with a partial sum in hand; the result
    # is sigma_1 = 2 times the integral of |rho - 0.3| over [0, 1] = 0.29
    monkeypatch.setattr(quadrature, "DEFAULT_BUDGET", 100)
    with pytest.raises(ConvergenceError, match="budget") as info:
        integrate_radial(lambda rho: np.abs(rho - 0.3), 1, 0.0, upper=1.0)
    partial = info.value.partial
    assert isinstance(partial, QuadratureResult)
    assert partial.evaluations <= 100
    assert abs(partial.value - 0.58) <= partial.error_estimate < 0.01


def _kinked_tail(rho):
    return np.exp(-rho) * np.abs(rho - 0.3)


KINKED_TAIL = 2.0 * (2.0 * math.exp(-0.3) - 0.7)   # sigma_1 times its integral


def _lorentzian_sq(rho, r):
    return (1.0 + rho**2 + r**2) ** -2.0


def _kinked_in_r(rho, r):
    return (1.0 + rho**2) ** -2.0 * np.abs(r - 0.3)


# sigma_2 sigma_1 times (pi/4) times the integral of |r - 0.3| over [0, 1]
KINKED_IN_R = 0.29 * PI2


@pytest.mark.parametrize("run, exact, budget", [
    (lambda: integrate_radial(_kinked_tail, 1, 0.0), KINKED_TAIL, 200),
    (lambda: integrate_radial(_kinked_tail, 1, 0.0), KINKED_TAIL, 50),
    (lambda: integrate_radial(_kinked_tail, 1, 0.0), KINKED_TAIL, 599),
    (lambda: integrate_cylindrical(_lorentzian_sq, 3, 2, 1.0), PI2, 3000),
    (lambda: integrate_cylindrical(_kinked_in_r, 3, 2, 1.0, r_max=1.0), KINKED_IN_R, 7500),
], ids=["radial-second-pass", "radial-first-pass", "radial-last-pass",
        "cylindrical-first-pass", "cylindrical-outer-pass-done"])
def test_budget_partial_is_the_whole_integral_so_far(monkeypatch, run, exact, budget):
    # the partial is in the result's units (sigma applied) and its error
    # estimate covers the whole range.  Every piece (rho < 1 and rho > 1)
    # is evaluated on an integral's first pass, so the error is infinite
    # only until that pass ends: at 120 evaluations in the radial run
    # (600 in all), and in the cylindrical ones once the outer first pass
    # and its inner batch are done, at 14520 and 7260 evaluations
    monkeypatch.setattr(quadrature, "DEFAULT_BUDGET", budget)
    with pytest.raises(ConvergenceError, match="budget") as info:
        run()
    partial = info.value.partial
    assert isinstance(partial, QuadratureResult)
    assert partial.evaluations <= budget
    assert abs(partial.value - exact) <= partial.error_estimate
    assert math.isfinite(partial.error_estimate) == (budget not in (50, 3000))


def test_radial_scalar_callable_is_wrapped():
    res = integrate_radial(lambda rho: math.exp(-rho * rho), 3, 0.0, tol=1e-9)
    assert res.value == pytest.approx(math.pi**1.5, rel=1e-8)


@pytest.mark.parametrize("error", [ZeroDivisionError, SingularityError])
def test_radial_probe_error_is_not_swallowed(error):
    # only a shape failure (TypeError, ValueError) marks an integrand as
    # scalar-only; any other error it raises on the array probe propagates
    def integrand(rho):
        if np.ndim(rho) > 0:
            raise error("fails on arrays")
        return math.exp(-rho * rho)

    with pytest.raises(error, match="fails on arrays"):
        integrate_radial(integrand, 3, 0.0, tol=1e-9)


def test_cylindrical_scalar_callable_is_wrapped():
    # integrand receives arrays of rho and r; a scalar-only one is called
    # point by point: the Gaussian over R^3 integrates to pi^(3/2)
    res = integrate_cylindrical(lambda rho, r: math.exp(-rho * rho - r * r),
                                3, 2, 0.0, tol=1e-9)
    assert res.value == pytest.approx(math.pi**1.5, rel=1e-8)


@pytest.mark.parametrize("error", [ZeroDivisionError, SingularityError])
def test_cylindrical_probe_error_is_not_swallowed(error):
    def integrand(rho, r):
        if np.ndim(rho) > 0 or np.ndim(r) > 0:
            raise error("fails on arrays")
        return math.exp(-rho * rho - r * r)

    with pytest.raises(error, match="fails on arrays"):
        integrate_cylindrical(integrand, 3, 2, 0.0, tol=1e-9)


def test_batched_adaptive_matches_separate_runs():
    # x^2 converges on its first pass, sqrt(x) and the narrow Lorentzian
    # refine deeply; a batch must give each integral its lone-run answer
    # and error estimate bit for bit, and spend exactly the evaluations of
    # the lone runs together, with one tolerance for all or one each
    a = np.array([0.0, 0.0, -1.0, 0.5])
    b = np.array([1.0, 2.0, 1.0, 3.0])

    def family(x, j):
        return np.choose(j, [x * x, np.sqrt(np.abs(x)),
                             1.0 / ((x - 0.3) ** 2 + 1e-12), np.cos(x / 0.3)])

    answers = {}
    for tol in (1e-10, np.array([1e-10, 1e-5, 1e-10, 1e-5])):
        batch_budget = _Budget()
        values, errors = _adaptive(_exact(family), a, b, tol, batch_budget, np.arange(4))
        used = 0
        for i in range(a.size):
            budget = _Budget()
            value, error = _adaptive(_exact(lambda x, j: family(x, np.full_like(j, i))),
                                     a[i:i + 1], b[i:i + 1], np.broadcast_to(tol, 4)[i],
                                     budget, np.array([0]))
            assert values[i] == value[0]
            assert errors[i] == error[0]
            used += budget.used
        assert batch_budget.used == used
        answers[np.ndim(tol)] = values
    # the loose tolerance stops sqrt(x) early; the tight ones change nothing
    assert answers[0][1] != answers[1][1]
    assert answers[0][2] == answers[1][2]
    values = answers[0]
    assert values[0] == pytest.approx(1.0 / 3.0, rel=1e-14)
    assert values[2] == pytest.approx(
        (math.atan(0.7 / 1e-6) + math.atan(1.3 / 1e-6)) / 1e-6, rel=1e-10)


def test_peaked_batch_of_two_kinds_matches_lone_runs():
    # a Lorentzian kind and a damped-root kind, each with its own widths
    # and tolerance, run as one batch: every integral gets its lone-run
    # value and error estimate bit for bit, for the evaluations of the
    # lone runs together
    w_a = np.array([1e-3, 0.5])
    lorentz = (lambda x, j: 1.0 / (x * x + w_a[j] ** 2), w_a, np.array([1.0, 3.0]), 1e-10)
    w_b = np.array([0.1, 2.0, 1e-4])
    damped = (lambda x, j: np.sqrt(x) * np.exp(-x / w_b[j]), w_b,
              np.array([5.0, 1.0, 2.0]), 1e-5)
    batch_budget = _Budget()
    batch = _peaked([lorentz, damped], batch_budget)
    used = 0
    for kind, (values, errors) in zip((lorentz, damped), batch):
        budget = _Budget()
        [(lone_values, lone_errors)] = _peaked([kind], budget)
        assert values.tobytes() == lone_values.tobytes()
        assert errors.tobytes() == lone_errors.tobytes()
        used += budget.used
    assert batch_budget.used == used
    assert batch[0][0] == pytest.approx(np.arctan([1.0 / 1e-3, 3.0 / 0.5]) / w_a, rel=1e-10)


def test_pieces_batch_matches_lone_runs():
    # three integrals over the shared pieces of a split range (rho < 1 in
    # w, rho > 1 in u, the tail edge-mapped), each with its own peak width
    # and tolerance, run as one batch: every integral gets its lone run's
    # value and error estimate bit for bit, for the lone runs' evaluations
    pieces = quadrature._radial_segments(-0.3, math.inf)
    pieces[-1] = quadrature._edge_map(pieces[-1])
    width = np.array([1e-3, 0.7, 20.0])
    tol = np.array([1e-10, 1e-6, 1e-10])

    def f(rho, j):
        return (1.0 + (rho / width[j]) ** 2) ** -2.0

    batch_budget = _Budget()
    values, errors = quadrature._integrate_pieces(_exact(f), pieces, 3, tol, batch_budget)
    used = 0
    for j in range(3):
        budget = _Budget()
        value, error = quadrature._integrate_pieces(
            _exact(lambda rho, _: f(rho, np.full(rho.shape, j))), pieces, 1, tol[j], budget)
        assert values[j].tobytes() == value[0].tobytes()
        assert errors[j].tobytes() == error[0].tobytes()
        used += budget.used
    assert batch_budget.used == used
    # width^0.7 times the integral of (1 + t^2)^(-2) t^(-0.3), B(0.35, 1.65)/2
    beta = math.gamma(0.35) * math.gamma(1.65) / math.gamma(2.0)
    assert (np.abs(values - 0.5 * beta * width**0.7) <= errors).all()


def test_passes_count_every_adaptive_pass():
    # rho^2 on [0, 1] is 2 w^5 after rho = w^2, which GK15 integrates
    # exactly on the first four panels: one pass of 60 evaluations; the
    # cylindrical case adds one inner batch for the 60 outer nodes
    res = integrate_radial(lambda rho: rho**2, 1, 0.0, upper=1.0)
    assert res.value == pytest.approx(2.0 / 3.0, rel=1e-14)
    assert (res.evaluations, res.passes) == (60, 1)
    res = integrate_cylindrical(lambda rho, r: rho**2 * r, 3, 2, 0.0,
                                rho_max=1.0, r_max=1.0)
    assert (res.evaluations, res.passes) == (60 + 60 * 60, 2)


def test_non_finite_integrand_raises_with_its_abscissa():
    # NaN beyond x = 0.6 is an error naming the first abscissa that gave
    # one, not a value silently replaced by 0
    seen = []

    def f(x, _):
        seen.extend(x[x > 0.6])
        return np.where(x > 0.6, math.nan, 1.0)

    with pytest.raises(SingularityError, match="nan at abscissa") as info:
        _adaptive(_exact(f), np.array([0.0]), np.array([1.0]), 1e-10, _Budget(),
                  np.array([0]))
    assert repr(float(min(seen))) in str(info.value)
    with pytest.raises(SingularityError):
        integrate_radial(lambda rho: np.where(rho > 2.0, math.nan, 1.0 / (1.0 + rho**4)),
                         2, 0.0)


def test_radial_validation():
    with pytest.raises(ParameterDomainError):
        integrate_radial(lambda rho: rho, 2, 2.5)  # s >= k
    with pytest.raises(ParameterDomainError):
        integrate_radial(lambda rho: rho, 0, 0.0)
    with pytest.raises(ParameterDomainError):
        integrate_radial(lambda rho: rho, 2, 0.0, tol=-1.0)
    for upper in (math.nan, -1.0, 0.0):  # positive, inf allowed, as rho_max and r_max
        with pytest.raises(ParameterDomainError, match="upper"):
            integrate_radial(lambda rho: (1.0 + rho**2) ** -2.0, 3, 0.0, upper=upper)


ENTRY_POINTS = {
    "radial": lambda tol: integrate_radial(lambda rho: (1.0 + rho**2) ** -2.0, 3, 0.0, tol),
    "cylindrical": lambda tol: integrate_cylindrical(
        lambda rho, r: (1.0 + rho**2 + r**2) ** -2.0, 3, 2, 0.0, tol=tol),
    "newtonian": lambda tol: singular_newtonian_integral(np.array([1.0, 0.5, 0.5]),
                                                         3, 2, 1.0, tol),
}


@pytest.mark.parametrize("tol", [0.0, -1.0, math.nan, math.inf],
                         ids=["zero", "negative", "nan", "inf"])
@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_tol_must_be_positive(entry, tol):
    # rejected before any evaluation: a zero or negative tol would spend the
    # whole budget, and nan or inf would return the unrefined first pass
    with pytest.raises(ParameterDomainError, match=r"tol must lie in \(0, inf\)"):
        ENTRY_POINTS[entry](tol)


def test_cylindrical_matches_closed_form():
    res = integrate_cylindrical(lambda rho, r: (1.0 + rho**2 + r**2) ** -2.0,
                                3, 2, 1.0, tol=1e-10)
    assert res.value == pytest.approx(PI2, rel=1e-9)
    assert res.value == pytest.approx(beta_integral_full(3, 2, 2.0, 1.0), rel=1e-9)


@pytest.mark.parametrize("n, k, s, m", [(3, 2, 1.75, 2.0), (4, 2, 1.99, 2.5)])
def test_cylindrical_weight_singular_after_doubling(n, k, s, m):
    # for s > k - 1/2 the head map rho = w^2 leaves a singular w integrand
    # that refinement alone cannot resolve (panel width underflow)
    res = integrate_cylindrical(lambda rho, r: (1.0 + rho**2 + r**2) ** -m,
                                n, k, s, tol=1e-9)
    assert res.value == pytest.approx(beta_integral_full(n, k, m, s), rel=1e-8)


def test_cylindrical_error_estimate_covers_true_error():
    res = integrate_cylindrical(lambda rho, r: (1.0 + rho**2 + r**2) ** -2.0,
                                3, 2, 1.0, tol=1e-9)
    assert abs(res.value - PI2) <= max(res.error_estimate, 1e-15 * PI2)


def test_cylindrical_gradient_energy_integrand(const32, extremal32):
    # |grad (1+rho^2+r^2)^(-1/2)|^2 = (rho^2+r^2)(1+rho^2+r^2)^(-3)
    res = integrate_cylindrical(
        lambda rho, r: (rho**2 + r**2) * (1.0 + rho**2 + r**2) ** -3.0,
        3, 2, 0.0, tol=1e-10)
    oracle = integrate_radial(lambda t: t**2 * (1.0 + t**2) ** -3.0, 3, 0.0,
                              tol=1e-11)
    assert res.value == pytest.approx(oracle.value, rel=1e-8)
    assert res.value == pytest.approx(3.0 * PI2 / 4.0, rel=1e-8)


def test_cylindrical_extremal_normalization(const32, extremal32):
    # the constraint integral of the unit-dilation extremal equals 1
    res = integrate_cylindrical(lambda rho, r: extremal32(rho, r) ** 4.0,
                                3, 2, 1.0, tol=1e-10)
    assert res.value == pytest.approx(1.0, abs=5e-9)


def test_cylindrical_factorizes_for_rho_only_integrands():
    res = integrate_cylindrical(lambda rho, r: (1.0 + rho**2) ** -3.0,
                                4, 2, 0.5, tol=1e-10, r_max=5.0)
    rho_part = integrate_radial(lambda rho: (1.0 + rho**2) ** -3.0, 2, 0.5,
                                tol=1e-11)
    r_part = integrate_radial(lambda r: np.ones_like(r), 2, 0.0, tol=1e-11,
                              upper=5.0)
    assert res.value == pytest.approx(rho_part.value * r_part.value, rel=1e-8)


def test_cylindrical_k_equals_n_reduces_to_radial():
    res = integrate_cylindrical(lambda rho, r: (1.0 + rho**2) ** -2.0, 3, 3, 0.0,
                                tol=1e-10)
    assert res.value == pytest.approx(PI2, rel=1e-9)


def test_cylindrical_degenerate_domain_errors():
    # k = n has no r direction: a finite r_max is refused, inf is the default
    with pytest.raises(GridError):
        integrate_cylindrical(lambda rho, r: rho, 3, 3, 0.0, r_max=4.0)
    res = integrate_cylindrical(lambda rho, r: (1.0 + rho**2) ** -2.0, 3, 3, 0.0,
                                tol=1e-10, r_max=math.inf, rho_max=2.0)
    assert res.value == pytest.approx(
        integrate_radial(lambda rho: (1.0 + rho**2) ** -2.0, 3, 0.0, tol=1e-10,
                         upper=2.0).value, rel=1e-14)


def test_budget_doubling_never_raises_error_estimate(monkeypatch):
    def f(rho, r):
        return (1.0 + rho**2 + r**2) ** -2.0

    large = integrate_cylindrical(f, 3, 2, 0.5, tol=1e-9)
    monkeypatch.setattr(quadrature, "DEFAULT_BUDGET", quadrature.DEFAULT_BUDGET // 2)
    small = integrate_cylindrical(f, 3, 2, 0.5, tol=1e-9)
    assert large.error_estimate <= small.error_estimate


def test_domain_validation():
    for k, bounds in [(2, {"rho_max": -1.0}), (2, {"r_max": 0.0}), (2, {"rho_max": math.nan}),
                      (3, {"rho_max": 0.0}), (3, {"r_max": -1.0})]:
        with pytest.raises(ParameterDomainError, match=r"must lie in \(0, inf\]"):
            integrate_cylindrical(lambda rho, r: rho, 3, k, 0.0, **bounds)
    with pytest.raises(ParameterDomainError):
        integrate_cylindrical(lambda rho, r: rho, 3, 1, 0.0)


# ---------------------------------------------------------------------------
# singular Newtonian-kernel ball integral
# ---------------------------------------------------------------------------

def test_newtonian_closed_form_at_s_zero():
    # without the weight the integral is the Newtonian potential of the
    # half-radius ball at its centre: sigma_n R^2 / 2, for k < n and for
    # k = n, where the whole point is the xi factor
    for z, k in [([0.6, 0.0, 0.8], 2), ([0.6, 0.0, 0.8], 3), ([0.3, -0.4, 0.0, 1.2], 4)]:
        z = np.array(z)
        radius = 0.5 * np.linalg.norm(z)
        res = singular_newtonian_integral(z, z.size, k, 0.0, tol=1e-8)
        assert res.value == pytest.approx(sphere_measure(z.size) * radius**2 / 2.0,
                                          rel=1e-8)


@pytest.mark.parametrize("z", [
    np.array([2.0, 0.0, 1.2e-7]),          # radius 1 + 8 ulp
    np.array([2.0, 0.0, 0.0]) * (1.0 + 1e-12),
])
def test_newtonian_sliver_tail_is_cheap(z):
    # the radial range [0, R] splits at 1, so R just above 1 leaves a tail
    # piece worth rounding noise, which could never meet tol relative to
    # itself; its error counts against the whole integral instead, and the
    # run spends 10230 evaluations
    radius = 0.5 * np.linalg.norm(z)
    res = singular_newtonian_integral(z, 3, 2, 0.0)
    assert res.value == pytest.approx(sphere_measure(3) * radius**2 / 2.0, rel=1e-6)
    assert res.evaluations < 100_000


def test_newtonian_homogeneity(rng):
    for _ in range(3):
        z = rng.standard_normal(3)
        z /= np.linalg.norm(z)
        base = singular_newtonian_integral(z, 3, 2, 1.0, tol=1e-6)
        scaled = singular_newtonian_integral(2.0 * z, 3, 2, 1.0, tol=1e-6)
        assert scaled.value / base.value == pytest.approx(2.0, rel=5e-5)


def test_newtonian_finite_at_probe_points():
    probes = [
        np.array([0.0, 0.0, 1.0]),                    # x = 0
        np.array([1.0, 0.0, 0.0]),                    # x on the unit axis
        np.array([2**-0.5, 0.0, 2**-0.5]),            # |x| = |y|
    ]
    for z in probes:
        res = singular_newtonian_integral(z, 3, 2, 1.0, tol=1e-6)
        assert math.isfinite(res.value) and res.value > 0.0


def test_newtonian_axis_case_has_closed_form():
    # centre on the subspace: I = S(n-k) S(k) * R^(2-s)/(2-s) * angular factor
    z = np.array([0.0, 0.0, 1.0])
    res = singular_newtonian_integral(z, 3, 2, 1.0, tol=1e-8)
    assert res.value == pytest.approx(PI2, rel=1e-8)


AXIS_SPLITS = [(3, 2), (4, 2), (4, 3), (5, 3), (5, 2)]


def axis_splits_with_k(k):
    # ids follow the position in AXIS_SPLITS, so a split keeps its id in
    # whichever test it sits
    return [pytest.param(sp, id=f"split{i}")
            for i, sp in enumerate(AXIS_SPLITS) if sp[1] == k]


def axis_closed_form(n, k, s, radius):
    # x = 0: I = R^(2-s)/(2-s) times the integral of |omega_x|^(-s) over
    # the unit sphere, sigma_k sigma_(n-k)/2 * B((k-s)/2, (n-k)/2)
    a, b = 0.5 * (k - s), 0.5 * (n - k)
    beta = math.gamma(a) * math.gamma(b) / math.gamma(a + b)
    return (0.5 * sphere_measure(k) * sphere_measure(n - k) * beta
            * radius ** (2.0 - s) / (2.0 - s))


@pytest.mark.parametrize("s", [0.0, 0.5, 1.0, 1.5, 1.9])
@pytest.mark.parametrize("split", AXIS_SPLITS)
def test_newtonian_axis_closed_form_over_splits(split, s):
    # on the axis the outer integrand behaves like u^(1-s), which needs
    # the strong-weight head map once s > 3/2
    n, k = split
    z = np.zeros(n)
    z[-1] = 1.3
    res = singular_newtonian_integral(z, n, k, s)
    assert res.value == pytest.approx(axis_closed_form(n, k, s, 0.65), rel=1e-6)


@pytest.mark.parametrize("split", axis_splits_with_k(3))
def test_newtonian_axis_near_s_two_converges_for_k_three(split):
    # s = 1.99 maps u = w^100; for k = 3 the head panel never splits,
    # so its nodes stay above the underflow and the value meets the closed form
    n, k = split
    z = np.zeros(n)
    z[-1] = 1.3
    ref = axis_closed_form(n, k, 1.99, 0.65)
    res = singular_newtonian_integral(z, n, k, 1.99)
    assert res.value == pytest.approx(ref, rel=1e-6)
    assert res.error_estimate >= abs(res.value - ref)


@pytest.mark.parametrize("split", axis_splits_with_k(2))
def test_newtonian_axis_near_s_two_fails_fast(split):
    # for k = 2 the v integral grows like log(R/u), the head panel splits
    # and its nodes underflow in u = w^100: a typed failure at once, not
    # a spent budget
    n, k = split
    z = np.zeros(n)
    z[-1] = 1.3
    with pytest.raises(ConvergenceError, match="underflows"):
        singular_newtonian_integral(z, n, k, 1.99)


@pytest.mark.parametrize("z, s, ref", [
    ((0.3, 0.0, 1.0), 1.0, 6.534258322),    # log at the slice
    ((0.4, 0.0, 1.0), 1.25, 8.478330230),   # pole at the slice
])
def test_newtonian_slice_inside_ball(z, s, ref):
    # |x| < R puts the slice u = |x|, where the angular mean is singular,
    # inside the outer range; references at tol 1e-10
    res = singular_newtonian_integral(np.array(z), 3, 2, s)
    assert res.value == pytest.approx(ref, rel=1e-6)
    assert res.error_estimate >= abs(res.value - ref)


@pytest.mark.parametrize("budget", [8000, 10_000, 35_000])
def test_newtonian_budget_partial_beside_the_slice(monkeypatch, budget):
    # both sides of the slice, u < |x| and u > |x|, run in one outer loop:
    # its first pass and the inner batches of its 120 nodes end at 8370
    # evaluations, and the whole run at 41520.  A budget of 8000 stops
    # inside that first pass, where the partial is 0 with an infinite
    # error; 10^4 and 3.5*10^4 stop later, where the partial's finite
    # error estimate must cover the error
    ref = 6.534258322
    monkeypatch.setattr(quadrature, "DEFAULT_BUDGET", budget)
    panel_eval, passes = quadrature._panel_eval, []

    def counted(*args):
        out = panel_eval(*args)
        passes.append(1)
        return out

    monkeypatch.setattr(quadrature, "_panel_eval", counted)
    with pytest.raises(ConvergenceError, match="budget") as info:
        singular_newtonian_integral(np.array([0.3, 0.0, 1.0]), 3, 2, 1.0)
    partial = info.value.partial
    assert isinstance(partial, QuadratureResult)
    assert partial.evaluations <= budget
    # the finished passes and the outer one whose inner batch ran out,
    # since that pass's own evaluations are spent and counted
    assert partial.passes == len(passes) + 1
    assert abs(partial.value - ref) <= partial.error_estimate
    assert math.isfinite(partial.error_estimate) == (budget > 8370)


@pytest.mark.parametrize("s", [1.75, 1.98])
@pytest.mark.parametrize("a", [0.1, 0.2, 0.3, 0.4])
def test_newtonian_slice_pole_converges(a, s):
    # s > k - 1: a |u - |x||^(1-s) pole, resolved by c = d t^(1/(k-s));
    # at s = 1.98 that puts c near 1e-160, where c^(-s) alone overflows
    z = np.array([a, 0.0, 1.0])
    res = singular_newtonian_integral(z, 3, 2, s)
    assert math.isfinite(res.value) and res.value > 0.0
    assert res.error_estimate <= 1e-6 * res.value


# ((n, k), z, s, tol-1e-10 reference): seeded points over all nine
# splits, on the axis (x = 0), beside the slice (0 < |x| < |z|/2) and
# with |x| >= |z|/2
NEWTONIAN_REFERENCES = [
    ((3, 2), (0.0, 0.0, 1.0792), 1.662, 108.67985457008632),  # axis
    ((3, 2), (-0.5387, 0.2547, -1.376), 1.463, 14.365456269004405),  # slice
    ((3, 2), (0.6004, -0.2404, 0.3463), 1.379, 1.6321510262237064),  # off
    ((4, 2), (0.0, 0.0, 0.3242, -0.4327), 0.331, 1.5970019765495176),  # axis
    ((4, 2), (0.0294, 0.0587, 0.749, -0.8234), 0.271, 4.739715780167767),  # slice
    ((4, 2), (0.4321, 0.1719, 0.3447, -0.0298), 1.342, 2.4322976125786506),  # off
    ((4, 3), (0.0, 0.0, 0.0, -1.2656), 1.642, 76.16756054095086),  # axis
    ((4, 3), (0.132, -0.3527, 0.3784, 1.3556), 0.672, 7.596388895928383),  # slice
    ((4, 3), (-0.4969, 0.844, -0.3878, 1.6856), 0.892, 9.246776553684914),  # off
    ((5, 2), (0.0, 0.0, -0.738, -0.048, -0.4604), 1.06, 32.51151858221876),  # axis
    ((5, 2), (0.1153, 0.027, -0.5345, -0.0273, 1.2367), 1.496, 118.1097288468639),  # slice
    ((5, 2), (-1.1504, -0.7276, 0.306, 0.2128, 1.0528), 0.202, 9.591745786127289),  # off
    ((5, 3), (0.0, 0.0, 0.0, 0.1297, -0.6839), 1.504, 63.041657469606335),  # axis
    ((5, 3), (-0.0947, 0.1563, -0.0235, 1.4259, 0.6074), 0.75, 17.7404488813056),  # slice
    ((5, 3), (0.6775, -0.2044, -0.2354, -0.5341, 0.0862), 1.72, 4.746314950558623),  # off
    ((5, 4), (0.0, 0.0, 0.0, 0.0, -0.5837), 0.6, 3.675257007010758),  # axis
    ((5, 4), (-0.0866, 0.0773, 0.0224, 0.1594, 1.9872), 1.036, 26.83424172061287),  # slice
    ((5, 4), (-0.5013, 0.8534, -0.042, 0.216, 0.362), 1.848, 3.7015467633983836),  # off
    ((3, 3), (-0.1982, -0.8845, 0.308), 1.511, 1.5644440855924724),  # off
    ((3, 3), (0.6269, 0.1828, 0.3527), 1.53, 1.3903958045060227),  # off
    ((4, 4), (-0.719, 0.7086, -0.5941, 0.0414), 0.055, 3.3544857828561105),  # off
    ((4, 4), (0.306, -0.7207, -0.7817, 1.059), 1.888, 2.5790255524088375),  # off
    ((5, 5), (-0.2442, -0.0481, 0.3887, -0.2595, 0.0653), 1.622, 2.520907996271988),  # off
    ((5, 5), (0.7042, 0.3114, -1.0234, 0.3517, -0.7686), 1.337, 4.247604928703614),  # off
]


@pytest.mark.parametrize("split, z, s, ref", NEWTONIAN_REFERENCES)
def test_newtonian_matches_references_over_splits(split, z, s, ref):
    n, k = split
    res = singular_newtonian_integral(np.array(z), n, k, s, tol=1e-6)
    assert abs(res.value - ref) <= 1e-6 * ref
    assert res.error_estimate >= abs(res.value - ref)


def test_newtonian_ball_edge_is_cheap():
    # for odd n - k the outer integrand ends in (R - u)^((n-k)/2) at the
    # ball's edge; the edge map makes that polynomial.  Unmapped, the
    # (3,2) off-slice point took 16 passes and the slice point 61410
    # evaluations; mapped, 2 and 41520
    split, z, s, ref = NEWTONIAN_REFERENCES[2]
    res = singular_newtonian_integral(np.array(z), *split, s, tol=1e-6)
    assert res.passes <= 4
    assert res.error_estimate >= abs(res.value - ref)
    ref = 6.534258322
    res = singular_newtonian_integral(np.array([0.3, 0.0, 1.0]), 3, 2, 1.0)
    assert res.evaluations < 50_000
    assert res.error_estimate >= abs(res.value - ref)


def test_newtonian_validation():
    with pytest.raises(SingularityError):
        singular_newtonian_integral(np.zeros(3), 3, 2, 1.0)
    with pytest.raises(ParameterDomainError):
        singular_newtonian_integral(np.array([1.0, 0, 0, 0]), 4, 3, 2.0)  # s >= 2
    with pytest.raises(ParameterDomainError):
        singular_newtonian_integral(np.array([1.0, 0, 0]), 3, 2, -0.5)
