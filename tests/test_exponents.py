import math

import numpy as np
import pytest

from hscyl import (
    ExponentContext,
    ParameterDomainError,
    admissible,
    aux_exponents,
    critical_pair,
    galaxy_mass_inside,
    galaxy_mass_window,
    hs_conjugate,
)


def test_hs_conjugate_examples():
    assert hs_conjugate(2.0, 1.0, 3) == pytest.approx(4.0)
    assert hs_conjugate(2.0, 0.0, 4) == pytest.approx(4.0)  # Sobolev conjugate
    assert hs_conjugate(2.0, 2.0, 5) == pytest.approx(2.0)  # endpoint identity


def test_hs_conjugate_domain():
    with pytest.raises(ParameterDomainError):
        hs_conjugate(1.0, 0.0, 3)
    with pytest.raises(ParameterDomainError):
        hs_conjugate(2.0, 2.5, 3)  # s > p
    with pytest.raises(ParameterDomainError):
        hs_conjugate(2.0, 1.0, 3.5)


def test_critical_pair_examples():
    assert critical_pair(2.0, 1.0, 3) == pytest.approx((1.5, 3.0))
    assert critical_pair(2.0, 0.0, 4) == pytest.approx((2.0, 2.0))
    r, r_prime = critical_pair(3.0, 1.0, 5)
    assert r == pytest.approx(5.0 / 3.0)
    assert r_prime == pytest.approx(2.5)


def test_critical_pair_endpoint_is_tagged_infinity():
    r, r_prime = critical_pair(2.0, 2.0, 5)
    assert r == pytest.approx(1.0)
    assert math.isinf(r_prime) and r_prime > 0


def test_admissible_examples():
    assert admissible(ExponentContext(3, 2, 2.0, 1.0)) is True
    assert admissible(ExponentContext(3, 2, 2.0, 2.0)) is False  # s < k fails
    assert admissible(ExponentContext(5, 2, 3.0, 1.9)) is False  # window fails


def test_context_validation():
    with pytest.raises(ParameterDomainError):
        ExponentContext(2, 2, 1.5, 0.0)  # n too small
    with pytest.raises(ParameterDomainError):
        ExponentContext(4, 1, 2.0, 0.0)  # k too small
    with pytest.raises(ParameterDomainError):
        ExponentContext(4.5, 2, 2.0, 0.0)  # non-integer n
    with pytest.raises(ParameterDomainError):
        ExponentContext(4, 2, 5.0, 0.0)  # p >= n


def test_aux_exponents_fields():
    rep = aux_exponents(ExponentContext(3, 2, 2.0, 1.0))
    assert rep.decay_bound == pytest.approx(1.0)
    assert rep.p_star_s == pytest.approx(4.0)
    assert rep.p_prime == pytest.approx(2.0)
    assert rep.r == pytest.approx(1.5)
    assert rep.r_prime == pytest.approx(3.0)
    # sigma = s(n-p) / (2 p (n-s)) evaluated symbolically: 1*1/(2*2*2) = 1/8
    assert rep.sigma == pytest.approx(0.125, rel=1e-14)
    assert rep.p_sigma == pytest.approx(4.0)


def test_aux_exponents_other_dimensions():
    rep = aux_exponents(ExponentContext(4, 3, 2.0, 0.0))
    assert rep.decay_bound == pytest.approx(2.0)
    assert rep.sigma == pytest.approx(0.0)


def test_aux_exponents_requires_admissibility():
    with pytest.raises(ParameterDomainError):
        aux_exponents(ExponentContext(3, 2, 2.0, 2.0))


def test_kappa_above_one_and_domain():
    rep = aux_exponents(ExponentContext(4, 2, 2.0, 1.0))
    for t in (0.0, 0.25, 0.5, 0.99):
        assert rep.kappa(t) > 1.0
    with pytest.raises(ParameterDomainError):
        rep.kappa(1.0)  # t must stay below min(p, s) = 1
    with pytest.raises(ParameterDomainError):
        rep.kappa(-0.1)


def test_kappa_domain_empty_at_s_zero():
    rep = aux_exponents(ExponentContext(4, 3, 2.0, 0.0))
    with pytest.raises(ParameterDomainError):
        rep.kappa(0.0)


def _random_admissible_contexts(rng, count=400):
    """Admissible contexts with n in 3..8; half the draws take n - p
    log-uniform in [1e-6, 1], so that p comes within 1e-6 of n."""
    out = []
    while len(out) < count:
        n = int(rng.integers(3, 9))
        k = int(rng.integers(2, n + 1))
        p = float(rng.uniform(1.0 + 1e-6, n - 1e-6) if rng.random() < 0.5
                  else n - 10.0 ** rng.uniform(-6.0, 0.0))
        s = float(rng.uniform(0.0, p))
        ctx = ExponentContext(n, k, p, s)
        if admissible(ctx):
            out.append(ctx)
    return out


def _exponent_identity_failures(ctx):
    """The names of the exponent identities that an admissible context
    breaks: one shared check for the unit, property and acceptance tests."""
    n, k, p, s = ctx.n, ctx.k, ctx.p, ctx.s
    rep = aux_exponents(ctx)
    held = {
        # r p = p*(r s), times (n - p)/p.  p*(t) has condition number
        # t / (n - t), which is s / (n - p) at t = r s and passes 1e6 within
        # 1e-6 of p = n; in this form both sides are at most n, and each
        # is off by a few float spacings of n
        "r p = p*(r s)": abs(hs_conjugate(p, rep.r * s, n) * (n - p) / p
                             - rep.r * (n - p)) <= 1e-12 * n,
        # Hoelder conjugacy when finite
        "1/r + 1/r' = 1": (not math.isfinite(rep.r_prime)
                           or abs(1.0 / rep.r + 1.0 / rep.r_prime - 1.0) <= 1e-12),
        # the admissibility window forces r s < k
        "r s < k": rep.r * s < k,
        "p <= p*(s) <= p*(0)": p - 1e-12 <= rep.p_star_s <= hs_conjugate(p, 0.0, n) + 1e-12,
        "0 <= sigma < 1": 0.0 <= rep.sigma < 1.0,
    }
    return [name for name, ok in held.items() if not ok]


def test_exponent_identities_on_random_contexts(rng):
    for ctx in _random_admissible_contexts(rng):
        assert _exponent_identity_failures(ctx) == [], ctx


def test_conjugate_strictly_decreasing_in_s(rng):
    for _ in range(100):
        n = int(rng.integers(3, 9))
        p = float(rng.uniform(1.0 + 1e-6, n - 1e-6))
        s_vals = np.sort(rng.uniform(0.0, p, size=6))
        conj = [hs_conjugate(p, s, n) for s in s_vals]
        assert all(a >= b - 1e-12 for a, b in zip(conj, conj[1:]))


def test_galaxy_mass_window():
    assert galaxy_mass_window(1.0) == pytest.approx((4.0, 6.0))
    assert galaxy_mass_window(0.5) == pytest.approx((5.0, 6.0))
    assert galaxy_mass_inside(5.0, 1.0) is True
    assert galaxy_mass_inside(4.0, 1.0) is False  # strict inequality
    assert galaxy_mass_inside(6.5, 0.5) is False
    with pytest.raises(ParameterDomainError):
        galaxy_mass_window(2.0)
    with pytest.raises(ParameterDomainError):
        galaxy_mass_window(-0.5)
