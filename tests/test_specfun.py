"""Unit tests for the special-function layer.

Oracles used throughout (all independent of the implementation):
  - order-1/2 Mittag-Leffler: E_{1/2}(z) = e^{z^2} erfc(-z)
  - order-1/2 stable density: G_{1/2}(x) = x^{-3/2} e^{-1/(4x)} / (2 sqrt(pi))
  - order-1/2 inverse-clock density: h_{1/2}(s,t) = e^{-s^2/(4t)} / sqrt(pi t)
  - moment coefficients: Gamma(g+1)/Gamma(g b + 1)
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import erfc, gamma

from fractrans.errors import TailMassError
from fractrans.specfun import (
    FracOrder,
    QuadratureRule,
    g_quadrature,
    h_quadrature,
    inverse_moment_coeff,
    inverse_subordinator_cdf,
    inverse_subordinator_density,
    mittag_leffler,
    stable_cdf,
    stable_density,
    subordinator_density,
)


# ---------------------------------------------------------------------------
# FracOrder
# ---------------------------------------------------------------------------


def test_frac_order_validates_range():
    FracOrder(0.5)
    FracOrder(1.0)
    with pytest.raises(ValueError):
        FracOrder(0.0)
    with pytest.raises(ValueError):
        FracOrder(1.5)
    with pytest.raises(ValueError):
        FracOrder(-0.3)


def test_frac_order_classical_flag():
    assert FracOrder(1.0).is_classical
    assert not FracOrder(0.5).is_classical


# ---------------------------------------------------------------------------
# Mittag-Leffler
# ---------------------------------------------------------------------------


def test_ml_classical_is_exp():
    assert mittag_leffler(FracOrder(1.0), 2.0) == pytest.approx(math.exp(2.0), rel=1e-12)
    assert mittag_leffler(FracOrder(1.0), -3.0) == pytest.approx(math.exp(-3.0), rel=1e-12)


def test_ml_at_zero_is_one():
    for b in (0.3, 0.5, 0.7, 1.0):
        assert mittag_leffler(FracOrder(b), 0.0) == 1.0


def test_ml_half_order_oracle():
    import mpmath as mp

    beta = FracOrder(0.5)
    for z in (-50.0, -10.0, -2.0, -1.0, -0.25, 0.5, 1.0, 2.0, 5.0, 10.0):
        # e^{z^2} erfc(-z) in extended precision (the product is finite even
        # when the exponential alone overflows a double)
        exact = float(mp.exp(mp.mpf(z) ** 2) * mp.erfc(-mp.mpf(z)))
        got = mittag_leffler(beta, z)
        assert got == pytest.approx(exact, rel=1e-10), f"z={z}"


@pytest.mark.parametrize("b", [0.01, 0.03])
@pytest.mark.parametrize("z", [-1.0, -0.99, 0.99, 1.0])
def test_ml_small_order_near_unit_argument(b, z):
    # near |z| = 1 the series terms decay like 1 / Gamma(1 + b k), too slowly
    # for the series' term cap at b <= 0.04, so the Hankel integral is used
    import mpmath as mp

    with mp.workdps(40):
        b_mp, z_mp = mp.mpf(b), mp.mpf(z)
        exact, k, term = mp.mpf(0), 0, mp.mpf(1)
        while abs(term) > mp.mpf(10) ** -30:
            term = z_mp**k * mp.rgamma(b_mp * k + 1)
            exact += term
            k += 1
    assert mittag_leffler(FracOrder(b), z) == pytest.approx(float(exact), rel=1e-12, abs=0.0)


def test_ml_known_value():
    # E_{1/2}(1) = e * erfc(-1) ~ 5.00898
    assert mittag_leffler(FracOrder(0.5), 1.0) == pytest.approx(5.008980080762283, rel=1e-10)


def test_ml_overflow_signals():
    with pytest.raises(OverflowError):
        mittag_leffler(FracOrder(0.5), 400.0**0.5 * 40)  # z^(1/b) >> 700


@given(
    b=st.floats(0.3, 0.95),
    z=st.floats(-20.0, 0.0),
)
@settings(max_examples=60, deadline=None)
def test_ml_negative_axis_in_unit_interval(b, z):
    # completely monotone on the negative axis: values in (0, 1]
    val = mittag_leffler(FracOrder(b), z)
    assert 0.0 < val <= 1.0 + 1e-12


# ---------------------------------------------------------------------------
# Stable density / CDF
# ---------------------------------------------------------------------------


def _g_half(x):
    return x ** (-1.5) * math.exp(-1.0 / (4.0 * x)) / (2.0 * math.sqrt(math.pi))


def test_stable_density_half_order_closed_form():
    beta = FracOrder(0.5)
    for x in (0.01, 0.05, 0.2, 0.5, 0.999, 1.0, 1.001, 2.0, 10.0, 100.0, 1e4):
        assert stable_density(beta, x) == pytest.approx(_g_half(x), rel=1e-9), f"x={x}"


def test_stable_density_known_value():
    assert stable_density(FracOrder(0.5), 1.0) == pytest.approx(0.21969564473386122, rel=1e-10)


def test_stable_density_vanishes_at_origin():
    assert stable_density(FracOrder(0.5), 1e-4) < 1e-100


def test_stable_density_domain_errors():
    with pytest.raises(ValueError):
        stable_density(FracOrder(0.5), 0.0)
    with pytest.raises(ValueError):
        stable_density(FracOrder(0.5), -1.0)
    with pytest.raises(ValueError):
        stable_density(FracOrder(1.0), 1.0)


def test_stable_density_normalization():
    from scipy.integrate import quad

    for b in (0.3, 0.7):
        beta = FracOrder(b)
        val, _ = quad(lambda x: stable_density(beta, x), 0.0, np.inf, limit=400)
        assert val == pytest.approx(1.0, abs=1e-8)


def test_stable_cdf_half_order_closed_form():
    # P(D_1 <= x) = erfc(1/(2 sqrt(x))) at order 1/2
    beta = FracOrder(0.5)
    for x in (0.05, 0.3, 0.999, 1.0, 2.0, 50.0):
        assert stable_cdf(beta, x) == pytest.approx(
            float(erfc(1.0 / (2.0 * math.sqrt(x)))), rel=1e-9
        ), f"x={x}"


def test_stable_cdf_deep_tail_keeps_relative_accuracy():
    # survival levels far below machine epsilon of 1 must remain resolvable
    beta = FracOrder(0.5)
    x = 1e-3
    exact = float(erfc(1.0 / (2.0 * math.sqrt(x))))
    assert exact < 1e-40
    assert stable_cdf(beta, x) == pytest.approx(exact, rel=1e-6)


# ---------------------------------------------------------------------------
# Subordinator kernels
# ---------------------------------------------------------------------------


def test_subordinator_density_scaling():
    beta = FracOrder(0.5)
    # g(s, t) = t^{-1/b} G(s t^{-1/b}); with t=2, t^{1/b} = 4
    assert subordinator_density(beta, 1.0, 1.0) == pytest.approx(0.21969564473386122, rel=1e-10)
    assert subordinator_density(beta, 4.0, 2.0) == pytest.approx(
        0.25 * 0.21969564473386122, rel=1e-10
    )


def test_subordinator_density_domain():
    with pytest.raises(ValueError):
        subordinator_density(FracOrder(0.5), 0.0, 1.0)
    with pytest.raises(ValueError):
        subordinator_density(FracOrder(0.5), 1.0, 0.0)


def _h_half(s, t):
    return math.exp(-s * s / (4.0 * t)) / math.sqrt(math.pi * t)


def test_inverse_density_half_order_closed_form():
    beta = FracOrder(0.5)
    for t in (0.5, 1.0, 2.0):
        for s in np.linspace(0.0, 5.0, 26):
            assert inverse_subordinator_density(beta, float(s), t) == pytest.approx(
                _h_half(float(s), t), abs=1e-10
            )


def test_inverse_density_origin_limit():
    # h(0+, t) = t^{-b} / Gamma(1-b)
    for b in (0.3, 0.5, 0.7):
        for t in (0.5, 1.0, 2.0):
            exact = t ** (-b) / gamma(1.0 - b)
            assert inverse_subordinator_density(FracOrder(b), 0.0, t) == pytest.approx(
                exact, rel=1e-12
            )


def test_inverse_density_known_value():
    assert inverse_subordinator_density(FracOrder(0.5), 0.0, 1.0) == pytest.approx(
        1.0 / math.sqrt(math.pi), rel=1e-12
    )
    assert inverse_subordinator_density(FracOrder(0.5), 1.0, 1.0) == pytest.approx(
        0.43939128946772243, rel=1e-9
    )


def test_inverse_density_normalization():
    from scipy.integrate import quad

    beta = FracOrder(0.7)
    val, _ = quad(
        lambda s: inverse_subordinator_density(beta, s, 2.0), 0.0, np.inf, limit=400
    )
    assert val == pytest.approx(1.0, abs=1e-8)


def test_inverse_cdf_monotone_and_consistent():
    beta = FracOrder(0.5)
    s_grid = np.linspace(0.1, 6.0, 25)
    vals = [inverse_subordinator_cdf(beta, float(s), 1.0) for s in s_grid]
    assert all(b >= a for a, b in zip(vals, vals[1:]))
    assert vals[0] > 0.0 and vals[-1] < 1.0 + 1e-12
    # half-order closed form: P(E_1 <= s) = erf(s / 2)
    from scipy.special import erf

    for s, v in zip(s_grid, vals):
        assert v == pytest.approx(float(erf(s / 2.0)), rel=1e-8)


def test_tail_decay_geometric():
    # log h eventually decreases faster than any power: geometric-ratio decay
    beta = FracOrder(0.6)
    r = 2.0
    prev_ratio = 1.0
    for _ in range(4):
        ratio = inverse_subordinator_density(beta, 2.0 * r, 1.0) / inverse_subordinator_density(
            beta, r, 1.0
        )
        assert ratio < prev_ratio
        prev_ratio = ratio
        r *= 2.0
    assert prev_ratio < 1e-4


# ---------------------------------------------------------------------------
# Moment coefficients
# ---------------------------------------------------------------------------


def test_moment_coefficients():
    assert inverse_moment_coeff(FracOrder(1.0), 1.0) == pytest.approx(1.0, rel=1e-12)
    assert inverse_moment_coeff(FracOrder(0.5), 1.0) == pytest.approx(
        2.0 / math.sqrt(math.pi), rel=1e-12
    )
    assert inverse_moment_coeff(FracOrder(0.5), 2.0) == pytest.approx(2.0, rel=1e-12)
    with pytest.raises(ValueError):
        inverse_moment_coeff(FracOrder(0.5), 0.0)


# ---------------------------------------------------------------------------
# Quadrature rules
# ---------------------------------------------------------------------------


def test_h_rule_normalization_and_invariants():
    rule = h_quadrature(FracOrder(0.5), 1.0, 64, 1e-6)
    assert np.all(np.diff(rule.nodes) > 0.0)
    assert np.all(rule.weights >= 0.0)
    total = rule.weights.sum() + rule.tail_mass
    assert total == pytest.approx(1.0, abs=1e-8)
    assert rule.weights.sum() >= 1.0 - 1e-5


def test_h_rule_first_moment():
    rule = h_quadrature(FracOrder(0.5), 1.0, 64, 1e-6)
    assert rule.integrate(lambda s: s) == pytest.approx(2.0 / math.sqrt(math.pi), abs=1e-4)


def test_h_rule_self_similar_scaling():
    r1 = h_quadrature(FracOrder(0.5), 1.0, 64, 1e-6)
    r4 = h_quadrature(FracOrder(0.5), 4.0, 64, 1e-6)
    np.testing.assert_allclose(r4.nodes, 2.0 * r1.nodes, rtol=1e-14)
    np.testing.assert_array_equal(r4.weights, r1.weights)


def test_g_rule_normalization_and_laplace():
    rule = g_quadrature(FracOrder(0.5), 1.0, 64, 1e-6)
    assert rule.weights.sum() >= 1.0 - 1e-5
    got = rule.integrate(lambda s: np.exp(-s))
    assert got == pytest.approx(math.exp(-1.0), abs=1e-4)


def test_g_rule_self_similar_scaling():
    r1 = g_quadrature(FracOrder(0.5), 1.0, 64, 1e-6)
    r16 = g_quadrature(FracOrder(0.5), 16.0, 64, 1e-6)
    np.testing.assert_allclose(r16.nodes, 256.0 * r1.nodes, rtol=1e-14)
    np.testing.assert_array_equal(r16.weights, r1.weights)


@pytest.mark.parametrize("b", [0.3, 0.5, 0.7, 0.9])
@pytest.mark.parametrize("t", [0.5, 1.0, 2.0])
def test_h_rule_moment_identity_grid(b, t):
    beta = FracOrder(b)
    rule = h_quadrature(beta, t, 96, 1e-10)
    for g in (1.0, 2.0):
        exact = inverse_moment_coeff(beta, g) * t ** (g * b)
        assert rule.integrate(lambda s: s**g) == pytest.approx(exact, rel=1e-5)


@pytest.mark.parametrize("lam", [-1.0, -0.5, 0.5, 1.0])
def test_h_rule_exponential_identity(lam):
    for b in (0.3, 0.5, 0.7):
        beta = FracOrder(b)
        for t in (0.5, 1.0, 2.0):
            # growing integrands weight the far tail: truncated tail mass is
            # the accuracy limit, so push it to near round-off
            rule = h_quadrature(beta, t, 128, 1e-15)
            exact = mittag_leffler(beta, lam * t**b)
            got = rule.integrate(lambda s: np.exp(lam * s))
            assert got == pytest.approx(exact, rel=1e-5), f"b={b} t={t} lam={lam}"


def test_rule_argument_validation():
    with pytest.raises(ValueError):
        h_quadrature(FracOrder(1.0), 1.0, 64, 1e-6)
    with pytest.raises(ValueError):
        h_quadrature(FracOrder(0.5), -1.0, 64, 1e-6)
    with pytest.raises(ValueError):
        h_quadrature(FracOrder(0.5), 1.0, 1, 1e-6)
    with pytest.raises(ValueError):
        h_quadrature(FracOrder(0.5), 1.0, 64, 0.5)


def test_unreachable_tail_target_signals():
    # beta = 0.15: survival ~ s^{-0.15}, target 1e-8 needs s beyond the cap
    with pytest.raises(TailMassError):
        g_quadrature(FracOrder(0.15), 1.0, 64, 1e-8)


def test_quadrature_rule_rejects_bad_data():
    with pytest.raises(ValueError):
        QuadratureRule(
            nodes=np.array([1.0, 0.5]),
            weights=np.array([0.5, 0.5]),
            tail_mass=0.0,
        )
    with pytest.raises(ValueError):
        QuadratureRule(
            nodes=np.array([0.5, 1.0]),
            weights=np.array([0.5, -0.5]),
            tail_mass=0.0,
        )
    with pytest.raises(ValueError):
        QuadratureRule(
            nodes=np.array([0.5, 1.0]),
            weights=np.array([0.2, 0.2]),
            tail_mass=0.0,
        )


@given(t=st.floats(0.25, 4.0), b=st.sampled_from([0.3, 0.5, 0.7, 0.9]))
@settings(max_examples=30, deadline=None)
def test_h_rule_normalization_property(t, b):
    rule = h_quadrature(FracOrder(b), t, 48, 1e-8)
    assert abs(rule.weights.sum() + rule.tail_mass - 1.0) < 1e-8
