"""Tests for the discrete fractional-calculus operators.

Analytic oracles:
  - Caputo of t is t^(1-b)/Gamma(2-b); of t^b is Gamma(b+1) (constant)
  - RL integral of 1 is t^b/Gamma(b+1)
  - fundamental identity: I^b[D^b phi] = phi - phi(0)
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import gamma

from fractrans.caputo import TimeSeries, caputo_l1, rl_integral, weak_residual
from fractrans.measures import EmpiricalMeasure, MeasurePath
from fractrans.specfun import FracOrder


def test_time_series_validation():
    with pytest.raises(ValueError):
        TimeSeries(grid=np.array([0.0]), values=np.array([1.0]))
    with pytest.raises(ValueError):
        TimeSeries(grid=np.array([0.5, 1.0]), values=np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        TimeSeries(grid=np.array([0.0, 0.3, 1.0]), values=np.array([1.0, 2.0, 3.0]))
    with pytest.raises(ValueError):
        TimeSeries(grid=np.array([0.0, 1.0]), values=np.array([1.0]))


def test_caputo_of_constant_is_zero():
    series = TimeSeries.from_function(lambda t: 4.2, 1.0, 40)
    out = caputo_l1(series, FracOrder(0.5))
    np.testing.assert_array_equal(out.values, np.zeros(41))


def test_caputo_of_linear_oracle():
    beta = FracOrder(0.5)
    series = TimeSeries.from_function(lambda t: t, 1.0, 400)
    got = caputo_l1(series, beta).values
    exact = series.grid**0.5 / gamma(1.5)
    rel = np.abs(got[4:] - exact[4:]) / exact[4:]
    assert np.max(rel) < 1e-10  # exact for piecewise-linear input


def test_caputo_of_t_to_beta_oracle():
    beta = FracOrder(0.5)
    series = TimeSeries.from_function(lambda t: math.sqrt(t), 1.0, 800)
    got = caputo_l1(series, beta).values
    # exact value Gamma(1.5), approached away from the initial layer
    assert got[-1] == pytest.approx(gamma(1.5), rel=2e-4)


def test_caputo_order_of_accuracy():
    beta = FracOrder(0.4)
    errs = []
    for m in (50, 100, 200):
        series = TimeSeries.from_function(lambda t: t**3, 1.0, m)
        got = caputo_l1(series, beta).values[-1]
        exact = 6.0 / gamma(4.0 - 0.4) * 1.0 ** (3.0 - 0.4)
        errs.append(abs(got - exact))
    # O(dt^{2-b}) = O(dt^1.6): each halving gains a factor ~3
    assert errs[0] / errs[1] > 2.5
    assert errs[1] / errs[2] > 2.5


def test_caputo_classical_limit_is_backward_difference():
    series = TimeSeries.from_function(lambda t: t * t, 1.0, 100)
    got = caputo_l1(series, FracOrder(1.0)).values
    dt = series.dt
    expected = 2.0 * series.grid - dt
    np.testing.assert_allclose(got[1:], expected[1:], rtol=1e-12)


def test_rl_integral_of_zero_and_one():
    beta = FracOrder(0.5)
    zero = TimeSeries.from_function(lambda t: 0.0, 1.0, 50)
    np.testing.assert_array_equal(rl_integral(zero, beta).values, np.zeros(51))
    one = TimeSeries.from_function(lambda t: 1.0, 1.0, 200)
    got = rl_integral(one, beta).values
    exact = one.grid**0.5 / gamma(1.5)
    np.testing.assert_allclose(got, exact, atol=1e-12)


def test_rl_integral_second_order():
    beta = FracOrder(0.6)
    errs = []
    for m in (50, 100, 200):
        series = TimeSeries.from_function(lambda t: math.cos(t), 1.0, m)
        got = rl_integral(series, beta).values[-1]
        # oracle by adaptive quadrature
        from scipy.integrate import quad

        exact, _ = quad(
            lambda tau: math.cos(tau) * (1.0 - tau) ** (0.6 - 1.0) / gamma(0.6), 0.0, 1.0
        )
        errs.append(abs(got - exact))
    assert errs[0] / errs[1] > 3.0
    assert errs[1] / errs[2] > 3.0


def test_fundamental_identity_round_trip():
    beta = FracOrder(0.5)
    errs = []
    for m in (100, 200, 400):
        series = TimeSeries.from_function(lambda t: t * t, 1.0, m)
        back = rl_integral(caputo_l1(series, beta), beta).values
        errs.append(np.max(np.abs(back - series.grid**2)))
    # empirical order >= 1.5 - beta guaranteed; observed ~1.5 here
    assert errs[0] / errs[1] > 2.0 ** (1.5 - 0.5)
    assert errs[1] / errs[2] > 2.0 ** (1.5 - 0.5)
    assert errs[-1] < 1e-4


@given(
    a=st.floats(-3.0, 3.0),
    b=st.floats(-3.0, 3.0),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=30, deadline=None)
def test_linearity(a, b, seed):
    beta = FracOrder(0.7)
    rng = np.random.default_rng(seed)
    grid = np.linspace(0.0, 1.0, 21)
    f = TimeSeries(grid=grid, values=rng.normal(size=21))
    g = TimeSeries(grid=grid, values=rng.normal(size=21))
    combo = TimeSeries(grid=grid, values=a * f.values + b * g.values)
    for op in (caputo_l1, rl_integral):
        lhs = op(combo, beta).values
        rhs = a * op(f, beta).values + b * op(g, beta).values
        np.testing.assert_allclose(lhs, rhs, atol=1e-9)


# ---------------------------------------------------------------------------
# Weak residual
# ---------------------------------------------------------------------------


def _constant_path(mu, m=16, t_max=1.0):
    times = np.linspace(0.0, t_max, m + 1)
    return MeasurePath(times=times, measures=[mu] * (m + 1))


def test_weak_residual_constant_path_zero_velocity():
    mu = EmpiricalMeasure(points=np.array([[0.5], [1.5]]), weights=np.array([1.0, 2.0]))
    path = _constant_path(mu)
    res = weak_residual(
        path,
        lambda m, t: np.zeros_like(m.points),
        lambda x: np.sin(x[:, 0]),
        lambda x: np.cos(x),
        FracOrder(0.5),
    )
    assert np.max(np.abs(res.values)) < 1e-12


def test_weak_residual_constant_test_function():
    # f constant: both sides vanish identically, any path and velocity
    mu = EmpiricalMeasure.dirac([1.0])
    nu = EmpiricalMeasure.dirac([2.0])
    times = np.linspace(0.0, 1.0, 9)
    measures = [mu if k % 2 == 0 else nu for k in range(9)]
    path = MeasurePath(times=times, measures=measures)
    res = weak_residual(
        path,
        lambda m, t: np.ones_like(m.points),
        lambda x: np.full(x.shape[0], 7.0),
        lambda x: np.zeros_like(x),
        FracOrder(0.5),
    )
    assert np.max(np.abs(res.values)) < 1e-12


def test_weak_residual_classical_transport():
    # beta = 1, v = v0: d/dt <mu_t, x> = v0 * mass at every node
    beta = FracOrder(1.0)
    v0 = 0.7
    times = np.linspace(0.0, 1.0, 33)
    mu0 = EmpiricalMeasure(points=np.array([[0.0], [1.0]]), weights=np.array([1.0, 0.5]))
    measures = [
        EmpiricalMeasure(points=mu0.points + v0 * t, weights=mu0.weights) for t in times
    ]
    path = MeasurePath(times=times, measures=measures)
    res = weak_residual(
        path,
        lambda m, t: np.full_like(m.points, v0),
        lambda x: x[:, 0],
        lambda x: np.ones_like(x),
        beta,
    )
    assert np.max(np.abs(res.values[1:])) < 1e-10
