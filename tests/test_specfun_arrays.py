"""Array contract of the stable-law layer, the inverse-subordinator
density and the vectorized quantile solve.

An array argument is evaluated elementwise, bit for bit as the scalar
calls would be, on both the series branch (x >= 1) and the Zolotarev
branch (x < 1); a scalar argument still gives a float.
"""

import numpy as np
import pytest

from fractrans import specfun
from fractrans.specfun import (
    _PANEL_SURVIVALS,
    FracOrder,
    _stable_sf,
    _unit_quantile_sf,
    inverse_subordinator_density,
    stable_cdf,
    stable_density,
)

_FUNCTIONS = [stable_density, stable_cdf, _stable_sf]


@pytest.mark.parametrize("fn", _FUNCTIONS, ids=lambda f: f.__name__)
@pytest.mark.parametrize("b", [0.3, 0.5, 0.7, 0.9])
def test_array_equals_scalar_calls_bitwise(fn, b):
    beta = FracOrder(b)
    x = np.concatenate([np.geomspace(1e-3, 0.999, 23), [1.0], np.geomspace(1.001, 1e5, 16)])
    x = np.random.default_rng(7).permutation(x)  # interleave the two branches
    got = fn(beta, x)
    want = np.array([fn(beta, float(v)) for v in x])
    assert isinstance(fn(beta, float(x[0])), float)
    np.testing.assert_array_equal(got, want)
    np.testing.assert_array_equal(fn(beta, x.reshape(8, 5)), want.reshape(8, 5))


@pytest.mark.parametrize("fn", _FUNCTIONS, ids=lambda f: f.__name__)
@pytest.mark.parametrize("bad", [0.0, -1.0])
def test_array_outside_support_raises(fn, bad):
    with pytest.raises(ValueError):
        fn(FracOrder(0.5), np.array([0.5, 2.0, bad]))


@pytest.mark.parametrize("b", [0.3, 0.5, 0.7, 0.9])
def test_inverse_subordinator_density_array_equals_scalar_calls_bitwise(b):
    # s = 0 takes the closed-form right limit; the others reach both
    # branches of the stable density through x = s^(-1/b) t
    beta = FracOrder(b)
    s = np.concatenate([[0.0], np.geomspace(1e-3, 30.0, 20)])
    t = np.array([0.01, 0.5, 1.0, 2.0, 7.5])
    got = inverse_subordinator_density(beta, s[:, None], t[None, :])
    want = np.array([[inverse_subordinator_density(beta, float(a), float(c)) for c in t] for a in s])
    assert isinstance(inverse_subordinator_density(beta, 0.5, 1.0), float)
    assert isinstance(inverse_subordinator_density(beta, 0.0, 1.0), float)
    np.testing.assert_array_equal(got, want)
    # one row of criterion 04's table: scalar s against an array of t
    np.testing.assert_array_equal(inverse_subordinator_density(beta, s[3], t), want[3])


@pytest.mark.parametrize("s, t", [(np.array([0.5, -1.0]), 1.0), (0.5, np.array([1.0, 0.0]))])
def test_inverse_subordinator_density_array_outside_support_raises(s, t):
    with pytest.raises(ValueError):
        inverse_subordinator_density(FracOrder(0.5), s, t)


@pytest.mark.parametrize("b", [0.3, 0.5, 0.7])
def test_quantile_round_trip(b):
    # the rule edges down to the tail cut the solvers use (g rules stop at
    # eps_tail 1e-8)
    cut = 0.05 * 1e-8
    levels = np.array([w for w in _PANEL_SURVIVALS[1:] if w > cut] + [cut])
    beta = FracOrder(b)
    edges = _unit_quantile_sf(beta, levels)
    assert np.all(np.diff(edges) > 0.0)
    np.testing.assert_allclose(_stable_sf(beta, edges), levels, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("b, calls, evals", [(0.3, 8, 49), (0.5, 8, 47), (0.7, 7, 49)])
def test_g_rule_quantiles_start_at_the_tail_asymptote(b, calls, evals, monkeypatch):
    # the deep G-kernel levels lie near s = (w Gamma(1 - beta))^(-1/beta),
    # so the bracket search starts there; a walk of the bracket top up from
    # s = e in steps of 2 in log s finds the same brackets in 42, 28 and 21
    # survival calls (145, 101 and 84 evaluations) per rule build
    counts = {"calls": 0, "evals": 0}

    def counting_sf(beta, s):
        counts["calls"] += 1
        counts["evals"] += np.size(s)
        return _stable_sf(beta, s)

    monkeypatch.setattr(specfun, "_stable_sf", counting_sf)
    specfun._unit_rule.cache_clear()
    rule = specfun.g_quadrature(FracOrder(b), 1.0, 32, 1e-8)
    assert counts == {"calls": calls, "evals": evals}
    assert rule.weights.sum() == pytest.approx(1.0 - 0.05 * 1e-8, rel=1e-12)
    specfun._unit_rule.cache_clear()
