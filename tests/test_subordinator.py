"""Statistical tests for the subordinator samplers and FODE solver.

Closed forms used (order 1/2): D_1 has CDF erfc(1/(2 sqrt(x))); E_t has
moments E[E_t^g] = Gamma(g+1)/Gamma(g/2+1) t^(g/2); the exponential
functional equals the Mittag-Leffler function.
"""

import math
import types

import numpy as np
import pytest
from scipy.special import erfc
from scipy.stats import ks_2samp, kstest

from fractrans import subordinator
from fractrans.caputo import solve_psi_fode
from fractrans.specfun import (
    FracOrder,
    inverse_moment_coeff,
    inverse_subordinator_cdf,
    mittag_leffler,
)
from fractrans.subordinator import (
    RngSpec,
    mc_exponential_functional,
    mc_moment,
    sample_inverse,
    sample_stable_unit,
)


def test_rng_spec_reproducible():
    a = sample_stable_unit(FracOrder(0.5), RngSpec(42), size=50)
    b = sample_stable_unit(FracOrder(0.5), RngSpec(42), size=50)
    np.testing.assert_array_equal(a, b)
    c = sample_stable_unit(FracOrder(0.5), RngSpec(42, stream_id=1), size=50)
    assert not np.array_equal(a, c)


def test_uniform_stream_is_pinned():
    # the stream of random.Random("0:0"): a changed generator or bit
    # layout changes every estimate at a given seed
    np.testing.assert_array_equal(
        RngSpec(0, 0).uniforms(4),
        [0.6752296445389978, 0.8806851759024603, 0.78664654506943, 0.25727142372546224],
    )
    u = RngSpec(3, 2).uniforms(100_000)
    assert np.all((0.0 < u) & (u < 1.0))


def test_uniforms_stay_inside_the_open_interval(monkeypatch):
    # the extreme 64-bit words: all ones would round to 1.0, all zeros
    # gives half the grid step
    class Extremes:
        def __init__(self, label):
            pass

        def randbytes(self, n):
            return (b"\xff" * 8 + b"\x00" * 8)[:n]

    monkeypatch.setattr(subordinator, "random", types.SimpleNamespace(Random=Extremes))
    np.testing.assert_array_equal(RngSpec(0).uniforms(2), [1.0 - 2.0**-53, 2.0**-54])


@pytest.mark.parametrize("seed, stream_id", [(-1, 0), (0, -1)])
def test_rng_spec_rejects_negative_labels(seed, stream_id):
    with pytest.raises(ValueError, match="non-negative"):
        RngSpec(seed, stream_id)


def test_stable_positivity_and_laplace():
    draws = sample_stable_unit(FracOrder(0.5), RngSpec(7), size=100_000)
    assert np.all(draws > 0.0)
    vals = np.exp(-draws)
    se = vals.std(ddof=1) / math.sqrt(vals.size)
    assert abs(vals.mean() - math.exp(-1.0)) < 3.0 * se


@pytest.mark.parametrize("b", [0.3, 0.7])
def test_stable_laplace_other_orders(b):
    draws = sample_stable_unit(FracOrder(b), RngSpec(17), size=100_000)
    for s in (0.5, 1.0):
        vals = np.exp(-s * draws)
        se = vals.std(ddof=1) / math.sqrt(vals.size)
        assert abs(vals.mean() - math.exp(-(s**b))) < 3.0 * se


def test_stable_ks_against_half_order_cdf():
    draws = sample_stable_unit(FracOrder(0.5), RngSpec(23), size=100_000)
    stat = kstest(draws, lambda x: erfc(1.0 / (2.0 * np.sqrt(x))))
    assert stat.pvalue > 0.01


def test_stable_rejects_classical():
    with pytest.raises(ValueError):
        sample_stable_unit(FracOrder(1.0), RngSpec(0))


def test_inverse_moments_mc():
    beta = FracOrder(0.5)
    draws = sample_inverse(beta, 1.0, RngSpec(29), size=100_000)
    for g in (1.0, 2.0):
        vals = draws**g
        exact = inverse_moment_coeff(beta, g)
        se = vals.std(ddof=1) / math.sqrt(vals.size)
        assert abs(vals.mean() - exact) < 3.0 * se


@pytest.mark.parametrize("gamma", [-1.0, -1.5])
def test_moment_rejects_infinite_negative_order(gamma):
    # h_beta(0, t) > 0 for beta < 1, so E[E_t^gamma] diverges at s = 0 for
    # gamma <= -1; a sample mean of it would be a finite number
    with pytest.raises(ValueError, match="infinite"):
        mc_moment(FracOrder(0.5), [gamma, -0.5], 1.0, 100, RngSpec(0))


@pytest.mark.parametrize("b", [0.3, 0.7])
@pytest.mark.parametrize("t", [0.5, 1.0])
def test_inverse_moment_grid(b, t):
    beta = FracOrder(b)
    draws = sample_inverse(beta, t, RngSpec(31), size=30_000)
    exact = inverse_moment_coeff(beta, 1.0) * t**b
    se = draws.std(ddof=1) / math.sqrt(draws.size)
    assert abs(draws.mean() - exact) < 3.0 * se


@pytest.mark.parametrize("b", [0.3, 0.5, 0.7])
def test_inverse_matches_kernel_cdf(b):
    # the empirical P(E_t <= s) agrees with the CDF of the kernel h_beta
    beta = FracOrder(b)
    n = 100_000
    for t in (0.5, 2.0):
        draws = sample_inverse(beta, t, RngSpec(61), size=n)
        for c in (0.25, 0.5, 1.0, 2.0):
            s = c * t**b
            p = inverse_subordinator_cdf(beta, s, t)
            se = math.sqrt(p * (1.0 - p) / n)
            assert abs(np.mean(draws <= s) - p) < 5.0 * se, f"t={t}, s={s}"


def test_self_similarity_two_sample_ks():
    # law of E_t equals law of t^b E_1
    beta = FracOrder(0.5)
    t = 2.0
    e_t = sample_inverse(beta, t, RngSpec(41, 0), size=10_000)
    e_1 = sample_inverse(beta, 1.0, RngSpec(41, 1), size=10_000)
    stat = ks_2samp(e_t, t**beta.beta * e_1)
    assert stat.pvalue > 0.05


def test_inverse_reproducible_bitwise():
    a = sample_inverse(FracOrder(0.5), 1.0, RngSpec(5), size=200)
    b = sample_inverse(FracOrder(0.5), 1.0, RngSpec(5), size=200)
    np.testing.assert_array_equal(a, b)


def test_exponential_functional_identities():
    beta = FracOrder(0.5)
    est, se = mc_exponential_functional(beta, -1.0, 1.0, 100_000, RngSpec(43))
    exact = mittag_leffler(beta, -1.0)
    assert abs(est - exact) < 3.0 * se
    # lam = 0 is exactly 1
    est0, _ = mc_exponential_functional(beta, 0.0, 1.0, 1_000, RngSpec(44))
    assert est0 == 1.0
    # classical clock is deterministic
    est1, se1 = mc_exponential_functional(FracOrder(1.0), 0.3, 2.0, 1_000, RngSpec(45))
    assert est1 == pytest.approx(math.exp(0.6), rel=1e-12)
    assert se1 == 0.0


def test_exponential_functional_needs_samples():
    with pytest.raises(ValueError):
        mc_exponential_functional(FracOrder(0.5), -1.0, 1.0, 10, RngSpec(0))


# ---------------------------------------------------------------------------
# The linear fractional ODE for Psi
# ---------------------------------------------------------------------------


def test_psi_starts_at_zero():
    grid, psi = solve_psi_fode(FracOrder(0.5), 1.0, 1.0, 1e-2)
    assert psi[0] == 0.0
    assert grid[0] == 0.0


def test_psi_classical_reduction():
    # beta = 1: Psi' = lam e^{lam t} + lam Psi gives Psi = lam t e^{lam t}
    lam = 1.0
    grid, psi = solve_psi_fode(FracOrder(1.0), lam, 1.0, 1.0 / 4096)
    exact = lam * grid * np.exp(lam * grid)
    assert np.max(np.abs(psi - exact)) < 5e-3


def test_psi_matches_monte_carlo():
    beta = FracOrder(0.5)
    grid, psi = solve_psi_fode(beta, 1.0, 1.0, 1.0 / 512)
    for t in (0.25, 0.5, 1.0):
        k = int(round(t * 512))
        draws = sample_inverse(beta, t, RngSpec(47), size=100_000)
        vals = draws * np.exp(draws)
        se = vals.std(ddof=1) / math.sqrt(vals.size)
        assert abs(psi[k] - vals.mean()) < 3.0 * se + 5e-3, f"t={t}"


def test_psi_step_rejection():
    with pytest.raises(ValueError):
        solve_psi_fode(FracOrder(0.5), 50.0, 1.0, 0.25)


def test_psi_rejects_bad_arguments():
    with pytest.raises(ValueError):
        solve_psi_fode(FracOrder(0.5), -1.0, 1.0, 1e-2)
    with pytest.raises(ValueError):
        solve_psi_fode(FracOrder(0.5), 1.0, 1e-3, 1e-2)
