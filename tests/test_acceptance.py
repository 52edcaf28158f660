"""Acceptance gate: twelve pinned criteria, one pass/fail line each.

Every criterion is anchored to a closed form (half-order kernels reduce
to Gaussian / complementary-error-function expressions), a Monte Carlo
bracket, or a grid-refinement ratio.  Tolerances are pinned; do not relax
them to accommodate code changes.
"""

import json
import math

import numpy as np
import pytest
from scipy.special import gamma

from fractrans.caputo import TimeSeries, caputo_l1, solve_psi_fode, weak_residual
from fractrans.cli import main as cli_main
from fractrans.distances import bl_distance, w1_distance_1d
from fractrans.measures import EmpiricalMeasure, expectation, moment
from fractrans.picard import attraction_field, solve_nonlinear
from fractrans.specfun import (
    FracOrder,
    h_quadrature,
    inverse_moment_coeff,
    inverse_subordinator_density,
    mittag_leffler,
)
from fractrans.subordinator import (
    RngSpec,
    mc_exponential_functional,
    sample_inverse,
)
from fractrans.transport import ExplicitField, SolverConfig, solve_linear, solve_linear_mc


def _report(num, label, ok):
    print(f"ACCEPTANCE {num:2d} {label}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"acceptance criterion {num} ({label}) failed"


def test_criterion_01_kernel_anchors():
    worst = 0.0
    beta = FracOrder(0.5)
    for t in (0.5, 0.75, 1.0, 1.5, 2.0):
        for s in np.linspace(0.0, 4.0, 50):
            exact = math.exp(-s * s / (4.0 * t)) / math.sqrt(math.pi * t)
            worst = max(worst, abs(inverse_subordinator_density(beta, float(s), t) - exact))
    for b in (0.3, 0.5, 0.7):
        for t in (0.5, 1.0, 2.0):
            exact = t ** (-b) / gamma(1.0 - b)
            worst = max(
                worst, abs(inverse_subordinator_density(FracOrder(b), 0.0, t) - exact)
            )
    _report(1, "kernel anchors (half-order closed form, origin limit)", worst <= 1e-8)


def test_criterion_02_moment_identity():
    worst = 0.0
    for b in (0.3, 0.5, 0.7, 0.9):
        beta = FracOrder(b)
        for t in (0.5, 1.0, 2.0):
            rule = h_quadrature(beta, t, 96, 1e-10)
            for g in (1.0, 2.0):
                exact = inverse_moment_coeff(beta, g) * t ** (g * b)
                got = rule.integrate(lambda s: s**g)
                worst = max(worst, abs(got - exact) / exact)
    _report(2, "clock moments vs Gamma-ratio closed form", worst <= 1e-5)


def test_criterion_03_exponential_identity():
    worst = 0.0
    for b in (0.3, 0.5, 0.7):
        beta = FracOrder(b)
        for t in (0.5, 1.0, 2.0):
            rule = h_quadrature(beta, t, 128, 1e-15)
            for lam in (-1.0, 0.5):
                exact = mittag_leffler(beta, lam * t**b)
                got = rule.integrate(lambda s: np.exp(lam * s))
                worst = max(worst, abs(got - exact) / abs(exact))
    ok = worst <= 1e-5
    beta = FracOrder(0.5)
    for lam in (-1.0, 0.5):
        exact = mittag_leffler(beta, lam)
        est, se = mc_exponential_functional(beta, lam, 1.0, 100_000, RngSpec(20260823))
        ok = ok and abs(est - exact) <= 3.0 * se
    _report(3, "exponential functional: quadrature 1e-5, MC 3 sigma", ok)


def test_criterion_04_kernel_equation_refinement():
    def max_residual(beta_val, nt, nr):
        beta = FracOrder(beta_val)
        t_grid = np.linspace(0.0, 2.0, nt + 1)
        r_grid = np.linspace(0.2, 3.0, nr + 1)
        dr = r_grid[1] - r_grid[0]
        # h vanishes at t = 0 (t_grid[0]); one array call per row r
        h = np.zeros((nr + 1, nt + 1))
        for i, r in enumerate(r_grid):
            h[i, 1:] = inverse_subordinator_density(beta, r, t_grid[1:])
        worst = 0.0
        mask = t_grid >= 0.5
        for i in range(1, nr):
            dbeta = caputo_l1(TimeSeries(grid=t_grid, values=h[i]), beta).values
            drh = (h[i + 1] - h[i - 1]) / (2.0 * dr)
            worst = max(worst, np.max(np.abs((dbeta + drh)[mask])))
        return worst

    ok = True
    for b in (0.5, 0.7):
        r1 = max_residual(b, 64, 32)
        r2 = max_residual(b, 128, 64)
        r3 = max_residual(b, 256, 128)
        ok = ok and r1 / r2 >= 1.5 and r2 / r3 >= 1.5
    _report(4, "kernel governing equation residual shrinks >= 1.5x per refinement", ok)


def test_criterion_05_fode_vs_monte_carlo():
    beta = FracOrder(0.5)
    grid, psi = solve_psi_fode(beta, 1.0, 1.0, 1.0 / 1024)
    ok = True
    for t in (0.25, 0.5, 1.0):
        k = int(round(t * 1024))
        draws = sample_inverse(beta, t, RngSpec(47), size=100_000)
        vals = draws * np.exp(draws)
        se = vals.std(ddof=1) / math.sqrt(vals.size)
        ok = ok and abs(psi[k] - vals.mean()) <= 3.0 * se
    _report(5, "clock-exponential moment: FODE vs MC within 3 sigma", ok)


def test_criterion_06_dirac_transport():
    beta = FracOrder(0.5)
    v = ExplicitField(func=lambda x, t: np.ones_like(x), lip=0.0)
    cfg = SolverConfig(times=(1.0,), q_h=64, q_g=16, eps_tail=1e-10, ode_step=1e-2)
    path = solve_linear(beta, v, EmpiricalMeasure.dirac([0.0]), cfg)
    exact = 1.128379
    got = moment(path.measures[-1], 1)
    ok = abs(got - exact) / exact <= 1e-3

    mc_cfg = SolverConfig(times=(1.0,), q_h=32, q_g=16, eps_tail=1e-8, ode_step=1e-2)
    mc = solve_linear_mc(beta, v, EmpiricalMeasure.dirac([0.0]), mc_cfg, n_paths=50_000, seed=314)
    vals = mc.measures[-1].points.ravel()
    se = vals.std(ddof=1) / math.sqrt(vals.size)
    ok = ok and abs(vals.mean() - exact) <= 3.0 * se
    _report(6, "Dirac transport first moment 1.128379 (solver 1e-3, MC 3 sigma)", ok)


def test_criterion_07_nonlinear_closed_form():
    beta = FracOrder(0.5)
    two = EmpiricalMeasure(points=np.array([[-1.0], [1.0]]), weights=np.array([0.5, 0.5]))
    cfg = SolverConfig(times=(1.0,), q_h=48, q_g=24, eps_tail=1e-10,
                       ode_step=5e-3, picard_tol=1e-5, t_ext=4.0)
    path = solve_nonlinear(beta, attraction_field(), two, cfg)
    ok = abs(moment(path.measures[-1], 1) - 0.427584) <= 5e-3

    classical = SolverConfig(times=(1.0,), ode_step=1e-3, picard_tol=1e-6)
    path1 = solve_nonlinear(FracOrder(1.0), attraction_field(), two, classical)
    ok = ok and abs(moment(path1.measures[-1], 1) - math.exp(-1.0)) <= 1e-6
    _report(7, "aggregation spread: 0.427584 within 5e-3, classical exp(-1)", ok)


def test_criterion_08_stability_bound():
    beta = FracOrder(0.5)
    damp = ExplicitField(func=lambda x, t: -x, lip=1.0)
    delta = 0.01
    times = (0.25, 0.5, 1.0)
    cfg = SolverConfig(times=times, q_h=64, q_g=16, eps_tail=1e-10, ode_step=1e-2)
    p1 = solve_linear(beta, damp, EmpiricalMeasure.dirac([1.0]), cfg)
    p2 = solve_linear(beta, damp, EmpiricalMeasure.dirac([1.0 + delta]), cfg)
    d0 = bl_distance(p1.measures[0], p2.measures[0])
    ok = True
    for t, mu, nu in zip(times, p1.measures[1:], p2.measures[1:]):
        bound = mittag_leffler(beta, t**0.5) * d0 * 1.05
        ok = ok and bl_distance(mu, nu) <= bound
    _report(8, "perturbation growth within Mittag-Leffler stability bound", ok)


def test_criterion_09_holder_modulus():
    beta = FracOrder(0.5)
    v = ExplicitField(func=lambda x, t: np.ones_like(x), lip=0.0)
    times = tuple(np.linspace(0.0, 1.0, 9)[1:])
    cfg = SolverConfig(times=times, q_h=64, q_g=16, eps_tail=1e-10, ode_step=1e-2)
    path = solve_linear(beta, v, EmpiricalMeasure.dirac([0.0]), cfg)
    const = inverse_moment_coeff(beta, 1.0) * 1.0 * 1.0  # C(beta,1) V0 mass
    ok = True
    for k in range(len(path.times) - 1):
        dt = path.times[k + 1] - path.times[k]
        d = bl_distance(path.measures[k], path.measures[k + 1])
        ok = ok and d <= const * dt**0.5 * 1.05
    _report(9, "adjacent-time BL increments obey the Holder modulus", ok)


def test_criterion_10_weak_residual_refinement():
    beta = FracOrder(0.5)

    def linear_residual(m, q):
        times = tuple(np.linspace(0.0, 1.0, m + 1)[1:])
        v = ExplicitField(func=lambda x, t: np.ones_like(x), lip=0.0)
        cfg = SolverConfig(times=times, q_h=q, q_g=8, eps_tail=1e-10,
                           ode_step=1.0 / (4 * m))
        path = solve_linear(beta, v, EmpiricalMeasure.dirac([0.0]), cfg)
        res = weak_residual(path, lambda mu, t: np.ones_like(mu.points),
                            lambda x: x[:, 0], lambda x: np.ones_like(x), beta)
        return np.max(np.abs(res.values[res.grid >= 0.5]))

    def nonlinear_residual(m, q):
        times = tuple(np.linspace(0.0, 1.0, m + 1)[1:])
        kernel = attraction_field()
        cfg = SolverConfig(times=times, q_h=q, q_g=max(8, q // 4),
                           eps_tail=1e-10, ode_step=1.0 / (4 * m),
                           picard_tol=1e-6, t_ext=2.0)
        two = EmpiricalMeasure(points=np.array([[-1.0], [1.0]]),
                               weights=np.array([0.5, 0.5]))
        path = solve_nonlinear(beta, kernel, two, cfg)
        res = weak_residual(path, lambda mu, t: kernel.induced(mu)(mu.points),
                            lambda x: x[:, 0] ** 2, lambda x: 2.0 * x, beta)
        return np.max(np.abs(res.values[res.grid >= 0.5]))

    lin = [linear_residual(m, q) for m, q in ((16, 24), (32, 48), (64, 96))]
    non = [nonlinear_residual(m, q) for m, q in ((8, 16), (16, 32), (32, 64))]
    ok = all(r[k] / r[k + 1] >= 1.5 for r in (lin, non) for k in range(2))
    _report(10, "weak residual shrinks >= 1.5x per 2x refinement (both solvers)", ok)


def test_criterion_11_metric_module():
    d0 = EmpiricalMeasure.dirac([0.0])
    d1 = EmpiricalMeasure.dirac([1.0])
    ok = abs(bl_distance(d0, d1) - 2.0 / 3.0) <= 1e-9
    rng = np.random.default_rng(7)
    for _ in range(200):
        n, m = rng.integers(1, 8, size=2)
        mu = EmpiricalMeasure(points=rng.normal(size=(n, 1)), weights=np.full(n, 1.0 / n))
        nu = EmpiricalMeasure(points=rng.normal(size=(m, 1)), weights=np.full(m, 1.0 / m))
        ok = ok and bl_distance(mu, nu) <= w1_distance_1d(mu, nu) + 1e-9
    _report(11, "BL optimum 2/3 at 1e-9; BL <= W1 on 200 random ensembles", ok)


def test_criterion_12_determinism(tmp_path):
    cfg = {
        "problem": "linear",
        "beta": 0.5,
        "times": [0.5, 1.0],
        "velocity": {"kind": "damping"},
        "initial": {"kind": "dirac", "point": [1.0]},
        "solver": {"q_h": 32, "q_g": 16, "ode_step": 0.02},
        "seed": 12,
    }
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps(cfg))
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert cli_main(["solve", "--config", str(cfg_file), "--out", str(out_a)]) == 0
    assert cli_main(["solve", "--config", str(cfg_file), "--out", str(out_b)]) == 0
    ok = all(
        (out_a / name).read_bytes() == (out_b / name).read_bytes()
        for name in ("path.csv", "manifest.json")
    )
    _report(12, "repeated solve runs are byte-identical", ok)
