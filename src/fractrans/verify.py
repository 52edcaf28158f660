"""Self-verification suite: closed-form anchors and cross-method checks.

Each check returns (target, achieved, tolerance); ``run_checks`` turns
them into records {name, target, achieved, tolerance, pass} and the CLI
writes them as a JSON report.  Anchors use only identities with
independent closed forms (the half-order kernels reduce to Gaussian and
complementary-error-function expressions), plus quadrature-vs-Monte
Carlo and quadrature-vs-solver cross-validation.
"""

from __future__ import annotations

import math
import random

import numpy as np

from .distances import bl_distance, w1_distance_1d
from .measures import EmpiricalMeasure, expectation, moment
from .rules import h_quadrature
from .specfun import inverse_moment_coeff, inverse_subordinator_density, mittag_leffler
from .subordinator import FracOrder, RngSpec, mc_exponential_functional, mc_moment
from .transport import AffineField, ExplicitField, SolverConfig, solve_linear, solve_linear_mc, solve_with_source

__all__ = ["run_checks", "CHECKS"]


def check_kernel_anchor_half():
    """h at beta = 1/2 against the Gaussian closed form."""
    worst = 0.0
    beta = FracOrder(0.5)
    for t in (0.5, 1.0, 2.0):
        for s in np.linspace(0.0, 4.0, 21):
            exact = math.exp(-s * s / (4.0 * t)) / math.sqrt(math.pi * t)
            worst = max(worst, abs(inverse_subordinator_density(beta, float(s), t) - exact))
    return 0.0, worst, 1e-8


def check_kernel_origin():
    """h(0+, t) = t^(-beta)/Gamma(1-beta)."""
    worst = 0.0
    for b in (0.3, 0.5, 0.7):
        for t in (0.5, 1.0, 2.0):
            exact = t ** (-b) / math.gamma(1.0 - b)
            worst = max(
                worst, abs(inverse_subordinator_density(FracOrder(b), 0.0, t) - exact)
            )
    return 0.0, worst, 1e-8


def check_moment_quadrature(eps_tail=1e-10, q=96):
    """Rule moments against Gamma-ratio coefficients, relative error."""
    worst = 0.0
    for b in (0.3, 0.5, 0.7, 0.9):
        beta = FracOrder(b)
        for t in (0.5, 1.0, 2.0):
            rule = h_quadrature(beta, t, q, eps_tail)
            for g in (1.0, 2.0):
                exact = inverse_moment_coeff(beta, g) * t ** (g * b)
                got = rule.integrate(lambda s: s**g)
                worst = max(worst, abs(got - exact) / exact)
    return 0.0, worst, 1e-5


def check_exponential_identity(eps_tail=1e-13, q=128):
    """Quadrature exponential functional vs the Mittag-Leffler function."""
    worst = 0.0
    for b in (0.3, 0.5, 0.7):
        beta = FracOrder(b)
        for t in (0.5, 1.0, 2.0):
            rule = h_quadrature(beta, t, q, eps_tail)
            for lam in (-1.0, 0.5):
                exact = mittag_leffler(beta, lam * t**b)
                got = rule.integrate(lambda s: np.exp(lam * s))
                worst = max(worst, abs(got - exact) / abs(exact))
    return 0.0, worst, 1e-5


def check_gauss_h_rule():
    """The Gauss h-rule at the solvers' default q_h and eps_tail against the
    Laplace identity E[exp(-lam E_1)] = E_beta(-lam), from near-exponential
    to near-classical clocks."""
    default = SolverConfig(times=(1.0,))
    worst = 0.0
    for b in (0.05, 0.3, 0.5, 0.7, 0.99):
        beta = FracOrder(b)
        rule = h_quadrature(beta, 1.0, default.q_h, default.eps_tail)
        for lam in (0.5, 1.0, 4.0):
            got = rule.integrate(lambda s: np.exp(-lam * s))
            worst = max(worst, abs(got - mittag_leffler(beta, -lam)))
    return 0.0, worst, 1e-10


def check_exponential_identity_mc(seed=20260823, n=100_000):
    """MC exponential functional brackets the Mittag-Leffler value at 3 sigma."""
    beta = FracOrder(0.5)
    exact = mittag_leffler(beta, -1.0)
    est, se = mc_exponential_functional(beta, -1.0, 1.0, n, RngSpec(seed))
    # normalized deviation: pass when |est - exact| <= 3 stderr
    dev = abs(est - exact) / (3.0 * se)
    return 0.0, dev, 1.0


def check_half_order_oracle():
    """Mittag-Leffler at order 1/2 against exp(z^2) erfc(-z)."""
    beta = FracOrder(0.5)
    worst = 0.0
    for z in (-3.0, -1.0, -0.25, 0.5, 1.0, 2.0):
        exact = math.exp(z * z) * math.erfc(-z)
        worst = max(worst, abs(mittag_leffler(beta, z) - exact) / exact)
    return 0.0, worst, 1e-10


def check_metric_anchor():
    """Bounded-Lipschitz distance between unit Diracs at distance 1."""
    d0 = EmpiricalMeasure.dirac([0.0])
    d1 = EmpiricalMeasure.dirac([1.0])
    return 2.0 / 3.0, bl_distance(d0, d1), 1e-9


def check_metric_domination(seed=7, n_cases=200):
    """d_BL <= W1 on random probability-normalized line ensembles."""
    rng = random.Random(seed)

    def line(k):
        points = [[rng.gauss(0.0, 1.0)] for _ in range(k)]
        return EmpiricalMeasure(points=points, weights=np.full(k, 1.0 / k))

    worst = 0.0
    for _ in range(n_cases):
        n, m = rng.randint(1, 7), rng.randint(1, 7)
        mu, nu = line(n), line(m)
        worst = max(worst, bl_distance(mu, nu) - w1_distance_1d(mu, nu))
    return 0.0, max(worst, 0.0), 1e-9


def check_dirac_transport(eps_tail=1e-10):
    """Linear solver with unit velocity from a Dirac: first moment at
    t = 1 equals the mean internal time.  The flow is exact and the Gauss
    h-rule integrates the first moment to rounding (about 3e-13)."""
    beta = FracOrder(0.5)
    v = ExplicitField(func=lambda x, t: np.ones_like(x), lip=0.0)
    cfg = SolverConfig(times=(1.0,), q_h=64, q_g=16, eps_tail=eps_tail, ode_step=1e-2)
    path = solve_linear(beta, v, EmpiricalMeasure.dirac([0.0]), cfg)
    exact = inverse_moment_coeff(beta, 1.0)
    got = moment(path.measures[-1], 1)
    return 0.0, abs(got - exact) / exact, 1e-10


def check_affine_relaxation():
    """Linear solver at its defaults with the affine field v = -(x - c) from
    a Dirac at 1: the mean is c + (1 - c) E_beta(-t^beta), the relaxation
    e^{-s} averaged over the internal clock.  The only anchor whose flow
    is not constant in space; 1e-8 is the benchmark's closed-form bound."""
    worst = 0.0
    for b in (0.3, 0.5, 0.7, 0.9):
        beta = FracOrder(b)
        for c in (0.0, 0.25):
            path = solve_linear(beta, AffineField(matrix=-1.0, offset=c), EmpiricalMeasure.dirac([1.0]),
                                SolverConfig(times=(0.5, 1.0, 2.0)))
            for t, mu in zip(path.times[1:], path.measures[1:]):
                exact = c + (1.0 - c) * mittag_leffler(beta, -(t**b))
                worst = max(worst, abs(expectation(mu, lambda x: x[:, 0]) - exact))
    return 0.0, worst, 1e-8


def check_source_relaxation(mean_tol=2.5e-3, mass_tol=1e-10):
    """Source solver at its defaults with the damping field v = -x, mu0 a
    10 x 10 grid on [-1, 1]^2 of unit mass and a unit Dirac source at
    x_s = (1/2, 1/2): the unnormalized mean vector is
    x_s + (M_0 - x_s) E_beta(-t^beta) and the mass 1 + t^beta / Gamma(1 + beta).
    The trapezoid rule in the source integral misses the mean by about
    9e-4 at the default q_h.  Achieved: the larger error over the output
    times, of the mean (any coordinate) over ``mean_tol`` and of the mass
    over ``mass_tol``."""
    beta = FracOrder(0.5)
    axis = np.linspace(-1.0, 1.0, 10)
    points = np.stack([m.ravel() for m in np.meshgrid(axis, axis, indexing="ij")], axis=1)
    mu0 = EmpiricalMeasure(points=points, weights=np.full(100, 0.01))
    x_s = np.array([0.5, 0.5])
    path = solve_with_source(beta, AffineField(matrix=-1.0), mu0, EmpiricalMeasure.dirac(x_s),
                             SolverConfig(times=(0.5, 1.0)))
    m_0 = mu0.weights @ mu0.points
    worst = 0.0
    for t, mu in zip(path.times[1:], path.measures[1:]):
        mean = x_s + (m_0 - x_s) * mittag_leffler(beta, -(t**0.5))
        mass = 1.0 + t**0.5 / math.gamma(1.5)
        worst = max(worst, np.abs(mu.weights @ mu.points - mean).max() / mean_tol,
                    abs(mu.weights.sum() - mass) / mass_tol)
    return 0.0, worst, 1.0


def check_dirac_transport_mc(seed=314, n=50_000):
    """MC solver brackets the same first moment at 3 sigma."""
    beta = FracOrder(0.5)
    v = ExplicitField(func=lambda x, t: np.ones_like(x), lip=0.0)
    cfg = SolverConfig(times=(1.0,), q_h=32, q_g=16, eps_tail=1e-8, ode_step=1e-2)
    path = solve_linear_mc(beta, v, EmpiricalMeasure.dirac([0.0]), cfg, n_paths=n, seed=seed)
    exact = inverse_moment_coeff(beta, 1.0)
    mu = path.measures[-1]
    vals = mu.points.ravel()
    se = float(vals.std(ddof=1) / math.sqrt(vals.size))
    dev = abs(moment(mu, 1) - exact) / (3.0 * se)
    return 0.0, dev, 1.0


def check_mc_moment(seed=99, n=50_000):
    """Sampled internal clock reproduces first and second moments."""
    beta = FracOrder(0.5)
    gammas = (1.0, 2.0)
    worst = 0.0
    for g, (est, se) in zip(gammas, mc_moment(beta, gammas, 1.0, n, RngSpec(seed))):
        worst = max(worst, abs(est - inverse_moment_coeff(beta, g)) / (3.0 * se))
    return 0.0, worst, 1.0


CHECKS = {
    "kernel_anchor_half_order": check_kernel_anchor_half,
    "kernel_origin_limit": check_kernel_origin,
    "mittag_leffler_half_order": check_half_order_oracle,
    "moment_identity_quadrature": check_moment_quadrature,
    "exponential_identity_quadrature": check_exponential_identity,
    "exponential_identity_mc": check_exponential_identity_mc,
    "gauss_h_rule": check_gauss_h_rule,
    "bl_two_diracs": check_metric_anchor,
    "bl_dominated_by_w1": check_metric_domination,
    "dirac_transport_first_moment": check_dirac_transport,
    "dirac_transport_first_moment_mc": check_dirac_transport_mc,
    "affine_relaxation_mean": check_affine_relaxation,
    "source_relaxation_mean": check_source_relaxation,
    "inverse_clock_moments_mc": check_mc_moment,
}


def run_checks() -> dict:
    """Run every check in ``CHECKS``."""
    report = []
    for name, check in CHECKS.items():
        target, achieved, tolerance = check()
        report.append({"name": name, "target": float(target), "achieved": float(achieved),
                       "tolerance": float(tolerance),
                       "pass": bool(abs(achieved - target) <= tolerance)})
    return {"checks": report, "all_pass": all(c["pass"] for c in report)}
