"""Discrete fractional calculus on uniform scalar time grids.

Implements the L1 scheme for the Caputo derivative of order beta, the
product-trapezoid rule for the Riemann-Liouville integral, the
weak-formulation residual used to validate solver output, and an L1 solve
of the fractional ODE that the clock's exponential functional satisfies,
a grid oracle for the Monte Carlo estimators.  No command loads this
module.
"""

from __future__ import annotations

import math

import numpy as np

from .measures import MeasurePath, expectation
from .specfun import FracOrder, mittag_leffler

__all__ = ["TimeSeries", "caputo_l1", "rl_integral", "weak_residual", "solve_psi_fode"]

#: relative slack allowed on grid uniformity
_GRID_TOL = 1e-9

#: reject the implicit L1 step when lambda * dt^beta * Gamma(2-beta)
#: exceeds this fraction of 1 (the diagonal would lose dominance)
_FODE_STABILITY = 0.5


class TimeSeries:
    """Values sampled on a uniform grid 0 = t_0 < ... < t_M."""

    def __init__(self, grid, values):
        grid = np.asarray(grid, dtype=float).ravel()
        values = np.asarray(values, dtype=float).ravel()
        if grid.size != values.size:
            raise ValueError("grid and values must have equal length")
        if grid.size < 2:
            raise ValueError("time series needs at least two points")
        if grid[0] != 0.0:
            raise ValueError("grid must start at 0")
        steps = np.diff(grid)
        dt = steps[0]
        if dt <= 0.0 or np.any(np.abs(steps - dt) > _GRID_TOL * dt):
            raise ValueError("grid must be uniform and increasing")
        grid = grid.copy()
        values = values.copy()
        grid.setflags(write=False)
        values.setflags(write=False)
        self.grid, self.values = grid, values

    @property
    def dt(self) -> float:
        return float(self.grid[1] - self.grid[0])

    @classmethod
    def from_function(cls, f, t_max: float, m: int) -> "TimeSeries":
        grid = np.linspace(0.0, t_max, m + 1)
        return cls(grid=grid, values=np.array([f(t) for t in grid]))


def l1_weights(beta: float, m: int) -> np.ndarray:
    """History weights b_k = (k+1)^(1-beta) - k^(1-beta), k = 0..m-1."""
    k = np.arange(m, dtype=float)
    b = (k + 1.0) ** (1.0 - beta) - k ** (1.0 - beta)
    b[0] = 1.0  # 0**0 evaluates to 1 and would cancel the k=0 weight at beta=1
    return b


def solve_psi_fode(beta: FracOrder, lam: float, t_max: float, dt: float):
    """Grid solution of the linear fractional ODE for the exponential
    functional's derivative process:

        D^beta Psi(t) = lam * E_beta(lam t^beta) + lam * Psi(t),
        Psi(0) = 0,

    whose solution equals E[lam E_t exp(lam E_t)].  Uses the L1 scheme
    with the lam*Psi term treated implicitly; returns (grid, values).
    """
    if lam <= 0.0:
        raise ValueError("requires lam > 0")
    if dt <= 0.0 or t_max <= dt:
        raise ValueError("requires 0 < dt < t_max")
    b = beta.beta
    amp = lam * dt**b * math.gamma(2.0 - b)
    if amp >= _FODE_STABILITY:
        raise ValueError(
            f"step rejected: lam*dt^beta*Gamma(2-beta) = {amp:.3g} >= {_FODE_STABILITY}"
        )
    m = int(round(t_max / dt))
    grid = dt * np.arange(m + 1, dtype=float)
    w = l1_weights(b, m)
    a = dt ** (-b) / math.gamma(2.0 - b)
    psi = np.zeros(m + 1)
    for n in range(1, m + 1):
        rhs = lam * mittag_leffler(beta, lam * grid[n] ** b)
        # history: sum_{k>=1} b_k (psi_{n-k} - psi_{n-k-1})
        hist = float(np.dot(w[1:n], psi[n - 1 : 0 : -1] - psi[n - 2 :: -1])) if n > 1 else 0.0
        psi[n] = (a * (psi[n - 1] - hist) + rhs) / (a - lam)
    return grid, psi


def caputo_l1(series: TimeSeries, beta: FracOrder) -> TimeSeries:
    """Caputo derivative of order beta by the L1 scheme.

    Output node n (n >= 1) carries

        dt^(-beta)/Gamma(2-beta) * sum_k b_k (phi_{n-k} - phi_{n-k-1}),

    which is O(dt^(2-beta)) accurate for smooth inputs; node 0 is set to
    zero (the scheme needs one past point).  beta = 1 degenerates to the
    backward difference, so the classical case is admitted too.
    """
    b = beta.beta
    m = series.values.size - 1
    conv = np.convolve(np.diff(series.values), l1_weights(b, m))[:m]
    out = np.zeros(m + 1)
    out[1:] = conv * (series.dt ** (-b) / math.gamma(2.0 - b))
    return TimeSeries(grid=series.grid, values=out)


def rl_integral(series: TimeSeries, beta: FracOrder) -> TimeSeries:
    """Riemann-Liouville integral of order beta, product-trapezoid rule.

    The integrand is replaced by its piecewise-linear interpolant and the
    kernel (t - tau)^(beta - 1)/Gamma(beta) is integrated exactly against
    each linear piece; O(dt^2) for smooth inputs.  beta = 1 reduces to the
    composite trapezoid rule.
    """
    b = beta.beta
    f = series.values
    m_max = f.size - 1
    dt = series.dt
    scale = dt**b / math.gamma(b + 2.0)
    j = np.arange(m_max + 2, dtype=float)
    pow1 = j ** (b + 1.0)
    out = np.zeros_like(f)
    for m in range(1, m_max + 1):
        # endpoint, interior hat, and starting-point coefficients
        coef = np.empty(m + 1)
        coef[m] = 1.0
        if m >= 2:
            i = np.arange(1, m)
            coef[i] = pow1[m - i + 1] + pow1[m - i - 1] - 2.0 * pow1[m - i]
        coef[0] = pow1[m - 1] - (m - 1.0 - b) * m**b
        out[m] = scale * np.dot(coef, f[: m + 1])
    return TimeSeries(grid=series.grid, values=out)


def weak_residual(path: MeasurePath, velocity, f, grad_f, beta: FracOrder) -> TimeSeries:
    """Nodewise defect of the weak formulation along a solved path.

    Computes the Caputo derivative (L1) of t -> <mu_t, f> minus
    t -> <mu_t, Df . v[mu_t]>.  ``velocity(mu, t)`` must return the
    velocity of the governing field at the particles of ``mu``; ``f``
    maps an (N, d) position array to N values and ``grad_f`` to (N, d)
    gradients.  A valid solution drives the max norm of the residual to
    zero under simultaneous refinement; node 0 is reported as zero.
    """
    observed = TimeSeries(
        grid=path.times,
        values=np.array([expectation(mu, f) for mu in path.measures]),
    )
    lhs = caputo_l1(observed, beta)
    rhs = np.empty(path.times.size)
    for n, (t, mu) in enumerate(zip(path.times, path.measures)):
        if mu.size == 0:
            rhs[n] = 0.0
            continue
        vel = np.asarray(velocity(mu, float(t)), dtype=float).reshape(mu.size, mu.dim)
        grads = np.asarray(grad_f(mu.points), dtype=float).reshape(mu.size, mu.dim)
        rhs[n] = float(np.dot(mu.weights, np.sum(grads * vel, axis=1)))
    values = lhs.values - rhs
    values[0] = 0.0
    return TimeSeries(grid=path.times, values=values)
