"""Monte Carlo machinery for the stable subordinator and its inverse.

Draws of the unit one-sided stable variable use the Kanter form of the
Chambers-Mallows-Stuck transformation.  The inverse process (the random
internal clock) is drawn exactly from its marginal law: E_t has the law
of (t / D_1)^beta, because P(E_t <= s) = P(s^(1/beta) D_1 >= t), so one
stable draw gives one clock with no time stepping and no O(dtau) bias.
Statistical identities (moments, exponential functional, the associated
fractional ODE) are exposed as estimators with standard errors so callers
can make 3-sigma assertions.

This module also defines the fractional order ``FracOrder`` and Kanter's
map ``_log_kanter_clock``, which ``specfun`` imports to plan the solvers'
Gauss h-rule.  It imports nothing from ``specfun`` at load time, so
``fractrans sample`` compiles neither ``specfun.py`` nor ``measures.py``;
only ``solve_psi_fode`` reads ``specfun.mittag_leffler``, imported where
it is called.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "FracOrder",
    "RngSpec",
    "sample_stable_unit",
    "sample_inverse",
    "mc_exponential_functional",
    "mc_moment",
    "solve_psi_fode",
]

#: reject the implicit L1 step when lambda * dt^beta * Gamma(2-beta)
#: exceeds this fraction of 1 (the diagonal would lose dominance)
_FODE_STABILITY = 0.5


class FracOrder:
    """Fractional order beta in (0, 1]; beta = 1 is the classical regime."""

    def __init__(self, beta: float):
        # a bool is an int, and True would read as classical transport
        if isinstance(beta, bool) or not (0.0 < beta <= 1.0):
            raise ValueError(f"fractional order must lie in (0, 1], got {beta}")
        self.beta = beta

    @property
    def is_classical(self) -> bool:
        return self.beta == 1.0


def _log_zolotarev_a(phi: np.ndarray, b: float) -> np.ndarray:
    # log of the angular function of the Zolotarev representation,
    # increasing on (0, pi); summed in place, because the stable sampler
    # passes all its draws at once and each temporary is one more array
    out = np.log(np.sin(b * phi))
    out *= b / (1.0 - b)
    out += np.log(np.sin((1.0 - b) * phi))
    out -= np.log(np.sin(phi)) / (1.0 - b)
    return out


def _log_kanter_clock(b: float, u, log_w):
    """log E_1 by Kanter's representation (Ann. Probab. 3 (1975) 697-707):
    with U uniform on (0, pi) and W unit exponential,

        E_1 = D_1^(-b) = (W / a(U))^(1-b)
            = W^(1-b) sin U / (sin(b U)^b sin((1-b) U)^(1-b)),

    a the angular function of the Zolotarev integrals.  ``u`` and ``log_w``
    broadcast together."""
    return (1.0 - b) * (log_w - _log_zolotarev_a(u, b))


class RngSpec:
    """Reproducible stream label: (seed, stream_id) fixes all draws."""

    def __init__(self, seed: int, stream_id: int = 0):
        self.seed, self.stream_id = seed, stream_id

    def generator(self) -> np.random.Generator:
        return np.random.default_rng([self.seed, self.stream_id])


def sample_stable_unit(beta: FracOrder, rng, size=None):
    """Draws of D_1, the unit-time one-sided stable variable.

    Kanter's representation: with U uniform on (0, pi) and W unit
    exponential,

        D = (sin(b U) / sin(U)^(1/b)) * (sin((1-b) U) / W)^((1-b)/b)

    has Laplace transform exp(-s^b).  It is drawn as E_1^(-1/b) from
    ``_log_kanter_clock``, the map that also plans the solvers'
    Gauss h-rule.
    """
    b = beta.beta
    if not 0.0 < b < 1.0:
        raise ValueError("stable sampling requires 0 < beta < 1")
    gen = rng.generator() if isinstance(rng, RngSpec) else rng
    u = gen.uniform(0.0, math.pi, size=size)
    log_w = np.log(gen.exponential(size=size))
    return np.exp(_log_kanter_clock(b, u, log_w) / -b)


def mc_moment(beta: FracOrder, gammas, t: float, n: int, rng: RngSpec):
    """MC estimates (mean, stderr) of E[E_t^gamma] for each gamma.

    For beta < 1 the moment is finite only for gamma > -1, since the
    clock's density h_beta(s, t) is positive at s = 0; a gamma <= -1 is a
    ValueError.  The classical clock, E_t = t, has every moment.
    """
    gammas = np.atleast_1d(gammas)
    if not beta.is_classical and np.any(gammas <= -1.0):
        raise ValueError(f"E[E_t^gamma] is infinite for gamma <= -1 when beta < 1, "
                         f"got gammas {gammas.tolist()}")
    draws = sample_inverse(beta, t, rng, size=n)
    results = []
    for g in gammas:
        vals = draws**g
        results.append((float(vals.mean()), float(vals.std(ddof=1) / math.sqrt(n))))
    return results


def sample_inverse(beta: FracOrder, t: float, rng, size=None):
    """Exact samples of the internal clock E_t at real time t.

    E_t has the law of (t / D_1)^beta (Meerschaert & Scheffler 2004,
    Cor. 3.1), so each clock costs one stable draw and carries no
    discretization bias.  The classical clock (beta = 1) is E_t = t.
    Vectorized over paths when ``size`` is given.
    """
    if t <= 0.0:
        raise ValueError("requires t > 0")
    if beta.is_classical:
        return float(t) if size is None else np.full(int(size), float(t))
    draws = (t / sample_stable_unit(beta, rng, size=size)) ** beta.beta
    return float(draws) if size is None else draws


def mc_exponential_functional(beta: FracOrder, lam: float, t: float, n: int, rng: RngSpec):
    """Monte Carlo estimate of E[exp(lam E_t)] with its standard error.

    The classical clock (beta = 1) is deterministic, E_t = t, so the
    estimate is exact with zero standard error.
    """
    if n < 100:
        raise ValueError("need at least 100 samples for a stable stderr")
    if beta.is_classical:
        return math.exp(lam * t), 0.0
    draws = sample_inverse(beta, t, rng, size=n)
    with np.errstate(over="ignore", invalid="ignore"):  # an inf estimate is the caller's to reject
        vals = np.exp(lam * draws)
        return float(vals.mean()), float(vals.std(ddof=1) / math.sqrt(n))


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
    from .caputo import l1_weights  # only here: no CLI command compiles caputo
    from .specfun import mittag_leffler  # only here: ``sample`` does not compile specfun

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
