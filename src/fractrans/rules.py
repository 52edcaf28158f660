"""Quadrature rules for integrals against the internal clock's kernels.

``h_quadrature`` builds the Gauss rule of the unit clock E_1, planned by
the Stieltjes procedure on a product rule over Kanter's representation
of E_1, and rescales it to h_beta(., t); ``g_quadrature`` rescales the
composite rule of the unit-time subordinator density to g_beta(., s).

The h-rule evaluates no special function: Kanter's map comes from
``subordinator``, and Gauss-Legendre nodes and weights come from
Golub-Welsch, the eigen-decomposition of the Legendre Jacobi matrix by
``np.linalg.eigh``, so ``numpy.polynomial`` is never imported.  The
composite g-rule is planned on the stable density and its quantiles, so
``g_quadrature`` imports ``specfun`` when it is called.  A solve whose
field is autonomous (every explicit CLI velocity) builds no g-rule, so a
``linear`` or ``source`` solve compiles this module and not ``specfun``;
``specfun`` imports the names it shares with this one back, and
``specfun.h_quadrature`` is ``rules.h_quadrature``.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .subordinator import FracOrder, _log_kanter_clock

__all__ = ["QuadratureRule", "h_quadrature", "g_quadrature"]

#: normalization tolerance for quadrature rules (sum of weights + tail vs 1)
TOL_NORM = 1e-8


class QuadratureRule:
    """Nodes and weights for an integral against h_beta or g_beta, as built
    by ``h_quadrature`` or ``g_quadrature``.

    ``integrate(f)`` approximates the kernel-weighted integral of f over
    (0, inf).  ``tail_mass`` is the probability mass the rule leaves out:
    beyond the last node of a composite g-rule, and 0 for the Gauss h-rule,
    whose weights sum to 1.
    """

    def __init__(self, nodes, weights, tail_mass: float):
        nodes = np.asarray(nodes, dtype=float)
        weights = np.asarray(weights, dtype=float)
        nodes.setflags(write=False)
        weights.setflags(write=False)
        if nodes.shape != weights.shape or nodes.ndim != 1:
            raise ValueError("nodes and weights must be 1-D arrays of equal length")
        if np.any(np.diff(nodes) <= 0):
            raise ValueError("quadrature nodes must be strictly increasing")
        if np.any(weights < 0):
            raise ValueError("quadrature weights must be nonnegative")
        if tail_mass < 0:
            raise ValueError("tail mass must be nonnegative")
        total = float(weights.sum()) + tail_mass
        if not (1.0 - TOL_NORM <= total <= 1.0 + TOL_NORM):
            raise ValueError(
                f"weights + tail mass = {total!r} outside normalization tolerance"
            )
        self.nodes, self.weights, self.tail_mass = nodes, weights, tail_mass

    def integrate(self, f) -> float:
        """Fixed-order weighted sum of f over the nodes."""
        return float(np.sum(self.weights * f(self.nodes)))


@lru_cache(maxsize=None)
def _gauss_legendre(n: int):
    """n-point Gauss-Legendre nodes and weights on [-1, 1] by Golub-Welsch:
    the eigenvalues of the Legendre Jacobi matrix (zero diagonal,
    off-diagonal k / sqrt(4 k^2 - 1)) and twice the squared first
    components of its eigenvectors, made symmetric about 0."""
    k = np.arange(1.0, n)
    off = k / np.sqrt(4.0 * k * k - 1.0)
    x, vectors = np.linalg.eigh(np.diag(off, 1) + np.diag(off, -1))
    w = 2.0 * vectors[0] ** 2
    x, w = 0.5 * (x - x[::-1]), 0.5 * (w + w[::-1])
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


def _sorted_unique(a: np.ndarray) -> np.ndarray:
    """The distinct values of a 1-D float array, ascending.  np.unique
    would do, but without ``return_inverse`` numpy 2.4 asks
    ``np.ma.is_masked`` and so imports ``numpy.ma`` into every process."""
    a = np.sort(a)
    return a[np.concatenate([[True], a[1:] != a[:-1]])]


def _panel_nodes(edges: np.ndarray, n: int):
    """n-point Gauss-Legendre nodes and weights on the panels between
    consecutive edges (last axis); panels are flattened along that axis."""
    x, w = _gauss_legendre(n)
    lo, hi = edges[..., :-1, None], edges[..., 1:, None]
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    shape = edges.shape[:-1] + ((edges.shape[-1] - 1) * n,)
    return (mid + half * x).reshape(shape), (half * w).reshape(shape)


# ---------------------------------------------------------------------------
# The Gauss h-rule's planning rule on Kanter's representation of the unit
# clock (``subordinator._log_kanter_clock``)
# ---------------------------------------------------------------------------


#: least nodes per panel of the Kanter planning rule, in log W and in U
_KANTER_NODES = 12
#: log W panel edges below 0, the last panel ending at 0; the mass below
#: W = e^-40, about 4e-18, is dropped
_KANTER_LOW_EDGES = (-40.0, -16.0, -6.0, -2.0)


def _kanter_rule(b: float, tail: float, q: int):
    """Planning rule for the q-point Gauss rule of E_1: (nodes, weights
    summing to 1) of a product Gauss-Legendre rule over (log W, U), mapped
    to E_1 by Kanter's representation (``_log_kanter_clock``).  No special
    function is evaluated.

    W is cut where e^(-W) = 0.05 * ``tail``; above W = 1 the log W panels
    have equal widths of at most 1, where e^(-W) varies fastest.  The map's
    continuation is singular at U = pi / b and pi / (1 - b), so the U panels
    halve toward pi, down to half the distance of the nearer one.  Each panel
    has max(12, q / 8) nodes: the Stieltjes recurrence of q steps stays
    within 1e-13 of a reorthogonalized Lanczos run on this rule up to
    q = 256 (at beta 0.05, 0.3, 0.5 and 0.99), while with 12 nodes per
    panel its nodes are 7e-4 off at q = 128 (beta 0.3).
    """
    n = max(_KANTER_NODES, -(-q // 8))
    log_w_cut = math.log(-math.log(0.05 * tail))
    top = np.linspace(0.0, log_w_cut, math.ceil(log_w_cut) + 1)
    y, wy = _panel_nodes(np.concatenate([_KANTER_LOW_EDGES, top]), n)
    wy *= np.exp(y - np.exp(y))
    depth = 1 + math.ceil(math.log2(max(b, 1.0 - b) / min(b, 1.0 - b)))
    u, wu = _panel_nodes(np.append(math.pi * (1.0 - 0.5 ** np.arange(depth + 1)), math.pi), n)
    nodes = np.exp(_log_kanter_clock(b, u[:, None], y)).ravel()
    weights = np.multiply.outer(wu, wy).ravel()
    return nodes, weights / weights.sum()


# ---------------------------------------------------------------------------
# Quadrature rules
# ---------------------------------------------------------------------------


def _check_rule_args(beta: FracOrder, t: float, q: int, eps_tail: float):
    if beta.beta >= 1.0:
        raise ValueError("quadrature rules require beta strictly below 1")
    if t <= 0.0:
        raise ValueError("rule time must be positive")
    if q < 2:
        raise ValueError("at least two nodes are required")
    if not (0.0 < eps_tail < 0.1):
        raise ValueError("eps_tail must lie in (0, 0.1)")


@lru_cache(maxsize=64)
def _gauss_clock_rule(b: float, q: int, tail: float):
    """(nodes, weights summing to 1) of the q-point Gauss rule of the unit
    clock E_1.  E_1 has the Mittag-Leffler law, whose moments
    n! / Gamma(1 + n b) are all finite, so the rule converges spectrally.

    It is planned on the product rule of Kanter's representation
    (``_kanter_rule``, W cut where e^(-W) = 0.05 ``tail``): q steps of the
    discretized Stieltjes procedure on its nodes, O(q N), give the Jacobi
    matrix of orthonormal polynomials, whose eigenvalues are the nodes and
    whose squared first eigenvector components are the weights (Golub &
    Welsch, Math. Comp. 23 (1969) 221-230; Gautschi, Orthogonal
    Polynomials, 2004, Sec. 2.2).  Sums are numpy reductions, not BLAS
    products, so no thread count changes the recurrence.
    """
    x, w = _kanter_rule(b, tail, q)
    alpha, off = np.zeros(q), np.zeros(q + 1)
    # the orthonormal polynomials p_j and p_(j-1) at the planning nodes
    p, p_prev = np.ones_like(x), np.zeros_like(x)
    for j in range(q):
        alpha[j] = np.sum(w * x * p * p)
        u = (x - alpha[j]) * p - off[j] * p_prev
        off[j + 1] = math.sqrt(np.sum(w * u * u))
        p, p_prev = u / off[j + 1], p
    jacobi = np.diag(alpha) + np.diag(off[1:-1], 1) + np.diag(off[1:-1], -1)
    nodes, vectors = np.linalg.eigh(jacobi)
    weights = vectors[0] ** 2
    weights /= weights.sum()
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


def h_quadrature(beta: FracOrder, t: float, q: int, eps_tail: float) -> QuadratureRule:
    """The q-point Gauss rule for integrals against h_beta(., t), the law
    of E_t = t^beta E_1 (``_gauss_clock_rule``).

    Built once at unit time and rescaled by t**beta (self-similarity of the
    inverse clock), so rules at different times share their weights.  The
    weights sum to 1 and ``tail_mass`` is 0: ``eps_tail`` only sets the cut
    of the planning rule, at e^(-W) = 0.05 min(eps_tail, 1e-12), whose mass
    (at most 5e-14) is renormalized away.
    """
    _check_rule_args(beta, t, q, eps_tail)
    nodes, weights = _gauss_clock_rule(beta.beta, q, min(eps_tail, 1e-12))
    return QuadratureRule(nodes=nodes * t**beta.beta, weights=weights, tail_mass=0.0)


def g_quadrature(beta: FracOrder, s: float, q: int, eps_tail: float) -> QuadratureRule:
    """Rule for integrals against g_beta(., s); nodes rescale by s**(1/beta).

    The composite unit-time rule is ``specfun._unit_rule``.  The
    subordinator has no finite mean for beta < 1, so only total-mass
    control is guaranteed; bounded integrands incur error <= sup|f| * tail.
    """
    from .specfun import _unit_rule

    _check_rule_args(beta, s, q, eps_tail)
    nodes, weights, cut = _unit_rule(beta.beta, q, eps_tail)
    return QuadratureRule(
        nodes=nodes * s ** (1.0 / beta.beta),
        weights=weights,
        tail_mass=cut,
    )
