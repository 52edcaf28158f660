"""Special functions of the random internal clock.

Evaluates the Mittag-Leffler function, the one-sided stable density
G_beta (law of the unit-time subordinator), the rescaled subordinator
density g_beta(s, t), the inverse-subordinator density h_beta(s, t), and
builds quadrature rules for integrals against them: a composite rule for
g_beta, and for h_beta the Gauss rule of the unit clock E_1, planned on a
product rule over Kanter's representation of E_1.

Everything runs on numpy, with fixed-node integrals and no adaptive
routine.  Gauss-Legendre nodes and weights come from Golub-Welsch, the
eigen-decomposition of the Legendre Jacobi matrix by ``np.linalg.eigh``,
so ``numpy.polynomial`` is never imported.

- G_beta and its CDF: the convergent inverse-power series for arguments
  >= 1, and below 1 the Zolotarev angular integrals over (0, pi), each a
  composite Gauss-Legendre rule on panels cut where lam * a(phi) crosses
  lam * a(0) + {1/4, 1, 3, 8, 20, 45, 100} (Nolan 1997).  The cuts are
  read off a fixed phi grid by interpolation, so no root is solved.  Both
  branches take arrays; a scalar in gives a float out.  The switchover
  was cross-validated against the beta = 1/2 closed form, where G is an
  inverse-Gaussian-type Levy density.
- Mittag-Leffler: the power series where it does not cancel and
  converges within its term cap, else the Hankel branch-cut integral on
  Gauss-Legendre panels whose edges follow the decay of exp(-u^(1/beta))
  and the near-pole of the denominator at |u| = |z|.
- Rule edges (quantiles at fixed survival levels): a safeguarded
  Newton/bisection in log s, on all levels at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import TailMassError

__all__ = [
    "FracOrder",
    "QuadratureRule",
    "mittag_leffler",
    "stable_density",
    "stable_cdf",
    "subordinator_density",
    "inverse_subordinator_density",
    "inverse_subordinator_cdf",
    "inverse_moment_coeff",
    "h_quadrature",
    "g_quadrature",
]

#: normalization tolerance for quadrature rules (sum of weights + tail vs 1)
TOL_NORM = 1e-8

#: hard cap on the internal-time horizon of any quadrature rule
S_MAX_CAP = 1e40

_EPS = np.finfo(float).eps
_TINY = np.finfo(float).tiny


@dataclass(frozen=True)
class FracOrder:
    """Fractional order beta in (0, 1]; beta = 1 is the classical regime."""

    beta: float

    def __post_init__(self):
        if not (0.0 < self.beta <= 1.0):
            raise ValueError(f"fractional order must lie in (0, 1], got {self.beta}")

    @property
    def is_classical(self) -> bool:
        return self.beta == 1.0


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes and weights for an integral against h_beta or g_beta, as built
    by ``h_quadrature`` or ``g_quadrature``.

    ``integrate(f)`` approximates the kernel-weighted integral of f over
    (0, inf).  ``tail_mass`` is the probability mass the rule leaves out:
    beyond the last node of a composite g-rule, and 0 for the Gauss h-rule,
    whose weights sum to 1.
    """

    nodes: np.ndarray
    weights: np.ndarray
    tail_mass: float

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        weights = np.asarray(self.weights, dtype=float)
        nodes.setflags(write=False)
        weights.setflags(write=False)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)
        if nodes.shape != weights.shape or nodes.ndim != 1:
            raise ValueError("nodes and weights must be 1-D arrays of equal length")
        if np.any(np.diff(nodes) <= 0):
            raise ValueError("quadrature nodes must be strictly increasing")
        if np.any(weights < 0):
            raise ValueError("quadrature weights must be nonnegative")
        if self.tail_mass < 0:
            raise ValueError("tail mass must be nonnegative")
        total = float(weights.sum()) + self.tail_mass
        if not (1.0 - TOL_NORM <= total <= 1.0 + TOL_NORM):
            raise ValueError(
                f"weights + tail mass = {total!r} outside normalization tolerance"
            )

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
# Mittag-Leffler function
# ---------------------------------------------------------------------------

#: series is used when the predicted peak term stays below this magnitude
_ML_SERIES_PEAK = 1e3
_ML_MAX_TERMS = 400


def _ml_series(beta: float, z: float) -> float | None:
    """The power series, or None when its terms do not fall below 1e-17 of
    the partial sum within ``_ML_MAX_TERMS``: near |z| = 1 at beta <= 0.04
    they decay like 1 / Gamma(1 + beta k)."""
    total = 1.0
    log_az = math.log(abs(z))
    for k in range(1, _ML_MAX_TERMS):
        term = math.exp(k * log_az - math.lgamma(beta * k + 1.0))
        if z < 0 and k % 2 == 1:
            term = -term
        total += term
        if abs(term) < 1e-17 * max(1.0, abs(total)):
            return total
    return None


def _ml_series_peak(beta: float, z: float) -> float:
    """Estimated magnitude of the largest series term (cancellation guard).

    inf, which selects the integral, when the peak index is out of the
    floating-point range.
    """
    az = abs(z)
    if az <= 1.0:
        return 1.0
    try:
        k_peak = az ** (1.0 / beta) / beta
        log_peak = k_peak * math.log(az) - math.lgamma(beta * k_peak + 1.0)
    except OverflowError:
        return math.inf
    return math.exp(min(log_peak, 700.0))


#: r = u**(1/beta) at the panel edges of the Hankel integral: exp(-r) is
#: resolved on a dyadic grid, graded toward the u**(1/beta) cusp at 0
_ML_R_EDGES = 2.0 ** np.arange(-40, 10)
#: exp(-r) is exactly 0.0 past r = 750, where the integral is cut
_ML_R_MAX = 750.0
#: panel edges around the denominator's near-pole at |u| = |z|, in log u
#: and in units of the pole's angle off the positive axis
_ML_POLE_EDGES = np.array([-8.0, -4.0, -2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0, 4.0, 8.0])
_ML_NODES = 16


def _ml_integral(beta: float, z: float) -> float:
    # Hankel branch-cut representation:
    #   E(z) = [z > 0] * exp(z**(1/beta)) / beta
    #          - (sin(pi beta) / (pi beta z)) *
    #            int_0^inf exp(-u**(1/beta)) / ((u/z)^2 - 2 (u/z) cos(pi beta) + 1) du
    # (scaled by z^2 so that z^2 cannot overflow).  The denominator's zeros
    # sit at |u| = |z|, pole_angle off the positive axis.  Gauss-Legendre
    # panels from 0 to the cut, with edges on both scales: adjacent edges
    # are at most a factor 2**beta apart.
    cos_pb = math.cos(math.pi * beta)
    sin_pb = math.sin(math.pi * beta)
    pole_angle = math.pi * (1.0 - beta) if z < 0 else math.pi * beta
    log_u_max = beta * math.log(_ML_R_MAX)
    log_edges = np.concatenate(
        [beta * np.log(_ML_R_EDGES), math.log(abs(z)) + pole_angle * _ML_POLE_EDGES]
    )
    log_edges = _sorted_unique(np.append(log_edges[log_edges < log_u_max], log_u_max))
    u, w = _panel_nodes(np.concatenate([[0.0], np.exp(log_edges)]), _ML_NODES)
    v = u / z
    val = float(np.sum(w * np.exp(-(u ** (1.0 / beta))) / (v * v - 2.0 * v * cos_pb + 1.0)))
    result = -sin_pb / (math.pi * beta * z) * val
    if z > 0:
        exponent = z ** (1.0 / beta)
        if exponent > 700.0:
            raise OverflowError(
                f"Mittag-Leffler({beta}, {z}) exceeds the floating-point range"
            )
        result += math.exp(exponent) / beta
    return result


def mittag_leffler(beta: FracOrder, z: float) -> float:
    """One-parameter Mittag-Leffler function at a real argument."""
    if not math.isfinite(z):
        raise ValueError("argument must be finite")
    b = beta.beta
    if z == 0.0:
        return 1.0
    if b == 1.0:
        if z > 709.0:
            raise OverflowError(f"exp({z}) exceeds the floating-point range")
        return math.exp(z)
    if _ml_series_peak(b, z) <= _ML_SERIES_PEAK:
        value = _ml_series(b, z)
        if value is not None:
            return value
    return _ml_integral(b, z)


# ---------------------------------------------------------------------------
# One-sided stable density and CDF
# ---------------------------------------------------------------------------

_STABLE_SERIES_MIN_X = 1.0
_STABLE_MAX_TERMS = 400
#: rows of the series table evaluated at once, which bounds its memory
_STABLE_SERIES_BLOCK = 256


def _check_stable_args(beta: FracOrder, x) -> float:
    b = beta.beta
    if b >= 1.0:
        raise ValueError("stable density requires beta strictly below 1")
    if np.any(np.asarray(x) <= 0.0):
        raise ValueError(f"stable density is supported on (0, inf), got x = {np.min(x)}")
    return b


@lru_cache(maxsize=64)
def _stable_series_table(b: float, sf: bool):
    """Log-magnitude, power of 1/x and signed factor of the terms
    k = 1, 2, ... of the density series, or with ``sf`` of its termwise
    integrated tail."""
    k = np.arange(1, _STABLE_MAX_TERMS, dtype=float)
    shift = 0.0 if sf else 1.0
    log_mag = np.array([math.lgamma(b * j + shift) - math.lgamma(j + 1.0) for j in k])
    sign = np.where(k % 2 == 1.0, 1.0, -1.0) * np.sin(np.pi * b * k) / np.pi
    return log_mag, b * k + shift, sign


def _stable_series(b: float, x: np.ndarray, sf: bool = False) -> np.ndarray:
    """Convergent inverse-power series at x >= 1, alternating in k: the
    density, or with ``sf`` the survival function.  Each x sums its terms
    in order and stops at the first below 1e-18 of its partial sum."""
    log_mag, power, sign = _stable_series_table(b, sf)
    out = np.empty(x.shape)
    for i in range(0, x.size, _STABLE_SERIES_BLOCK):
        lx = np.log(x[i : i + _STABLE_SERIES_BLOCK])[:, None]
        term = np.exp(log_mag - power * lx)
        total = np.cumsum(term * sign, axis=1)
        done = term < 1e-18 * np.maximum(np.abs(total), 1e-300)
        stop = np.where(done.any(axis=1), done.argmax(axis=1), total.shape[1] - 1)
        out[i : i + _STABLE_SERIES_BLOCK] = total[np.arange(stop.size), stop]
    out = np.maximum(out, 0.0)
    return np.minimum(out, 1.0) if sf else out


def _log_zolotarev_a(phi: np.ndarray, b: float) -> np.ndarray:
    # log of the angular function of the Zolotarev representation,
    # increasing on (0, pi); summed in place, because the stable sampler
    # passes all its draws at once and each temporary is one more array
    out = np.log(np.sin(b * phi))
    out *= b / (1.0 - b)
    out += np.log(np.sin((1.0 - b) * phi))
    out -= np.log(np.sin(phi)) / (1.0 - b)
    return out


def _zolotarev_a0(b: float) -> float:
    return b ** (b / (1.0 - b)) * (1.0 - b)


#: lam * (a(phi) - a(0)) at the panel cuts of the Zolotarev integrals
_ZOLOTAREV_LEVELS = np.array([0.25, 1.0, 3.0, 8.0, 20.0, 45.0, 100.0])
_ZOLOTAREV_NODES = 20
#: the fixed grid on which the cuts are read off
_ZOLOTAREV_GRID = np.pi * np.arange(512) / 512.0


@lru_cache(maxsize=64)
def _zolotarev_cut_grid(b: float) -> np.ndarray:
    """sqrt(a(phi) - a(0)) on the fixed grid, made nondecreasing.  The
    square root is linear in phi near 0, where the cuts of large lam sit,
    so interpolating in it places those cuts well."""
    a = np.exp(np.minimum(_log_zolotarev_a(_ZOLOTAREV_GRID[1:], b), 700.0))
    rise = np.maximum.accumulate(np.maximum(a - _zolotarev_a0(b), 0.0))
    root = np.concatenate([[0.0], np.sqrt(rise)])
    root.setflags(write=False)
    return root


def _stable_zolotarev(b: float, x: np.ndarray):
    """Density and CDF at x in (0, 1) from the Zolotarev integrals
    int_0^pi a e^(-lam a) dphi and int_0^pi e^(-lam a) dphi, lam =
    x^(-b/(1-b)).  Each is a 20-point Gauss-Legendre rule on the eight
    panels between the cuts; both are 0 where lam * a(0) > 740, below the
    floating-point floor (essential zero at 0+)."""
    a0 = _zolotarev_a0(b)
    pdf, cdf = np.zeros(x.shape), np.zeros(x.shape)
    live = x >= (740.0 / a0) ** (-(1.0 - b) / b)
    x = x[live]
    lam = x ** (-b / (1.0 - b))
    cuts = np.interp(
        np.sqrt(_ZOLOTAREV_LEVELS / lam[:, None]),
        _zolotarev_cut_grid(b), _ZOLOTAREV_GRID, right=math.pi,
    )
    edges = np.concatenate(
        [np.zeros((x.size, 1)), cuts, np.full((x.size, 1), math.pi)], axis=1
    )
    phi, w = _panel_nodes(edges, _ZOLOTAREV_NODES)
    a = np.exp(np.minimum(_log_zolotarev_a(phi, b), 700.0))
    decay = w * np.exp(-lam[:, None] * a)
    pdf[live] = b / (1.0 - b) / math.pi * x ** (-1.0 / (1.0 - b)) * np.sum(a * decay, axis=1)
    cdf[live] = np.sum(decay, axis=1) / math.pi
    return pdf, cdf


def _stable_eval(beta: FracOrder, x, series, zolotarev):
    """Evaluate on the series branch at x >= 1 and the Zolotarev branch
    below; a scalar x gives a float."""
    b = _check_stable_args(beta, x)
    xa = np.asarray(x, dtype=float)
    flat = xa.reshape(-1)
    out = np.empty(flat.shape)
    tail = flat >= _STABLE_SERIES_MIN_X
    for mask, branch in ((tail, series), (~tail, zolotarev)):
        if mask.any():
            out[mask] = branch(b, flat[mask])
    return float(out[0]) if xa.ndim == 0 else out.reshape(xa.shape)


def stable_density(beta: FracOrder, x):
    """Density of the unit-time beta-stable subordinator at x > 0 (scalar
    or array)."""
    return _stable_eval(
        beta, x, _stable_series, lambda b, y: _stable_zolotarev(b, y)[0]
    )


def stable_cdf(beta: FracOrder, x):
    """P(D_1 <= x) for the unit-time subordinator (scalar or array)."""
    return _stable_eval(
        beta, x,
        lambda b, y: 1.0 - _stable_series(b, y, sf=True),
        lambda b, y: _stable_zolotarev(b, y)[1],
    )


def _stable_sf(beta: FracOrder, x):
    return _stable_eval(
        beta, x,
        lambda b, y: _stable_series(b, y, sf=True),
        lambda b, y: 1.0 - _stable_zolotarev(b, y)[1],
    )


# ---------------------------------------------------------------------------
# Kanter's representation of the unit clock
# ---------------------------------------------------------------------------


def _log_kanter_clock(b: float, u, log_w):
    """log E_1 by Kanter's representation (Ann. Probab. 3 (1975) 697-707):
    with U uniform on (0, pi) and W unit exponential,

        E_1 = D_1^(-b) = (W / a(U))^(1-b)
            = W^(1-b) sin U / (sin(b U)^b sin((1-b) U)^(1-b)),

    a the angular function of the Zolotarev integrals.  ``u`` and ``log_w``
    broadcast together."""
    return (1.0 - b) * (log_w - _log_zolotarev_a(u, b))


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
# Subordinator and inverse-subordinator kernels
# ---------------------------------------------------------------------------


def subordinator_density(beta: FracOrder, s: float, t: float) -> float:
    """g_beta(s, t): density of D_t, by self-similar rescaling of G_beta."""
    if s <= 0.0 or t <= 0.0:
        raise ValueError("subordinator density requires s > 0 and t > 0")
    scale = t ** (1.0 / beta.beta)
    return stable_density(beta, s / scale) / scale


def inverse_subordinator_density(beta: FracOrder, s, t):
    """h_beta(s, t): density of the inverse process E_t; right limit at s = 0.

    ``s`` and ``t`` are scalars or arrays (broadcast together); an array is
    evaluated elementwise, bit for bit as the scalar calls would be, and two
    scalars give a float.
    """
    b = beta.beta
    s, t = np.broadcast_arrays(np.asarray(s, dtype=float), np.asarray(t, dtype=float))
    if np.any(t <= 0.0):
        raise ValueError("inverse subordinator density requires t > 0")
    if np.any(s < 0.0):
        raise ValueError("inverse subordinator density requires s >= 0")
    if b >= 1.0:
        raise ValueError("inverse subordinator density requires beta strictly below 1")
    flat_s, flat_t = s.reshape(-1), t.reshape(-1)
    out = np.empty(flat_s.shape)
    zero = flat_s == 0.0
    out[zero] = flat_t[zero] ** (-b) / math.gamma(1.0 - b)
    sp, tp = flat_s[~zero], flat_t[~zero]
    out[~zero] = (tp / b) * sp ** (-1.0 - 1.0 / b) * stable_density(beta, sp ** (-1.0 / b) * tp)
    return float(out[0]) if s.ndim == 0 else out.reshape(s.shape)


def inverse_subordinator_cdf(beta: FracOrder, s: float, t: float) -> float:
    """P(E_t <= s), via the first-passage duality with the subordinator."""
    if t <= 0.0:
        raise ValueError("requires t > 0")
    if s < 0.0:
        raise ValueError("requires s >= 0")
    if s == 0.0:
        return 0.0
    # {E_t <= s} = {D_s >= t}, and D_s ~ s^{1/beta} D_1
    return _stable_sf(beta, t * s ** (-1.0 / beta.beta))


def inverse_moment_coeff(beta: FracOrder, gamma: float) -> float:
    """Coefficient C(beta, gamma) in E[E_t^gamma] = C(beta, gamma) t^(gamma beta)."""
    if gamma <= 0.0:
        raise ValueError(f"moment order must be positive, got {gamma}")
    return math.exp(math.lgamma(gamma + 1.0) - math.lgamma(gamma * beta.beta + 1.0))


# ---------------------------------------------------------------------------
# Quadrature rules
# ---------------------------------------------------------------------------

# survival levels delimiting the panels of the composite unit-time rule
_PANEL_SURVIVALS = (
    1.0, 0.75, 0.5, 0.25, 0.1, 3e-2, 1e-2, 1e-3, 1e-4, 1e-6,
    1e-8, 1e-10, 1e-12, 1e-14, 1e-16,
)


#: iteration cap of the quantile solve; bisection alone needs about 60
_QUANTILE_MAX_ITER = 200


def _unit_quantile_sf(beta: FracOrder, w: np.ndarray) -> np.ndarray:
    """s with P(D_1 > s) = w, for every level w at once.

    Safeguarded Newton in log s (Numerical Recipes' rtsafe): a bisection
    step whenever the Newton step leaves the closed bracket (a converged
    step can land exactly on the end it just set) or fails to halve the
    step before last.  The bracket is [top(k - 1), top(k)], where
    top(k) = min(1 + 2k, log(S_MAX_CAP)) and k is the least index with the
    survival at top(k) at or below the level ([-40, 1] at k = 0).  The
    search for k starts at the tail asymptote s = (w Gamma(1 - beta))^(-1/beta)
    of P(D_1 > s) ~ s^-beta / Gamma(1 - beta), near which the deep levels
    lie: the brackets, and so the quantiles, are bit for bit those of a walk
    up from k = 0, in a few survival evaluations instead of one per step.
    """
    log_w = np.log(w)

    def excess(ls, lw):
        # log survival minus log target, and its slope in log s
        s = np.exp(ls)
        sf = np.maximum(_stable_sf(beta, s), _TINY)
        return np.log(sf) - lw, -s * stable_density(beta, s) / sf

    lhi_cap = math.log(S_MAX_CAP)
    k_cap = math.ceil((lhi_cap - 1.0) / 2.0)

    def top(k):
        return np.minimum(1.0 + 2.0 * k, lhi_cap)

    log_s = -(log_w + math.lgamma(1.0 - beta.beta)) / beta.beta
    k = np.clip(np.ceil((log_s - 1.0) / 2.0), 0.0, k_cap)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        # a level above top(k) walks up to the first top below it; one
        # below walks down while the top under it is below too
        up = excess(top(k), log_w)[0] > 0.0
        live = np.flatnonzero(up | (k > 0.0))
        while live.size:
            capped = live[up[live] & (k[live] >= k_cap)]
            if capped.size:
                raise TailMassError(
                    f"tail-mass target {w[capped[0]]} unreachable below the horizon "
                    f"cap {S_MAX_CAP}"
                )
            probe = k[live] + np.where(up[live], 1.0, -1.0)
            above = excess(top(probe), log_w[live])[0] > 0.0
            move = up[live] | ~above
            k[live[move]] = probe[move]
            live = live[np.where(up[live], above, ~above & (probe > 0.0))]
        hi = top(k)
        lo = np.where(k > 0.0, top(k - 1.0), -40.0)

        x = hi.copy()
        step = hi - lo
        before = step.copy()
        live = np.arange(w.size)
        for _ in range(_QUANTILE_MAX_ITER):
            f, slope = excess(x[live], log_w[live])
            lo[live] = np.where(f > 0.0, x[live], lo[live])
            hi[live] = np.where(f < 0.0, x[live], hi[live])
            newton = x[live] - f / slope
            bisect = ~((newton >= lo[live]) & (newton <= hi[live])) | (
                np.abs(2.0 * f) > np.abs(before[live] * slope)
            )
            new = np.where(bisect, 0.5 * (lo[live] + hi[live]), newton)
            before[live] = step[live]
            step[live] = np.abs(new - x[live])
            x[live] = new
            live = live[step[live] > 4.0 * _EPS * (1.0 + np.abs(new))]
            if not live.size:
                break
    return np.exp(x)


def _allocate(q: int, n_panels: int) -> list[int]:
    base = q // n_panels
    rem = q - base * n_panels
    counts = [base + (1 if i < rem else 0) for i in range(n_panels)]
    return counts


@lru_cache(maxsize=64)
def _unit_rule(beta_value: float, q: int, eps_tail: float):
    """Composite Gauss-Legendre rule for the unit-time subordinator density.

    Panels are delimited by quantiles at fixed survival levels so the node
    density follows the probability mass; wide panels (heavy subordinator
    tail) are integrated in log coordinates.  Panel weights are rescaled to
    the exact probability mass of the panel, so the normalization holds to
    machine precision; the actual truncation point sits below the requested
    eps_tail with margin, keeping truncated moment contributions well under
    the tail budget.
    """
    beta = FracOrder(beta_value)
    cut = 0.05 * eps_tail
    survivals = [w for w in _PANEL_SURVIVALS if w > cut] + [cut]
    n_panels = min(len(survivals) - 1, max(1, q // 4))
    if n_panels < len(survivals) - 1:
        # q too small for the full panel set: keep a coarse geometric subset
        idx = sorted(set(np.linspace(0, len(survivals) - 1, n_panels + 1).round().astype(int)))
        survivals = [survivals[i] for i in idx]
        n_panels = len(survivals) - 1
    edges = [0.0] + _unit_quantile_sf(beta, np.array(survivals[1:])).tolist()
    counts = _allocate(q, n_panels)
    nodes, weights = [], []
    for (a, b), (wa, wb), n in zip(
        zip(edges[:-1], edges[1:]), zip(survivals[:-1], survivals[1:]), counts
    ):
        x, v = _gauss_legendre(n)
        if a > 0.0 and b / a > 8.0:
            # log-space panel: s = exp(y), extra Jacobian factor s
            ya, yb = math.log(a), math.log(b)
            mid, half = 0.5 * (ya + yb), 0.5 * (yb - ya)
            s = np.exp(mid + half * x)
            w_gl = v * half * s
        else:
            mid, half = 0.5 * (a + b), 0.5 * (b - a)
            s = mid + half * x
            w_gl = v * half
        pdf = stable_density(beta, s)
        panel_w = w_gl * pdf
        mass_exact = wa - wb
        mass_gl = float(panel_w.sum())
        # guard against catastrophic density-evaluation failure; coarse
        # rules may misplace mass by a modest factor, which the exact-mass
        # rescaling below absorbs (only total mass is guaranteed anyway)
        if not (1e-3 * mass_exact <= mass_gl <= 1e3 * mass_exact):
            raise TailMassError(
                f"panel mass {mass_gl:.3e} far from exact {mass_exact:.3e} "
                f"(beta={beta_value}, q={q}, panel=[{a:.3g},{b:.3g}])"
            )
        nodes.append(s)
        weights.append(panel_w * (mass_exact / mass_gl))
    nodes = np.concatenate(nodes)
    weights = np.concatenate(weights)
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights, cut


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

    The subordinator has no finite mean for beta < 1, so only total-mass
    control is guaranteed; bounded integrands incur error <= sup|f| * tail.
    """
    _check_rule_args(beta, s, q, eps_tail)
    nodes, weights, cut = _unit_rule(beta.beta, q, eps_tail)
    return QuadratureRule(
        nodes=nodes * s ** (1.0 / beta.beta),
        weights=weights,
        tail_mass=cut,
    )
