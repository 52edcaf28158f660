"""Special functions of the random internal clock.

Evaluates the Mittag-Leffler function, the one-sided stable density
G_beta (law of the unit-time subordinator), the rescaled subordinator
density g_beta(s, t), the inverse-subordinator density h_beta(s, t), and
builds quadrature rules for integrals against g_beta and h_beta.

Evaluation strategy for G_beta: the convergent inverse-power series for
arguments >= 1 and the Zolotarev angular-integral representation below 1
(the switchover was cross-validated against the beta = 1/2 closed form,
where G is an inverse-Gaussian-type Levy density).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import TailMassError

__all__ = [
    "FracOrder",
    "KernelTarget",
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


class KernelTarget(enum.Enum):
    H_KERNEL = "h"  # inverse-subordinator density h_beta(., t)
    G_KERNEL = "g"  # subordinator density g_beta(., t)


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes and weights for an integral against h_beta or g_beta.

    ``integrate(f)`` approximates the kernel-weighted integral of f over
    (0, inf); the probability mass beyond the last node is recorded in
    ``tail_mass``.
    """

    nodes: np.ndarray
    weights: np.ndarray
    tail_mass: float
    target: KernelTarget
    beta: FracOrder
    time: float

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


# ---------------------------------------------------------------------------
# Mittag-Leffler function
# ---------------------------------------------------------------------------

#: series is used when the predicted peak term stays below this magnitude
_ML_SERIES_PEAK = 1e3
_ML_MAX_TERMS = 400


def _ml_series(beta: float, z: float) -> float:
    total = 1.0
    log_az = math.log(abs(z))
    for k in range(1, _ML_MAX_TERMS):
        term = math.exp(k * log_az - math.lgamma(beta * k + 1.0))
        if z < 0 and k % 2 == 1:
            term = -term
        total += term
        if abs(term) < 1e-17 * max(1.0, abs(total)):
            return total
    raise RuntimeError("Mittag-Leffler series did not converge")


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


def _ml_integral(beta: float, z: float) -> float:
    from scipy import integrate

    # Hankel branch-cut representation; substitution u = r**beta makes the
    # integrand smooth at the origin:
    #   E(z) = [z > 0] * exp(z**(1/beta)) / beta
    #          - (z sin(pi beta) / (pi beta)) *
    #            int_0^inf exp(-u**(1/beta)) / (u^2 - 2 z u cos(pi beta) + z^2) du
    cos_pb = math.cos(math.pi * beta)
    sin_pb = math.sin(math.pi * beta)
    # exp(-u**(1/beta)) is exactly 0.0 past this point, where u**(1/beta)
    # itself may overflow
    u_zero = 750.0**beta

    def integrand(u):
        if u > u_zero:
            return 0.0
        return math.exp(-(u ** (1.0 / beta))) / (u * u - 2.0 * z * u * cos_pb + z * z)

    points = [abs(z)] if abs(z) > 0 else None
    # split the half line at the denominator minimum for the adaptive routine
    upper = max(10.0, (2 * abs(z)) ** 1.0, 800.0 ** beta)
    val, _ = integrate.quad(
        integrand, 0.0, upper, points=points, limit=400, epsabs=1e-300, epsrel=1e-13
    )
    val += integrate.quad(integrand, upper, np.inf, limit=200, epsabs=1e-300, epsrel=1e-13)[0]
    result = -z * sin_pb / (math.pi * beta) * val
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
        return _ml_series(b, z)
    return _ml_integral(b, z)


# ---------------------------------------------------------------------------
# One-sided stable density and CDF
# ---------------------------------------------------------------------------

_STABLE_SERIES_MIN_X = 1.0
_STABLE_MAX_TERMS = 400


def _check_stable_args(beta: FracOrder, x: float) -> float:
    b = beta.beta
    if b >= 1.0:
        raise ValueError("stable density requires beta strictly below 1")
    if x <= 0.0:
        raise ValueError(f"stable density is supported on (0, inf), got x = {x}")
    return b


def _stable_series(b: float, x: float) -> float:
    # convergent inverse-power series, alternating in k
    lx = math.log(x)
    total = 0.0
    for k in range(1, _STABLE_MAX_TERMS):
        sin_k = math.sin(math.pi * b * k)
        term = math.exp(math.lgamma(b * k + 1.0) - math.lgamma(k + 1.0) - (b * k + 1.0) * lx)
        contrib = ((-1.0) ** (k + 1)) * term * sin_k / math.pi
        total += contrib
        if term < 1e-18 * max(abs(total), 1e-300):
            break
    return max(total, 0.0)


def _stable_sf_series(b: float, x: float) -> float:
    # termwise-integrated tail of the density series
    lx = math.log(x)
    total = 0.0
    for k in range(1, _STABLE_MAX_TERMS):
        sin_k = math.sin(math.pi * b * k)
        term = math.exp(math.lgamma(b * k) - math.lgamma(k + 1.0) - b * k * lx)
        total += ((-1.0) ** (k + 1)) * term * sin_k / math.pi
        if term < 1e-18 * max(abs(total), 1e-300):
            break
    return min(max(total, 0.0), 1.0)


def _zolotarev_a(phi: np.ndarray, b: float) -> np.ndarray:
    # angular function of the Zolotarev representation, increasing on (0, pi)
    s = np.sin(phi)
    return (
        np.sin(b * phi) ** (b / (1.0 - b))
        * np.sin((1.0 - b) * phi)
        / s ** (1.0 / (1.0 - b))
    )


def _zolotarev_a0(b: float) -> float:
    return b ** (b / (1.0 - b)) * (1.0 - b)


def _stable_zolotarev_pdf(b: float, x: float) -> float:
    from scipy import integrate

    lam = x ** (-b / (1.0 - b))
    if lam * _zolotarev_a0(b) > 740.0:
        return 0.0  # below the floating-point floor; essential zero at 0+

    def integrand(phi):
        a = float(_zolotarev_a(np.asarray(phi), b))
        e = lam * a
        return 0.0 if e > 740.0 else a * math.exp(-e)

    val, _ = integrate.quad(integrand, 0.0, math.pi, limit=300, epsabs=1e-300, epsrel=1e-12)
    return b / (1.0 - b) / math.pi * x ** (-1.0 / (1.0 - b)) * val


def _stable_zolotarev_cdf(b: float, x: float) -> float:
    from scipy import integrate

    lam = x ** (-b / (1.0 - b))
    if lam * _zolotarev_a0(b) > 740.0:
        return 0.0

    def integrand(phi):
        e = lam * float(_zolotarev_a(np.asarray(phi), b))
        return 0.0 if e > 740.0 else math.exp(-e)

    val, _ = integrate.quad(integrand, 0.0, math.pi, limit=300, epsabs=1e-300, epsrel=1e-12)
    return val / math.pi


def stable_density(beta: FracOrder, x: float) -> float:
    """Density of the unit-time beta-stable subordinator at x > 0."""
    b = _check_stable_args(beta, x)
    if x >= _STABLE_SERIES_MIN_X:
        return _stable_series(b, x)
    return _stable_zolotarev_pdf(b, x)


def stable_cdf(beta: FracOrder, x: float) -> float:
    """P(D_1 <= x) for the unit-time subordinator."""
    b = _check_stable_args(beta, x)
    if x >= _STABLE_SERIES_MIN_X:
        return 1.0 - _stable_sf_series(b, x)
    return _stable_zolotarev_cdf(b, x)


def _stable_sf(beta: FracOrder, x: float) -> float:
    b = _check_stable_args(beta, x)
    if x >= _STABLE_SERIES_MIN_X:
        return _stable_sf_series(b, x)
    return 1.0 - _stable_zolotarev_cdf(b, x)


# ---------------------------------------------------------------------------
# Subordinator and inverse-subordinator kernels
# ---------------------------------------------------------------------------


def subordinator_density(beta: FracOrder, s: float, t: float) -> float:
    """g_beta(s, t): density of D_t, by self-similar rescaling of G_beta."""
    if s <= 0.0 or t <= 0.0:
        raise ValueError("subordinator density requires s > 0 and t > 0")
    scale = t ** (1.0 / beta.beta)
    return stable_density(beta, s / scale) / scale


def inverse_subordinator_density(beta: FracOrder, s: float, t: float) -> float:
    """h_beta(s, t): density of the inverse process E_t; right limit at s = 0."""
    b = beta.beta
    if t <= 0.0:
        raise ValueError("inverse subordinator density requires t > 0")
    if s < 0.0:
        raise ValueError("inverse subordinator density requires s >= 0")
    if b >= 1.0:
        raise ValueError("inverse subordinator density requires beta strictly below 1")
    if s == 0.0:
        return t ** (-b) / math.gamma(1.0 - b)
    return (t / b) * s ** (-1.0 - 1.0 / b) * stable_density(beta, s ** (-1.0 / b) * t)


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


def _unit_pdf(beta: FracOrder, target: KernelTarget, s: float) -> float:
    if target is KernelTarget.H_KERNEL:
        return inverse_subordinator_density(beta, s, 1.0)
    return stable_density(beta, s)


def _unit_sf(beta: FracOrder, target: KernelTarget, s: float) -> float:
    if target is KernelTarget.H_KERNEL:
        # P(E_1 > s) = P(D_s < 1): evaluate the stable CDF directly so the
        # deep tail keeps full relative accuracy (no 1 - (1 - cdf) round trip)
        return stable_cdf(beta, s ** (-1.0 / beta.beta))
    return _stable_sf(beta, s)


def _unit_quantile_sf(beta: FracOrder, target: KernelTarget, w: float) -> float:
    """s with survival(s) = w, solved on a logarithmic bracket."""
    from scipy import optimize

    def obj(ls):
        sf = _unit_sf(beta, target, math.exp(ls))
        if sf <= 0.0:
            return -700.0 - math.log(w)
        return math.log(sf) - math.log(w)

    lo, hi = -40.0, 1.0
    lhi_cap = math.log(S_MAX_CAP)
    while obj(hi) > 0.0:
        hi = min(hi + 2.0, lhi_cap)
        if hi >= lhi_cap and obj(hi) > 0.0:
            raise TailMassError(
                f"tail-mass target {w} unreachable below the horizon cap {S_MAX_CAP}"
            )
    while obj(lo) < 0.0:
        lo -= 5.0
        if lo < -600.0:  # pragma: no cover - defensive
            raise TailMassError("quantile bracket collapsed")
    return math.exp(optimize.brentq(obj, lo, hi, xtol=1e-14, rtol=1e-14))


def _allocate(q: int, n_panels: int) -> list[int]:
    base = q // n_panels
    rem = q - base * n_panels
    counts = [base + (1 if i < rem else 0) for i in range(n_panels)]
    return counts


@lru_cache(maxsize=64)
def _unit_rule(beta_value: float, target: KernelTarget, q: int, eps_tail: float):
    """Composite Gauss-Legendre rule for the unit-time kernel.

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
        idx = np.unique(
            np.linspace(0, len(survivals) - 1, n_panels + 1).round().astype(int)
        )
        survivals = [survivals[i] for i in idx]
        n_panels = len(survivals) - 1
    edges = [0.0] + [_unit_quantile_sf(beta, target, w) for w in survivals[1:]]
    counts = _allocate(q, n_panels)
    nodes, weights = [], []
    for (a, b), (wa, wb), n in zip(
        zip(edges[:-1], edges[1:]), zip(survivals[:-1], survivals[1:]), counts
    ):
        x, v = np.polynomial.legendre.leggauss(n)
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
        pdf = np.array([_unit_pdf(beta, target, si) for si in s])
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


def h_quadrature(beta: FracOrder, t: float, q: int, eps_tail: float) -> QuadratureRule:
    """Rule for integrals against h_beta(., t).

    Built once at unit time and rescaled by t**beta (self-similarity of the
    inverse clock), so rules at different times share their weights.
    """
    _check_rule_args(beta, t, q, eps_tail)
    nodes, weights, cut = _unit_rule(beta.beta, KernelTarget.H_KERNEL, q, eps_tail)
    return QuadratureRule(
        nodes=nodes * t**beta.beta,
        weights=weights,
        tail_mass=cut,
        target=KernelTarget.H_KERNEL,
        beta=beta,
        time=t,
    )


def g_quadrature(beta: FracOrder, s: float, q: int, eps_tail: float) -> QuadratureRule:
    """Rule for integrals against g_beta(., s); nodes rescale by s**(1/beta).

    The subordinator has no finite mean for beta < 1, so only total-mass
    control is guaranteed; bounded integrands incur error <= sup|f| * tail.
    """
    _check_rule_args(beta, s, q, eps_tail)
    nodes, weights, cut = _unit_rule(beta.beta, KernelTarget.G_KERNEL, q, eps_tail)
    return QuadratureRule(
        nodes=nodes * s ** (1.0 / beta.beta),
        weights=weights,
        tail_mass=cut,
        target=KernelTarget.G_KERNEL,
        beta=beta,
        time=s,
    )
