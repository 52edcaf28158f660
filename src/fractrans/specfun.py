"""Special functions of the random internal clock.

Evaluates the Mittag-Leffler function, the one-sided stable density
G_beta (law of the unit-time subordinator), the rescaled subordinator
density g_beta(s, t) and the inverse-subordinator density h_beta(s, t),
and builds the composite unit-time rule for g_beta (``_unit_rule``).

The rules themselves are built in ``rules``: ``g_quadrature`` rescales
``_unit_rule``, and ``h_quadrature``, the Gauss rule of the unit clock
E_1, evaluates no special function, so a solve with an autonomous field
compiles ``rules`` and not this module.  ``FracOrder``, Kanter's map and
the Zolotarev angular function are defined in ``subordinator``, so the
clock sampler, and with it ``fractrans sample``, runs without compiling
this module either.  ``FracOrder`` and the rules are imported here
(``specfun.FracOrder`` and ``specfun.h_quadrature`` still resolve), with
the Gauss-Legendre panels that the integrals below share with the rules.

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
from functools import lru_cache

import numpy as np

from .errors import TailMassError
from .rules import QuadratureRule, _gauss_legendre, _panel_nodes, _sorted_unique, g_quadrature, h_quadrature
from .subordinator import FracOrder, _log_zolotarev_a

__all__ = [
    "mittag_leffler",
    "stable_density",
    "stable_cdf",
    "subordinator_density",
    "inverse_subordinator_density",
    "inverse_subordinator_cdf",
    "inverse_moment_coeff",
]

#: hard cap on the internal-time horizon of any quadrature rule
S_MAX_CAP = 1e40

_EPS = np.finfo(float).eps
_TINY = np.finfo(float).tiny


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
# The composite unit-time rule of g_beta (``rules.g_quadrature``)
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
