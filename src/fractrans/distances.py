"""Distances between measures on the line.

The dual bounded-Lipschitz distance, exact by a chain dynamic program
inside a cutting-plane search, and the Wasserstein-1 distance, by the
CDF area formula.  No solver reads them (the Picard solver stops on a
coupling upper bound, ``picard._coupling_bound``): ``verify`` and the
tests compare measures with them, so a solve compiles neither.
"""

from __future__ import annotations

import numpy as np

from .errors import MassMismatchError
from .measures import EmpiricalMeasure, total_mass

__all__ = ["bl_distance", "w1_distance_1d"]

#: relative tolerance on total-mass equality required by w1_distance_1d
W1_MASS_TOL = 1e-12


def _signed_line(mu: EmpiricalMeasure, nu: EmpiricalMeasure, name: str):
    """Union support of two measures on the line, sorted (stably), with the
    signed weights of mu - nu; ValueError unless both are one-dimensional."""
    if mu.dim != 1 or nu.dim != 1:
        raise ValueError(f"{name} requires one-dimensional measures")
    x = np.concatenate([mu.points.ravel(), nu.points.ravel()])
    w = np.concatenate([mu.weights, -nu.weights])
    order = np.argsort(x, kind="stable")
    return x[order], w[order]


#: (u, l) coefficients of the ends -u and u of the chain's domain
_LO, _HI = np.array([-1.0, 0.0]), np.array([1.0, 0.0])


def _chain_line(x, c, u: float, l: float) -> np.ndarray:
    """Line (A, B), V(u, l) = A u + B l, of the maximum V of sum_i c_i f_i
    over |f_i| <= u and |f_{i+1} - f_i| <= l (x_{i+1} - x_i), x sorted.

    On the line the Lipschitz bound of neighbours implies all the others.
    The value F of the first i atoms, as a function of f_i, is concave and
    piecewise linear.  Each atom takes its window max (the rising part
    moves left by l d, the rest right, flat in between), clips it to
    [-u, u] and adds c_i f.  Every breakpoint is s u + t l and is kept as
    (s, t), as is F(-u); the slopes are sums of the c_i.
    """
    ul = np.array([u, l])
    pos, slopes, left = np.array([_LO, _HI]), c[:1], c[0] * _LO
    for d, ci in zip(np.diff(x), c[1:]):
        m = np.count_nonzero(slopes > 0.0)
        shift = np.array([0.0, d])
        pos = np.concatenate([pos[: m + 1] - shift, pos[m:] + shift])
        slopes = np.concatenate([slopes[:m], [0.0], slopes[m:]])
        p = pos @ ul
        i0, i1 = int(np.searchsorted(p, -u, "right")), int(np.searchsorted(p, u, "left"))
        left = left + slopes[: i0 - 1] @ np.diff(pos[:i0], axis=0) + slopes[i0 - 1] * (_LO - pos[i0 - 1])
        pos = np.concatenate([[_LO], pos[i0:i1], [_HI]])
        slopes = slopes[i0 - 1 : i1] + ci
        left = left + ci * _LO
    rising = slopes > 0.0
    return left + slopes[rising] @ np.diff(pos, axis=0)[rising]


def bl_distance(mu: EmpiricalMeasure, nu: EmpiricalMeasure) -> float:
    """Dual bounded-Lipschitz distance between two measures on the line.

    The supremum of <mu - nu, f> over ||f||_inf + Lip(f) <= 1 is attained
    at a function determined by its values on the union support (McShane
    extension): it is the maximum over u + l = 1 of V(u, l) (``_chain_line``,
    c the signed weights of mu - nu at the merged atoms).  phi(u) =
    V(u, 1 - u) is concave and piecewise linear, and every line A u + B l
    from ``_chain_line`` bounds it from above.  Cutting planes start from
    the lines of two plans, deleting all mass and carrying all of it to
    the first atom; each pass evaluates phi where the lower of a rising
    and a falling line peaks, and replaces the line on its side until the
    value meets them.  ValueError unless both measures are one-dimensional.
    """
    x, w = _signed_line(mu, nu, "bl_distance")
    starts = np.flatnonzero(np.diff(x, prepend=-np.inf))
    c = np.add.reduceat(w, starts)
    x, c = x[starts][c != 0.0], c[c != 0.0]
    if x.size == 0:
        return 0.0
    tot, net = float(np.abs(c).sum()), float(c.sum())
    rise = (tot, 0.0)
    fall = (abs(net), float(np.diff(x) @ np.abs(net - np.cumsum(c)[:-1])))
    for _ in range(100):
        (ar, br), (af, bf) = rise, fall
        u = 1.0 if af >= bf else min(1.0, (bf - br) / ((ar - br) - (af - bf)))
        a, b = _chain_line(x, c, u, 1.0 - u)
        value = a * u + b * (1.0 - u)
        # a flat line is the top of phi; otherwise stop at the envelope, up
        # to the rounding of sums of |c|
        if a == b or value >= min(br + (ar - br) * u, bf + (af - bf) * u) - 1e-12 * tot:
            return max(0.0, float(value))
        if a > b:
            rise = (a, b)
        else:
            fall = (a, b)
    raise RuntimeError("bounded-Lipschitz cutting planes did not converge")  # pragma: no cover


def w1_distance_1d(mu: EmpiricalMeasure, nu: EmpiricalMeasure) -> float:
    """Wasserstein-1 distance on the line: area between the CDFs."""
    x, w = _signed_line(mu, nu, "w1_distance_1d")
    m_mu, m_nu = total_mass(mu), total_mass(nu)
    scale = max(m_mu, m_nu, 1.0)
    if abs(m_mu - m_nu) > W1_MASS_TOL * scale:
        raise MassMismatchError(
            f"total masses differ: {m_mu} vs {m_nu} (W1 needs balanced mass)"
        )
    cdf_diff = np.cumsum(w)[:-1]
    return float(np.sum(np.abs(cdf_diff) * np.diff(x)))
