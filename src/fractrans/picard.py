"""The interaction (nonlinear) solver: a Picard fixed point of the
push-forward representation.

The linear solver (``transport``) evaluates mu_t = integral of
Phi_s # mu_0 against h_beta(s, t) ds directly.  With an interaction
field v[mu](x) = sum_j w_j K(x - y_j) the flow Phi depends on the
solution itself, so the same formula is read as a sweep map F from an
iterate path to its image (``_sweep_map``).  F's velocity at internal
time s is the interaction field of the path average
sum_q w_q mu_{r_q}, the g-rule of s (``transport._GRule``) looking up
the iterate: the field is linear in the measure, so this is its
g-average.  The path average weights each recorded measure by a segment
mass, the g-weight whose real time looks it up; the stage times and the
lookup grid are the same in every sweep, so the masses are tabulated once
per sweep map, every stage's row with equal neighbours merged
(``_segment_masses``), and a sweep builds each row's path average once.

The fixed point is found by Anderson-mixed Picard iteration
(``_picard``), first on a coarse RK4 schedule and then on the fine one,
and the iteration stops on a certified upper bound of the
bounded-Lipschitz distance between an iterate and its image of the fine
map, from pairing their particles by index (``_coupling_bound``).

The stage schedule, the RK4 stepper and the push-forward mixture are the
linear solver's.  ``_advect_segment`` is called through the ``transport``
module, so that a wrapper set on ``transport._advect_segment`` sees the
Picard sweeps too.  The only special function read here is the stable
survival function of the freezing term; the g-rule comes through
``transport`` and ``rules``.
"""

from __future__ import annotations

import math
import time as _time
from dataclasses import dataclass, replace

import numpy as np

from . import transport
from .errors import PicardConvergenceError
from .measures import EmpiricalMeasure, MeasurePath, total_mass
from .specfun import _stable_sf
from .subordinator import FracOrder
from .transport import (
    SolverConfig,
    _average_push_forwards,
    _check_step,
    _flow_nodes,
    _flow_schedule,
    _GRule,
    _h_rules,
)

__all__ = [
    "InteractionField",
    "attraction_field",
    "repulsion_field",
    "freezing_tail_probability",
    "solve_nonlinear",
]


# ---------------------------------------------------------------------------
# Interaction fields
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class InteractionField:
    """Interaction field v[mu](x) = sum_j w_j K(x - y_j).

    ``kernel`` maps (..., d) displacements to (..., d) velocities.  The
    induced field inherits bound V0 * mass(mu) and is Lipschitz in both
    arguments.
    """

    kernel: object
    bound: float
    lip: float

    def field(self, x, points, weights) -> np.ndarray:
        """v[mu](x) for mu = sum_j weights_j delta_{points_j}, given as raw
        arrays: float (n, d) positions x, (M, d) points and (M,) weights.
        Nothing is built or converted per evaluation, so ``kernel`` must map
        float (..., d) displacements to a float (..., d) array; it gets the
        fresh (n, M, d) displacements and may overwrite them."""
        if weights.size == 0:
            return np.zeros_like(x)
        return np.einsum("j,njd->nd", weights, self.kernel(x[:, None, :] - points[None, :, :]))

    def induced(self, mu: EmpiricalMeasure):
        """Velocity function x -> v[mu](x) for a frozen measure; x is any
        array-like of positions, a 1-D one being a single point."""
        return lambda x: self.field(np.atleast_2d(np.asarray(x, dtype=float)), mu.points, mu.weights)


def attraction_field() -> InteractionField:
    """K(z) = -z: linear aggregation toward the center of mass (1-Lipschitz)."""
    return InteractionField(kernel=lambda z: -z, bound=math.inf, lip=1.0)


def repulsion_field() -> InteractionField:
    """K(z) = z / (1 + |z|^2): bounded repulsion from nearby mass."""

    def kernel(z):
        # in 1-D, |z|^2 is z * z itself; in d >= 2 the d columns are summed
        # in place, left to right as (z * z).sum(axis=-1) adds them, with
        # no length-d inner loop; z is the field's fresh displacement
        # array, divided in place
        if z.shape[-1] == 1:
            r2 = z * z
        else:
            r2 = np.square(z[..., :1])
            for k in range(1, z.shape[-1]):
                r2 += np.square(z[..., k : k + 1])
        r2 += 1.0
        z /= r2
        return z

    return InteractionField(kernel=kernel, bound=0.5, lip=1.0)


# ---------------------------------------------------------------------------
# Segment masses and the path average
# ---------------------------------------------------------------------------


def _segment_masses(g_rule, grid: np.ndarray, stage_times: list):
    """(rows, index) of the ``transport._GRule`` ``g_rule``: row index[k] of
    ``rows`` holds, for each grid time t_j, the summed weights of the nodes
    of the rule at s = stage_times[k] (Python floats, nondecreasing, >= 0)
    that look up t_j, piecewise constant (right-continuous, frozen at the
    end).

    One bincount over the (stages x q_g) lookups builds every stage's row,
    adding each bin's weights in node order, and a row equal to the one
    before it is merged into it: no two consecutive rows are equal and
    ``index`` is a nondecreasing intp array.  The point rule at s = 0 is
    the row of lookups 0 * node = s with weights (1, 0, ..., 0): the
    normalized g-weights need not sum to exactly 1.0.  The scale
    s^(1/beta) is the Python-float power of ``_GRule.__call__``, so every
    row is bitwise the bincount of the rule at s on its own.
    """
    s = np.array(stage_times, dtype=float)
    scale = np.array([x ** g_rule.power for x in stage_times])
    cell = np.searchsorted(grid, np.multiply.outer(scale, g_rule.nodes), side="right") - 1
    np.maximum(cell, 0, out=cell)
    cell += grid.size * np.arange(s.size)[:, None]
    point = np.zeros(g_rule.weights.size)
    point[0] = 1.0
    weights = np.where(s[:, None] > 0.0, g_rule.weights, point)
    masses = np.bincount(cell.ravel(), weights.ravel(), minlength=s.size * grid.size)
    masses = masses.reshape(s.size, grid.size)
    new = np.ones(s.size, dtype=bool)
    new[1:] = np.any(masses[1:] != masses[:-1], axis=1)
    return masses[new], np.cumsum(new) - 1


def _path_average(path: MeasurePath, m: np.ndarray):
    """Raw (points, weights) of the path average sum_j m[j] mu_j for
    segment masses ``m`` on the path's grid (a row of
    ``_segment_masses``): the atoms of the hit measures in path
    order, atom i of measure j with weight m[j] w_i.  Atoms whose weight is
    0 (an underflowing product) are dropped."""
    hit = np.flatnonzero(m)
    points = np.concatenate([path.measures[j].points for j in hit])
    weights = np.concatenate([m[j] * path.measures[j].weights for j in hit])
    keep = weights > 0.0
    return points[keep], weights[keep]


def freezing_tail_probability(beta: FracOrder, s: np.ndarray, horizon: float) -> np.ndarray:
    """P(D_s > horizon) at each internal time s: weight of path lookups
    frozen at the end."""
    if beta.is_classical:
        return np.where(s <= horizon, 0.0, 1.0)
    return _stable_sf(beta, horizon * s ** (-1.0 / beta.beta))


# ---------------------------------------------------------------------------
# The coupling bound and the lookup grid
# ---------------------------------------------------------------------------


def _paired_points(mu: EmpiricalMeasure, n: int) -> np.ndarray:
    """Positions of mu in the pairing of ``_coupling_bound``: row k is
    particle k mod mu.size, for k < n."""
    return mu.points if mu.size == n else mu.points[np.arange(n) % mu.size]


def _coupling_bound(mu: EmpiricalMeasure, nu: EmpiricalMeasure) -> float:
    """Upper bound on d_BL(mu, nu) from pairing particle k of nu with
    particle k mod mu.size of mu; nu's weights are the coupling, so the
    blocks of each mu particle must sum to its weight.  A test function
    with ||f||_inf + Lip(f) <= 1 moves a pair at distance r by at most
    2r / (2 + r), which bounds d_BL by sum_k w_k 2 r_k / (2 + r_k) (Villani,
    Optimal Transport: Old and New, 2009, Ch. 6).  Exact for two Diracs.
    """
    # past about 1e154 apart the squares overflow and r reads inf; capped
    # at 1e300, such a pair's term is exactly 2, as 2r / (2 + r) is for
    # every r >= 2^54, and no smaller r changes
    with np.errstate(over="ignore"):
        r = np.minimum(np.linalg.norm(nu.points - _paired_points(mu, nu.size), axis=1), 1e300)
    return float(np.sum(nu.weights * (2.0 * r / (2.0 + r))))


def _grid_with_extension(config: SolverConfig) -> np.ndarray:
    """Output times plus 0, extended to end exactly at ``t_ext``: steps of
    the finest output spacing, the last one between 1/2 and 3/2 of it."""
    times = [0.0] + list(config.times)
    if config.t_ext and config.t_ext > times[-1]:
        step = min(np.diff(times).min(), config.t_ext - times[-1])
        extra = np.arange(times[-1] + step, config.t_ext - 0.5 * step, step)
        times = times + [float(t) for t in extra] + [config.t_ext]
    return np.asarray(times)


# ---------------------------------------------------------------------------
# The sweep map and its Picard fixed point
# ---------------------------------------------------------------------------


def _sweep_map(v: InteractionField, mu0: EmpiricalMeasure, g_rule, h_rules, grid, config: SolverConfig):
    """The Picard sweep map F: an iterate path on ``grid`` -> the path of
    mu0 pushed along the g-averaged interaction field that the iterate
    induces, mu0 at time 0 and one push-forward mixture per h-rule.

    Every sweep walks the same RK4 stages (``_flow_schedule``, whose step
    bound is the one that ``_check_step`` guards, v.lip * max(mass, 1)) and
    looks up the same grid, so the segment masses of each stage's g-rule are
    tabulated here, once, every stage's row with equal neighbours merged
    (``_segment_masses``).  Each RK4 stage evaluates the field on the raw
    arrays of its row's path average (``_path_average``, the hit measures
    of the iterate concatenated), with one kernel call.  The stages come in
    nondecreasing order, so a one-slot cache builds each distinct path
    average once per sweep and holds one at a time.  The map's
    ``rk4_steps`` attribute holds the RK4 steps of one sweep.
    """
    lip = v.lip * max(total_mass(mu0), 1.0)
    _check_step(config.ode_step, lip)
    nodes = _flow_nodes(h_rules)
    times, steps = _flow_schedule(nodes, h_rules, config.ode_step, lip)
    rows, index = _segment_masses(g_rule, grid, times)

    def sweep(path: MeasurePath) -> MeasurePath:
        cached = [-1, None]  # row and path average of the last stage

        def vel(x, k):
            row = index[k]
            if row != cached[0]:
                cached[:] = row, _path_average(path, rows[row])
            # the field is linear in the measure: one kernel call on the
            # path average instead of one per g-node
            return v.field(x, *cached[1])

        advance = lambda x, j: transport._advect_segment(vel, x, steps[j])
        measures = _average_push_forwards(advance, mu0, None, h_rules, nodes)
        return MeasurePath(times=grid, measures=[mu0] + measures)

    sweep.rk4_steps = sum(map(len, steps))
    return sweep


def _moved(path: MeasurePath, points: np.ndarray) -> MeasurePath:
    """``path`` with the particles of its measures after the first at the
    stacked ``points``, in path order, and their weights kept."""
    parts = np.split(points, np.cumsum([mu.size for mu in path.measures[1:-1]]))
    moved = [EmpiricalMeasure(points=p, weights=mu.weights) for p, mu in zip(parts, path.measures[1:])]
    return MeasurePath(times=path.times, measures=path.measures[:1] + moved)


def _mixing_weight(dr: np.ndarray, r: np.ndarray, w: np.ndarray):
    """Depth-1 Anderson weight <dr, r>_w / <dr, dr>_w for the (P, d)
    residual difference ``dr`` and residual ``r``, each coordinate weighted
    by its atom's weight ``w`` (P, 1); None when <dr, dr>_w is 0 or not
    finite, or the weight overflows.  np.sum, not a BLAS dot, so the
    weight does not depend on the thread count."""
    wdr = w * dr
    with np.errstate(over="ignore", invalid="ignore"):
        norm = float(np.sum(wdr * dr))
        gamma = float(np.sum(wdr * r)) / norm if 0.0 < norm < math.inf else math.nan
    return gamma if math.isfinite(gamma) else None


def _picard(sweep, start: MeasurePath, config: SolverConfig):
    """Fixed point of the sweep map F from the iterate ``start``:
    (F(X_k), log) for the first iterate X_k with
    sup over the grid of ``_coupling_bound(X_k, F(X_k))`` below
    ``picard_tol``, or for the last one after ``picard_max_iters`` sweeps;
    the caller reads the last bound in the log to tell the two apart.  The
    output is an image of F, a true push-forward mixture, so its mass is
    exact whatever the mixing did.

    The iterates after ``start`` are stacked positions in the index order
    of F's images, with F's fixed weights, and the residual
    r_k = F(X_k) - X_k pairs ``start`` as ``_coupling_bound`` does.  The
    next iterate is the depth-1 Anderson mix (Walker & Ni, SIAM J. Numer.
    Anal. 49 (2011) 1715-1735)

        X_{k+1} = F_k - gamma_k (F_k - F_{k-1}),
        gamma_k = <r_k - r_{k-1}, r_k>_w / <r_k - r_{k-1}, r_k - r_{k-1}>_w,

    with the inner product weighted per coordinate by the atom weights.
    The first step, and every step whose bound did not fall below the one
    before or whose residual difference is 0, is the plain one,
    X_{k+1} = F_k; such a step drops the older pair, so the next mix pairs
    with this sweep.  The log holds one dict per evaluation of F: sweep,
    coupling_bound, wall_time.
    """
    x, log = start, []
    f_prev = r_prev = None  # stacked image and residual of the last sweep
    bound_prev = math.inf
    for n in range(1, config.picard_max_iters + 1):
        t0 = _time.perf_counter()
        image = sweep(x)
        bound = max(_coupling_bound(a, b) for a, b in zip(x.measures, image.measures))
        log.append({"sweep": n, "coupling_bound": bound, "wall_time": _time.perf_counter() - t0})
        if bound < config.picard_tol:
            break
        f = np.concatenate([mu.points for mu in image.measures[1:]])
        paired = [_paired_points(a, b.size) for a, b in zip(x.measures[1:], image.measures[1:])]
        r = f - np.concatenate(paired)
        gamma = None
        if r_prev is not None and bound < bound_prev:
            w = np.concatenate([mu.weights for mu in image.measures[1:]])[:, None]
            gamma = _mixing_weight(r - r_prev, r, w)
        x = image if gamma is None else _moved(image, f - gamma * (f - f_prev))
        f_prev, r_prev, bound_prev = f, r, bound
    return image, log


#: the coarse Picard level steps this many times ``ode_step`` (capped by
#: 1/Lip); 4 and 8 saved less, and 32 or more sometimes cost a second fine
#: sweep
_COARSE_FACTOR = 16
#: the coarse level runs only if its sweep takes at most this share of a
#: fine sweep's RK4 steps (1/Lip caps the steps of both)
_COARSE_MAX_SHARE = 0.5


def _contraction_estimate(*logs):
    """Bound ratio b_2 / b_1 of the first log that has two sweeps: the first
    step of a Picard level is the plain X_1 = F(X_0), so b_2 <= rho b_1 for
    a map contracting by rho.  None with no such log or a ratio >= 1."""
    for log in logs:
        if len(log) >= 2:
            rho = log[1]["coupling_bound"] / log[0]["coupling_bound"]
            return rho if rho < 1.0 else None
    return None


def solve_nonlinear(
    beta: FracOrder, v: InteractionField, mu0: EmpiricalMeasure, config: SolverConfig
) -> MeasurePath:
    """Interaction problem as a fixed point of the representation map.

    The sweep map F (``_sweep_map``) solves the auxiliary linear problem
    whose velocity is the g-averaged interaction field induced by an
    iterate path.  Images of F are index-aligned (see
    ``_average_push_forwards``), so ``_coupling_bound`` certifies an upper
    bound on the d_BL between an iterate and its image in O(N), and the
    driver (``_picard``) mixes the stacked positions of consecutive images
    (depth-1 Anderson) and stops when the sup of that bound over the grid
    drops below ``picard_tol``.

    The fixed point is reached on two levels (nested iteration: Hackbusch,
    Multi-Grid Methods and Applications, 1985, Ch. 5).  The coarse level is
    the same map with ``ode_step`` replaced by
    min(_COARSE_FACTOR * ode_step, 1/Lip), Lip = v.lip * max(mass, 1) the
    constant ``_check_step`` guards; it starts from the constant-in-time
    path mu0, paired with the images as mu0 split by rule weight, and runs
    the same driver to the same ``picard_tol``.  The fine level, F itself,
    starts from the coarse level's last image (coarse and fine images share
    mu0 and the h-rules, so they are index-aligned), and usually certifies
    it in one or two sweeps.  A coarse level that does not converge raises
    nothing: the fine level starts from its last image, or from mu0 if that
    image's bound is not finite.  The coarse level is skipped where 1/Lip
    caps the steps so that a coarse sweep would take more than
    _COARSE_MAX_SHARE of a fine sweep's RK4 steps.  The output is an
    image of F whose iterate is within ``picard_tol``, so mass is exact.

    The diagnostics hold the fine level's iteration log (one dict per
    evaluation of F: sweep, coupling_bound, wall_time), ``sweeps``, the
    number of evaluations of F, ``rk4_steps``, the RK4 steps of one
    evaluation, ``coarse_sweeps`` and ``coarse_rk4_steps``, the same for the
    coarse level (both 0 when it is skipped), two estimates and the
    freezing term.  ``contraction_estimate`` is the bound ratio rho of the
    first two sweeps of the coarse level, or of the fine one when the
    coarse level took fewer, and ``fixed_point_distance_estimate`` is
    rho / (1 - rho) times the final bound; both are None with no such pair
    or with rho >= 1.  The freezing term is the h-weighted probability
    sum_q w_q P(D_{s_q} > horizon) of a lookup past the horizon, worst
    over the output times, times 2 * bound * mass for a bounded kernel.
    PicardConvergenceError carries the fine level's log.
    """
    grid = _grid_with_extension(config)
    horizon = float(grid[-1])
    g_rule = _GRule(beta, config)
    h_rules = _h_rules(beta, grid[1:], config)
    mass = total_mass(mu0)
    lip = v.lip * max(mass, 1.0)
    start = MeasurePath(times=grid, measures=[mu0] * grid.size)
    fine = _sweep_map(v, mu0, g_rule, h_rules, grid, config)
    coarse_step = min(_COARSE_FACTOR * config.ode_step, 1.0 / lip if lip > 0.0 else math.inf)
    coarse = _sweep_map(v, mu0, g_rule, h_rules, grid, replace(config, ode_step=coarse_step))
    coarse_log = []
    if coarse.rk4_steps <= _COARSE_MAX_SHARE * fine.rk4_steps:
        image, coarse_log = _picard(coarse, start, config)
        if math.isfinite(coarse_log[-1]["coupling_bound"]):
            start = image
    current, log = _picard(fine, start, config)
    bound = log[-1]["coupling_bound"]
    if not bound < config.picard_tol:
        raise PicardConvergenceError(
            f"no convergence after {config.picard_max_iters} sweeps "
            f"(last coupling bound {bound:.3e}, tol {config.picard_tol:.3e})",
            log,
        )

    keep = [0] + [int(np.searchsorted(grid, t)) for t in config.times]
    out = MeasurePath(
        times=grid[keep],
        measures=[current.measures[k] for k in keep],
    )
    freeze = max(
        float(np.sum(w * freezing_tail_probability(beta, s, horizon)))
        for s, w in (h_rules[k - 1] for k in keep[1:])
    )
    rho = _contraction_estimate(coarse_log, log)
    out.diagnostics.update(
        {
            "picard_log": log,
            "sweeps": len(log),
            "rk4_steps": fine.rk4_steps,
            "coarse_sweeps": len(coarse_log),
            "coarse_rk4_steps": coarse.rk4_steps if coarse_log else 0,
            "contraction_estimate": rho,
            "fixed_point_distance_estimate": None if rho is None else rho / (1.0 - rho) * bound,
            "freezing_tail_probability": 2.0 * v.bound * mass * freeze
            if math.isfinite(v.bound)
            else freeze,
        }
    )
    return out
