"""The interaction (nonlinear) solver: a Picard fixed point of the
push-forward representation.

The linear solver (``transport``) evaluates mu_t = integral of
Phi_s # mu_0 against h_beta(s, t) ds directly.  With an interaction
field v[mu](x) = sum_j w_j K(x - y_j) the flow Phi depends on the
solution itself, so the same formula is read as a sweep map F from an
iterate path on the lookup grid to its image (``_sweep_map``).  An
iterate is mu0 plus one stack of the grid measures after it, all of one
size (q_h * mu0.size in an image).  F's velocity at internal time s is the
interaction field of the path average sum_q w_q mu_{r_q}, the g-rule of
s (``transport._GRule.lookups``) looking up the iterate: the field is
linear in the measure, so this is its g-average.  Each grid measure gets
the summed g-weights whose real times look it up (``_segment_masses``).

The fixed point is found by Anderson-mixed Picard iteration
(``_picard``), first on a coarse RK4 schedule and then on the fine one,
and the iteration stops on a certified upper bound of the
bounded-Lipschitz distance between an iterate and its image of the fine
map, from pairing their particles by index (``_coupling_bound``).

The stage schedule, the RK4 stepper, the node walk and the h-rule
mixture's index order are the linear solver's.  ``_advect_segment`` is called through
the ``transport`` module, so that a wrapper set on
``transport._advect_segment`` sees the Picard sweeps too.  The only
special function read here is the stable survival function of the
freezing term; the g-rule comes through ``transport`` and ``rules``.
"""

from __future__ import annotations

import math
import time as _time

import numpy as np

from . import transport
from .errors import PicardConvergenceError
from .measures import EmpiricalMeasure, MeasurePath, total_mass
from .specfun import _stable_sf
from .subordinator import FracOrder
from .transport import (
    SolverConfig,
    _check_step,
    _flow_nodes,
    _flow_schedule,
    _GRule,
    _h_rules,
    _node_walk,
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


class InteractionField:
    """Interaction field v[mu](x) = sum_j w_j K(x - y_j).

    ``kernel`` maps (..., d) displacements to (..., d) velocities.  The
    induced field inherits bound V0 * mass(mu) and is Lipschitz in both
    arguments.
    """

    def __init__(self, kernel, bound: float, lip: float):
        self.kernel, self.bound, self.lip = kernel, bound, lip

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
    ``rows`` is the rule at s = stage_times[k] (Python floats,
    nondecreasing, >= 0) looked up on ``grid`` (``_GRule.lookups``,
    right-continuous, frozen at the end) as (cells, weights): the grid index
    and the weight of each node of nonzero weight, in node order, so at
    most q_g entries.  ``_path_average`` sums a cell's weights in node
    order (a bincount), bitwise the bincount of the rule on its own.  A
    stage whose cells and weights equal the stage before's shares its row,
    so ``index`` is a nondecreasing intp array.
    """
    times, weights = g_rule.lookups(stage_times)
    cells = np.maximum(np.searchsorted(grid, times, side="right") - 1, 0)
    new = np.append(True, np.any((cells[1:] != cells[:-1]) | (weights[1:] != weights[:-1]), axis=1))
    rows = [(c[w > 0.0], w[w > 0.0]) for c, w in zip(cells[new], weights[new])]
    return rows, np.cumsum(new) - 1


def _path_average(mu0: EmpiricalMeasure, points: np.ndarray, weights: np.ndarray, cells, masses):
    """Raw (points, weights) of the path average sum_j m_j mu_j of the
    iterate mu0, ``points``, ``weights`` (the stack of the grid measures
    after mu0) for a row (cells, masses) of ``_segment_masses``, m_j the
    summed masses of the cells j: the atoms of the hit measures in grid
    order, atom i of measure j with weight m_j w_i.  Atoms whose weight is
    0 (an underflowing product) are dropped."""
    m = np.bincount(cells, masses)
    hit = np.flatnonzero(m[1:])
    pts = points[hit].reshape(-1, mu0.dim)
    wts = (m[1:][hit, None] * weights[hit]).ravel()
    if m[0]:
        pts, wts = np.concatenate([mu0.points, pts]), np.concatenate([m[0] * mu0.weights, wts])
    keep = wts > 0.0
    return pts[keep], wts[keep]


def freezing_tail_probability(beta: FracOrder, s: np.ndarray, horizon: float) -> np.ndarray:
    """P(D_s > horizon) at each internal time s: weight of path lookups
    frozen at the end."""
    if beta.is_classical:
        return np.where(s <= horizon, 0.0, 1.0)
    return _stable_sf(beta, horizon * s ** (-1.0 / beta.beta))


# ---------------------------------------------------------------------------
# The coupling bound and the lookup grid
# ---------------------------------------------------------------------------


def _residual(x: np.ndarray, f: np.ndarray) -> np.ndarray:
    """f - x for position stacks x (G, P, d) and f (G, M, d), M a multiple
    of P, pairing particle k of f with particle k mod P of x at each grid
    time: the pairing of ``_coupling_bound``."""
    with np.errstate(over="ignore"):  # _coupling_bounds caps the distances
        if x.shape[1] == f.shape[1]:
            return f - x
        return (f.reshape(f.shape[0], -1, *x.shape[1:]) - x[:, None]).reshape(f.shape)


def _coupling_bounds(r: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Per grid time, sum_k w_k 2 r_k / (2 + r_k) over the atoms, for the
    paired displacements ``r`` (G, M, d) of ``_residual`` and the (G, M)
    weights ``w`` of the image: ``_coupling_bound`` of each pair."""
    # past about 1e154 apart the squares overflow and r reads inf; capped
    # at 1e300, such a pair's term is exactly 2, as 2r / (2 + r) is for
    # every r >= 2^54, and no smaller r changes
    with np.errstate(over="ignore"):
        r = np.minimum(np.linalg.norm(r, axis=-1), 1e300)
    return np.sum(w * (2.0 * r / (2.0 + r)), axis=-1)


def _coupling_bound(mu: EmpiricalMeasure, nu: EmpiricalMeasure) -> float:
    """Upper bound on d_BL(mu, nu) from pairing particle k of nu with
    particle k mod mu.size of mu; nu's weights are the coupling, so the
    blocks of each mu particle must sum to its weight.  A test function
    with ||f||_inf + Lip(f) <= 1 moves a pair at distance r by at most
    2r / (2 + r), which bounds d_BL by sum_k w_k 2 r_k / (2 + r_k) (Villani,
    Optimal Transport: Old and New, 2009, Ch. 6).  Exact for two Diracs.
    """
    return float(_coupling_bounds(_residual(mu.points[None], nu.points[None]), nu.weights[None])[0])


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
    """The Picard sweep map F: an iterate, the grid measures after mu0 as
    (G - 1, P, d) positions and (G - 1, P) weights, -> the positions of mu0
    pushed along the g-averaged interaction field that it induces, one
    push-forward mixture per h-rule in ``_h_mixture``'s index order.  The
    image weights are the same in every sweep: the map's ``weights``.

    Every sweep walks the same RK4 stages (``_flow_schedule``, whose step
    bound is the one that ``_check_step`` guards, v.lip * max(mass, 1)) and
    looks up the same grid, so the segment masses are tabulated here, once
    (``_segment_masses``).  Each RK4 stage evaluates the field on the raw
    arrays of its row's path average (``_path_average``, the hit blocks of
    the iterate gathered), with one kernel call.  The stages come in
    nondecreasing order, so a one-slot cache builds each row's path
    average once per sweep and holds one at a time.  The map's
    ``rk4_steps`` attribute holds the RK4 steps of one sweep.
    """
    lip = v.lip * max(total_mass(mu0), 1.0)
    _check_step(config.ode_step, lip)
    nodes = _flow_nodes(h_rules)
    times, steps = _flow_schedule(nodes, h_rules, config.ode_step, lip)
    rows, index = _segment_masses(g_rule, grid, times)
    blocks = np.searchsorted(nodes, h_rules[0])

    def sweep(points: np.ndarray, weights: np.ndarray) -> np.ndarray:
        cached = [-1, None]  # row and path average of the last stage

        def vel(x, k):
            row = index[k]
            if row != cached[0]:
                cached[:] = row, _path_average(mu0, points, weights, *rows[row])
            # the field is linear in the measure: one kernel call on the
            # path average instead of one per g-node
            return v.field(x, *cached[1])

        advance = lambda x, j: transport._advect_segment(vel, x, steps[j])
        at_node = np.array([p for p, _ in _node_walk(advance, mu0, None, nodes)])
        return at_node[blocks].reshape(len(blocks), -1, mu0.dim)

    image = np.multiply.outer(h_rules[1], mu0.weights).ravel()
    sweep.weights = np.broadcast_to(image, (len(blocks), image.size))
    sweep.rk4_steps = sum(map(len, steps))
    return sweep


def _mixing_weight(dr: np.ndarray, r: np.ndarray, w: np.ndarray):
    """Depth-1 Anderson weight <dr, r>_w / <dr, dr>_w for the (..., d)
    residual difference ``dr`` and residual ``r``, each coordinate weighted
    by its atom's weight ``w`` (..., 1); None when <dr, dr>_w is 0 or not
    finite, or the weight overflows.  np.sum, not a BLAS dot, so the
    weight does not depend on the thread count."""
    wdr = w * dr
    with np.errstate(over="ignore", invalid="ignore"):
        norm = float(np.sum(wdr * dr))
        gamma = float(np.sum(wdr * r)) / norm if 0.0 < norm < math.inf else math.nan
    return gamma if math.isfinite(gamma) else None


def _picard(sweep, start, config: SolverConfig):
    """Fixed point of the sweep map F from the iterate ``start``, a
    (points, weights) stack as F takes: (F(X_k), log) for the first X_k
    whose ``_coupling_bounds`` against F(X_k), the largest over the grid,
    is below ``picard_tol`` (mu0, in every iterate, adds a bound of 0), or
    for the last one after ``picard_max_iters`` sweeps; the caller reads
    the last bound in the log to tell the two apart.  The output is an
    image of F, a true push-forward mixture, so its mass is exact whatever
    the mixing did.

    The iterates after ``start`` hold F's weights, and the residual
    r_k = F(X_k) - X_k pairs ``start`` as ``_coupling_bound`` does
    (``_residual``).  The next iterate is the depth-1 Anderson mix (Walker &
    Ni, SIAM J. Numer. Anal. 49 (2011) 1715-1735)

        X_{k+1} = F_k - gamma_k (F_k - F_{k-1}),
        gamma_k = <r_k - r_{k-1}, r_k>_w / <r_k - r_{k-1}, r_k - r_{k-1}>_w,

    with the inner product weighted per coordinate by the atom weights.
    The first step, and every step whose bound did not fall below the one
    before or whose residual difference is 0, is the plain one,
    X_{k+1} = F_k; such a step drops the older pair, so the next mix pairs
    with this sweep.  The log holds one dict per evaluation of F: sweep,
    coupling_bound, wall_time.
    """
    (x, w), log = start, []
    f_prev = r_prev = None  # image and residual of the last sweep
    bound_prev = math.inf
    for n in range(1, config.picard_max_iters + 1):
        t0 = _time.perf_counter()
        f = sweep(x, w)
        r = _residual(x, f)
        bound = float(np.max(_coupling_bounds(r, sweep.weights)))
        log.append({"sweep": n, "coupling_bound": bound, "wall_time": _time.perf_counter() - t0})
        if bound < config.picard_tol:
            break
        gamma = None
        if r_prev is not None and bound < bound_prev:
            gamma = _mixing_weight(r - r_prev, r, sweep.weights[..., None])
        x, w = (f if gamma is None else f - gamma * (f - f_prev)), sweep.weights
        f_prev, r_prev, bound_prev = f, r, bound
    return (f, sweep.weights), log


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
    iterate path.  Images of F are index-aligned (``transport._h_mixture``
    order), so ``_coupling_bounds`` certifies an upper bound on the d_BL
    between an iterate and its image in O(N), and the driver (``_picard``)
    mixes the positions of consecutive images (depth-1 Anderson) and stops
    when the sup of that bound over the grid drops below ``picard_tol``.

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
    start = (np.broadcast_to(mu0.points, (grid.size - 1, mu0.size, mu0.dim)),
             np.broadcast_to(mu0.weights, (grid.size - 1, mu0.size)))
    fine = _sweep_map(v, mu0, g_rule, h_rules, grid, config)
    coarse_step = min(_COARSE_FACTOR * config.ode_step, 1.0 / lip if lip > 0.0 else math.inf)
    coarse = _sweep_map(v, mu0, g_rule, h_rules, grid, config.replace(ode_step=coarse_step))
    coarse_log = []
    if coarse.rk4_steps <= _COARSE_MAX_SHARE * fine.rk4_steps:
        image, coarse_log = _picard(coarse, start, config)
        if math.isfinite(coarse_log[-1]["coupling_bound"]):
            start = image
    (points, weights), log = _picard(fine, start, config)
    bound = log[-1]["coupling_bound"]
    if not bound < config.picard_tol:
        raise PicardConvergenceError(
            f"no convergence after {config.picard_max_iters} sweeps "
            f"(last coupling bound {bound:.3e}, tol {config.picard_tol:.3e})",
            log,
        )

    keep = [0] + [int(np.searchsorted(grid, t)) for t in config.times]
    measures = [mu0] + [EmpiricalMeasure(points=points[k - 1], weights=weights[k - 1]) for k in keep[1:]]
    out = MeasurePath(times=grid[keep], measures=measures)
    h_nodes, h_weights = h_rules
    freeze = max(float(np.sum(h_weights * freezing_tail_probability(beta, h_nodes[k - 1], horizon)))
                 for k in keep[1:])
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
