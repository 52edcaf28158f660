"""Solvers for measure transport with a fractional (memory) time derivative.

The representation behind every solver: the solution at real time t is
the classical push-forward solution evaluated at a random internal time
and averaged against the inverse-subordinator density,

    mu_t = integral of Phi_s # mu_0 against h_beta(s, t) ds,

where the characteristic flow Phi uses the effective velocity, i.e. the
original field averaged against the subordinator density g_beta.  The
linear solver evaluates this directly on quadrature rules; the nonlinear
(interaction) solver runs a Picard fixed point on the same formula and
stops on a certified upper bound of the bounded-Lipschitz distance
between consecutive iterates, from pairing their particles by index; a
Monte Carlo solver samples the internal clock instead of integrating it
and serves as an independent oracle.

Every solver is built from three shared pieces: one g-rule map
s -> (real times, weights), whose two consumers are the field average
sum_q w_q v(x, r_q) and the path average sum_q w_q mu_{r_q}; one RK4
stepper; and one routine that advects mu0 (plus any injected source) over
the union of the h-rule nodes and mixes the node push-forwards.  An
explicit field marked autonomous (independent of t) skips the field
average: the g-rule weights sum to 1, so its g-average is the field
itself, evaluated once per RK4 stage instead of q_g times.  The
interaction field is linear in the measure, so its g-average is the field
induced by the path average; a Picard sweep stacks the previous iterate
into one lookup table, and per RK4 stage only the masses of its recorded
measures change.  beta = 1 needs no special case: the g- and h-rules
become point masses and the same code is classical transport.
"""

from __future__ import annotations

import math
import numbers
import time as _time
from dataclasses import dataclass

import numpy as np

from .errors import PicardConvergenceError
from .measures import (
    EmpiricalMeasure,
    MeasurePath,
    total_mass,
)
from .specfun import FracOrder, _stable_sf, g_quadrature, h_quadrature
from .subordinator import RngSpec, sample_inverse

__all__ = [
    "ExplicitField",
    "InteractionField",
    "attraction_field",
    "repulsion_field",
    "SolverConfig",
    "solve_linear",
    "solve_linear_mc",
    "solve_nonlinear",
    "solve_with_source",
]


# ---------------------------------------------------------------------------
# Velocity fields
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExplicitField:
    """Time-dependent field v(x, t): (N, d) positions -> (N, d) velocities.

    ``lip`` is the caller-supplied Lipschitz constant in x, read by the
    step-size guard.  ``autonomous`` declares that ``func`` ignores t; the
    solvers then use v itself as the effective velocity instead of its
    g-average (the g-rule weights sum to 1).  A func that does depend on t
    but is marked autonomous gives wrong answers, without any warning.
    """

    func: object
    lip: float
    autonomous: bool = False

    def __call__(self, x, t):
        x = np.atleast_2d(np.asarray(x, dtype=float))
        return np.asarray(self.func(x, t), dtype=float).reshape(x.shape)


@dataclass(frozen=True)
class InteractionField:
    """Interaction field v[mu](x) = sum_j w_j K(x - y_j).

    ``kernel`` maps an array of displacements to velocity vectors.  The
    induced field inherits bound V0 * mass(mu) and is Lipschitz in both
    arguments.
    """

    kernel: object
    bound: float
    lip: float

    def field(self, x, points, weights) -> np.ndarray:
        """v[mu](x) for mu = sum_j weights_j delta_{points_j}, given as raw
        (M, d) and (M,) arrays, so no measure is built per evaluation."""
        x = np.atleast_2d(np.asarray(x, dtype=float))
        if weights.size == 0:
            return np.zeros_like(x)
        disp = x[:, None, :] - points[None, :, :]
        k = np.asarray(self.kernel(disp.reshape(-1, x.shape[1])), dtype=float)
        k = k.reshape(x.shape[0], weights.size, x.shape[1])
        return np.einsum("j,njd->nd", weights, k)

    def induced(self, mu: EmpiricalMeasure):
        """Velocity function x -> v[mu](x) for a frozen measure."""
        return lambda x: self.field(x, mu.points, mu.weights)


def attraction_field(lip: float = 1.0) -> InteractionField:
    """K(z) = -z: linear aggregation toward the center of mass."""
    return InteractionField(kernel=lambda z: -z, bound=math.inf, lip=lip)


def repulsion_field() -> InteractionField:
    """K(z) = z / (1 + |z|^2): bounded repulsion from nearby mass."""

    def kernel(z):
        z = np.atleast_2d(z)
        return z / (1.0 + np.sum(z * z, axis=-1, keepdims=True))

    return InteractionField(kernel=kernel, bound=0.5, lip=1.0)


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SolverConfig:
    """Numerical knobs shared by all solvers.

    ``times`` is the output grid (excluding 0, which is always included
    in the returned path); ``t_ext`` extends the working grid beyond the
    last output time for the nonlinear velocity lookup, with the induced
    freezing error logged per run.
    """

    times: tuple
    q_h: int = 64
    q_g: int = 32
    eps_tail: float = 1e-10
    ode_step: float = 1e-2
    picard_tol: float = 1e-3
    picard_max_iters: int = 30
    t_ext: float = 0.0

    def __post_init__(self):
        counts = (self.q_h, self.q_g, self.picard_max_iters)
        if not all(isinstance(n, (int, np.integer)) for n in counts):
            raise ValueError("q_h, q_g and picard_max_iters must be integers")
        reals = (self.eps_tail, self.ode_step, self.picard_tol, self.t_ext)
        if not all(isinstance(x, numbers.Real) and not isinstance(x, bool) for x in reals):
            raise ValueError("eps_tail, ode_step, picard_tol and t_ext must be real numbers")
        times = tuple(float(t) for t in self.times)
        if not times or any(t <= 0.0 for t in times) or list(times) != sorted(times):
            raise ValueError("output times must be positive and increasing")
        object.__setattr__(self, "times", times)
        if self.t_ext and self.t_ext < times[-1]:
            raise ValueError("t_ext must reach at least the last output time")
        if self.ode_step <= 0.0 or self.picard_tol <= 0.0 or self.picard_max_iters < 1:
            raise ValueError("ode_step, picard_tol, picard_max_iters must be positive")


# ---------------------------------------------------------------------------
# The g-rule map and the two averages built on it
# ---------------------------------------------------------------------------


def _g_rule(beta: FracOrder, config: SolverConfig):
    """Map s -> (real times r_q, weights summing to 1) of the g_beta(., s)
    rule: the unit rule with nodes scaled by s^(1/beta).  At s <= 0 and at
    beta = 1 the rule is the single node (s, 1)."""

    def point(s):
        return np.array([s]), np.ones(1)

    if beta.is_classical:
        return point
    unit = g_quadrature(beta, 1.0, config.q_g, max(config.eps_tail, 1e-8))
    weights = unit.weights / unit.weights.sum()

    def rule(s):
        if s <= 0.0:
            return point(s)
        return unit.nodes * s ** (1.0 / beta.beta), weights

    return rule


def _h_rules(beta: FracOrder, times, config: SolverConfig) -> list:
    """(nodes, weights summing to 1) of the h_beta(., t) rule for each t; at
    beta = 1 the point mass at t, so classical transport needs no branch."""
    if beta.is_classical:
        return [(np.array([t]), np.ones(1)) for t in times]
    rules = [h_quadrature(beta, t, config.q_h, config.eps_tail) for t in times]
    return [(r.nodes, r.weights / r.weights.sum()) for r in rules]


def _field_average(v: ExplicitField, x, times, weights) -> np.ndarray:
    """Field average sum_q w_q v(x, r_q) of an explicit field."""
    out = np.zeros_like(np.atleast_2d(x), dtype=float)
    for r_q, w_q in zip(times, weights):
        out += w_q * v(x, float(r_q))
    return out


def _effective_velocity(v: ExplicitField, g_rule):
    """(x, s) -> effective velocity at internal time s: v itself when v is
    autonomous (its g-average is v, one call instead of q_g), otherwise
    the field average over the g-rule of s."""
    if v.autonomous:
        return v
    return lambda x, s: _field_average(v, x, *g_rule(s))


def _path_lookup(path: MeasurePath):
    """Map (real times r_q, weights w_q) -> raw (points, weights) of the path
    average sum_q w_q mu_{r_q}, with piecewise-constant lookup of the path.
    The path is stacked once; per call only the segment masses m_k (the
    summed weights of the nodes that hit measure k) change, so atom i of
    measure k carries m_k w_i.  Atoms with no mass are dropped and the rest
    keep path order, the concatenation of the hit measures."""
    points = np.concatenate([mu.points for mu in path.measures])
    weights = np.concatenate([mu.weights for mu in path.measures])
    seg = np.repeat(np.arange(len(path.measures)), [mu.size for mu in path.measures])

    def average(times, w):
        hit = np.maximum(np.searchsorted(path.times, times, side="right") - 1, 0)
        a = np.bincount(hit, weights=w, minlength=len(path.measures))[seg] * weights
        keep = a > 0.0
        return points[keep], a[keep]

    return average


def freezing_tail_probability(beta: FracOrder, s: np.ndarray, horizon: float) -> np.ndarray:
    """P(D_s > horizon) at each internal time s: weight of path lookups
    frozen at the end."""
    if beta.is_classical:
        return np.where(s <= horizon, 0.0, 1.0)
    return _stable_sf(beta, horizon * s ** (-1.0 / beta.beta))


# ---------------------------------------------------------------------------
# Flow integration
# ---------------------------------------------------------------------------


def _check_step(ode_step: float, lip: float):
    """Reject ``ode_step * lip > 1``: one step would span more than a unit
    of the field's relaxation scale."""
    if lip > 0.0 and ode_step * lip > 1.0:
        raise ValueError(
            f"ode_step {ode_step} too large for Lipschitz constant {lip}"
        )


def _advect_segment(vel, points, s_a, s_b, ode_step):
    """RK4 advection of raw positions from internal time s_a to s_b."""
    if points.size == 0 or s_b <= s_a:
        return points
    x = points.copy()
    s = s_a
    while s < s_b - 1e-15 * max(s_b, 1.0):
        h = min(ode_step, s_b - s)
        k1 = vel(x, s)
        k2 = vel(x + 0.5 * h * k1, s + 0.5 * h)
        k3 = vel(x + 0.5 * h * k2, s + 0.5 * h)
        k4 = vel(x + h * k3, s + h)
        x = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        s += h
    return x


def _average_push_forwards(vel, mu0, gamma_path, g_rule, h_rules, s_extra, ode_step, lip) -> list:
    """One measure per h-rule: sum_q w_q (Phi_{s_q} # mu0 + Duhamel_{s_q}),

        Duhamel_s = sum over flow nodes r < s of dr * Phi_{r -> s} # Gamma_r,

    where Gamma_r is the path average of the source at the g-rule of r.
    One flow sweep over the flow nodes (the union of the h-nodes and
    ``s_extra``) covers every term: at each node the source is injected,
    weighted by the width of the following interval (rectangle rule), and
    advected with the initial ensemble.

    With no source the particles come in index order: output particle
    (q, i), at position q * mu0.size + i, is mu0 particle i pushed to h-node
    q, with weight w_q * w_i.  Two calls on the same mu0 and h-rules thus
    give index-aligned ensembles, which ``_coupling_bound`` pairs.
    """
    _check_step(ode_step, lip)
    s_union = np.unique(np.concatenate([[0.0], s_extra] + [nodes for nodes, _ in h_rules]))
    x = mu0.points.astype(float)
    src_pts = np.zeros((0, mu0.dim))
    src_wts = np.zeros(0)
    at_node = {0.0: (x, src_pts, src_wts)}
    source = _path_lookup(gamma_path)
    for s_a, s_b in zip(s_union[:-1].tolist(), s_union[1:].tolist()):
        g_pts, g_wts = source(*g_rule(s_a))
        if g_wts.size:
            src_pts = np.concatenate([src_pts, g_pts])
            src_wts = np.concatenate([src_wts, (s_b - s_a) * g_wts])
        moved = _advect_segment(vel, np.concatenate([x, src_pts]), s_a, s_b, ode_step)
        x, src_pts = moved[: x.shape[0]], moved[x.shape[0] :]
        at_node[s_b] = (x, src_pts, src_wts)

    measures = []
    for nodes, weights in h_rules:
        pts, wts = [], []
        for s_q, w_q in zip(nodes.tolist(), weights):
            base, d_pts, d_wts = at_node[s_q]
            pts += [base, d_pts]
            wts += [w_q * mu0.weights, w_q * d_wts]
        measures.append(EmpiricalMeasure(points=np.concatenate(pts), weights=np.concatenate(wts)))
    return measures


# ---------------------------------------------------------------------------
# Helpers shared by the solvers
# ---------------------------------------------------------------------------


def _empty_path(mu0: EmpiricalMeasure) -> MeasurePath:
    empty = EmpiricalMeasure(points=np.zeros((0, mu0.dim)), weights=np.zeros(0))
    return MeasurePath(times=np.zeros(1), measures=[empty])


def _coupling_bound(mu: EmpiricalMeasure, nu: EmpiricalMeasure) -> float:
    """Upper bound on d_BL(mu, nu) from pairing particle k of nu with
    particle k mod mu.size of mu; nu's weights are the coupling, so the
    blocks of each mu particle must sum to its weight.  A test function
    with ||f||_inf + Lip(f) <= 1 moves a pair at distance r by at most
    2r / (2 + r), which bounds d_BL by sum_k w_k 2 r_k / (2 + r_k) (Villani,
    Optimal Transport: Old and New, 2009, Ch. 6).  Exact for two Diracs.
    """
    r = np.linalg.norm(nu.points - mu.points[np.arange(nu.size) % mu.size], axis=1)
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
# Linear solver and its Monte Carlo oracle
# ---------------------------------------------------------------------------


def solve_linear(beta: FracOrder, v: ExplicitField, mu0: EmpiricalMeasure, config: SolverConfig) -> MeasurePath:
    """Linear problem: average of effective-flow push-forwards.

    The source solver with an empty source.  One flow integration covers
    the union of every output time's h-quadrature nodes (self-similar
    rules share weights, nodes scale by t^beta); each output measure is
    the weight-renormalized mixture of node push-forwards, so mass is
    conserved exactly.
    """
    path = solve_with_source(beta, v, mu0, _empty_path(mu0), config)
    del path.diagnostics["source_mass"]
    return path


def solve_linear_mc(
    beta: FracOrder,
    v: ExplicitField,
    mu0: EmpiricalMeasure,
    config: SolverConfig,
    n_paths: int,
    seed: int = 0,
) -> MeasurePath:
    """Monte Carlo oracle: sample the internal clock instead of
    integrating against its density.

    Each sampled path contributes the deterministic effective flow
    evaluated at its own internal times; the output at time t is the
    equal-weight mixture over paths (mass conserved exactly).  Only the
    marginal law of each E_t enters the mixture, and E_t has the law of
    t^beta E_1, so one exact E_1 draw per path is scaled to every output
    time (a path's clocks increase with t).  The flow is recorded on a
    uniform grid of steps of at most ``ode_step`` up to the largest clock
    and interpolated linearly in between.  ``seed`` fixes the clock draws
    (stream 1).  At beta = 1 the clock is deterministic and this is
    ``solve_linear``.
    """
    if beta.is_classical:
        return solve_linear(beta, v, mu0, config)
    _check_step(config.ode_step, v.lip)
    vel = _effective_velocity(v, _g_rule(beta, config))
    rng = RngSpec(seed=seed, stream_id=1)
    e_1 = sample_inverse(beta, 1.0, rng, size=n_paths)
    clocks = np.outer(e_1, np.asarray(config.times) ** beta.beta)
    s_max = float(clocks.max())
    n_steps = max(int(math.ceil(s_max / config.ode_step)), 1)
    s_grid = np.linspace(0.0, s_max, n_steps + 1)

    flow = [mu0.points.astype(float)]
    for s_a, s_b in zip(s_grid[:-1].tolist(), s_grid[1:].tolist()):
        flow.append(_advect_segment(vel, flow[-1], s_a, s_b, config.ode_step))
    flow = np.array(flow)
    wts = np.tile(mu0.weights / n_paths, n_paths)
    measures = [mu0]
    for c in clocks.T:
        j = np.clip(np.searchsorted(s_grid, c, side="right") - 1, 0, n_steps - 1)
        frac = ((c - s_grid[j]) / (s_grid[j + 1] - s_grid[j]))[:, None, None]
        pts = (1.0 - frac) * flow[j] + frac * flow[j + 1]
        measures.append(EmpiricalMeasure(points=pts.reshape(-1, mu0.dim), weights=wts))
    grid = np.concatenate([[0.0], np.asarray(config.times)])
    return MeasurePath(times=grid, measures=measures)


# ---------------------------------------------------------------------------
# Nonlinear (interaction) solver: Picard fixed point
# ---------------------------------------------------------------------------


def solve_nonlinear(
    beta: FracOrder, v: InteractionField, mu0: EmpiricalMeasure, config: SolverConfig
) -> MeasurePath:
    """Interaction problem via Picard iteration on the representation map.

    Starting from the constant-in-time path mu0, each sweep solves the
    auxiliary linear problem whose velocity is the g-averaged interaction
    field induced by the previous iterate.  The previous iterate is stacked
    once per sweep (``_path_lookup``); each RK4 stage only reweights its
    recorded measures by the g-rule masses and evaluates the field on the
    raw arrays.  Consecutive iterates are index-aligned (see
    ``_average_push_forwards``; the first sweep pairs with mu0 split by
    rule weight), so ``_coupling_bound`` certifies an upper bound on their
    d_BL in O(N); the iteration stops when its sup over the grid drops
    below ``picard_tol``.  The diagnostics hold the
    iteration log (one dict per sweep: sweep, coupling_bound, wall_time)
    and the freezing term: the h-weighted probability
    sum_q w_q P(D_{s_q} > horizon) of a lookup past the horizon, worst
    over the output times, times 2 * bound * mass for a bounded kernel.
    """
    grid = _grid_with_extension(config)
    horizon = float(grid[-1])
    current = MeasurePath(times=grid, measures=[mu0] * grid.size)
    g_rule = _g_rule(beta, config)
    h_rules = _h_rules(beta, grid[1:], config)
    no_source = _empty_path(mu0)
    log = []
    mass = total_mass(mu0)
    lip = v.lip * max(mass, 1.0)
    for sweep in range(1, config.picard_max_iters + 1):
        t0 = _time.perf_counter()
        prev = current
        lookup = _path_lookup(prev)

        def vel(x, s, _lookup=lookup):
            # the field is linear in the measure: one kernel call on the
            # path average instead of one per g-node
            return v.field(x, *_lookup(*g_rule(s)))

        measures = _average_push_forwards(vel, mu0, no_source, g_rule, h_rules, (), config.ode_step, lip)
        current = MeasurePath(times=grid, measures=[mu0] + measures)
        bound = max(_coupling_bound(a, b) for a, b in zip(prev.measures, current.measures))
        wall = _time.perf_counter() - t0
        log.append({"sweep": sweep, "coupling_bound": bound, "wall_time": wall})
        if bound < config.picard_tol:
            break
    else:
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
    out.diagnostics.update(
        {
            "picard_log": log,
            "sweeps": len(log),
            "freezing_tail_probability": 2.0 * v.bound * mass * freeze
            if math.isfinite(v.bound)
            else freeze,
        }
    )
    return out


# ---------------------------------------------------------------------------
# Source term (Duhamel layer)
# ---------------------------------------------------------------------------


def solve_with_source(
    beta: FracOrder,
    v: ExplicitField,
    mu0: EmpiricalMeasure,
    gamma_path: MeasurePath,
    config: SolverConfig,
) -> MeasurePath:
    """Linear problem with a nonnegative source, by the double average

        mu_t = integral of (Phi_s # mu0 + Duhamel_s) h_beta(s, t) ds,
        Duhamel_s = sum over flow nodes r < s of dr * Phi_{r -> s} # Gamma_r,

    where Gamma_r is the source path averaged against g_beta(., r).  The
    inner integral uses the rectangle rule on the flow node grid; source
    particles are injected at each node and advected together with the
    initial ensemble, so one flow sweep covers every term.  Mass grows by
    the accumulated source mass under the double average (reported in the
    path diagnostics, not conserved).
    """
    for gm in gamma_path.measures:
        if gm.size and np.any(gm.weights <= 0.0):
            raise ValueError("source measures must be nonnegative")
    # at beta = 1 the h-nodes are the output times alone, too coarse for the
    # Duhamel rectangle rule, so the flow also steps through the ode_step grid
    fine = np.arange(0.0, config.times[-1] + 1e-12, config.ode_step) if beta.is_classical else ()
    g_rule = _g_rule(beta, config)
    measures = _average_push_forwards(
        _effective_velocity(v, g_rule),
        mu0,
        gamma_path,
        g_rule,
        _h_rules(beta, config.times, config),
        fine,
        config.ode_step,
        v.lip,
    )
    grid = np.concatenate([[0.0], np.asarray(config.times)])
    out = MeasurePath(times=grid, measures=[mu0] + measures)
    out.diagnostics["source_mass"] = [total_mass(m) - total_mass(mu0) for m in measures]
    return out
