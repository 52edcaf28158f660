"""Solvers for measure transport with a fractional (memory) time derivative.

The representation behind every solver: the solution at real time t is
the classical push-forward solution evaluated at a random internal time
and averaged against the inverse-subordinator density,

    mu_t = integral of Phi_s # mu_0 against h_beta(s, t) ds,

where the characteristic flow Phi uses the effective velocity, i.e. the
original field averaged against the subordinator density g_beta.  The
linear solver evaluates this directly on quadrature rules; the nonlinear
(interaction) solver finds a fixed point of the same formula, read as a
sweep map from an iterate path to its image, with Anderson-mixed Picard
iteration, first on a coarse RK4 schedule and then on the fine one, and
stops on a certified upper bound of the bounded-Lipschitz distance
between an iterate and its image of the fine map, from pairing their
particles by index; a Monte Carlo solver samples the internal clock
instead of integrating it and serves as an independent oracle.

Every solver is built from three shared pieces: one g-rule map
s -> (real times, weights), whose two consumers are the field average
sum_q w_q v(x, r_q) and the path average sum_q w_q mu_{r_q} of a Picard
iterate; one RK4 stepper, which walks a stage schedule laid out once per
solve and passes each velocity call its stage index; and one routine that
advects mu0 (plus a source measure, constant in time and injected
unchanged at every flow node) over the union of the h-rule nodes and
mixes the node push-forwards.  A step matters only through the
push-forwards at the h-nodes past it, so ``ode_step`` is the RK4 step
where the full h-weight is fed, and later intervals take
min(ode_step * W^(-1/5), 1/Lip), W the h-weight they still feed
(``_flow_schedule``); a time-dependent
explicit field also gets a graded start, steps of about s/8 near s = 0,
where its g-average varies fastest.  The h-rule is the
Gauss rule of the unit clock E_1, planned by the Stieltjes procedure on a
product rule over Kanter's representation of E_1, so each of its few
nodes (one push-forward of mu0 each) carries spectral accuracy; the
g-rule stays composite.  An explicit field marked autonomous (independent
of t) skips the field average: the g-rule weights sum to 1, so its
g-average is the field itself, evaluated once per RK4 stage instead of
q_g times, and no g-rule is built.  The interaction
field is linear in the measure, so its g-average is the field induced by
the path average.  The path average weights each recorded measure by a
segment mass, the g-weight whose real time looks it up; the stage times
and the lookup grid are the same in every Picard sweep, so the masses are
tabulated once per solve, one row per run of stages that look up the same
masses.  A row starts only where some g-node's lookup crosses a grid time
(the stages far outnumber the crossings), and a sweep builds each row's
path average once, from the measures the row hits.  beta = 1 needs no
special case: the g- and h-rules become point masses and the same code is
classical transport.
"""

from __future__ import annotations

import math
import numbers
import time as _time
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import PicardConvergenceError
from .measures import (
    EmpiricalMeasure,
    MeasurePath,
    total_mass,
)
from .specfun import FracOrder, _sorted_unique, _stable_sf, g_quadrature, h_quadrature
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
    g-average (the g-rule weights sum to 1), and step it without the
    graded start that a field differing at mu0's points between the first
    and the last flow node gets (``_GRADED_START``).  The linear solvers raise
    ValueError when a func marked autonomous gives other values at mu0's
    points at the first and the last stage time; one whose t-dependence
    does not show there gives wrong answers, without any warning.
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
        # in 1-D, |z|^2 is z * z itself: the sum over a length-1 axis is
        # skipped; z is the field's fresh displacement array, divided in place
        r2 = z * z if z.shape[-1] == 1 else (z * z).sum(axis=-1, keepdims=True)
        r2 += 1.0
        z /= r2
        return z

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
    freezing error logged per run.  ``q_h`` is the size of the Gauss
    h-rule (see ``specfun.h_quadrature``); ``eps_tail`` sets the tails:
    the rule the h-rule is planned on cuts W where e^(-W) =
    0.05 min(eps_tail, 1e-12), and the composite g-rule's tail target is
    0.05 max(eps_tail, 1e-8).
    ``ode_step`` is the RK4 step where the full h-weight is fed; later
    intervals take min(ode_step * W^(-1/5), 1/Lip), W the h-weight they
    still feed and Lip the constant of the step guard (see
    ``_flow_schedule``), and the coarse Picard level steps
    min(16 ode_step, 1/Lip).  The knobs that only the nonlinear solver
    reads carry ``metadata={"nonlinear": True}``.
    """

    times: tuple
    q_h: int = 24
    q_g: int = 32
    eps_tail: float = 1e-10
    ode_step: float = 1e-2
    picard_tol: float = field(default=1e-3, metadata={"nonlinear": True})
    picard_max_iters: int = field(default=30, metadata={"nonlinear": True})
    t_ext: float = field(default=0.0, metadata={"nonlinear": True})

    def __post_init__(self):
        counts = (self.q_h, self.q_g, self.picard_max_iters)
        if not all(isinstance(n, (int, np.integer)) for n in counts):
            raise ValueError("q_h, q_g and picard_max_iters must be integers")
        reals = (self.eps_tail, self.ode_step, self.picard_tol, self.t_ext)
        if not all(isinstance(x, numbers.Real) and not isinstance(x, bool) and math.isfinite(x)
                   for x in reals):
            raise ValueError("eps_tail, ode_step, picard_tol and t_ext must be real numbers and finite")
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


class _GRule:
    """The g_beta(., s) rule as a map s -> (real times r_q, weights summing
    to 1): the unit rule with nodes scaled by s^(1/beta).  At s <= 0, and at
    every s when beta = 1 (``nodes`` is None), the rule is the single node
    (s, 1)."""

    def __init__(self, beta: FracOrder, config: SolverConfig):
        self.nodes = None
        if not beta.is_classical:
            unit = g_quadrature(beta, 1.0, config.q_g, max(config.eps_tail, 1e-8))
            self.nodes, self.weights = unit.nodes, unit.weights / unit.weights.sum()
            self.power = 1.0 / beta.beta

    def __call__(self, s):
        if self.nodes is None or s <= 0.0:
            return np.array([s]), np.ones(1)
        return self.nodes * s ** self.power, self.weights

    def segment_masses(self, grid: np.ndarray, stage_times: list):
        """(rows, index): row index[k] of ``rows`` holds, for each grid time
        t_j, the summed weights of the nodes of the rule at
        s = stage_times[k] (Python floats, nondecreasing) that look up t_j,
        piecewise constant (right-continuous, frozen at the end).

        ``rows`` keeps each row once per run of equal stages: no two
        consecutive rows are equal and ``index`` is a nondecreasing intp
        array.  A lookup r moves only where it reaches a grid time after the
        first, and r = node * s^(1/beta) never decreases in s, so a row can
        start only at the first stage, at the first stage past s = 0 (where
        the point rule ends) and where some node reaches some t_j.  One
        bincount builds the rows at those stages, and a row equal to the one
        before it is merged into it (the point rule at s = 0 and the rule
        just past it may give the same masses): there are at most
        q_g * (grid.size - 1) + 2 rows, whatever the number of stages.

        The scale s^(1/beta) is the Python-float power of ``__call__``, and a
        bincount adds each bin's weights in node order, so every row is
        bitwise the bincount of the rule at s on its own.
        """
        s = np.array(stage_times, dtype=float)
        # the first n_point stages use the point rule (s, 1)
        n_point = s.size if self.nodes is None else int(np.searchsorted(s, 0.0, side="right"))
        starts = [[0], np.searchsorted(s[:n_point], grid[1:])]
        if n_point < s.size:
            scale = np.array([x ** self.power for x in stage_times[n_point:]])
            starts += [[n_point]] + [n_point + np.searchsorted(node * scale, grid[1:]) for node in self.nodes]
        # marked in a mask, not sorted: the first int sort in a process pages
        # in about 64 KiB of numpy code that nothing else in a solve runs
        start = np.zeros(s.size + 1, dtype=bool)
        start[np.concatenate(starts)] = True
        starts = np.flatnonzero(start[:-1])
        point, rule = starts[starts < n_point], starts[starts >= n_point] - n_point
        masses = np.zeros((starts.size, grid.size))
        masses[np.arange(point.size), np.maximum(np.searchsorted(grid, s[point], side="right") - 1, 0)] = 1.0
        if rule.size:
            cell = np.searchsorted(grid, np.multiply.outer(scale[rule], self.nodes), side="right") - 1
            np.maximum(cell, 0, out=cell)
            cell += grid.size * np.arange(rule.size)[:, None]
            weights = np.broadcast_to(self.weights, cell.shape).ravel()
            counts = np.bincount(cell.ravel(), weights, minlength=rule.size * grid.size)
            masses[point.size :] = counts.reshape(rule.size, grid.size)
        new = np.ones(starts.size, dtype=bool)
        new[1:] = np.any(masses[1:] != masses[:-1], axis=1)
        return masses[new], np.repeat(np.cumsum(new) - 1, np.diff(starts, append=s.size))


def _h_rules(beta: FracOrder, times, config: SolverConfig) -> list:
    """(nodes, weights summing to 1) of the h_beta(., t) rule for each t:
    the q_h-point Gauss rule of ``h_quadrature``, or at beta = 1 the point
    mass at t, so classical transport needs no branch."""
    if beta.is_classical:
        return [(np.array([t]), np.ones(1)) for t in times]
    rules = [h_quadrature(beta, t, config.q_h, config.eps_tail) for t in times]
    return [(rule.nodes, rule.weights) for rule in rules]


def _field_average(v: ExplicitField, x, times, weights) -> np.ndarray:
    """Field average sum_q w_q v(x, r_q) of an explicit field."""
    out = np.zeros_like(np.atleast_2d(x), dtype=float)
    for r_q, w_q in zip(times, weights):
        out += w_q * v(x, float(r_q))
    return out


def _effective_velocity(v: ExplicitField, g_rule, stage_times):
    """(x, k) -> effective velocity at stage time s = stage_times[k]: v
    itself when v is autonomous (its g-average is v, one call instead of
    q_g, and ``g_rule`` may be None), otherwise the field average over the
    g-rule of s."""
    if v.autonomous:
        return lambda x, k: v(x, stage_times[k])
    return lambda x, k: _field_average(v, x, *g_rule(stage_times[k]))


def _varies_in_t(v: ExplicitField, mu0: EmpiricalMeasure, t_a: float, t_b: float) -> bool:
    """Whether v differs at mu0's points between the times t_a and t_b
    (False for an empty mu0)."""
    x = mu0.points.astype(float)
    return mu0.size > 0 and not np.array_equal(v(x, t_a), v(x, t_b), equal_nan=True)


def _check_autonomous(v: ExplicitField, mu0: EmpiricalMeasure, stage_times):
    """Reject a field marked autonomous whose values at mu0's points differ
    between the first and the last stage time: it depends on t, and its
    g-average is not the field itself."""
    t_a, t_b = stage_times[0], stage_times[-1]
    if v.autonomous and _varies_in_t(v, mu0, t_a, t_b):
        raise ValueError(
            f"velocity marked autonomous=True depends on t: it differs between t = {t_a} "
            f"and t = {t_b} at the initial points"
        )


def _path_average(path: MeasurePath, m: np.ndarray):
    """Raw (points, weights) of the path average sum_j m[j] mu_j for
    segment masses ``m`` on the path's grid (a row of
    ``_GRule.segment_masses``): the atoms of the hit measures in path
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
# Flow integration
# ---------------------------------------------------------------------------


def _check_step(ode_step: float, lip: float):
    """Reject ``ode_step * lip > 1``: one step would span more than a unit
    of the field's relaxation scale."""
    if lip > 0.0 and ode_step * lip > 1.0:
        raise ValueError(
            f"ode_step {ode_step} too large for Lipschitz constant {lip}"
        )


def _stage_schedule(nodes: np.ndarray, max_step):
    """RK4 stages of one flow sweep through the sorted flow ``nodes``, in
    steps of at most ``max_step`` (a number, or one per interval), the last
    one of an interval ending on the next node: (times, steps).  ``times``
    holds the distinct stage times (Python floats) in order of use, and
    ``steps[j]`` lists the RK4 steps (h, k) across interval
    j = [nodes[j], nodes[j + 1]], whose stages s, s + h/2 and s + h are
    times[k], times[k + 1] and times[k + 2].  A step ends at the float its
    successor starts from, so only an interval's first stage can be new.
    The solvers on h-rules size the steps with ``_flow_schedule``; the Monte
    Carlo grid, whose every point a clock may read, steps at ``ode_step``."""
    caps = np.broadcast_to(max_step, nodes[:-1].shape).tolist()
    times, steps = [], []
    for s_a, s_b, cap in zip(nodes[:-1].tolist(), nodes[1:].tolist(), caps):
        if not times or times[-1] != s_a:
            times.append(s_a)
        interval = []
        s = s_a
        while s < s_b - 1e-15 * max(s_b, 1.0):
            h = min(cap, s_b - s)
            interval.append((h, len(times) - 1))
            times += [s + 0.5 * h, s + h]
            s += h
        steps.append(interval)
    return times, steps


def _flow_schedule(nodes: np.ndarray, h_rules, ode_step: float, lip: float):
    """``_stage_schedule`` of the flow ``nodes`` with each interval's step
    sized by the h-weight it still feeds: interval j takes steps of at most
    min(ode_step * W_j^(-1/5), 1/lip), where W_j is the largest summed
    weight, over ``h_rules``, of the h-nodes past nodes[j].

    The flow only matters through the push-forwards at the h-nodes, and an
    RK4 step of length h errs by about h^5 at every node past it, so the
    weighted error sum of h^4 W ds for a given step count (the integral of
    ds / h) is least for h proportional to W^(-1/5).  Where the full weight
    is fed (W = 1, near s = 0) the step is ``ode_step`` itself; ``lip``, the
    Lipschitz constant that ``_check_step`` guards, bounds every step."""
    fed = np.zeros(nodes.size - 1)
    for h_nodes, weights in h_rules:
        past = np.append(np.cumsum(weights[::-1])[::-1], 0.0)
        np.maximum(fed, past[np.searchsorted(h_nodes, nodes[:-1], side="right")], out=fed)
    with np.errstate(divide="ignore"):
        caps = ode_step * np.minimum(fed, 1.0) ** -0.2
    return _stage_schedule(nodes, np.minimum(caps, 1.0 / lip if lip > 0.0 else math.inf))


#: extra flow nodes, in units of ode_step, where a time-dependent field
#: starts: a step of about s/8 from ode_step/64 until it reaches ode_step
#: (Python floats: a numpy call at import would page in numpy code)
_GRADED_START = tuple(8.0 * 512.0 ** (-k / 53) for k in range(53, -1, -1))


def _flow_nodes(h_rules, s_extra=()) -> np.ndarray:
    """The flow nodes: 0, ``s_extra`` and the union of the h-nodes."""
    return _sorted_unique(np.concatenate([[0.0], s_extra] + [nodes for nodes, _ in h_rules]))


def _advect_segment(vel, points, steps):
    """RK4 advection of raw positions along ``steps``, one interval of a
    ``_stage_schedule``; ``vel(x, k)`` is the velocity at stage k.  Neither
    ``points`` nor any velocity is written to; with no step the result is
    ``points`` itself."""
    if points.size == 0:
        return points
    x = points
    for h, k in steps:
        k1 = vel(x, k)
        k2 = vel(x + 0.5 * h * k1, k + 1)
        k3 = vel(x + 0.5 * h * k2, k + 1)
        k4 = vel(x + h * k3, k + 2)
        # x + (h / 6) * (((k1 + 2 k2) + 2 k3) + k4), summed in that order
        # into one fresh array; k1 to k4 and x may be read-only or shared
        dx = 2.0 * k2
        dx += k1
        dx += 2.0 * k3
        dx += k4
        dx *= h / 6.0
        dx += x
        x = dx
    return x


def _average_push_forwards(vel, mu0, nu, h_rules, nodes, steps) -> list:
    """One measure per h-rule: sum_q w_q (Phi_{s_q} # mu0 + Duhamel_{s_q}),

        Duhamel_s = sum over flow nodes r < s of dr * Phi_{r -> s} # nu,

    for the source measure ``nu`` (None for no source).  One flow sweep over
    the flow ``nodes`` (which hold every h-node), in the RK4 ``steps`` of
    their ``_stage_schedule``, covers every term: at each node nu is
    injected, weighted by the width of the following interval (rectangle
    rule), and advected with the initial ensemble.

    With no source the particles come in index order: output particle
    (q, i), at position q * mu0.size + i, is mu0 particle i pushed to h-node
    q, with weight w_q * w_i.  Two calls on the same mu0 and h-rules thus
    give index-aligned ensembles, which ``_coupling_bound`` pairs.
    """
    x = mu0.points.astype(float)
    src_pts = np.zeros((0, mu0.dim))
    src_wts = np.zeros(0)
    at_node = [(x, src_pts, src_wts)]
    for j, (s_a, s_b) in enumerate(zip(nodes[:-1].tolist(), nodes[1:].tolist())):
        if nu is not None and nu.size:
            src_pts = np.concatenate([src_pts, nu.points])
            src_wts = np.concatenate([src_wts, (s_b - s_a) * nu.weights])
        moved = _advect_segment(vel, np.concatenate([x, src_pts]), steps[j])
        x, src_pts = moved[: x.shape[0]], moved[x.shape[0] :]
        at_node.append((x, src_pts, src_wts))

    measures = []
    for h_nodes, weights in h_rules:
        pts, wts = [], []
        for j, w_q in zip(np.searchsorted(nodes, h_nodes).tolist(), weights):
            base, d_pts, d_wts = at_node[j]
            pts += [base, d_pts]
            wts += [w_q * mu0.weights, w_q * d_wts]
        measures.append(EmpiricalMeasure(points=np.concatenate(pts), weights=np.concatenate(wts)))
    return measures


# ---------------------------------------------------------------------------
# Helpers shared by the solvers
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
    r = np.linalg.norm(nu.points - _paired_points(mu, nu.size), axis=1)
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
    path = solve_with_source(beta, v, mu0, None, config)
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
    rng = RngSpec(seed=seed, stream_id=1)
    e_1 = sample_inverse(beta, 1.0, rng, size=n_paths)
    clocks = np.outer(e_1, np.asarray(config.times) ** beta.beta)
    s_max = float(clocks.max())
    n_steps = max(int(math.ceil(s_max / config.ode_step)), 1)
    s_grid = np.linspace(0.0, s_max, n_steps + 1)
    times, steps = _stage_schedule(s_grid, config.ode_step)
    _check_autonomous(v, mu0, times)
    vel = _effective_velocity(v, None if v.autonomous else _GRule(beta, config), times)

    flow = [mu0.points.astype(float)]
    for interval in steps:
        flow.append(_advect_segment(vel, flow[-1], interval))
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


def _sweep_map(v: InteractionField, mu0: EmpiricalMeasure, g_rule, h_rules, grid, config: SolverConfig):
    """The Picard sweep map F: an iterate path on ``grid`` -> the path of
    mu0 pushed along the g-averaged interaction field that the iterate
    induces, mu0 at time 0 and one push-forward mixture per h-rule.

    Every sweep walks the same RK4 stages (``_flow_schedule``, whose step
    bound is the one that ``_check_step`` guards, v.lip * max(mass, 1)) and
    looks up the same grid, so the segment masses of each stage's g-rule are
    tabulated here, once, one row per run of stages with equal masses
    (``_GRule.segment_masses``, which starts a row only where a lookup
    crosses a grid time).  Each RK4 stage evaluates the field on the raw
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
    rows, index = g_rule.segment_masses(grid, times)

    def sweep(path: MeasurePath) -> MeasurePath:
        cached = [-1, None]  # row and path average of the last stage

        def vel(x, k):
            row = index[k]
            if row != cached[0]:
                cached[:] = row, _path_average(path, rows[row])
            # the field is linear in the measure: one kernel call on the
            # path average instead of one per g-node
            return v.field(x, *cached[1])

        measures = _average_push_forwards(vel, mu0, None, h_rules, nodes, steps)
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
    by its atom's weight ``w`` (P, 1); None when <dr, dr>_w = 0.  np.sum,
    not a BLAS dot, so the weight does not depend on the thread count."""
    wdr = w * dr
    norm = float(np.sum(wdr * dr))
    return float(np.sum(wdr * r)) / norm if norm > 0.0 else None


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


# ---------------------------------------------------------------------------
# Source term (Duhamel layer)
# ---------------------------------------------------------------------------


def solve_with_source(
    beta: FracOrder,
    v: ExplicitField,
    mu0: EmpiricalMeasure,
    nu: EmpiricalMeasure | None,
    config: SolverConfig,
) -> MeasurePath:
    """Linear problem with the nonnegative source measure ``nu`` (None for
    no source), constant in time, by the double average

        mu_t = integral of (Phi_s # mu0 + Duhamel_s) h_beta(s, t) ds,
        Duhamel_s = sum over flow nodes r < s of dr * Phi_{r -> s} # nu.

    The inner integral uses the rectangle rule on the flow node grid; nu's
    particles are injected at each node and advected together with the
    initial ensemble, so one flow sweep covers every term.  Mass grows by
    the accumulated source mass under the double average (reported in the
    path diagnostics, not conserved).  The diagnostics also hold
    ``rk4_steps``, the RK4 steps of the flow sweep.  At beta < 1 a field
    not marked autonomous that differs at mu0's points between s = 0 and
    the last flow node gets the graded start: flow nodes at
    ode_step * ``_GRADED_START``, so that the steps near s = 0 are about
    s/8.  Its g-average sum_q w_q v(x, r_q s^(1/beta)) changes where
    r_q s^(1/beta) reaches the field's time scale, a feature at the scale
    of each g-node, and steps of ode_step across them dominate the flow
    error.
    """
    if nu is not None and nu.size and np.any(nu.weights <= 0.0):
        raise ValueError("the source measure must be nonnegative")
    # at beta = 1 the h-nodes are the output times alone, too coarse for the
    # Duhamel rectangle rule, so the flow also steps through the ode_step grid
    fine = np.arange(0.0, config.times[-1] + 1e-12, config.ode_step) if beta.is_classical else ()
    _check_step(config.ode_step, v.lip)
    # only a time-dependent field reads the g-rule
    g_rule = None if v.autonomous else _GRule(beta, config)
    h_rules = _h_rules(beta, config.times, config)
    nodes = _flow_nodes(h_rules, fine)
    if not (beta.is_classical or v.autonomous) and _varies_in_t(v, mu0, nodes[0], nodes[-1]):
        start = config.ode_step * np.array(_GRADED_START)
        nodes = _flow_nodes(h_rules, start[start < nodes[-1]])
    times, steps = _flow_schedule(nodes, h_rules, config.ode_step, v.lip)
    _check_autonomous(v, mu0, times)
    vel = _effective_velocity(v, g_rule, times)
    measures = _average_push_forwards(vel, mu0, nu, h_rules, nodes, steps)
    grid = np.concatenate([[0.0], np.asarray(config.times)])
    out = MeasurePath(times=grid, measures=[mu0] + measures)
    out.diagnostics["source_mass"] = [total_mass(m) - total_mass(mu0) for m in measures]
    out.diagnostics["rk4_steps"] = sum(map(len, steps))
    return out
