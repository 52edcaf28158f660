"""Solvers for measure transport with a fractional (memory) time derivative.

The representation behind every solver: the solution at real time t is
the classical push-forward solution evaluated at a random internal time
and averaged against the inverse-subordinator density,

    mu_t = integral of Phi_s # mu_0 against h_beta(s, t) ds,

where the characteristic flow Phi uses the effective velocity, i.e. the
original field averaged against the subordinator density g_beta.  This
module holds the linear problem, which evaluates this directly on
quadrature rules, with and without a source, and its Monte Carlo oracle,
which samples the internal clock instead of integrating it.  The
interaction problem finds a fixed point of the same formula by Picard
iteration; it lives in ``picard``, which a linear or source solve never
imports, and its public names still resolve here on first access.

Every solver is built from three shared pieces: one g-rule map
s -> (real times, weights), whose consumers are the field average
sum_q w_q v(x, r_q) here and the path average of a Picard iterate; one
RK4 stepper, which walks a stage schedule laid out once per
solve and passes each velocity call its stage index, except for an affine
field, whose RK4 steps across a flow interval compose to one affine map
(RK4's own discrete map, not an exact exponential); and one routine that
advects mu0 (plus a source measure, constant in time and injected
unchanged at every flow node) over the union of the h-rule nodes and
mixes the node push-forwards.  A step matters only through the
push-forwards at the h-nodes past it, so ``ode_step`` is the RK4 step
where the full h-weight is fed, and later intervals take
min(ode_step * W^(-1/5), 1/Lip), W the h-weight they still feed
(``_flow_schedule``); a time-dependent
explicit field also gets a graded start, steps of about s/8 near s = 0,
where its g-average varies fastest.  The h-rule is the Gauss rule of the
unit clock E_1 (``rules.h_quadrature``), so each of its few nodes (one
push-forward of mu0 each) carries spectral accuracy; the g-rule is the
composite rule of ``rules.g_quadrature``, built only for a field that
depends on t.  An explicit field marked autonomous (independent
of t) skips the field average: the g-rule weights sum to 1, so its
g-average is the field itself, evaluated once per RK4 stage instead of
q_g times, and no g-rule is built, so ``specfun`` is not imported either.
beta = 1 needs no special case: the g- and h-rules become point masses
and the same code is classical transport.
"""

from __future__ import annotations

import functools
import itertools
import math
import numbers

import numpy as np

from .measures import (
    EmpiricalMeasure,
    MeasurePath,
    total_mass,
)
from .rules import _sorted_unique, g_quadrature, h_quadrature
from .subordinator import FracOrder, RngSpec, sample_inverse

__all__ = [
    "AffineField",
    "ExplicitField",
    "SolverConfig",
    "solve_linear",
    "solve_linear_mc",
    "solve_with_source",
]

#: the interaction solver's public names, defined in ``picard``
_PICARD_NAMES = ("InteractionField", "attraction_field", "repulsion_field", "freezing_tail_probability",
                 "solve_nonlinear")


def __getattr__(name):
    # ``transport.solve_nonlinear`` and its siblings import ``picard`` on
    # first access, so a linear or source solve never compiles it
    if name not in _PICARD_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import picard

    return getattr(picard, name)


# ---------------------------------------------------------------------------
# Velocity fields
# ---------------------------------------------------------------------------


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

    def __init__(self, func, lip: float, autonomous: bool = False):
        self.func, self.lip, self.autonomous = func, lip, autonomous

    def __call__(self, x, t):
        x = np.atleast_2d(np.asarray(x, dtype=float))
        return np.asarray(self.func(x, t), dtype=float).reshape(x.shape)


class AffineField:
    """Affine field v(x) = A x + b, autonomous by construction.

    ``matrix`` is A, a (d, d) array or a number a for a I; ``offset`` is b,
    a (d,) array or one number for every coordinate, so a field given by
    numbers serves every dimension.  ``lip`` is ||A||_2, computed.  The
    solvers do not step an affine field stage by stage: RK4's map for it
    is affine, so each flow interval is advanced by one composed
    (d+1) x (d+1) matrix (``_affine_maps``).
    """

    autonomous = True

    def __init__(self, matrix, offset=0.0):
        self.matrix = np.array(matrix, dtype=float)
        self.offset = np.array(offset, dtype=float)
        # shape[:1] == shape[1:] holds for () and (d, d) alone
        if self.matrix.shape[:1] != self.matrix.shape[1:] or self.offset.ndim > 1:
            raise ValueError(f"affine matrix must be square and offset a vector, got shapes "
                             f"{self.matrix.shape} and {self.offset.shape}")
        self.lip = float(np.linalg.norm(self.matrix, 2)) if self.matrix.ndim else abs(float(self.matrix))

    def augmented(self, dim: int) -> np.ndarray:
        """Z = [[A, b], [0, 0]], the (dim+1) x (dim+1) matrix of the linear
        system (x, 1)' = Z (x, 1)."""
        z = np.zeros((dim + 1, dim + 1))
        z[:dim, :dim] = self.matrix if self.matrix.ndim else self.matrix * np.eye(dim)
        z[:dim, dim] = self.offset
        return z

    def __call__(self, x, t):
        x = np.atleast_2d(np.asarray(x, dtype=float))
        return _affine_map(self.augmented(x.shape[1]), x)


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------


class SolverConfig:
    """Numerical knobs shared by all solvers.

    ``times`` is the output grid, positive and strictly increasing
    (excluding 0, which is always included in the returned path);
    ``t_ext`` extends the working grid beyond the last output time for
    the nonlinear velocity lookup, with the induced freezing error logged
    per run.  ``q_h`` is the size of the Gauss
    h-rule (see ``rules.h_quadrature``); ``eps_tail`` sets the tails:
    the rule the h-rule is planned on cuts W where e^(-W) =
    0.05 min(eps_tail, 1e-12), and the composite g-rule's tail target is
    0.05 max(eps_tail, 1e-8), so any value in [1e-12, 1e-8], the default
    among them, changes neither rule.
    ``ode_step`` is the RK4 step where the full h-weight is fed; later
    intervals take min(ode_step * W^(-1/5), 1/Lip), W the h-weight they
    still feed and Lip the constant of the step guard (see
    ``_flow_schedule``), and the coarse Picard level steps
    min(16 ode_step, 1/Lip).  The knobs are the keyword arguments after
    ``times``, and their defaults are the class attributes of the same
    names; ``NONLINEAR_ONLY`` names the knobs that only the nonlinear
    solver reads.  ``replace`` returns a validated copy with some knobs
    changed.
    """

    q_h = 24
    q_g = 32
    eps_tail = 1e-10
    ode_step = 1e-2
    picard_tol = 1e-3
    picard_max_iters = 30
    t_ext = 0.0
    NONLINEAR_ONLY = ("picard_tol", "picard_max_iters", "t_ext")

    # each default is the class attribute above, read when the body runs
    def __init__(self, times, q_h: int = q_h, q_g: int = q_g, eps_tail: float = eps_tail,
                 ode_step: float = ode_step, picard_tol: float = picard_tol,
                 picard_max_iters: int = picard_max_iters, t_ext: float = t_ext):
        # a bool is an int: True would be one Picard sweep
        if not all(isinstance(n, (int, np.integer)) and not isinstance(n, bool)
                   for n in (q_h, q_g, picard_max_iters)):
            raise ValueError("q_h, q_g and picard_max_iters must be integers")
        if not all(isinstance(x, numbers.Real) and not isinstance(x, bool) and math.isfinite(x)
                   for x in (eps_tail, ode_step, picard_tol, t_ext)):
            raise ValueError("eps_tail, ode_step, picard_tol and t_ext must be real numbers and finite")
        times = tuple(float(t) for t in times)
        # 0 < t_1 < ... < t_n < inf, which no NaN meets
        if not times or not all(a < b for a, b in zip((0.0,) + times, times + (math.inf,))):
            raise ValueError(f"output times must be positive and strictly increasing, got {list(times)}")
        if t_ext and t_ext < times[-1]:
            raise ValueError("t_ext must reach at least the last output time")
        if ode_step <= 0.0 or picard_tol <= 0.0 or picard_max_iters < 1:
            raise ValueError("ode_step, picard_tol, picard_max_iters must be positive")
        self.times = times
        self.q_h, self.q_g, self.eps_tail, self.ode_step = q_h, q_g, eps_tail, ode_step
        self.picard_tol, self.picard_max_iters, self.t_ext = picard_tol, picard_max_iters, t_ext

    def replace(self, **changes) -> SolverConfig:
        """A copy with the knobs in ``changes`` set, validated as a new
        config; TypeError for a name that is not a knob."""
        return SolverConfig(**{**vars(self), **changes})


# ---------------------------------------------------------------------------
# The g-rule map, the h-rules and the field average
# ---------------------------------------------------------------------------


class _GRule:
    """The g_beta(., s) rule as a map s -> (real times r_q, weights summing
    to 1): the unit rule with nodes scaled by s^(1/beta).  At beta = 1 the
    unit rule is the one node 1 with weight 1, so the rule is (s, 1), and
    at s <= 0 it is the single node (s, 1) for every beta.
    ``picard._segment_masses`` tabulates the Picard lookups of it."""

    def __init__(self, beta: FracOrder, config: SolverConfig):
        self.nodes, self.weights, self.power = np.ones(1), np.ones(1), 1.0
        if not beta.is_classical:
            unit = g_quadrature(beta, 1.0, config.q_g, max(config.eps_tail, 1e-8))
            self.nodes, self.weights = unit.nodes, unit.weights / unit.weights.sum()
            self.power = 1.0 / beta.beta

    def __call__(self, s):
        if s <= 0.0:
            return np.array([s]), np.ones(1)
        return self.nodes * s ** self.power, self.weights


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


#: the most RK4 steps one flow sweep may take.  Laying out one step keeps
#: about 160 bytes and takes about 0.8 us (numpy 2.4, Python 3.11, 2-vCPU
#: VM), so a sweep of 10^7 steps holds some 1.6 GB and spends 8 s before
#: its first field call, of four per step; the benchmark's solves take
#: under 500 steps.  A count past it comes from an ``ode_step`` too small
#: for any run to finish, whose schedule would fill memory without end.
_MAX_RK4_STEPS = 10**7


def _check_step_count(n_steps: float):
    """Reject a flow sweep of more than ``_MAX_RK4_STEPS`` RK4 steps."""
    if n_steps > _MAX_RK4_STEPS:
        raise ValueError(f"ode_step too small: the flow would take {n_steps:.3g} RK4 steps, "
                         f"more than {_MAX_RK4_STEPS:.0e}")


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
    Carlo grid, whose every point a clock may read, steps at ``ode_step``.
    ValueError, before any stage is laid out, if the steps would number
    more than ``_MAX_RK4_STEPS``."""
    caps = np.broadcast_to(max_step, nodes[:-1].shape)
    with np.errstate(over="ignore"):  # an overflowing count is inf, and rejected
        _check_step_count(np.ceil(np.diff(nodes) / caps).sum())
    caps = caps.tolist()
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


def _matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b over the last two axes, by np.einsum: no BLAS call, so the
    bytes do not depend on the BLAS thread count, and a solve that makes
    no other BLAS product pages in no BLAS code or buffers for it."""
    return np.einsum("...ij,...jk->...ik", a, b)


def _rk4_map(hz: np.ndarray) -> np.ndarray:
    """RK4's one-step map of the linear system y' = Z y, for a stack hz of
    matrices h Z: the matrix polynomial I + hZ (I + hZ/2 (I + hZ/3 (I +
    hZ/4))), which is the stepper's x + (h/6)(k1 + 2 k2 + 2 k3 + k4) with
    k_i linear in x."""
    eye = np.eye(hz.shape[-1])
    r = eye + hz / 4.0
    for k in (3.0, 2.0, 1.0):
        r = eye + _matmul(hz / k, r)
    return r


def _affine_map(m: np.ndarray, x: np.ndarray) -> np.ndarray:
    """x L^T + c for the (d+1) x (d+1) matrix m = [[L, c], [0, 1]] and (N, d)
    positions x, in a fresh array (np.einsum, as ``_matmul``)."""
    d = x.shape[1]
    out = np.einsum("nj,ij->ni", x, m[:d, :d])
    out += m[:d, d]
    return out


def _affine_maps(z: np.ndarray, steps) -> list:
    """Per interval of ``steps`` (a ``_stage_schedule``), the product of the
    RK4 maps of its steps for the augmented matrix ``z``, or None for an
    interval with no step.  A run of n equal steps (an interval is one, or
    a run of full steps and a short last one) is R(hZ)^n, by repeated
    squaring; the maps of every run of the schedule are built and raised
    as one stack."""
    runs = [[(h, len(list(g))) for h, g in itertools.groupby(h for h, _ in interval)] for interval in steps]
    flat = list(itertools.chain(*runs))
    base = _rk4_map(np.multiply.outer(np.array([h for h, _ in flat]), z))
    power = np.broadcast_to(np.eye(z.shape[0]), base.shape).copy()
    # the exponents stay Python ints: numpy's integer loops would page in
    # code that nothing else in a solve runs
    n = [count for _, count in flat]
    while any(n):
        odd = np.array([k % 2 == 1 for k in n])
        power[odd] = _matmul(power[odd], base[odd])
        n = [k // 2 for k in n]
        base = _matmul(base, base)
    power = iter(power)
    return [functools.reduce(lambda m, p: _matmul(p, m), itertools.islice(power, len(interval)))
            if interval else None for interval in runs]


def _flow_advance(beta: FracOrder, v, mu0: EmpiricalMeasure, config: SolverConfig, times, steps):
    """advance(points, j): raw positions moved across interval j of the
    stage schedule (``times``, ``steps``) of the explicit field v.  An
    ``AffineField`` is advanced by its ``_affine_maps``, every other field
    by ``_advect_segment`` on its effective velocity: v itself when v is
    autonomous (its g-average is v, one call per stage instead of q_g, and
    no g-rule is built; ``_check_autonomous`` holds v to it), otherwise
    the field average over the g-rule of each stage time."""
    if isinstance(v, AffineField):
        with np.errstate(over="ignore", invalid="ignore"):  # _check_flow raises instead
            maps = _affine_maps(v.augmented(mu0.dim), steps)
        return lambda x, j: x if maps[j] is None else _affine_map(maps[j], x)
    _check_autonomous(v, mu0, times)
    if v.autonomous:
        vel = lambda x, k: v(x, times[k])
    else:
        g_rule = _GRule(beta, config)
        vel = lambda x, k: _field_average(v, x, *g_rule(times[k]))
    return lambda x, j: _advect_segment(vel, x, steps[j])


def _check_flow(points):
    """OverflowError unless every advected position in ``points``, at the end
    of a flow sweep, is finite.  An RK4 step adds x to its increment, so a
    position that is not finite stays so to the end of the sweep, and this
    one check covers every node of it."""
    if not np.isfinite(points).all():
        raise OverflowError("an advected position is not finite: the flow left the float range")


def _average_push_forwards(advance, mu0, nu, h_rules, nodes) -> list:
    """One measure per h-rule: sum_q w_q (Phi_{s_q} # mu0 + Duhamel_{s_q}),

        Duhamel_s = integral over r in [0, s] of Phi_{r -> s} # nu dr,

    for the source measure ``nu`` (None for no source), by the trapezoid
    rule on the flow ``nodes`` (which hold every h-node).  One flow sweep,
    where ``advance(points, j)`` moves raw positions across interval
    j = [nodes[j], nodes[j + 1]] (see ``_flow_advance``), covers every term.
    It carries one particle block, (points, weights): mu0's particles first,
    then one cohort of nu's per flow node, appended as it is injected.  The
    cohort of node j weighs (dr_left + dr_right) / 2, the widths of the
    intervals on either side, once advected, and dr_left / 2 as read at
    node j itself, so the source mass at a node n_k is n_k * mass(nu).

    The particles come in index order: output particle (q, i), at position
    q * mu0.size + i with no source, is particle i of the block at h-node q,
    with weight w_q * w_i.  Two calls on the same mu0 and h-rules thus give
    index-aligned ensembles, which ``picard._coupling_bound`` pairs.
    """
    widths = np.diff(nodes).tolist()
    points, weights = mu0.points.astype(float), mu0.weights
    at_node = []
    with np.errstate(over="ignore", invalid="ignore"):  # _check_flow raises instead
        for j, (left, right) in enumerate(zip([0.0] + widths, widths + [0.0])):
            if j:
                points = advance(points, j - 1)
            if nu is not None and nu.size:
                points = np.concatenate([points, nu.points])
                at_node.append((points, np.concatenate([weights, 0.5 * left * nu.weights])))
                weights = np.concatenate([weights, 0.5 * (left + right) * nu.weights])
            else:
                at_node.append((points, weights))
    _check_flow(points)

    measures = []
    for h_nodes, h_weights in h_rules:
        blocks = [at_node[j] for j in np.searchsorted(nodes, h_nodes).tolist()]
        measures.append(EmpiricalMeasure(points=np.concatenate([p for p, _ in blocks]),
                                         weights=np.concatenate([w_q * w for w_q, (_, w) in zip(h_weights, blocks)])))
    return measures


# ---------------------------------------------------------------------------
# Linear solver and its Monte Carlo oracle
# ---------------------------------------------------------------------------


def solve_linear(
    beta: FracOrder, v: ExplicitField | AffineField, mu0: EmpiricalMeasure, config: SolverConfig
) -> MeasurePath:
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
    v: ExplicitField | AffineField,
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
    _check_step_count(s_max / config.ode_step)  # before the grid is allocated
    n_steps = max(int(math.ceil(s_max / config.ode_step)), 1)
    s_grid = np.linspace(0.0, s_max, n_steps + 1)
    times, steps = _stage_schedule(s_grid, config.ode_step)
    advance = _flow_advance(beta, v, mu0, config, times, steps)

    flow = [mu0.points.astype(float)]
    with np.errstate(over="ignore", invalid="ignore"):  # _check_flow raises instead
        for j in range(len(steps)):
            flow.append(advance(flow[-1], j))
    _check_flow(flow[-1])
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
# Source term (Duhamel layer)
# ---------------------------------------------------------------------------


def solve_with_source(
    beta: FracOrder,
    v: ExplicitField | AffineField,
    mu0: EmpiricalMeasure,
    nu: EmpiricalMeasure | None,
    config: SolverConfig,
) -> MeasurePath:
    """Linear problem with the nonnegative source measure ``nu`` (None for
    no source), constant in time, by the double average

        mu_t = integral of (Phi_s # mu0 + Duhamel_s) h_beta(s, t) ds,
        Duhamel_s = integral over r in [0, s] of Phi_{r -> s} # nu dr.

    The inner integral uses the trapezoid rule on the flow node grid; nu's
    particles are injected at each node and advected together with the
    initial ensemble, so one flow sweep covers every term.  Mass grows by
    the accumulated source mass under the double average (reported in the
    path diagnostics, not conserved).  The diagnostics also hold
    ``rk4_steps``, the RK4 steps of the flow sweep.  A flow that carries a
    particle past the float range raises OverflowError, as it does in
    every solver.  At beta < 1 a field
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
    # Duhamel trapezoid rule, so the flow also steps through the ode_step
    # grid, whose size is checked before it is allocated
    if beta.is_classical:
        _check_step_count(config.times[-1] / config.ode_step)
    fine = np.arange(0.0, config.times[-1] + 1e-12, config.ode_step) if beta.is_classical else ()
    _check_step(config.ode_step, v.lip)
    h_rules = _h_rules(beta, config.times, config)
    nodes = _flow_nodes(h_rules, fine)
    if not (beta.is_classical or v.autonomous) and _varies_in_t(v, mu0, nodes[0], nodes[-1]):
        start = config.ode_step * np.array(_GRADED_START)
        nodes = _flow_nodes(h_rules, start[start < nodes[-1]])
    times, steps = _flow_schedule(nodes, h_rules, config.ode_step, v.lip)
    advance = _flow_advance(beta, v, mu0, config, times, steps)
    measures = _average_push_forwards(advance, mu0, nu, h_rules, nodes)
    grid = np.concatenate([[0.0], np.asarray(config.times)])
    out = MeasurePath(times=grid, measures=[mu0] + measures)
    out.diagnostics["source_mass"] = [total_mass(m) - total_mass(mu0) for m in measures]
    out.diagnostics["rk4_steps"] = sum(map(len, steps))
    return out
