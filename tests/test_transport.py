"""Solver tests: flows, g-averages, linear/nonlinear/source.

Closed forms: with the unit field from a Dirac, the first moment equals
the mean internal time Gamma(2)/Gamma(1+b) t^b; under the damping field
the mean position is the Mittag-Leffler function of -t^b; the symmetric
two-Dirac aggregation contracts the spread by the same factor.
"""

import contextlib
import json
import math
import os
import signal
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import fractrans
from fractrans import cli, picard, transport
from fractrans.distances import bl_distance
from fractrans.errors import PicardConvergenceError
from fractrans.measures import (
    EmpiricalMeasure,
    MeasurePath,
    expectation,
    moment,
    total_mass,
)
from fractrans.picard import (
    InteractionField,
    _path_average,
    _segment_masses,
    attraction_field,
    freezing_tail_probability,
    repulsion_field,
    solve_nonlinear,
)
from fractrans.rules import _kanter_rule, h_quadrature
from fractrans.specfun import FracOrder, inverse_moment_coeff, mittag_leffler
from fractrans.subordinator import RngSpec, sample_inverse
from fractrans.transport import (
    AffineField,
    ExplicitField,
    SolverConfig,
    _advect_segment,
    _field_average,
    _GRule,
    solve_linear,
    solve_linear_mc,
    solve_with_source,
)

B = FracOrder(0.5)
ONES = ExplicitField(func=lambda x, t: np.ones_like(x), lip=0.0)
DAMP = ExplicitField(func=lambda x, t: -x, lip=1.0)
ZERO = ExplicitField(func=lambda x, t: np.zeros_like(x), lip=0.0)


def _dirac(x=0.0):
    return EmpiricalMeasure.dirac([x])


def _two_diracs(a=1.0):
    return EmpiricalMeasure(points=np.array([[-a], [a]]), weights=np.array([0.5, 0.5]))


def _cfg(times=(0.5, 1.0), **kw):
    defaults = dict(times=times, q_h=64, q_g=16, eps_tail=1e-10, ode_step=1e-2)
    defaults.update(kw)
    return SolverConfig(**defaults)


def _sweep_schedule(beta, cfg):
    """(times, steps) of the RK4 stages that every Picard sweep of a solve
    walks, for a 1-Lipschitz interaction field and mu0 of mass at most 1:
    the schedule ``_sweep_map`` lays out."""
    grid = picard._grid_with_extension(cfg)
    h_rules = transport._h_rules(beta, grid[1:], cfg)
    return transport._flow_schedule(transport._flow_nodes(h_rules), h_rules, cfg.ode_step, 1.0)


def _stack(measures):
    """The (points, weights) stack of equal-size measures, as the Picard
    driver holds the grid measures after mu0."""
    return np.array([mu.points for mu in measures]), np.array([mu.weights for mu in measures])


def _fine_level(field, mu0, cfg, beta=B):
    """The fine sweep map of a nonlinear solve and the constant path mu0,
    stacked, that a Picard level without a coarse start begins from."""
    grid = picard._grid_with_extension(cfg)
    h_rules = transport._h_rules(beta, grid[1:], cfg)
    sweep = picard._sweep_map(field, mu0, transport._GRule(beta, cfg), h_rules, grid, cfg)
    return sweep, _stack([mu0] * (grid.size - 1))


def _measure(iterate, j):
    """Measure j of a stacked Picard iterate (points, weights): grid measure
    j + 1, as mu0 is not stacked."""
    points, weights = iterate
    return EmpiricalMeasure(points=points[j], weights=weights[j])


def _uniform_schedule(nodes, h_rules, ode_step, lip):
    """Stand-in for ``_flow_schedule`` that steps at ode_step throughout."""
    return transport._stage_schedule(nodes, ode_step)


# ---------------------------------------------------------------------------
# g-averages of the velocity
# ---------------------------------------------------------------------------


def test_field_average_constant_field_passes_through():
    times, weights = _GRule(B, _cfg(q_g=32)).lookups([1.0])
    v = _field_average(ONES, np.array([[0.3]]), times[0], weights[0])
    assert v[0, 0] == pytest.approx(1.0, abs=1e-10)


def test_field_average_exponential_decay_oracle():
    # v(x, s) = e^{-s} u: the g-average is the Laplace transform e^{-t^b}
    field = ExplicitField(func=lambda x, s: np.exp(-s) * np.ones_like(x), lip=0.0)
    times, weights = _GRule(B, _cfg(q_g=96)).lookups([1.0])
    v = _field_average(field, np.array([[0.0]]), times[0], weights[0])
    assert v[0, 0] == pytest.approx(math.exp(-1.0), abs=1e-4)


@pytest.mark.parametrize("beta", [0.5, 0.7, 1.0])
def test_g_rule_lookups_scale_the_unit_rule_with_a_point_rule_at_zero(beta):
    # row k is the unit rule scaled by the Python-float power s^(1/beta),
    # bit for bit, whatever the other rows; at s = 0 it is the point rule,
    # whose field average makes one field call
    g_rule = _GRule(FracOrder(beta), _cfg(q_g=16))
    stages = [0.0, 0.3, 1.0, 2.5]
    times, weights = g_rule.lookups(stages)
    assert times.shape == weights.shape == (len(stages), g_rule.nodes.size)
    for k, s in enumerate(stages[1:], start=1):
        np.testing.assert_array_equal(times[k], g_rule.nodes * s ** (1.0 / beta))
        np.testing.assert_array_equal(weights[k], g_rule.weights)
        alone = g_rule.lookups([s])
        np.testing.assert_array_equal(alone[0][0], times[k])
        np.testing.assert_array_equal(alone[1][0], weights[k])
    assert np.all(times[0] == 0.0) and weights[0, 0] == 1.0 and np.all(weights[0, 1:] == 0.0)
    if beta == 1.0:
        np.testing.assert_array_equal(times[1:, 0], stages[1:])
        assert np.all(weights == 1.0)
    calls = []
    field = ExplicitField(func=lambda x, t: calls.append(t) or x + t, lip=1.0)
    x = np.array([[0.25]])
    np.testing.assert_array_equal(_field_average(field, x, times[0], weights[0]), x)
    assert calls == [0.0]


def _rule_masses(grid, nodes, weights):
    """Segment masses of one rule looked up on its own: the summed weights
    of the nodes that hit each grid time."""
    hit = np.maximum(np.searchsorted(grid, nodes, side="right") - 1, 0)
    return np.bincount(hit, weights=weights, minlength=grid.size)


def _rule_row(grid, nodes, weights):
    """The ``_segment_masses`` row of one rule looked up on its own: the grid
    index that each node of nonzero weight looks up, and its weight."""
    cells = np.maximum(np.searchsorted(grid, nodes, side="right") - 1, 0)
    return cells[weights > 0.0], weights[weights > 0.0]


def _average(path, nodes, weights):
    """Raw path average of one rule over ``path``, held as the Picard driver
    holds an iterate: its first measure, then the others stacked."""
    return _path_average(path.measures[0], *_stack(path.measures[1:]), *_rule_row(path.times, nodes, weights))


def test_path_average_induced_field_cases():
    (nodes,), (weights,) = _GRule(B, _cfg(q_g=32)).lookups([1.0])
    mu = _two_diracs()
    path = MeasurePath(times=np.array([0.0, 1.0]), measures=[mu, mu])
    zero_kernel = InteractionField(kernel=lambda z: np.zeros_like(z), bound=0.0, lip=0.0)
    v = zero_kernel.induced(EmpiricalMeasure(*_average(path, nodes, weights)))(np.array([[0.7]]))
    assert np.all(v == 0.0)
    # symmetric pair with K(z) = -z induces v[mu](x) = -x (unit mass)
    attract = attraction_field()
    v = attract.induced(EmpiricalMeasure(*_average(path, nodes, weights)))(np.array([[0.7]]))
    assert v[0, 0] == pytest.approx(-0.7, abs=1e-10)
    # two different recorded measures, switching at r = 1 between g-nodes:
    # the field induced by the averaged path equals the average of the fields
    switch = MeasurePath(times=np.array([0.0, 1.0]), measures=[mu, _two_diracs(0.3)])
    assert nodes[0] < 1.0 < nodes[-1]
    repel = repulsion_field()
    x = np.array([[0.7], [-0.2]])
    expected = sum(w_q * repel.induced(switch.at(r_q))(x) for r_q, w_q in zip(nodes, weights))
    got = repel.induced(EmpiricalMeasure(*_average(switch, nodes, weights)))(x)
    np.testing.assert_allclose(got, expected, rtol=0.0, atol=1e-14)


@pytest.mark.parametrize("field", [repulsion_field(), attraction_field()], ids=["repulsion", "attraction"])
def test_path_lookup_field_matches_measure_by_measure_average(field):
    # the Picard stage's field on the raw path average equals the field
    # induced by the path average built measure by measure, bit for bit.
    # mu0 has a size of its own and the grid measures after it share one
    # (q_h times mu0's in a solve), so no stacked measure is ragged, and
    # none is empty unless mu0 is
    cfg = _cfg(times=(0.1, 0.2), q_g=32, t_ext=1.0)
    grid = picard._grid_with_extension(cfg)
    rng = np.random.default_rng(5)
    measures = [
        EmpiricalMeasure(points=rng.normal(size=(n, 2)), weights=rng.uniform(0.1, 1.0, size=n))
        for n in [3] + [6] * (grid.size - 1)
    ]
    path = MeasurePath(times=grid, measures=measures)
    (nodes,), (weights,) = _GRule(B, cfg).lookups([0.5])
    # one more node exactly on a recorded time, which hits that measure
    nodes, weights = np.append(nodes, grid[4]), np.append(weights, 0.25)
    # right-continuous lookup, frozen at the end: node r hits the last
    # measure recorded at or before r
    mass = [0.0] * grid.size
    for r_q, w_q in zip(nodes, weights):
        mass[max([k for k, t in enumerate(grid) if t <= r_q], default=0)] += w_q
    # the row hits mu0, several stacked measures, and skips some
    assert grid.size >= 5 and mass[0] > 0.0 and mass[4] > 0.0
    assert sum(m > 0.0 for m in mass[1:]) > 2 and any(m == 0.0 for m in mass)
    parts = [(mu, m) for mu, m in zip(measures, mass) if m > 0.0]
    average = EmpiricalMeasure(
        points=np.concatenate([mu.points for mu, _ in parts]),
        weights=np.concatenate([m * mu.weights for mu, m in parts]),
    )
    x = rng.normal(size=(7, 2))
    got = field.field(x, *_average(path, nodes, weights))
    np.testing.assert_array_equal(got, field.induced(average)(x))


def _row_masses(row, size):
    """The segment masses of a ``_segment_masses`` row, read through
    ``_path_average`` on a path of unit Diracs at 0, 1, ..., size - 1: the
    weight of atom j is m_j times 1.0, bitwise m_j."""
    mu0 = EmpiricalMeasure.dirac([0.0])
    points, weights = np.arange(1.0, size)[:, None, None], np.ones((size - 1, 1))
    at, mass = _path_average(mu0, points, weights, *row)
    masses = np.zeros(size)
    masses[at[:, 0].astype(int)] = mass
    return masses


def _bincount_path_average(mu0, points, weights, cells, masses):
    """The path average with a row's masses summed by ``np.bincount(cells,
    masses)``, an array as long as the largest hit cell: the reference
    ``_path_average`` keeps bit for bit."""
    m = np.bincount(cells, masses)
    hit = np.flatnonzero(m[1:])
    pts = points[hit].reshape(-1, mu0.dim)
    wts = (m[1:][hit, None] * weights[hit]).ravel()
    if m[0]:
        pts, wts = np.concatenate([mu0.points, pts]), np.concatenate([m[0] * mu0.weights, wts])
    keep = wts > 0.0
    return pts[keep], wts[keep]


def test_path_average_sums_each_cell_as_a_bincount_does():
    # the masses of a repeated cell are added in node order, so each sum is
    # the bincount's to the bit, also for more than 8 masses in one cell
    # (where a pairwise sum would group them otherwise) and far past the
    # start of a long grid
    rng = np.random.default_rng(11)
    size = 30_005
    mu0 = EmpiricalMeasure(points=rng.normal(size=(3, 2)), weights=rng.uniform(0.1, 1.0, size=3))
    points, weights = rng.normal(size=(size - 1, 3, 2)), rng.uniform(0.1, 1.0, size=(size - 1, 3))
    rows = [
        [0, 0, 0, 5, 5, 30_001],
        [2] * 11 + [7],
        [30_003, 30_003, 30_004],
        [7, 2, 7, 0, 2],  # unsorted: the sums still follow node order
        [0],
    ]
    for cells in map(np.array, rows):
        masses = rng.uniform(size=cells.size) * 10.0 ** rng.integers(-8, 1, size=cells.size)
        got = _path_average(mu0, points, weights, cells, masses)
        want = _bincount_path_average(mu0, points, weights, cells, masses)
        for a, b in zip(got, want):
            assert a.shape == b.shape and a.tobytes() == b.tobytes(), cells
        if cells.size == 12:
            # numpy's pairwise sum of cell 2's 11 masses is another number,
            # so this row tells the two orders apart
            assert np.sum(masses[:11]) != np.bincount(cells, masses)[2]


@pytest.mark.parametrize("beta", [0.5, 0.7, 1.0])
def test_segment_mass_rows_equal_per_rule_masses(beta):
    # rows of lookup cells and weights, equal neighbours merged, give at
    # every stage, once their cells are summed, the masses that looking up
    # its g-rule on its own gives, bit for bit
    beta = FracOrder(beta)
    cfg = _cfg(times=(0.25, 0.5), q_h=8, q_g=16, ode_step=0.05, t_ext=1.3)
    g_rule = _GRule(beta, cfg)
    grid = picard._grid_with_extension(cfg)
    times, _ = _sweep_schedule(beta, cfg)
    # the first stage a third of the way along the flow
    k = int(np.searchsorted(times, times[-1] / 3.0))
    r = np.sort(g_rule.lookups(times)[0][k])
    if r.size > 1:
        # a grid time exactly on a g-node of stage k, and two between its
        # next two g-nodes, so that the measures it hits are not one run
        gap = r[2] + np.array([1.0, 2.0]) / 3.0 * (r[3] - r[2])
        grid = np.unique(np.concatenate([grid, [r[1]], gap]))
    rows, index = _segment_masses(g_rule, grid, times)
    assert len(index) == len(times)
    table = np.array([_row_masses(row, grid.size) for row in rows])[index]
    for row, s in zip(table, times):
        (nodes,), (weights,) = g_rule.lookups([s])
        np.testing.assert_array_equal(row, _rule_masses(grid, nodes, weights))
    # a row holds at most q_g entries, all of them nonzero; each row is kept
    # once per run of equal stages, and a g-node's lookup index never
    # decreases in s
    assert all(cells.size == masses.size <= cfg.q_g and np.all(masses > 0.0) for cells, masses in rows)
    assert not any(np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1]) for a, b in zip(rows, rows[1:]))
    assert index[0] == 0 and np.all(np.diff(index) >= 0)
    assert len(rows) <= cfg.q_g * (grid.size - 1) + 1
    # stage 0 is s = 0, a point rule; later g-rules look up past t_ext,
    # where the path is frozen
    assert times[0] == 0.0 and table[0, 0] == 1.0
    assert table[:, -1].max() > 0.0
    if r.size > 1:
        on, a, b = np.searchsorted(grid, [r[1], *gap])
        assert table[k, on] > 0.0 and b == a + 1
        assert table[k, a - 1] > 0.0 and table[k, a] == 0.0 and table[k, b] > 0.0
    # the point rule at s = 0 and the rules just past it, all of whose nodes
    # look up t_0: at beta 1/2 the normalized weights add up, in bincount
    # order, to exactly 1.0 at q_g 8 and to just below 1.0 at q_g 28, and
    # either way the two are two rows, whose cells and weights differ.  A
    # grid of one time (a source path of one measure) has no grid time to
    # cross.
    times = [0.0, 0.025, 0.05]
    for q_g, total in ((8, 1.0), (28, np.nextafter(1.0, 0.0))):
        half = _GRule(FracOrder(0.5), _cfg(q_g=q_g))
        for grid in (np.array([0.0, 1e300]), np.array([0.0])):
            rows, index = _segment_masses(half, grid, times)
            for row, s in zip(index, times):
                (nodes,), (weights,) = half.lookups([s])
                np.testing.assert_array_equal(_row_masses(rows[row], grid.size),
                                              _rule_masses(grid, nodes, weights))
            assert len(rows) == 2 and list(index) == [0, 1, 1]
            assert _row_masses(rows[1], grid.size)[0] == total


def test_segment_masses_hold_no_stage_by_grid_table():
    # 6,403 stages look up 401 grid times, in 331 rows of at most q_g
    # entries (93 kB with the stage index): a stages x grid float table
    # would take 20.5 MB
    cfg = _cfg(times=(0.01,), q_h=8, q_g=8, t_ext=4.0)
    grid = picard._grid_with_extension(cfg)
    times, _ = _sweep_schedule(B, cfg)
    g_rule = _GRule(B, cfg)
    tracemalloc.start()
    try:
        rows, index = _segment_masses(g_rule, grid, times)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(times) * grid.size * 8 > 20e6 and len(index) == len(times)
    assert peak < 8e6


def test_segment_mass_rows_stay_small_on_a_long_grid():
    # times [0.003] with t_ext 4: 21,329 stages look up 1,334 grid times.
    # Bounds fixed before the first run: the returned arrays under 0.5 MB
    # (dense rows took 11.7 MB) and a tracemalloc peak under 10 MB (26.5 MB)
    cfg = _cfg(times=(0.003,), q_h=8, q_g=8, t_ext=4.0)
    grid = picard._grid_with_extension(cfg)
    times, _ = _sweep_schedule(B, cfg)
    g_rule = _GRule(B, cfg)
    assert (len(times), grid.size) == (21_329, 1_334)
    tracemalloc.start()
    try:
        rows, index = _segment_masses(g_rule, grid, times)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    held = index.nbytes + sum(cells.nbytes + masses.nbytes for cells, masses in rows)
    assert held < 0.5e6
    assert peak < 10e6


@pytest.mark.parametrize("field", [repulsion_field(), attraction_field()], ids=["repulsion", "attraction"])
def test_path_lookup_slices_and_masks_match_measure_by_measure_average(field):
    # rows whose hit measures form one run or leave gaps, and an atom whose
    # mass underflows to 0, which is dropped: each gives the average built
    # measure by measure, bit for bit.  The measures after mu0 share one
    # size, as in a solve's stack, where no ragged or empty one can arise
    grid = np.array([0.0, 0.25, 0.5, 0.75, 1.0])
    rng = np.random.default_rng(8)
    measures = [
        EmpiricalMeasure(points=rng.normal(size=(n, 2)), weights=rng.uniform(0.1, 1.0, size=n))
        for n in (3, 4, 4, 4, 4)
    ]
    tiny = EmpiricalMeasure(points=rng.normal(size=(4, 2)), weights=np.array([1e-300, 0.5, 0.25, 0.125]))
    run = (np.array([0.3, 0.6, 0.8]), np.array([0.5, 0.3, 0.2]))  # measures 1 to 3
    gaps = (np.array([0.1, 0.9]), np.array([0.5, 0.5]))  # measures 0 and 3
    underflow = (np.array([0.3, 0.8]), np.array([1.0, 1e-30]))  # 1e-30 * 1e-300 is 0
    x = rng.normal(size=(6, 2))
    cases = [
        (measures, [run, gaps]),
        (measures[:3] + [tiny, measures[4]], [run, underflow]),
    ]
    for path_measures, rules in cases:
        path = MeasurePath(times=grid, measures=path_measures)
        for nodes, weights in rules:
            mass = [sum(w for r, w in zip(nodes, weights) if path.at(r) is mu) for mu in path_measures]
            parts = [(mu.points, m * mu.weights) for mu, m in zip(path_measures, mass)]
            pts = np.concatenate([p[a > 0.0] for p, a in parts])
            wts = np.concatenate([a[a > 0.0] for _, a in parts])
            got_pts, got_wts = _average(path, nodes, weights)
            np.testing.assert_array_equal(got_pts, pts)
            np.testing.assert_array_equal(got_wts, wts)
            expected = field.induced(EmpiricalMeasure(points=pts, weights=wts))(x)
            np.testing.assert_array_equal(field.field(x, got_pts, got_wts), expected)
    # measure 1 and the tiny measure but its underflowing atom
    assert wts.size == 4 + 3


def test_induced_field_takes_any_array_like_positions():
    mu = EmpiricalMeasure(points=np.array([[0.0, 1.0], [2.0, -1.0]]), weights=np.array([0.25, 0.75]))
    for field in (repulsion_field(), attraction_field()):
        v = field.induced(mu)
        # a 1-D list is one point; integers become floats
        assert v([1, 0]).shape == (1, 2)
        np.testing.assert_array_equal(v([1, 0]), v(np.array([[1.0, 0.0]])))
        np.testing.assert_array_equal(v([[1, 0], [0.5, 0.5]])[1], v([0.5, 0.5])[0])


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_repulsion_field_matches_double_loop(dim):
    rng = np.random.default_rng(2)
    x = rng.normal(size=(40, dim))
    mu = EmpiricalMeasure(points=rng.normal(size=(60, dim)), weights=rng.uniform(0.1, 1.0, size=60))
    expected = np.zeros((40, dim))
    for i in range(40):
        for y_j, w_j in zip(mu.points, mu.weights):
            z = x[i] - y_j
            expected[i] += w_j * z / (1.0 + float(z @ z))
    np.testing.assert_allclose(repulsion_field().induced(mu)(x), expected, rtol=0.0, atol=1e-14)


@pytest.mark.parametrize("dim", [2, 3])
def test_repulsion_kernel_is_bitwise_the_summed_formula(dim):
    # the columns of |z|^2 summed in place add in the order of
    # (z * z).sum(axis=-1), so every bit of the field is kept
    rng = np.random.default_rng(5)
    for scale in (1e-200, 1.0, 1e3, 1e200):
        z = rng.normal(size=(36, 90, dim)) * scale
        with np.errstate(over="ignore"):
            expected = z / (1.0 + (z * z).sum(axis=-1, keepdims=True))
            got = repulsion_field().kernel(z.copy())
        np.testing.assert_array_equal(got.view(np.int64), expected.view(np.int64))


def test_kernel_gets_the_displacements_unreshaped():
    # one kernel call on the fresh (n, M, d) displacements, which the
    # repulsion kernel divides in place; x and the points are not written
    rng = np.random.default_rng(3)
    x, points, weights = rng.normal(size=(3, 2)), rng.normal(size=(5, 2)), rng.uniform(size=5)
    x.setflags(write=False)
    points.setflags(write=False)
    shapes = []
    repel = repulsion_field()

    def kernel(z):
        shapes.append(z.shape)
        return repel.kernel(z)

    got = InteractionField(kernel=kernel, bound=repel.bound, lip=repel.lip).field(x, points, weights)
    assert shapes == [(3, 5, 2)]
    z = x[:, None, :] - points[None, :, :]
    expected = np.einsum("j,njd->nd", weights, z / (1.0 + (z * z).sum(axis=-1, keepdims=True)))
    np.testing.assert_array_equal(got, expected)


def test_repulsion_self_interaction_is_finite():
    # coincident points contribute K(0) = 0, no singularity
    for dim in (1, 2, 3):
        origin = np.zeros((3, dim))
        at_origin = EmpiricalMeasure(points=origin, weights=np.ones(3))
        np.testing.assert_array_equal(repulsion_field().induced(at_origin)(origin), origin)


# ---------------------------------------------------------------------------
# Flow integration
# ---------------------------------------------------------------------------


def _advect(vel, points, s_a, s_b, ode_step):
    """RK4 advection from s_a to s_b of the velocity vel(x, s)."""
    times, steps = transport._stage_schedule(np.array([s_a, s_b]), ode_step)
    return _advect_segment(lambda x, k: vel(x, times[k]), points, steps[0])


def test_flow_zero_velocity_is_identity():
    pts = _two_diracs().points
    zero = _advect(lambda x, s: np.zeros_like(x), pts, 0.0, 1.0, 0.1)
    np.testing.assert_array_equal(zero, pts)
    # an empty segment is the identity without a step
    np.testing.assert_array_equal(_advect(lambda x, s: x, pts, 1.0, 1.0, 0.1), pts)


def test_flow_constant_velocity_exact():
    for s_b in (2.0, 0.75):
        x = _advect(lambda x, s: np.ones_like(x), _dirac(0.0).points, 0.0, s_b, 0.125)
        assert x[0, 0] == pytest.approx(s_b, rel=1e-12)


def test_flow_linear_decay_rk4_accuracy():
    x = _advect(lambda x, s: -x, _dirac(1.0).points, 0.0, 1.0, 1e-2)
    assert x[0, 0] == pytest.approx(math.exp(-1.0), abs=1e-9)


def test_rk4_step_is_the_textbook_expression_bit_for_bit():
    # a time-dependent nonlinear field: the stepper's in-place sum equals
    # x + (h / 6) * (k1 + 2 k2 + 2 k3 + k4) written out, at every bit
    def vel(x, s):
        return np.sin(3.0 * x + s) * np.exp(-s) + 0.25 * x * x

    x0 = np.linspace(-1.0, 1.0, 7)[:, None] * np.array([[1.0, -0.5]])
    times, steps = transport._stage_schedule(np.array([0.0, 0.37]), 0.05)
    expected = x0
    for h, k in steps[0]:
        k1 = vel(expected, times[k])
        k2 = vel(expected + 0.5 * h * k1, times[k + 1])
        k3 = vel(expected + 0.5 * h * k2, times[k + 1])
        k4 = vel(expected + h * k3, times[k + 2])
        expected = expected + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    got = _advect_segment(lambda x, k: vel(x, times[k]), x0, steps[0])
    assert len(steps[0]) == 8
    np.testing.assert_array_equal(got, expected)


#: (A, b) per dimension: A = 0 (a nilpotent augmented matrix), pure
#: damping, and rotation plus damping, each with a nonzero offset
_AFFINE_CASES = {
    "drift": lambda d: (np.zeros((d, d)), np.linspace(0.5, -1.5, d)),
    "damping": lambda d: (-np.eye(d), np.linspace(0.25, 0.75, d)),
    "rotation": lambda d: (-0.4 * np.eye(d) + 1.3 * (np.eye(d, k=1) - np.eye(d, k=-1)) + 0.2 * np.eye(d, k=2),
                           np.linspace(-0.3, 0.6, d)),
}


def _as_explicit(field):
    """The affine ``field`` as an ExplicitField, stepped by the RK4 stepper."""
    a, b = field.matrix, field.offset
    return ExplicitField(func=lambda x, t: x @ a.T + b, lip=field.lip, autonomous=True)


@pytest.mark.parametrize("case", sorted(_AFFINE_CASES))
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_affine_maps_are_the_rk4_stepper(case, dim):
    # RK4's map for an affine field is the matrix polynomial of the
    # augmented matrix, composed over the steps of each interval: 7 steps of
    # 0.05 and a short last one of 0.02, 4 equal steps, one step of 0.05,
    # and, over a node 1e-16 past the one before, no step at all
    field = AffineField(*_AFFINE_CASES[case](dim))
    explicit = _as_explicit(field)
    x0 = np.linspace(-1.0, 2.0, 5 * dim).reshape(5, dim)
    times, steps = transport._stage_schedule(np.array([0.0, 0.37, 0.57, 0.62, 0.62 + 1e-16]), 0.05)
    assert [len(interval) for interval in steps] == [8, 4, 1, 0]
    maps = transport._affine_maps(field.augmented(dim), steps)
    for interval, m in zip(steps[:3], maps):
        want = _advect_segment(lambda x, k: explicit(x, times[k]), x0, interval)
        got = transport._affine_map(m, x0)
        assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max(), (case, dim, len(interval))
    assert maps[3] is None


def test_affine_field_is_x_a_transposed_plus_b():
    a, b = _AFFINE_CASES["rotation"](3)
    field = AffineField(matrix=a, offset=b)
    x = np.linspace(-1.0, 1.0, 12).reshape(4, 3)
    np.testing.assert_allclose(field(x, 0.3), x @ a.T + b, rtol=1e-15, atol=1e-15)
    assert field.autonomous and field.lip == pytest.approx(np.linalg.norm(a, 2), rel=1e-15)
    # a number is that multiple of the identity, or that offset in every coordinate
    for number, full in ((AffineField(-2.0, 0.5), AffineField(-2.0 * np.eye(3), np.full(3, 0.5))),
                         (AffineField(0.0, [1.0]), AffineField(np.zeros((3, 3)), np.ones(3)))):
        np.testing.assert_array_equal(number.augmented(3), full.augmented(3))
        assert number.lip == full.lip
    with pytest.raises(ValueError, match="must be square"):
        AffineField(matrix=np.ones((2, 3)))


def test_rk4_step_writes_to_no_velocity_and_no_input():
    # a velocity may return read-only views of shared arrays: the stepper
    # writes into neither them nor the points it was given
    shared = np.array([[1.0, -2.0]])
    shared.flags.writeable = False

    def vel(x, k):
        return np.broadcast_to(shared * (k + 1), x.shape)

    x0 = np.zeros((3, 2))
    x0.flags.writeable = False
    times, steps = transport._stage_schedule(np.array([0.0, 0.5]), 0.125)
    got = _advect_segment(vel, x0, steps[0])
    assert np.all(x0 == 0.0) and np.array_equal(shared, [[1.0, -2.0]])
    # k1 to k4 at stages k, k + 1, k + 1 and k + 2 average to (k + 2) * shared
    expected = sum(0.125 * (k + 2) for _, k in steps[0]) * shared
    np.testing.assert_allclose(got, np.broadcast_to(expected, x0.shape), rtol=1e-15)


def test_default_linear_solve_takes_358_rk4_steps():
    # the steps past the heavy h-nodes grow as the weight they feed falls;
    # uniform steps of ode_step take 1,121 here
    path = solve_linear(B, DAMP, _dirac(1.0), SolverConfig(times=(0.5, 1.0)))
    assert path.diagnostics["rk4_steps"] == 358


@pytest.mark.parametrize("lip", [1.0, 20.0])
def test_flow_steps_follow_the_h_weight_they_feed(lip):
    # interval j steps at most min(ode_step W_j^(-1/5), 1/lip), W_j the
    # largest h-weight past nodes[j] over every row: ode_step where the
    # full weight is fed.  The schedule reads W_j off the last row alone;
    # the Picard grid of (0.25, 0.5, 1) extended to t_ext 4 has 15 rows
    linear = SolverConfig(times=(0.5, 1.0))
    extended = SolverConfig(times=(0.25, 0.5, 1.0), t_ext=4.0)
    for cfg, times in ((linear, linear.times), (extended, picard._grid_with_extension(extended)[1:])):
        h_nodes, weights = h_rules = transport._h_rules(B, times, cfg)
        nodes = transport._flow_nodes(h_rules)
        _, steps = transport._flow_schedule(nodes, h_rules, cfg.ode_step, lip)
        fed = [max(float(weights[row > s].sum()) for row in h_nodes) for s in nodes[:-1]]
        widest = 0.0
        for w_j, interval in zip(fed, steps):
            h = max(step for step, _ in interval)
            widest = max(widest, h)
            assert h <= 1.0 / lip
            assert h <= cfg.ode_step * w_j**-0.2 * (1.0 + 1e-12)
            if w_j >= 1.0 - 1e-15:
                assert h <= cfg.ode_step
        # the light tail steps far longer than ode_step; at lip 20, 1/lip binds
        assert fed[0] >= 1.0 - 1e-15 and widest > 4.0 * cfg.ode_step
        if lip > 1.0:
            assert widest == 1.0 / lip


def test_mc_schedule_is_the_uniform_one(monkeypatch):
    # a clock may read every point of the Monte Carlo grid, so no h-weight
    # sizes its steps: the solve never lays out a weighted schedule, and its
    # one schedule is the uniform grid at ode_step itself, one step per grid
    # interval of exactly min(ode_step, spacing), bit for bit
    schedules = []
    stage_schedule = transport._stage_schedule

    def recording(nodes, max_step):
        schedules.append((nodes, max_step))
        return stage_schedule(nodes, max_step)

    def weighted(*args):
        raise AssertionError("the Monte Carlo grid was sized by h-weights")

    monkeypatch.setattr(transport, "_stage_schedule", recording)
    monkeypatch.setattr(transport, "_flow_schedule", weighted)
    cfg = _cfg(times=(0.5, 1.0), ode_step=0.02)
    solve_linear_mc(B, DAMP, _two_diracs(), cfg, n_paths=50, seed=4)
    [(grid, max_step)] = schedules
    assert type(max_step) is float and max_step == cfg.ode_step
    np.testing.assert_array_equal(grid, np.linspace(0.0, grid[-1], grid.size))
    _, steps = stage_schedule(grid, max_step)
    spacing = np.diff(grid).tolist()
    assert [[h for h, _ in interval] for interval in steps] == [[min(cfg.ode_step, ds)] for ds in spacing]


def test_weighted_steps_keep_a_time_dependent_flow(monkeypatch):
    # v = -x (1 + e^-t) is time-dependent, so every stage averages it over
    # the g-rule, whose nodes put a feature into that average at each scale
    # of s near 0; the graded start steps about s/8 there.  The weighted
    # steps at ode_step 0.01 then stay within 1e-8 (a d_BL upper bound) of
    # the uniform ones and of a solve at ode_step 0.00125; without the
    # graded start the two solves are about 7e-7 apart
    v = ExplicitField(func=lambda x, t: -x * (1.0 + np.exp(-t)), lip=2.0)
    mu0 = EmpiricalMeasure(points=np.array([[-1.0], [0.5], [2.0]]), weights=np.full(3, 1.0 / 3.0))

    def solve(ode_step):
        return solve_linear(B, v, mu0, _cfg(times=(0.5,), q_h=8, q_g=8, ode_step=ode_step))

    def distance(p, q):
        return max(picard._coupling_bound(a, b) for a, b in zip(p.measures, q.measures))

    weighted, fine = solve(0.01), solve(0.00125)
    assert distance(weighted, fine) <= 1e-8
    with monkeypatch.context() as patch:
        patch.setattr(transport, "_GRADED_START", ())
        assert distance(solve(0.01), solve(0.00125)) > 1e-7
    monkeypatch.setattr(transport, "_flow_schedule", _uniform_schedule)
    uniform = solve(0.01)
    assert weighted.diagnostics["rk4_steps"] < uniform.diagnostics["rk4_steps"] / 2
    assert distance(weighted, uniform) <= 1e-8


def test_mislabelled_autonomous_field_is_rejected():
    # a field that depends on t but is marked autonomous would be used as its
    # own g-average; every linear solver compares it at mu0's points between
    # the first and the last stage time and refuses it
    decay = ExplicitField(func=lambda x, t: np.exp(-t) * np.ones_like(x), lip=0.0, autonomous=True)
    cfg = _cfg(times=(0.5, 1.0), q_h=8, q_g=8, ode_step=0.05)
    source = _dirac(0.5)
    solves = [
        lambda beta, v, mu0: solve_linear(beta, v, mu0, cfg),
        lambda beta, v, mu0: solve_with_source(beta, v, mu0, source, cfg),
        lambda beta, v, mu0: solve_linear_mc(beta, v, mu0, cfg, n_paths=10),
    ]
    empty = EmpiricalMeasure(points=np.zeros((0, 1)), weights=np.zeros(0))
    for solve in solves:
        for beta in (B, FracOrder(1.0)):
            with pytest.raises(ValueError, match="autonomous=True"):
                solve(beta, decay, _dirac())
        # unmarked, the field is averaged; with no initial particle there is
        # nothing to check
        solve(B, ExplicitField(func=decay.func, lip=decay.lip, autonomous=False), _dirac())
        solve(B, decay, empty)


def test_solvers_reject_steps_beyond_the_lipschitz_scale():
    # ode_step * lip = 2 > 1
    cfg = _cfg(times=(1.0,), ode_step=2.0)
    with pytest.raises(ValueError, match="too large for Lipschitz constant"):
        solve_linear(B, DAMP, _dirac(), cfg)
    with pytest.raises(ValueError, match="too large for Lipschitz constant"):
        solve_linear_mc(B, DAMP, _dirac(), cfg, n_paths=10)


class _Overran(Exception):
    pass


@contextlib.contextmanager
def _within(seconds: float):
    """Raise _Overran in a block still running after ``seconds``: a flow
    schedule with no step budget would lay out stages, and fill memory,
    without end."""

    def overran(signum, frame):
        raise _Overran(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, overran)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("beta", [B, FracOrder(1.0)])
def test_solvers_reject_a_step_too_small_for_any_run(beta):
    # 1e-300 passes the Lipschitz guard and would take ~1e300 RK4 steps;
    # every solver refuses it before laying out a stage, the Picard solve
    # on both its coarse and its fine schedule
    cfg = _cfg(times=(0.5,), q_h=8, q_g=8, ode_step=1e-300)
    solves = [
        lambda: solve_linear(beta, DAMP, _dirac(), cfg),
        lambda: solve_with_source(beta, DAMP, _dirac(), _dirac(0.5), cfg),
        lambda: solve_linear(beta, AffineField(matrix=-1.0), _dirac(), cfg),
        lambda: solve_linear_mc(beta, DAMP, _dirac(), cfg, n_paths=10),
        lambda: solve_nonlinear(beta, repulsion_field(), _two_diracs(), cfg),
    ]
    grid = np.array([0.0, 0.5])
    h_rules = transport._h_rules(beta, (0.5,), cfg)
    for level_step in (cfg.ode_step, picard._COARSE_FACTOR * cfg.ode_step):  # fine, coarse
        solves.append(lambda step=level_step: picard._sweep_map(
            repulsion_field(), _two_diracs(), _GRule(beta, cfg), h_rules, grid, cfg.replace(ode_step=step)))
    with _within(1.0):
        for solve in solves:
            with pytest.raises(ValueError, match="ode_step too small"):
                solve()


def test_cli_exits_2_on_a_step_too_small_for_any_run(tmp_path, capsys):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({
        "problem": "linear", "beta": 0.5, "times": [0.5], "velocity": {"kind": "damping"},
        "initial": {"kind": "dirac", "point": [1.0]}, "solver": {"ode_step": 1e-300},
    }))
    out = tmp_path / "o"
    with _within(1.0):
        assert cli.main(["solve", "--config", str(config), "--out", str(out)]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ode_step too small") and len(err.splitlines()) == 1
    assert not any(out.glob("*"))


@pytest.mark.parametrize("problem, velocity, solver", [
    # a q_h 4096 planning rule has 16 (4096/8)^2 nodes, and its Stieltjes
    # recurrence runs 4096 steps over them: over 20 s before the budget
    ("linear", "damping", {"q_h": 4096}),
    ("nonlinear", "repulsion", {"q_h": 8, "q_g": 4096}),
], ids=["q_h", "q_g"])
def test_cli_exits_2_at_once_on_a_rule_past_the_budget(tmp_path, capsys, problem, velocity, solver):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({
        "problem": problem, "beta": 0.5, "times": [0.5], "velocity": {"kind": velocity},
        "initial": {"kind": "dirac", "point": [1.0]}, "solver": solver,
    }))
    out = tmp_path / "o"
    with _within(1.0):
        assert cli.main(["solve", "--config", str(config), "--out", str(out)]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("configuration error: a rule has 2 to 512 nodes") and len(err.splitlines()) == 1
    assert not out.exists()


@pytest.mark.filterwarnings("error::RuntimeWarning")  # the flow is computed with numpy's warnings off
def test_solvers_raise_overflow_when_the_flow_leaves_the_float_range():
    # x' = 50 x carries 1e300 past the float range by s = 0.4, stepped or
    # by the composed affine maps
    cfg = _cfg(times=(1.0,), q_h=8)
    mu0 = _dirac(1e300)
    for grow in (ExplicitField(func=lambda x, t: 50.0 * x, lip=50.0, autonomous=True), AffineField(matrix=50.0)):
        for solve in (lambda: solve_linear(B, grow, mu0, cfg),
                      lambda: solve_with_source(B, grow, mu0, _dirac(1.0), cfg),
                      lambda: solve_linear_mc(B, grow, mu0, cfg, n_paths=10, seed=1)):
            with pytest.raises(OverflowError, match="not finite"):
                solve()


# ---------------------------------------------------------------------------
# Linear solver
# ---------------------------------------------------------------------------


def test_linear_zero_velocity_constant_path():
    path = solve_linear(B, ZERO, _two_diracs(), _cfg())
    for mu in path.measures:
        assert sorted(np.unique(mu.points.ravel())) == [-1.0, 1.0]
        assert total_mass(mu) == pytest.approx(1.0, rel=1e-13)


def test_linear_dirac_first_moment_oracle():
    path = solve_linear(B, ONES, _dirac(), _cfg())
    for t, mu in zip(path.times[1:], path.measures[1:]):
        exact = inverse_moment_coeff(B, 1.0) * t**0.5
        assert moment(mu, 1) == pytest.approx(exact, rel=1e-6), f"t={t}"


def test_linear_damping_mean_is_mittag_leffler():
    path = solve_linear(B, DAMP, _dirac(1.0), _cfg())
    for t, mu in zip(path.times[1:], path.measures[1:]):
        exact = mittag_leffler(B, -(t**0.5))
        got = expectation(mu, lambda x: x[:, 0])
        assert got == pytest.approx(exact, rel=1e-6), f"t={t}"


def test_linear_mass_conserved():
    mu0 = EmpiricalMeasure(
        points=np.array([[0.0], [1.0], [2.0]]), weights=np.array([0.2, 0.3, 0.5])
    )
    path = solve_linear(B, DAMP, mu0, _cfg())
    for mu in path.measures:
        assert total_mass(mu) == pytest.approx(1.0, rel=1e-13)


def test_linear_classical_push_forward():
    beta1 = FracOrder(1.0)
    cfg = SolverConfig(times=(1.0,), ode_step=1e-2)
    path = solve_linear(beta1, ONES, _dirac(), cfg)
    assert path.measures[-1].points[0, 0] == pytest.approx(1.0, rel=1e-12)


def test_linear_mc_agreement():
    cfg = _cfg(times=(1.0,))
    det = solve_linear(B, DAMP, _dirac(1.0), cfg)
    mc = solve_linear_mc(B, DAMP, _dirac(1.0), cfg, n_paths=20_000, seed=5)
    vals = mc.measures[-1].points.ravel()
    se = vals.std(ddof=1) / math.sqrt(vals.size)
    assert abs(vals.mean() - expectation(det.measures[-1], lambda x: x[:, 0])) < 3.0 * se


def test_linear_mc_zero_velocity_exact():
    path = solve_linear_mc(B, ZERO, _dirac(0.3), _cfg(times=(1.0,)), n_paths=500)
    np.testing.assert_allclose(path.measures[-1].points, 0.3, rtol=1e-14)
    assert total_mass(path.measures[-1]) == pytest.approx(1.0, rel=1e-13)


def test_linear_mc_paths_nonnegative_and_monotone_in_time():
    # the unit field from a Dirac at 0 moves each path's particle to its
    # clock, so the index-aligned outputs are the sampled clocks themselves
    times = (0.25, 0.5, 1.0)
    path = solve_linear_mc(B, ONES, _dirac(), _cfg(times=times), n_paths=2_000)
    pts = np.stack([mu.points[:, 0] for mu in path.measures[1:]])
    assert np.all(pts >= 0.0)
    assert np.all(np.diff(pts, axis=0) >= 0.0)
    # clocks fall between flow grid nodes, so this pins the interpolation
    clocks = np.outer(np.asarray(times) ** 0.5, sample_inverse(B, 1.0, RngSpec(0, 1), size=2_000))
    np.testing.assert_allclose(pts, clocks, rtol=0.0, atol=1e-12)


# ---------------------------------------------------------------------------
# Gauss h-rule
# ---------------------------------------------------------------------------


def _unit_h_rule(beta, **kw):
    (nodes,), weights = transport._h_rules(beta, (1.0,), SolverConfig(times=(1.0,), **kw))
    return nodes, weights


def _laplace_error(nodes, weights, beta):
    """Worst error of E[exp(-lam E_1)] = E_beta(-lam) over lam in {0.5, 1, 4}."""
    return max(abs(float(np.sum(weights * np.exp(-lam * nodes))) - mittag_leffler(beta, -lam))
               for lam in (0.5, 1.0, 4.0))


#: Laplace error of the 64-node composite panel rule (eps_tail 1e-10) that
#: h_quadrature built before it became the Gauss rule
_COMPOSITE_64_LAPLACE_ERROR = {
    0.05: 5.16e-11, 0.1: 3.83e-11, 0.2: 1.50e-11, 0.3: 3.35e-12,
    0.5: 2.71e-12, 0.7: 2.68e-12, 0.9: 2.53e-9, 0.99: 5.34e-4,
}


@pytest.mark.parametrize("b", list(_COMPOSITE_64_LAPLACE_ERROR))
def test_default_gauss_h_rule_beats_composite_64(b):
    # E_1 has all moments, so the Gauss rule converges spectrally; at small
    # beta the law is close to exponential and needs the 24 default nodes
    beta = FracOrder(b)
    assert _laplace_error(*_unit_h_rule(beta), beta) <= _COMPOSITE_64_LAPLACE_ERROR[b]


@pytest.mark.parametrize("b", [0.05, 0.5, 0.99])
@pytest.mark.parametrize("q_h", [2, 24, 96])
def test_gauss_h_rule_is_a_probability_rule_inside_the_fine_support(b, q_h):
    # the fine rule is the planning rule of Kanter's representation
    beta = FracOrder(b)
    nodes, weights = _unit_h_rule(beta, q_h=q_h)
    fine, _ = _kanter_rule(b, 1e-12, q_h)
    assert nodes.shape == weights.shape == (q_h,)
    assert np.all(weights > 0.0)
    assert weights.sum() == pytest.approx(1.0, abs=1e-15)
    assert np.all(np.diff(nodes) > 0.0)
    # inside [least, largest] planning node up to eigh's rounding
    assert fine.min() * (1.0 - 1e-12) <= nodes[0] and nodes[-1] <= fine.max() * (1.0 + 1e-12)


def _lanczos_gauss_rule(x, w, q):
    """Reference for the Stieltjes recurrence: the q-point Gauss rule of the
    discrete measure sum_i w_i delta_(x_i) from q Lanczos steps on sqrt(w)
    with full reorthogonalization, twice, O(q^2 N)."""
    basis = np.zeros((q + 1, x.size))
    basis[0] = np.sqrt(w / w.sum())
    alpha, off = np.zeros(q), np.zeros(q)
    for j in range(q):
        u = x * basis[j]
        alpha[j] = np.sum(u * basis[j])
        for _ in range(2):
            u -= (np.sum(basis[: j + 1] * u, axis=1)[:, None] * basis[: j + 1]).sum(axis=0)
        off[j] = math.sqrt(np.sum(u * u))
        basis[j + 1] = u / off[j]
    nodes, vectors = np.linalg.eigh(np.diag(alpha) + np.diag(off[:-1], 1) + np.diag(off[:-1], -1))
    weights = vectors[0] ** 2
    return nodes, weights / weights.sum()


@pytest.mark.parametrize("b", [0.05, 0.5, 0.99])
@pytest.mark.parametrize("q_h", [2, 24, 96])
def test_stieltjes_h_rule_matches_reorthogonalized_lanczos(b, q_h):
    nodes, weights = _unit_h_rule(FracOrder(b), q_h=q_h)
    ref_nodes, ref_weights = _lanczos_gauss_rule(*_kanter_rule(b, 1e-12, q_h), q_h)
    np.testing.assert_allclose(nodes, ref_nodes, rtol=0.0, atol=1e-12)
    np.testing.assert_allclose(weights, ref_weights, rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("b", [0.05, 0.1, 0.2, 0.3, 0.5, 0.7, 0.9, 0.99])
def test_kanter_planning_rule_moments_and_laplace(b):
    # E_1 = W^(1-b) A(U) with W and U independent, so cutting W at w_c
    # scales E[E_1^k] by exactly 1 - Q(1 + (1-b) k, w_c), Q the regularized
    # upper incomplete gamma function; renormalizing divides by 1 - e^(-w_c)
    gammaincc = pytest.importorskip("scipy.special").gammaincc
    beta = FracOrder(b)
    x, w = _kanter_rule(b, 1e-12, 24)
    w_cut = -math.log(0.05e-12)
    for k in range(1, 9):
        truncated = (1.0 - gammaincc(1.0 + (1.0 - b) * k, w_cut)) / (1.0 - 0.05e-12)
        ratio = float(np.sum(w * x**k)) * math.gamma(1.0 + k * b) / math.factorial(k)
        assert ratio == pytest.approx(truncated, rel=0.0, abs=1e-14), k
    assert _laplace_error(x, w, beta) < 1e-12


def test_gauss_h_rule_nodes_scale_by_t_to_the_beta():
    times = (0.5, 2.0)
    table, weights = transport._h_rules(B, times, SolverConfig(times=times))
    unit_nodes, unit_weights = _unit_h_rule(B)
    for t, nodes in zip(times, table):
        np.testing.assert_array_equal(nodes, unit_nodes * t**0.5)
    np.testing.assert_array_equal(weights, unit_weights)
    # at beta = 1 the unit rule is the point mass at 1, so row k is times[k]
    table, weights = transport._h_rules(FracOrder(1.0), times, SolverConfig(times=times))
    expected = np.array(times)[:, None]
    assert (table.dtype, table.shape, table.tobytes()) == (expected.dtype, expected.shape, expected.tobytes())
    np.testing.assert_array_equal(weights, [1.0])


def test_solvers_run_the_public_h_rule():
    # one h-rule: the solvers' rule is h_quadrature's, built once per
    # (beta, q_h, cut) and shared by every output time
    cfg = SolverConfig(times=(0.5, 2.0), q_h=16, eps_tail=1e-9)
    table, weights = transport._h_rules(B, cfg.times, cfg)
    for t, nodes in zip(cfg.times, table):
        rule = h_quadrature(B, t, 16, 1e-9)
        assert rule.tail_mass == 0.0
        np.testing.assert_array_equal(nodes, rule.nodes)
        assert weights is rule.weights is h_quadrature(B, 1.0, 16, 1e-9).weights


def test_linear_damping_at_the_defaults_matches_erfcx():
    # damping moves x to x e^{-s}, so the k-th moment of a Dirac at 1 is
    # E[exp(-k E_t)] = E_{1/2}(-k sqrt(t)) = erfcx(k sqrt(t))
    damp = ExplicitField(func=lambda x, t: -x, lip=1.0, autonomous=True)
    path = solve_linear(B, damp, _dirac(1.0), SolverConfig(times=(0.5, 1.0)))
    for t, mu in zip(path.times[1:], path.measures[1:]):
        for k in (1, 2):
            exact = math.exp(k * k * t) * math.erfc(k * math.sqrt(t))
            assert abs(moment(mu, k) - exact) < 1e-10, (t, k)


def test_path_csv_does_not_depend_on_blas_threads(tmp_path):
    # the Stieltjes sums and eigh run in BLAS/LAPACK's process, whose thread
    # count must not reach the rule's nodes or weights, nor the composed
    # affine maps' application to the particles
    src = os.path.dirname(os.path.dirname(os.path.abspath(fractrans.__file__)))
    rotation = {"kind": "affine", "matrix": [[-1.0, 0.5], [-0.5, -1.0]], "offset": [0.25, -0.1]}
    for velocity in ({"kind": "damping"}, rotation):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({
            "problem": "linear", "beta": 0.5, "times": [0.5, 1.0], "velocity": velocity,
            "initial": {"kind": "uniform-grid", "low": [-1.0, -1.0], "high": [1.0, 1.0], "n": 4},
        }))
        outputs = []
        for threads in ("1", "2"):
            out = tmp_path / velocity["kind"] / threads
            env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
            subprocess.run([sys.executable, "-m", "fractrans.cli", "solve", "--config", str(config),
                            "--out", str(out)], env=env, check=True, capture_output=True)
            outputs.append((out / "path.csv").read_bytes())
        assert outputs[0] == outputs[1], velocity
        assert outputs[0].count(b"\n") == 1 + 16 * (1 + 2 * SolverConfig.q_h)


# ---------------------------------------------------------------------------
# Nonlinear solver
# ---------------------------------------------------------------------------


def test_nonlinear_zero_kernel_single_sweep():
    kernel = InteractionField(kernel=lambda z: np.zeros_like(z), bound=0.0, lip=0.0)
    cfg = _cfg(times=(1.0,), picard_tol=1e-6, t_ext=2.0)
    path = solve_nonlinear(B, kernel, _two_diracs(), cfg)
    assert path.diagnostics["sweeps"] == 1
    assert sorted(np.unique(path.measures[-1].points.ravel())) == [-1.0, 1.0]


def test_nonlinear_aggregation_spread_oracle():
    cfg = _cfg(times=(0.5, 1.0), q_h=48, q_g=24, ode_step=5e-3, picard_tol=1e-5, t_ext=4.0)
    path = solve_nonlinear(B, attraction_field(), _two_diracs(), cfg)
    for t, mu in zip(path.times[1:], path.measures[1:]):
        exact = mittag_leffler(B, -(t**0.5))
        assert moment(mu, 1) == pytest.approx(exact, rel=5e-3), f"t={t}"


def test_nonlinear_classical_aggregation():
    beta1 = FracOrder(1.0)
    cfg = SolverConfig(times=(1.0,), ode_step=1e-3, picard_tol=1e-6)
    path = solve_nonlinear(beta1, attraction_field(), _two_diracs(), cfg)
    assert moment(path.measures[-1], 1) == pytest.approx(math.exp(-1.0), rel=1e-6)


def test_nonlinear_mirror_symmetry_and_center_of_mass():
    cfg = _cfg(times=(1.0,), q_h=32, picard_tol=1e-5, t_ext=3.0)
    path = solve_nonlinear(B, attraction_field(), _two_diracs(), cfg)
    for mu in path.measures:
        # center of mass stays put for odd kernels
        assert expectation(mu, lambda x: x[:, 0]) == pytest.approx(0.0, abs=1e-10)
        # reflected ensemble represents the same measure
        mirrored = EmpiricalMeasure(points=-mu.points, weights=mu.weights)
        assert bl_distance(mu, mirrored) == pytest.approx(0.0, abs=1e-8)


def test_nonlinear_repulsion_runs_and_conserves_mass():
    cfg = _cfg(times=(0.5,), q_h=24, q_g=12, picard_tol=1e-3, t_ext=2.0)
    path = solve_nonlinear(B, repulsion_field(), _two_diracs(0.5), cfg)
    assert total_mass(path.measures[-1]) == pytest.approx(1.0, rel=1e-13)
    # repulsion pushes the pair apart
    assert moment(path.measures[-1], 1) > 0.5


def test_nonlinear_nonconvergence_signals_with_trace():
    cfg = _cfg(times=(1.0,), picard_tol=1e-16, picard_max_iters=2, t_ext=2.0)
    with pytest.raises(PicardConvergenceError) as err:
        solve_nonlinear(B, repulsion_field(), _two_diracs(), cfg)
    assert len(err.value.trace) == 2


def test_nonlinear_stopping_does_not_depend_on_seed():
    # the 16-particle repulsion problem of the benchmark: the stopping rule
    # is deterministic and the solver takes no seed, so two runs agree in
    # their sweeps and bitwise in their answer
    grid = EmpiricalMeasure(points=np.linspace(-1.0, 1.0, 16)[:, None], weights=np.full(16, 1 / 16))
    paths = [
        solve_nonlinear(B, repulsion_field(), grid, SolverConfig(times=(0.5,), q_h=16, q_g=8))
        for _ in range(2)
    ]
    # the coarse level reaches the fixed point, and one fine sweep certifies it
    assert [p.diagnostics["sweeps"] for p in paths] == [1, 1]
    for mu, nu in zip(paths[0].measures, paths[1].measures):
        assert np.array_equal(mu.points, nu.points) and np.array_equal(mu.weights, nu.weights)


def test_nonlinear_2d_attraction_answers_are_pinned():
    # a 2-D attraction solve with a lookup horizon and three output times,
    # pinned to a relative 1e-12 and its counts exactly; its lookup rows hit
    # mu0 and several stacked grid measures.  These are the answers of the
    # composite g-rule's lookup masses, which are off at q_g 8 (ROADMAP.md,
    # defect 1): the change that makes them exact moves these numbers on
    # purpose and re-pins them
    cfg = SolverConfig(times=(0.25, 0.5, 1.0), q_h=8, q_g=8, ode_step=0.05, picard_tol=1e-6, t_ext=2.0)
    path = solve_nonlinear(B, attraction_field(), _square_2d(), cfg)
    m1 = [0.7469307166985835, 0.637434388912608, 0.525310974990505]
    m2 = [0.698227480123748, 0.5501194660563535, 0.4191452980898954]
    for mu, first, second in zip(path.measures[1:], m1, m2):
        assert moment(mu, 1) == pytest.approx(first, rel=1e-12, abs=0.0)
        assert moment(mu, 2) == pytest.approx(second, rel=1e-12, abs=0.0)
        assert mu.size == 8 * 5
    d = path.diagnostics
    assert (d["sweeps"], d["coarse_sweeps"], d["rk4_steps"], d["coarse_rk4_steps"]) == (2, 2, 118, 56)
    grid = picard._grid_with_extension(cfg)
    rows, _ = _segment_masses(_GRule(B, cfg), grid, _sweep_schedule(B, cfg)[0])
    assert any(0 in cells and np.unique(cells).size > 2 for cells, _ in rows)
    assert len({int(c) for cells, _ in rows for c in cells}) > grid.size / 2


def test_nonlinear_empty_initial_measure_converges_at_once():
    empty = EmpiricalMeasure(points=np.zeros((0, 1)), weights=np.zeros(0))
    path = solve_nonlinear(B, repulsion_field(), empty, _cfg(times=(0.5,), q_h=8, q_g=8))
    assert path.diagnostics["sweeps"] == 1
    assert all(mu.size == 0 for mu in path.measures)


def test_segment_masses_are_computed_once_per_level(monkeypatch):
    # every sweep of a level steps through the same stages and looks up the
    # same grid, so the segment-mass table is built once per sweep map
    # whatever the sweep count, while the kernel still runs at each RK4
    # stage of each sweep; a solve builds one map per level
    counts = {"search": 0, "kernel": 0}
    search = picard._segment_masses

    def counting_search(*args):
        counts["search"] += 1
        return search(*args)

    repel = repulsion_field()

    def kernel(z):
        counts["kernel"] += 1
        return repel.kernel(z)

    monkeypatch.setattr(picard, "_segment_masses", counting_search)
    field = InteractionField(kernel=kernel, bound=repel.bound, lip=repel.lip)
    for picard_tol, sweeps in ((1e-2, 4), (0.1, 3)):
        counts.update(search=0, kernel=0)
        cfg = _cfg(times=(0.5,), q_h=8, q_g=8, ode_step=0.05, picard_tol=picard_tol, t_ext=1.0)
        sweep, start = _fine_level(field, _two_diracs(0.5), cfg)
        _, log = picard._picard(sweep, start, cfg)
        assert len(log) == sweeps
        steps = sum(map(len, _sweep_schedule(B, cfg)[1]))
        assert sweep.rk4_steps == steps
        assert counts == {"search": 1, "kernel": 4 * steps * sweeps}
        counts.update(search=0)
        path = solve_nonlinear(B, field, _two_diracs(0.5), cfg)
        assert path.diagnostics["coarse_sweeps"] > 0 and counts["search"] == 2


def test_each_sweep_builds_each_distinct_path_average_once(monkeypatch):
    # the stages come in nondecreasing order and share few distinct rows of
    # segment masses, so a sweep builds each row's path average once
    calls = {"average": 0}
    path_average = picard._path_average

    def counting_average(*args):
        calls["average"] += 1
        return path_average(*args)

    monkeypatch.setattr(picard, "_path_average", counting_average)
    cfg = _cfg(times=(0.5,), q_h=8, q_g=8, ode_step=0.05, picard_tol=1e-2, t_ext=1.0)
    sweep, start = _fine_level(repulsion_field(), _two_diracs(0.5), cfg)
    _, log = picard._picard(sweep, start, cfg)
    grid = picard._grid_with_extension(cfg)
    times, _ = _sweep_schedule(B, cfg)
    rows, _ = _segment_masses(_GRule(B, cfg), grid, times)
    assert 1 < len(rows) < len(times) // 10
    assert len(log) > 1
    assert calls["average"] == len(rows) * len(log)


def _plain_picard(field, mu0, cfg):
    """Plain Picard, X_{k+1} = F(X_k), on the solver's sweep map, with the
    iterate held as a list of measures and the bound taken measure by
    measure: a reference for the stacked driver.  The images and the bound
    of every sweep, up to the first below picard_tol."""
    sweep, _ = _fine_level(field, mu0, cfg)
    grid = picard._grid_with_extension(cfg)
    x, bounds = [mu0] * grid.size, []
    for _ in range(cfg.picard_max_iters):
        points = sweep(*_stack(x[1:]))
        image = [mu0] + [EmpiricalMeasure(points=p, weights=w) for p, w in zip(points, sweep.weights)]
        bounds.append(max(picard._coupling_bound(a, b) for a, b in zip(x, image)))
        if bounds[-1] < cfg.picard_tol:
            return MeasurePath(times=grid, measures=image), bounds
        x = image
    raise AssertionError("plain Picard did not converge")


def test_anderson_driver_beats_plain_picard():
    # a repelling pair: the mixed driver stops in fewer sweeps than the
    # plain loop over the same sweep map, and both land within picard_tol
    # of the fixed point, read off a plain solve at picard_tol 1e-8
    cfg = _cfg(times=(0.5,), q_h=8, q_g=8, ode_step=0.05, picard_tol=1e-3)
    mu0 = _two_diracs(0.5)
    image, log = picard._picard(*_fine_level(repulsion_field(), mu0, cfg), cfg)
    _, plain_bounds = _plain_picard(repulsion_field(), mu0, cfg)
    ref, _ = _plain_picard(repulsion_field(), mu0, cfg.replace(picard_tol=1e-8))
    assert len(log) < len(plain_bounds)
    for k in (1, 2):
        assert moment(_measure(image, -1), k) == pytest.approx(moment(ref.measures[-1], k), abs=1e-3)
    assert total_mass(_measure(image, -1)) == pytest.approx(1.0, rel=1e-13)


def test_stacked_driver_without_mixing_is_the_list_of_measures_reference(monkeypatch):
    # with every mixing weight refused, each step is the plain one: the
    # bound of each sweep, one reduction over the stack, and the last image
    # equal the measure-by-measure reference bit for bit, from a start that
    # pairs mu0 with the q_h blocks of the first image
    monkeypatch.setattr(picard, "_mixing_weight", lambda *args: None)
    cfg = _cfg(times=(0.25, 0.5), q_h=8, q_g=8, ode_step=0.05, picard_tol=1e-6, t_ext=1.0)
    mu0 = EmpiricalMeasure(points=_square_2d().points, weights=np.array([0.1, 0.2, 0.3, 0.15, 0.25]))
    image, log = picard._picard(*_fine_level(repulsion_field(), mu0, cfg), cfg)
    ref, bounds = _plain_picard(repulsion_field(), mu0, cfg)
    assert len(bounds) > 2 and [entry["coupling_bound"] for entry in log] == bounds
    for j, mu in enumerate(ref.measures[1:]):
        assert np.array_equal(_measure(image, j).points, mu.points)
        assert np.array_equal(_measure(image, j).weights, mu.weights)


def test_anderson_driver_falls_back_to_the_plain_step(monkeypatch):
    # a harmful first mixing weight raises the bound; the next step is the
    # plain one (no weight asked for), mixing resumes once the bound falls,
    # and the level still converges
    calls = []
    weight = picard._mixing_weight

    def first_one_harmful(*args):
        calls.append(args)
        return -3.0 if len(calls) == 1 else weight(*args)

    monkeypatch.setattr(picard, "_mixing_weight", first_one_harmful)
    cfg = _cfg(times=(0.5,), q_h=8, q_g=8, ode_step=0.05, picard_tol=1e-3)
    image, log = picard._picard(*_fine_level(repulsion_field(), _two_diracs(0.5), cfg), cfg)
    bounds = [entry["coupling_bound"] for entry in log]
    assert bounds[2] > bounds[1] and bounds[-1] < cfg.picard_tol
    assert len(calls) == sum(b < a for a, b in zip(bounds[:-2], bounds[1:-1]))
    assert total_mass(_measure(image, -1)) == pytest.approx(1.0, rel=1e-13)


def _benchmark_grid():
    return EmpiricalMeasure(points=np.linspace(-1.0, 1.0, 16)[:, None], weights=np.full(16, 1 / 16))


@pytest.mark.parametrize("t_ext", [0.0, 4.0])
def test_two_level_solve_reaches_the_fine_fixed_point(t_ext):
    # the coarse level changes the route, not the fixed point: at picard_tol
    # 1e-8 the two-level answer and fine-only Picard from mu0 agree within a
    # 1e-6 coupling bound (both are images of the fine map, index-aligned)
    cfg = SolverConfig(times=(0.5,), q_h=16, q_g=8, picard_tol=1e-8, t_ext=t_ext)
    mu0 = _benchmark_grid()
    path = solve_nonlinear(B, repulsion_field(), mu0, cfg)
    image, log = picard._picard(*_fine_level(repulsion_field(), mu0, cfg), cfg)
    assert path.diagnostics["coarse_sweeps"] > 1 and path.diagnostics["sweeps"] < len(log)
    assert path.diagnostics["picard_log"][-1]["coupling_bound"] < cfg.picard_tol
    k = int(np.searchsorted(picard._grid_with_extension(cfg), 0.5))
    assert picard._coupling_bound(path.measures[-1], _measure(image, k - 1)) < 1e-6
    assert total_mass(path.measures[-1]) == pytest.approx(1.0, rel=1e-13)


def test_coarse_level_that_does_not_converge_still_lets_the_solve_converge(monkeypatch):
    # the coarse level stops after one sweep without converging and raises
    # nothing: the fine level starts from its last image and converges.  A
    # coarse image whose bound is not finite is dropped, and the fine level
    # then runs from mu0 exactly as fine-only Picard does
    run_picard = picard._picard
    cfg = SolverConfig(times=(0.5,), q_h=16, q_g=8)
    mu0 = _benchmark_grid()

    def coarse_stops_early(sweep, start, config):
        if sweep.rk4_steps < 238:  # the coarse map
            return run_picard(sweep, start, config.replace(picard_max_iters=1))
        return run_picard(sweep, start, config)

    monkeypatch.setattr(picard, "_picard", coarse_stops_early)
    path = solve_nonlinear(B, repulsion_field(), mu0, cfg)
    assert path.diagnostics["coarse_sweeps"] == 1
    assert path.diagnostics["picard_log"][-1]["coupling_bound"] < cfg.picard_tol

    def coarse_blows_up(sweep, start, config):
        if sweep.rk4_steps < 238:
            return start, [{"sweep": 1, "coupling_bound": math.nan, "wall_time": 0.0}]
        return run_picard(sweep, start, config)

    monkeypatch.setattr(picard, "_picard", coarse_blows_up)
    path = solve_nonlinear(B, repulsion_field(), mu0, cfg)
    image, log = run_picard(*_fine_level(repulsion_field(), mu0, cfg), cfg)
    assert [e["coupling_bound"] for e in path.diagnostics["picard_log"]] == [e["coupling_bound"] for e in log]
    assert np.array_equal(path.measures[-1].points, _measure(image, -1).points)


@pytest.mark.parametrize("lip, coarse", [(1.0, True), (15.0, True), (20.0, False), (80.0, False)])
def test_coarse_level_is_skipped_when_lip_caps_it(lip, coarse):
    # the coarse step is min(16 ode_step, 1/Lip), and 1/Lip caps the fine
    # steps past the heavy h-nodes too; the coarse level runs only while its
    # sweep takes at most half the fine sweep's RK4 steps: 117 of 276 at
    # Lip 15, 151 of 292 at Lip 20
    repel = repulsion_field()
    field = InteractionField(kernel=repel.kernel, bound=repel.bound, lip=lip)
    path = solve_nonlinear(B, field, _benchmark_grid(), SolverConfig(times=(0.5,), q_h=16, q_g=8))
    d = path.diagnostics
    assert d["picard_log"][-1]["coupling_bound"] < 1e-3
    if coarse:
        assert 0 < d["coarse_rk4_steps"] <= d["rk4_steps"] / 2 and d["coarse_sweeps"] > 0
    else:
        assert d["coarse_sweeps"] == d["coarse_rk4_steps"] == 0
        assert d["contraction_estimate"] == pytest.approx(
            d["picard_log"][1]["coupling_bound"] / d["picard_log"][0]["coupling_bound"]
        )


def test_picard_estimates_need_a_contracting_plain_pair():
    # rho is b_2 / b_1 of the first level with two sweeps; with no such
    # level, or rho >= 1, both estimates are None
    def log(*bounds):
        return [{"sweep": n, "coupling_bound": b, "wall_time": 0.0} for n, b in enumerate(bounds, 1)]

    assert picard._contraction_estimate(log(0.2, 0.05, 1e-3), log(1e-4)) == 0.25
    assert picard._contraction_estimate(log(1e-5), log(0.4, 0.1)) == 0.25
    assert picard._contraction_estimate([], log(0.1, 0.2)) is None
    assert picard._contraction_estimate(log(1e-5), log(1e-5)) is None
    kernel = InteractionField(kernel=lambda z: np.zeros_like(z), bound=0.0, lip=0.0)
    path = solve_nonlinear(B, kernel, _two_diracs(), _cfg(times=(1.0,), q_h=8, q_g=8))
    assert path.diagnostics["contraction_estimate"] is None
    assert path.diagnostics["fixed_point_distance_estimate"] is None


def test_mixing_weight_with_no_residual_change_is_none():
    r = np.array([[0.5], [-1.0]])
    w = np.array([[0.25], [0.75]])
    assert picard._mixing_weight(np.zeros_like(r), r, w) is None
    # gamma = <dr, r>_w / <dr, dr>_w with per-coordinate weights
    assert picard._mixing_weight(2.0 * r, r, w) == 0.5


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_mixing_weight_that_overflows_is_none():
    # residuals past about 1e154 overflow <dr, dr>_w; the plain step is taken
    w = np.array([[0.5], [0.5]])
    r = np.array([[1e307], [-1e307]])
    assert picard._mixing_weight(2.0 * r, r, w) is None
    assert picard._mixing_weight(np.array([[1e-3], [0.0]]), r, w) is None


@pytest.mark.parametrize("beta", [B, FracOrder(1.0)])
@pytest.mark.parametrize(
    "kernel, mu0",
    [
        (InteractionField(kernel=lambda z: np.zeros_like(z), bound=0.0, lip=0.0), _two_diracs()),
        (repulsion_field(), EmpiricalMeasure.dirac([0.3])),  # K(0) = 0: it stays put
        (repulsion_field(), EmpiricalMeasure(points=np.zeros((0, 1)), weights=np.zeros(0))),
    ],
    ids=["zero-kernel", "one-dirac", "empty"],
)
def test_fixed_initial_measure_stops_at_sweep_one(beta, kernel, mu0, monkeypatch):
    monkeypatch.setattr(picard, "_mixing_weight", lambda *args: pytest.fail("mixed"))
    cfg = _cfg(times=(0.5,), q_h=8, q_g=8, picard_tol=1e-12, t_ext=1.0)
    path = solve_nonlinear(beta, kernel, mu0, cfg)
    assert path.diagnostics["sweeps"] == 1
    assert path.diagnostics["picard_log"][0]["coupling_bound"] == 0.0


def test_nonlinear_freezing_probability_is_h_weighted():
    # with horizon t the h-weighted freezing probability is
    # P(E'_t > E_t) = 1/2 for independent copies; a longer horizon lowers
    # it, also between t_ext values that share no multiple of the output
    # spacing (2.3 and 2.6), because the grid ends at t_ext itself
    freeze = [
        solve_nonlinear(
            B, attraction_field(), _two_diracs(), _cfg(q_h=32, q_g=8, ode_step=0.02, t_ext=t_ext)
        ).diagnostics["freezing_tail_probability"]
        for t_ext in (0.0, 2.0, 2.3, 2.6, 4.0)
    ]
    assert freeze[0] == pytest.approx(0.5, abs=1e-6)
    assert all(a > b for a, b in zip(freeze, freeze[1:]))


def test_freezing_tail_probability_half_order_closed_form():
    # at beta = 1/2, P(D_s > h) = erf(s / (2 sqrt(h))); small s needs the
    # survival function itself, not 1 - cdf
    s = np.array([1e-9, 1e-6, 1e-3, 0.5, 2.0])
    exact = [math.erf(x / 2.0) for x in s]
    np.testing.assert_allclose(freezing_tail_probability(B, s, 1.0), exact, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("field", [repulsion_field(), attraction_field()], ids=["repulsion", "attraction"])
def test_particle_refinement_stays_within_the_clock_averaged_gronwall_bound(field):
    # the stability estimate d_BL(mu_t, nu_t) <= C d_BL(mu_0, nu_0) on a
    # refinement in N: uniform grids of 16 and 64 particles of unit mass on
    # [-1, 1], t = 1/2.  C is fixed in advance, never from a run: both
    # kernels are 1-Lipschitz, so the classical W1 distance grows by at most
    # e^(2s) by internal time s (Canizo, Carrillo & Rosado, M3AS 21 (2011)),
    # E[e^(2 E_t)] = E_beta(2 t^beta) averaged over the clock; d_BL <= W1 at
    # t, and W1 <= 2 d_BL for unit masses on [-1, 1]
    cfg = SolverConfig(times=(0.5,), q_h=16, q_g=8)
    bound = 2.0 * mittag_leffler(B, 2.0 * 0.5**0.5)
    grids = [EmpiricalMeasure(points=np.linspace(-1.0, 1.0, n)[:, None], weights=np.full(n, 1.0 / n))
             for n in (16, 64)]
    coarse, fine = (solve_nonlinear(B, field, mu0, cfg).measures[-1] for mu0 in grids)
    d_0 = bl_distance(*grids)
    assert d_0 > 0.0
    assert bl_distance(coarse, fine) <= bound * d_0


# ---------------------------------------------------------------------------
# Source term
# ---------------------------------------------------------------------------


def test_source_zero_reduces_to_linear():
    empty = EmpiricalMeasure(points=np.zeros((0, 1)), weights=np.zeros(0))
    cfg = _cfg(times=(1.0,))
    with_source = solve_with_source(B, ONES, _dirac(), empty, cfg)
    plain = solve_linear(B, ONES, _dirac(), cfg)
    assert moment(with_source.measures[-1], 1) == pytest.approx(
        moment(plain.measures[-1], 1), rel=1e-10
    )


def test_source_mass_growth_fractional():
    # no motion, constant source: mass grows by mass(nu) * E[E_t]
    nu = EmpiricalMeasure.dirac([0.5], 1.0)
    cfg = _cfg(times=(0.5, 1.0))
    path = solve_with_source(B, ZERO, _dirac(), nu, cfg)
    for t, mu in zip(path.times[1:], path.measures[1:]):
        exact = 1.0 + inverse_moment_coeff(B, 1.0) * t**0.5
        assert total_mass(mu) == pytest.approx(exact, rel=1e-6), f"t={t}"


def test_source_mass_growth_classical():
    beta1 = FracOrder(1.0)
    nu = EmpiricalMeasure.dirac([0.5], 1.0)
    cfg = SolverConfig(times=(0.5, 1.0), ode_step=1e-2)
    path = solve_with_source(beta1, ZERO, _dirac(), nu, cfg)
    assert total_mass(path.measures[1]) == pytest.approx(1.5, rel=1e-10)
    assert total_mass(path.measures[2]) == pytest.approx(2.0, rel=1e-10)


def test_source_mean_vector_error_falls_faster_than_the_node_spacing():
    # damping field, 10 x 10 grid on [-1, 1]^2, unit Dirac source at
    # x_s = (1/2, 1/2), beta 1/2: the unnormalized mean vector is
    # x_s + (M_0 - x_s) E_beta(-t^beta).  The source integral on the flow
    # nodes is a trapezoid rule, so its error is small at q_h 24 and falls
    # faster than the node spacing from q_h 24 to 48, where a rectangle rule
    # would miss by 2.4e-2 and 1.35e-2 (bounds fixed before the first run)
    axis = np.linspace(-1.0, 1.0, 10)
    points = np.stack([m.ravel() for m in np.meshgrid(axis, axis, indexing="ij")], axis=1)
    mu0 = EmpiricalMeasure(points=points, weights=np.full(100, 0.01))
    x_s = np.array([0.5, 0.5])
    m_0 = mu0.weights @ mu0.points

    def mean_error(q_h):
        path = solve_with_source(B, AffineField(matrix=-1.0), mu0, EmpiricalMeasure.dirac(x_s),
                                 SolverConfig(times=(0.5, 1.0), q_h=q_h))
        return max(
            np.abs(mu.weights @ mu.points - (x_s + (m_0 - x_s) * mittag_leffler(B, -(t**0.5)))).max()
            for t, mu in zip(path.times[1:], path.measures[1:])
        )

    coarse, fine = mean_error(24), mean_error(48)
    assert coarse <= 2.5e-3
    assert coarse >= 2.5 * fine


def test_source_rejects_negative():
    bad = EmpiricalMeasure(points=np.array([[0.0]]), weights=np.array([1.0]))
    object.__setattr__(bad, "weights", np.array([-1.0]))
    cfg = _cfg(times=(1.0,))
    with pytest.raises(ValueError):
        solve_with_source(B, ZERO, _dirac(), bad, cfg)


# ---------------------------------------------------------------------------
# Autonomous fields: the g-average is skipped
# ---------------------------------------------------------------------------


def _rotate_damp(x, t):
    # affine in 2-d, independent of t: a damped rotation plus a drift
    return x @ np.array([[-1.0, 0.5], [-0.5, -1.0]]).T + np.array([0.25, -0.1])


def _square_2d():
    pts = np.array([[-1.0, -1.0], [-1.0, 1.0], [1.0, -1.0], [1.0, 1.0], [0.2, 0.3]])
    return EmpiricalMeasure(points=pts, weights=np.full(5, 0.2))


def _assert_paths_close(a, b, tol):
    np.testing.assert_array_equal(a.times, b.times)
    for mu, nu in zip(a.measures, b.measures):
        np.testing.assert_allclose(mu.points, nu.points, rtol=0.0, atol=tol)
        np.testing.assert_allclose(mu.weights, nu.weights, rtol=0.0, atol=tol)


@pytest.mark.parametrize("beta", [0.5, 1.0])
def test_autonomous_flag_does_not_change_the_answers(beta):
    beta = FracOrder(beta)
    plain = ExplicitField(func=_rotate_damp, lip=1.2)
    auto = ExplicitField(func=_rotate_damp, lip=1.2, autonomous=True)
    cfg = _cfg(times=(0.5, 1.0), q_h=16, q_g=16, ode_step=0.05)
    mu0 = _square_2d()
    _assert_paths_close(solve_linear(beta, auto, mu0, cfg), solve_linear(beta, plain, mu0, cfg), 1e-14)
    source = EmpiricalMeasure.dirac([0.5, 0.5], 0.3)
    _assert_paths_close(
        solve_with_source(beta, auto, mu0, source, cfg),
        solve_with_source(beta, plain, mu0, source, cfg),
        1e-14,
    )
    _assert_paths_close(
        solve_linear_mc(beta, auto, mu0, cfg, n_paths=50, seed=2),
        solve_linear_mc(beta, plain, mu0, cfg, n_paths=50, seed=2),
        1e-14,
    )


@pytest.mark.parametrize("autonomous", [True, False])
def test_autonomous_field_is_called_once_per_rk4_stage(monkeypatch, autonomous):
    # every RK4 step makes 4 velocity calls (stages); a stage calls the func
    # once for an autonomous field and once per g-node otherwise, where the
    # g-rule at s = 0 is the single node (0, 1); stage 0 of every schedule
    # is s = 0.  Each of the three solves of an autonomous field also calls
    # it twice before the flow, to check that it ignores t
    q_g = 8
    calls = {"func": 0, "stages": 0, "stages_at_zero": 0}

    def func(x, t):
        calls["func"] += 1
        return -x

    advect = transport._advect_segment

    def counting_advect(vel, *args):
        def stage(x, k):
            calls["stages"] += 1
            calls["stages_at_zero"] += k == 0
            return vel(x, k)

        return advect(stage, *args)

    monkeypatch.setattr(transport, "_advect_segment", counting_advect)
    field = ExplicitField(func=func, lip=1.0, autonomous=autonomous)
    cfg = _cfg(times=(0.5, 1.0), q_h=8, q_g=q_g, ode_step=0.05)
    solve_linear(B, field, _dirac(1.0), cfg)
    solve_with_source(B, field, _dirac(1.0), _dirac(0.5), cfg)
    solve_linear_mc(B, field, _dirac(1.0), cfg, n_paths=20)
    assert calls["stages"] > 0 and calls["stages"] % 4 == 0
    if autonomous:
        assert calls["func"] == calls["stages"] + 2 * 3
    else:
        # the two solves on h-rules call it twice before the flow, to see
        # whether it varies in t and so needs the graded start
        zero = calls["stages_at_zero"]
        assert calls["func"] == q_g * (calls["stages"] - zero) + zero + 2 * 2


@pytest.mark.parametrize("beta", [0.5, 1.0])
def test_affine_field_solves_match_the_stepped_solves(beta):
    beta = FracOrder(beta)
    affine = AffineField(matrix=[[-1.0, 0.5], [-0.5, -1.0]], offset=[0.25, -0.1])
    explicit = ExplicitField(func=_rotate_damp, lip=affine.lip, autonomous=True)
    cfg = _cfg(times=(0.5, 1.0), q_h=16, q_g=16, ode_step=0.05)
    mu0, source = _square_2d(), EmpiricalMeasure.dirac([0.5, 0.5], 0.3)
    for solve in (lambda v: solve_linear(beta, v, mu0, cfg),
                  lambda v: solve_with_source(beta, v, mu0, source, cfg),
                  lambda v: solve_linear_mc(beta, v, mu0, cfg, n_paths=50, seed=2)):
        got, want = solve(affine), solve(explicit)
        _assert_paths_close(got, want, 1e-13)
        assert got.diagnostics.get("rk4_steps") == want.diagnostics.get("rk4_steps")


def test_affine_field_solves_take_no_rk4_stage(monkeypatch):
    # an affine field's intervals are advanced by composed maps: the
    # stepper runs only for the other fields
    calls = []
    advect = transport._advect_segment
    monkeypatch.setattr(transport, "_advect_segment", lambda *args: calls.append(1) or advect(*args))
    cfg = _cfg(times=(0.5, 1.0), q_h=8, q_g=8, ode_step=0.05)
    for field, stepped in ((AffineField(-1.0), False), (DAMP, True)):
        calls.clear()
        solve_linear(B, field, _dirac(1.0), cfg)
        solve_with_source(B, field, _dirac(1.0), _dirac(0.5), cfg)
        solve_linear_mc(B, field, _dirac(1.0), cfg, n_paths=20)
        assert bool(calls) == stepped


def test_picard_sweeps_step_through_the_transport_stepper(monkeypatch):
    # the sweep map looks the stepper up on ``transport`` at each interval,
    # so a wrapper set there (as the benchmark tracer sets one) sees every
    # RK4 step of the coarse and the fine sweeps
    steps = []
    advect = transport._advect_segment

    def counting(vel, points, interval):
        steps.extend(interval)
        return advect(vel, points, interval)

    monkeypatch.setattr(transport, "_advect_segment", counting)
    path = solve_nonlinear(B, repulsion_field(), _two_diracs(0.5), _cfg(times=(0.5,), q_h=8, q_g=8))
    d = path.diagnostics
    assert len(steps) == d["sweeps"] * d["rk4_steps"] + d["coarse_sweeps"] * d["coarse_rk4_steps"] > 0


# ---------------------------------------------------------------------------
# Config validation
# ---------------------------------------------------------------------------


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(times=())
    with pytest.raises(ValueError):
        SolverConfig(times=(1.0, 0.5))
    # a repeated time would run the whole flow before the path grid refused it
    for times in ((0.5, 0.5), (0.5, 1.0, 1.0), (0.5, math.nan), (0.5, math.inf), (0.0, 1.0)):
        with pytest.raises(ValueError, match="positive and strictly increasing"):
            SolverConfig(times=times)
    with pytest.raises(ValueError):
        SolverConfig(times=(1.0,), t_ext=0.5)
    with pytest.raises(ValueError):
        SolverConfig(times=(1.0,), ode_step=-1.0)


@pytest.mark.parametrize("knob", ["eps_tail", "ode_step", "picard_tol", "t_ext"])
@pytest.mark.parametrize("value", ["0.5", [0.5], None, True])
def test_solver_config_rejects_non_real_floats(knob, value):
    with pytest.raises(ValueError, match="must be real numbers"):
        SolverConfig(times=(1.0,), **{knob: value})
    # numpy scalars are real numbers
    SolverConfig(times=(1.0,), **{knob: np.float64(2.0)})


@pytest.mark.parametrize("knob", ["eps_tail", "ode_step", "picard_tol", "t_ext"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_solver_config_rejects_non_finite_reals(knob, value):
    # the CLI rejects NaN and Infinity in its config; the Python API must too
    with pytest.raises(ValueError, match="finite"):
        SolverConfig(times=(1.0,), **{knob: value})


@pytest.mark.parametrize("knob", ["q_h", "q_g", "picard_max_iters"])
@pytest.mark.parametrize("value", [True, False])
def test_solver_config_rejects_a_bool_count(knob, value):
    # a bool is an int: picard_max_iters=True would run one Picard sweep
    with pytest.raises(ValueError, match="must be integers"):
        SolverConfig(times=(1.0,), **{knob: value})
    # numpy integers are counts
    SolverConfig(times=(1.0,), **{knob: np.int64(8)})


def test_solver_config_replace_validates_the_copy():
    cfg = SolverConfig(times=(0.5, 1.0), q_h=8, picard_tol=1e-4)
    copy = cfg.replace(ode_step=0.05, q_g=8)
    assert vars(copy) == {**vars(cfg), "ode_step": 0.05, "q_g": 8}
    assert cfg.ode_step == SolverConfig.ode_step and cfg.q_g == SolverConfig.q_g
    with pytest.raises(ValueError, match="must be positive"):
        cfg.replace(ode_step=-1.0)
    with pytest.raises(ValueError, match="t_ext must reach"):
        cfg.replace(t_ext=0.5)
    with pytest.raises(TypeError, match="no_such_knob"):
        cfg.replace(no_such_knob=1)


def test_solver_config_defaults_are_its_class_attributes():
    config = vars(SolverConfig(times=(1.0,)))
    assert config.pop("times") == (1.0,)
    assert config == {name: getattr(SolverConfig, name) for name in config}
    assert set(SolverConfig.NONLINEAR_ONLY) == {"picard_tol", "picard_max_iters", "t_ext"}
