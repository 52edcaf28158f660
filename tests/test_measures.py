"""Unit and property tests for the particle-measure layer."""

import csv
import os
import stat
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import fractrans
from fractrans.distances import bl_distance, w1_distance_1d
from fractrans.errors import MassMismatchError
from fractrans.measures import (
    EmpiricalMeasure,
    MeasurePath,
    expectation,
    moment,
    path_from_csv,
    path_to_csv,
    push_forward,
    total_mass,
    write_manifest,
)
from fractrans.picard import _coupling_bound
from fractrans.specfun import FracOrder
from fractrans.transport import ExplicitField, SolverConfig, solve_linear


def _ensemble(draw_points, draw_weights):
    return EmpiricalMeasure(points=draw_points, weights=draw_weights)


@st.composite
def ensembles(draw, max_n=8, dim=None):
    d = dim if dim is not None else draw(st.integers(1, 3))
    n = draw(st.integers(1, max_n))
    pts = draw(
        st.lists(
            st.lists(st.floats(-5.0, 5.0), min_size=d, max_size=d),
            min_size=n,
            max_size=n,
        )
    )
    wts = draw(st.lists(st.floats(0.05, 2.0), min_size=n, max_size=n))
    return EmpiricalMeasure(points=np.array(pts), weights=np.array(wts))


# ---------------------------------------------------------------------------
# Construction and elementary operations
# ---------------------------------------------------------------------------


def test_construction_validates():
    with pytest.raises(ValueError):
        EmpiricalMeasure(points=np.zeros((2, 1)), weights=np.array([1.0]))
    with pytest.raises(ValueError):
        EmpiricalMeasure(points=np.zeros((1, 1)), weights=np.array([0.0]))
    with pytest.raises(ValueError):
        EmpiricalMeasure(points=np.array([[np.inf]]), weights=np.array([1.0]))


def test_empty_measure():
    mu = EmpiricalMeasure(points=np.zeros((0, 2)), weights=np.zeros(0))
    assert total_mass(mu) == 0.0
    assert moment(mu, 1) == 0.0
    assert expectation(mu, lambda x: x[:, 0]) == 0.0


def test_moments_hand_values():
    mu = EmpiricalMeasure(points=np.array([[0.0], [3.0]]), weights=np.array([1.0, 2.0]))
    assert total_mass(mu) == 3.0
    assert moment(mu, 1) == 6.0
    assert moment(mu, 2) == 18.0


def test_expectation_hand_values():
    d3 = EmpiricalMeasure.dirac([3.0])
    assert expectation(d3, lambda x: x[:, 0]) == 3.0
    mu = EmpiricalMeasure(points=np.array([[-1.0], [1.0]]), weights=np.array([0.5, 0.5]))
    assert expectation(mu, lambda x: x[:, 0] ** 2) == 1.0
    assert expectation(mu, lambda x: np.ones(x.shape[0])) == total_mass(mu)


# ---------------------------------------------------------------------------
# Push-forward
# ---------------------------------------------------------------------------


def test_push_forward_identity_and_translation():
    mu = EmpiricalMeasure(points=np.array([[1.0], [2.0]]), weights=np.array([0.3, 0.7]))
    same = push_forward(mu, lambda x: x)
    np.testing.assert_array_equal(same.points, mu.points)
    d0 = EmpiricalMeasure.dirac([0.0])
    d2 = push_forward(d0, lambda x: x + 2.0)
    np.testing.assert_array_equal(d2.points, [[2.0]])
    assert total_mass(d2) == 1.0


def test_push_forward_square():
    mu = EmpiricalMeasure(points=np.array([[-1.0], [1.0]]), weights=np.array([0.5, 0.5]))
    sq = push_forward(mu, lambda x: x**2)
    np.testing.assert_array_equal(sq.points, [[1.0], [1.0]])
    np.testing.assert_array_equal(sq.weights, mu.weights)


@given(mu=ensembles())
@settings(max_examples=40, deadline=None)
def test_push_forward_mass_bitwise(mu):
    out = push_forward(mu, lambda x: np.sin(x) + 2.0 * x)
    np.testing.assert_array_equal(out.weights, mu.weights)


@given(mu=ensembles())
@settings(max_examples=40, deadline=None)
def test_push_forward_duality(mu):
    # <Phi#mu, f> = <mu, f o Phi> exactly on the ensemble
    phi = lambda x: 2.0 * x + 1.0
    f = lambda x: np.sum(x, axis=1)
    lhs = expectation(push_forward(mu, phi), f)
    rhs = expectation(mu, lambda x: f(phi(x)))
    assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


# ---------------------------------------------------------------------------
# Bounded-Lipschitz distance
# ---------------------------------------------------------------------------


def test_bl_anchors():
    d0 = EmpiricalMeasure.dirac([0.0])
    d1 = EmpiricalMeasure.dirac([1.0])
    assert bl_distance(d0, d1) == pytest.approx(2.0 / 3.0, abs=1e-9)
    assert bl_distance(d0, d0) == pytest.approx(0.0, abs=1e-9)
    double = EmpiricalMeasure.dirac([0.0], mass=2.0)
    assert bl_distance(double, d0) == pytest.approx(1.0, abs=1e-9)


@given(mu=ensembles(max_n=8, dim=1))
@settings(max_examples=25, deadline=None)
def test_bl_to_the_zero_measure_is_the_mass(mu):
    # f = 1 is admissible (Lip 0), and |<mu, f>| <= ||f||_inf mass(mu)
    zero = EmpiricalMeasure(points=np.zeros((0, 1)), weights=np.zeros(0))
    assert bl_distance(zero, mu) == pytest.approx(total_mass(mu), rel=1e-12)
    assert bl_distance(mu, zero) == pytest.approx(total_mass(mu), rel=1e-12)


def test_bl_far_apart_pairs_above_the_old_lp_cap():
    # 1,000 unit atoms at 3i against the same atoms moved by h = 1/2: each
    # pair is farther from its neighbours than f's optimal reach, so the
    # distance is 1,000 times the two-Dirac optimum 2h/(2 + h) = 400
    x = 3.0 * np.arange(1000.0)[:, None]
    mu = EmpiricalMeasure(points=x, weights=np.ones(1000))
    nu = EmpiricalMeasure(points=x + 0.5, weights=np.ones(1000))
    assert bl_distance(mu, nu) == pytest.approx(400.0, rel=1e-12)


@pytest.mark.parametrize("sep", [0.25, 0.5, 1.0, 3.0, 10.0])
def test_bl_separation_formula(sep):
    # two unit Diracs at distance d: optimum 2d/(2+d)
    d0 = EmpiricalMeasure.dirac([0.0])
    dd = EmpiricalMeasure.dirac([sep])
    assert bl_distance(d0, dd) == pytest.approx(2.0 * sep / (2.0 + sep), abs=1e-9)
    # the index-pairing bound is exact here: 2/3 at distance 1
    assert _coupling_bound(d0, dd) == pytest.approx(2.0 * sep / (2.0 + sep), abs=1e-15)


def test_bl_rejects_other_dimensions():
    d1 = EmpiricalMeasure.dirac([0.0])
    d2 = EmpiricalMeasure.dirac([0.0, 0.0])
    with pytest.raises(ValueError):
        bl_distance(d1, d2)
    with pytest.raises(ValueError, match="one-dimensional"):
        bl_distance(d2, EmpiricalMeasure.dirac([1.0, 0.0]))


@given(a=ensembles(max_n=6, dim=1), b=ensembles(max_n=6, dim=1))
@settings(max_examples=25, deadline=None)
def test_bl_symmetry(a, b):
    assert bl_distance(a, b) == pytest.approx(bl_distance(b, a), abs=1e-9)


@st.composite
def aligned_pairs(draw, max_n=100, dim=2):
    """(mu, nu) as consecutive Picard iterates: nu holds blocks of mu's
    particles, displaced, carrying mu's weights split by block weights that
    sum to 1 (one block: the same weights)."""
    blocks = draw(st.integers(1, 3))
    mu = draw(ensembles(max_n=max_n // blocks, dim=dim))
    split = np.array(draw(st.lists(st.floats(0.05, 1.0), min_size=blocks, max_size=blocks)))
    shift = draw(arrays(float, (blocks * mu.size, dim), elements=st.floats(-3.0, 3.0)))
    nu = EmpiricalMeasure(
        points=np.tile(mu.points, (blocks, 1)) + shift,
        weights=np.outer(split / split.sum(), mu.weights).ravel(),
    )
    return mu, nu


@given(pair=aligned_pairs(dim=1))
@settings(max_examples=25, deadline=None)
def test_coupling_bound_dominates_bl(pair):
    mu, nu = pair
    assert _coupling_bound(mu, nu) >= bl_distance(mu, nu) - 1e-12


@given(pair=aligned_pairs(dim=2))
@settings(max_examples=25, deadline=None)
def test_coupling_bound_dominates_the_lp_bl_in_2d(pair):
    # the coupling bound certifies the Picard stop in every dimension
    mu, nu = pair
    assert _coupling_bound(mu, nu) >= _loop_built_bl(mu, nu) - 1e-12


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_coupling_bound_of_far_apart_particles_is_two_per_unit_mass():
    # np.linalg.norm squares the distance: past about 1.3e154 apart it
    # overflows, and the term 2r / (2 + r), which tends to 2, read inf / inf
    mu = EmpiricalMeasure(points=np.array([[-1e307], [1e307]]), weights=np.array([0.25, 0.5]))
    nu = EmpiricalMeasure(points=mu.points[::-1], weights=mu.weights)
    assert _coupling_bound(mu, nu) == 2.0 * 0.75
    # 2-D, one pair past the float range apart and one pair 1e160 apart
    mu = EmpiricalMeasure(points=np.array([[-1.5e308, 0.0], [1e160, 1e160]]), weights=np.array([0.5, 0.5]))
    nu = EmpiricalMeasure(points=np.array([[1.5e308, 0.0], [0.0, 0.0]]), weights=mu.weights)
    assert _coupling_bound(mu, nu) == 2.0


@pytest.mark.parametrize("scale", [1e-300, 1e-3, 1.0, 1e3, 1e100, 1e149])
def test_coupling_bound_below_1e150_is_the_plain_formula(scale):
    # the cap at far distances changes no bit of a bound over pairs closer than 1e150
    rng = np.random.default_rng(11)
    for dim in (1, 2, 3):
        mu = EmpiricalMeasure(points=rng.normal(size=(50, dim)) * scale, weights=rng.uniform(0.1, 1.0, size=50))
        nu = EmpiricalMeasure(points=rng.normal(size=(50, dim)) * scale, weights=mu.weights)
        r = np.linalg.norm(nu.points - mu.points, axis=1)
        assert _coupling_bound(mu, nu) == float(np.sum(nu.weights * (2.0 * r / (2.0 + r))))


@given(
    a=ensembles(max_n=5, dim=1),
    b=ensembles(max_n=5, dim=1),
    c=ensembles(max_n=5, dim=1),
)
@settings(max_examples=20, deadline=None)
def test_bl_triangle_inequality(a, b, c):
    assert bl_distance(a, c) <= bl_distance(a, b) + bl_distance(b, c) + 1e-9


@given(a=ensembles(max_n=5, dim=1), scale=st.floats(0.1, 5.0))
@settings(max_examples=20, deadline=None)
def test_bl_dual_norm_homogeneity(a, scale):
    b = EmpiricalMeasure(points=a.points + 1.0, weights=a.weights)
    base = bl_distance(a, b)
    scaled = bl_distance(
        EmpiricalMeasure(points=a.points, weights=scale * a.weights),
        EmpiricalMeasure(points=b.points, weights=scale * b.weights),
    )
    assert scaled == pytest.approx(scale * base, abs=1e-9 * max(1.0, scale))


def _loop_built_bl(mu, nu):
    """The bounded-Lipschitz LP on the union support, in any dimension, with
    its constraint matrix assembled one entry at a time by Python loops:

        maximize  c . f   subject to  |f_i| <= u,  |f_i - f_j| <= l |x_i - x_j|,
                                      u + l <= 1,  u, l >= 0,

    c the signed weights of mu - nu.  The reference for ``bl_distance``."""
    from scipy import sparse
    from scipy.optimize import linprog

    pts = np.vstack([mu.points, nu.points])
    n = pts.shape[0]
    iu, ju = np.triu_indices(n, k=1)
    dij = np.linalg.norm(pts[iu] - pts[ju], axis=1)
    rows, cols, vals, rhs = [], [], [], []
    r = 0
    for sign in (1.0, -1.0):
        for i in range(n):
            rows += [r, r]
            cols += [i, n]
            vals += [sign, -1.0]
            rhs.append(0.0)
            r += 1
    for sign in (1.0, -1.0):
        for p in range(iu.size):
            rows += [r, r, r]
            cols += [int(iu[p]), int(ju[p]), n + 1]
            vals += [sign, -sign, -dij[p]]
            rhs.append(0.0)
            r += 1
    rows += [r, r]
    cols += [n, n + 1]
    vals += [1.0, 1.0]
    rhs.append(1.0)
    a_ub = sparse.csr_matrix((vals, (rows, cols)), shape=(r + 1, n + 2))
    cost = np.zeros(n + 2)
    cost[:n] = -np.concatenate([mu.weights, -nu.weights])
    bounds = [(None, None)] * n + [(0.0, None), (0.0, None)]
    tol = {"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10}
    res = linprog(cost, A_ub=a_ub, b_ub=np.array(rhs), bounds=bounds, method="highs", options=tol)
    return max(0.0, float(-res.fun))


@st.composite
def grid_ensembles(draw, max_n=30):
    """Line ensembles on the multiples of 1/64 in [-5, 5]: atoms coincide or
    lie 1/64 or more apart.  HiGHS' 1e-10 feasibility tolerance costs the
    reference LP about 1e-9 on atoms 1e-9 apart (``test_bl_atoms_1e9_apart``)."""
    n = draw(st.integers(1, max_n))
    pts = np.array(draw(st.lists(st.integers(-320, 320), min_size=n, max_size=n))) / 64.0
    wts = draw(st.lists(st.floats(0.05, 2.0), min_size=n, max_size=n))
    return EmpiricalMeasure(points=pts[:, None], weights=np.array(wts))


@given(mu=grid_ensembles(), nu=grid_ensembles())
@settings(max_examples=25, deadline=None)
def test_bl_matches_the_lp(mu, nu):
    assert bl_distance(mu, nu) == pytest.approx(_loop_built_bl(mu, nu), abs=1e-9)


def test_bl_atoms_1e9_apart():
    # c = (-4, -1, 3) at (0, e, 1): f = (-1/3, -1/3 + 2e/3, 1/3) at u = 1/3
    # is optimal, 8/3 - 2e/3; the reference LP returns about 8/3 - 16e/9
    e = 1e-9
    mu = EmpiricalMeasure(points=[[0.0], [1.0]], weights=[1.0, 3.0])
    nu = EmpiricalMeasure(points=[[0.0], [e]], weights=[5.0, 1.0])
    assert bl_distance(mu, nu) == pytest.approx(8.0 / 3.0 - 2.0 * e / 3.0, abs=1e-15)


def test_bl_matches_the_lp_up_to_150_atoms():
    rng = np.random.default_rng(23)
    for n, m in ((150, 1), (1, 150), (150, 150), *rng.integers(1, 151, size=(3, 2))):
        mu = EmpiricalMeasure(points=rng.normal(size=(n, 1)), weights=rng.uniform(0.1, 1.0, n))
        nu = EmpiricalMeasure(points=rng.normal(size=(m, 1)), weights=rng.uniform(0.1, 1.0, m))
        assert bl_distance(mu, nu) == pytest.approx(_loop_built_bl(mu, nu), abs=1e-9)


def test_bl_identity_of_indiscernibles():
    rng = np.random.default_rng(3)
    mu = EmpiricalMeasure(points=rng.normal(size=(5, 1)), weights=rng.uniform(0.1, 1, 5))
    assert bl_distance(mu, mu) == pytest.approx(0.0, abs=1e-9)


# ---------------------------------------------------------------------------
# Wasserstein-1 on the line
# ---------------------------------------------------------------------------


def test_w1_anchors():
    d0 = EmpiricalMeasure.dirac([0.0])
    d1 = EmpiricalMeasure.dirac([1.0])
    assert w1_distance_1d(d0, d1) == pytest.approx(1.0, abs=1e-12)
    assert w1_distance_1d(d0, d0) == 0.0
    u1 = EmpiricalMeasure(points=np.array([[0.0], [1.0]]), weights=np.array([0.5, 0.5]))
    u2 = EmpiricalMeasure(points=np.array([[0.5], [1.5]]), weights=np.array([0.5, 0.5]))
    assert w1_distance_1d(u1, u2) == pytest.approx(0.5, abs=1e-12)


def test_w1_mass_mismatch_signals():
    d0 = EmpiricalMeasure.dirac([0.0], mass=1.0)
    d1 = EmpiricalMeasure.dirac([1.0], mass=2.0)
    with pytest.raises(MassMismatchError):
        w1_distance_1d(d0, d1)


def test_bl_dominated_by_w1_random():
    rng = np.random.default_rng(11)
    for _ in range(200):
        n, m = rng.integers(1, 8, size=2)
        mu = EmpiricalMeasure(points=rng.normal(size=(n, 1)), weights=np.full(n, 1.0 / n))
        nu = EmpiricalMeasure(points=rng.normal(size=(m, 1)), weights=np.full(m, 1.0 / m))
        assert bl_distance(mu, nu) <= w1_distance_1d(mu, nu) + 1e-9


# ---------------------------------------------------------------------------
# Paths and serialization
# ---------------------------------------------------------------------------


def test_path_validation():
    mu = EmpiricalMeasure.dirac([0.0])
    with pytest.raises(ValueError):
        MeasurePath(times=np.array([0.5, 1.0]), measures=[mu, mu])
    with pytest.raises(ValueError):
        MeasurePath(times=np.array([0.0, 1.0, 1.0]), measures=[mu, mu, mu])
    with pytest.raises(ValueError):
        MeasurePath(times=np.array([0.0, 1.0]), measures=[mu])


def test_path_lookup_is_right_continuous_and_frozen():
    a = EmpiricalMeasure.dirac([0.0])
    b = EmpiricalMeasure.dirac([1.0])
    path = MeasurePath(times=np.array([0.0, 1.0]), measures=[a, b])
    assert path.at(0.0) is a
    assert path.at(0.99) is a
    assert path.at(1.0) is b
    assert path.at(50.0) is b


def test_csv_round_trip(tmp_path):
    rng = np.random.default_rng(5)
    measures = [
        EmpiricalMeasure(points=rng.normal(size=(3, 2)), weights=rng.uniform(0.1, 1, 3))
        for _ in range(3)
    ]
    path = MeasurePath(times=np.array([0.0, 0.5, 1.0]), measures=measures)
    target = tmp_path / "path.csv"
    path_to_csv(path, str(target))
    back = path_from_csv(str(target))
    np.testing.assert_array_equal(back.times, path.times)
    for mu, nu in zip(path.measures, back.measures):
        np.testing.assert_array_equal(mu.points, nu.points)
        np.testing.assert_array_equal(mu.weights, nu.weights)


def _reference_csv(path, filename):
    """The row-by-row writer that ``path_to_csv`` must match byte for byte."""
    with open(filename, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["t", "particle_id"] + [f"x_{k + 1}" for k in range(path.dim)] + ["weight"])
        for t, mu in zip(path.times, path.measures):
            for i in range(mu.size):
                writer.writerow(
                    [repr(float(t)), i]
                    + [repr(float(v)) for v in mu.points[i]]
                    + [repr(float(mu.weights[i]))]
                )


_AWKWARD = np.array([1e-05, 1e16, -0.0, 0.1 + 0.2, 5e-324, -1.5e-300, 123456.789, 2.0**-1074 * 3])


def _awkward_measure(rng, n, d):
    points = rng.choice(_AWKWARD, size=(n, d)) * rng.choice([1.0, -1.0], size=(n, d))
    points[: _AWKWARD.size, 0] = _AWKWARD[:n]
    weights = rng.choice(np.abs(_AWKWARD[_AWKWARD != 0.0]), size=n)
    return EmpiricalMeasure(points=points, weights=weights)


@pytest.mark.parametrize("d, sizes", [(1, [2500, 0, 7]), (3, [5, 1100, 0])])
def test_csv_writer_matches_row_writer_bytewise(tmp_path, monkeypatch, d, sizes):
    # 2500 and 1100 rows span more than one chunk of either size, and 7 rows
    # fill one 7-row chunk exactly; size 0 writes no row for that time
    rng = np.random.default_rng(d)
    measures = [_awkward_measure(rng, n, d) for n in sizes]
    path = MeasurePath(times=np.array([0.0, 1e-05, 0.1 + 0.2]), measures=measures)
    got, want = tmp_path / "got.csv", tmp_path / "want.csv"
    _reference_csv(path, str(want))
    for chunk in (7, 1000):
        monkeypatch.setattr("fractrans.measures._CSV_CHUNK_ROWS", chunk)
        path_to_csv(path, str(got))
        assert got.read_bytes() == want.read_bytes()
    # the round trip is bitwise; a time with no particle has no row
    back = path_from_csv(str(got))
    kept = [k for k, n in enumerate(sizes) if n]
    np.testing.assert_array_equal(back.times, path.times[kept])
    for k, nu in zip(kept, back.measures):
        mu = path.measures[k]
        assert mu.points.tobytes() == nu.points.tobytes()
        assert mu.weights.tobytes() == nu.weights.tobytes()


def _damped_grid_path(n, **solver):
    """The linear solve of an n x n grid on [-1, 1]^2 under damping."""
    ax = np.linspace(-1.0, 1.0, n)
    grid = np.stack([m.ravel() for m in np.meshgrid(ax, ax, indexing="ij")], axis=1)
    mu0 = EmpiricalMeasure(points=grid, weights=np.full(grid.shape[0], 1.0 / grid.shape[0]))
    damping = ExplicitField(func=lambda x, t: -x, lip=1.0, autonomous=True)
    return solve_linear(FracOrder(0.5), damping, mu0, SolverConfig(times=(0.5, 1.0), **solver))


def test_csv_writer_on_a_solved_grid_path(tmp_path, monkeypatch):
    # a 2-D grid under damping repeats t, weights and coordinates inside a
    # chunk; 49 particles times 24 h-nodes is 1176 rows, so a 7-row chunk
    # ends inside every node's block and a 1000-row chunk ends inside the
    # 21st
    path = _damped_grid_path(7, q_h=24, q_g=12, ode_step=0.02)
    assert [mu.size for mu in path.measures] == [49, 1176, 1176]
    got, want = tmp_path / "got.csv", tmp_path / "want.csv"
    _reference_csv(path, str(want))
    for chunk in (7, 1000):
        monkeypatch.setattr("fractrans.measures._CSV_CHUNK_ROWS", chunk)
        path_to_csv(path, str(got))
        assert got.read_bytes() == want.read_bytes()


@pytest.fixture(scope="module")
def benchmark_size_path():
    # the size of perfbench's linear-2d solve, a 30 x 30 grid at the
    # default SolverConfig: 900 + 2 x 24 x 900 = 44,100 rows
    path = _damped_grid_path(30)
    assert [mu.size for mu in path.measures] == [900, 21600, 21600]
    return path


def test_csv_writer_matches_row_writer_at_benchmark_size(tmp_path, benchmark_size_path):
    got, want = tmp_path / "got.csv", tmp_path / "want.csv"
    path_to_csv(benchmark_size_path, str(got))
    _reference_csv(benchmark_size_path, str(want))
    assert got.read_bytes() == want.read_bytes()


def test_csv_writer_memory_stays_per_chunk(tmp_path, benchmark_size_path):
    # formatting a chunk at a time keeps the writer's peak at about 0.5 MiB;
    # one chunk per measure would take about 5.2 MiB on this path
    tracemalloc.start()
    try:
        path_to_csv(benchmark_size_path, str(tmp_path / "path.csv"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_csv_writer_keeps_signed_zeros_apart(tmp_path):
    # -0.0 == 0.0, so only a bitwise comparison keeps their strings apart
    # when both sit in one chunk as coordinates; t = -0.0 is written too
    path = MeasurePath(
        times=np.array([-0.0, 1.0]),
        measures=[
            EmpiricalMeasure(points=[[0.0, -0.0], [-0.0, 0.0]], weights=[0.5, 0.5]),
            EmpiricalMeasure(points=[[-0.0, 0.0]], weights=[1.0]),
        ],
    )
    got, want = tmp_path / "got.csv", tmp_path / "want.csv"
    path_to_csv(path, str(got))
    _reference_csv(path, str(want))
    assert got.read_bytes() == want.read_bytes()
    assert got.read_bytes().split(b"\r\n") == [
        b"t,particle_id,x_1,x_2,weight",
        b"-0.0,0,0.0,-0.0,0.5",
        b"-0.0,1,-0.0,0.0,0.5",
        b"1.0,0,-0.0,0.0,1.0",
        b"",
    ]


def test_manifest_write(tmp_path):
    target = tmp_path / "manifest.json"
    write_manifest(str(target), {"beta": 0.5, "seed": 0})
    import json

    with open(target) as handle:
        assert json.load(handle) == {"beta": 0.5, "seed": 0}


def test_written_files_get_the_umask_mode(tmp_path):
    # the temp-file rename must leave the mode a plain open() gives, not 0600
    old = os.umask(0o027)
    try:
        write_manifest(str(tmp_path / "manifest.json"), {"seed": 0})
        with open(tmp_path / "plain.json", "w") as handle:
            handle.write("{}")
    finally:
        os.umask(old)
    mode = lambda name: stat.S_IMODE(os.stat(tmp_path / name).st_mode)
    assert mode("manifest.json") == mode("plain.json") == 0o640


_MOMENT_REPR = """
import numpy as np
from fractrans.measures import EmpiricalMeasure, moment
rng = np.random.default_rng(0)
n = 116_100
mu = EmpiricalMeasure(points=rng.normal(size=(n, 2)), weights=np.full(n, 1.0 / n))
print(repr(moment(mu, 1)), repr(moment(mu, 2)))
"""


def test_moment_does_not_depend_on_blas_threads():
    # a BLAS dot product splits its sum by thread; the moments must not
    src = os.path.dirname(os.path.dirname(os.path.abspath(fractrans.__file__)))
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads)
        proc = subprocess.run([sys.executable, "-c", _MOMENT_REPR], env=env,
                              capture_output=True, text=True, check=True)
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]
