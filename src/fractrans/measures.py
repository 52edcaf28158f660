"""Weighted particle ensembles: finite positive measures on R^d.

Every measure handled by the package is a finite sum of weighted Dirac
masses.  Push-forward moves the points and leaves the weights untouched,
so total mass is conserved bitwise.  The metric structure consists of the
dual bounded-Lipschitz distance (computed exactly on the union support by
a linear program) and the one-dimensional Wasserstein-1 distance (CDF
area formula).
"""

from __future__ import annotations

import csv
import json
import os
import tempfile
from dataclasses import dataclass, field

import numpy as np

from .errors import MassMismatchError, SupportCapError

__all__ = [
    "EmpiricalMeasure",
    "MeasurePath",
    "push_forward",
    "total_mass",
    "moment",
    "expectation",
    "bl_distance",
    "w1_distance_1d",
    "path_to_csv",
    "path_from_csv",
    "write_manifest",
]

#: largest union-support size accepted by the bounded-Lipschitz LP
BL_SUPPORT_CAP = 400

#: relative tolerance on total-mass equality required by w1_distance_1d
W1_MASS_TOL = 1e-12


@dataclass(frozen=True)
class EmpiricalMeasure:
    """Finite positive measure sum_i w_i delta_{x_i} on R^d.

    ``points`` has shape (N, d) and ``weights`` shape (N,); the empty
    measure (N = 0) is allowed and has total mass 0.  Arrays are frozen
    after construction.
    """

    points: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        points = np.atleast_2d(np.asarray(self.points, dtype=float))
        weights = np.asarray(self.weights, dtype=float).ravel()
        if points.size == 0:
            points = points.reshape(0, points.shape[-1] if points.ndim == 2 else 1)
        if points.shape[0] != weights.shape[0]:
            raise ValueError(
                f"got {points.shape[0]} points but {weights.shape[0]} weights"
            )
        if weights.size and not np.all(weights > 0.0):
            raise ValueError("weights must be strictly positive")
        if not np.all(np.isfinite(points)) or not np.all(np.isfinite(weights)):
            raise ValueError("points and weights must be finite")
        points = points.copy()
        weights = weights.copy()
        points.setflags(write=False)
        weights.setflags(write=False)
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "weights", weights)

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    @property
    def size(self) -> int:
        return self.points.shape[0]

    @classmethod
    def dirac(cls, x, mass: float = 1.0) -> "EmpiricalMeasure":
        x = np.atleast_1d(np.asarray(x, dtype=float))
        return cls(points=x[None, :], weights=np.array([mass]))


def total_mass(mu: EmpiricalMeasure) -> float:
    return float(mu.weights.sum())


def moment(mu: EmpiricalMeasure, k: int) -> float:
    """k-th absolute moment sum_i w_i |x_i|^k (Euclidean norm)."""
    if mu.size == 0:
        return 0.0
    r = np.linalg.norm(mu.points, axis=1)
    return float(np.sum(mu.weights * r**k))


def expectation(mu: EmpiricalMeasure, f) -> float:
    """Integral of f against mu; f maps an (N, d) array to N values."""
    if mu.size == 0:
        return 0.0
    vals = np.asarray(f(mu.points), dtype=float).ravel()
    return float(np.sum(mu.weights * vals))


def push_forward(mu: EmpiricalMeasure, mapping) -> EmpiricalMeasure:
    """Image measure: points are mapped, weights pass through untouched."""
    if mu.size == 0:
        return mu
    new_points = np.asarray(mapping(mu.points), dtype=float)
    new_points = new_points.reshape(mu.points.shape)
    return EmpiricalMeasure(points=new_points, weights=mu.weights)


def bl_distance(mu: EmpiricalMeasure, nu: EmpiricalMeasure) -> float:
    """Dual bounded-Lipschitz distance between two particle ensembles.

    Exact on empirical measures: the supremum over test functions with
    ||f||_inf + Lip(f) <= 1 is attained at a function determined by its
    values on the union support (McShane extension preserves both the
    bound and the Lipschitz constant).  Solved as a linear program with
    variables (f_1..f_n, u, l):

        maximize  c . f     subject to  |f_i| <= u,
                                        |f_i - f_j| <= l |x_i - x_j|,
                                        u + l <= 1,  u, l >= 0,

    where c is the signed weight vector of mu - nu.
    """
    from scipy import sparse
    from scipy.optimize import linprog

    if mu.dim != nu.dim:
        raise ValueError(f"dimension mismatch: {mu.dim} vs {nu.dim}")
    pts = np.vstack([mu.points.reshape(-1, mu.dim), nu.points.reshape(-1, nu.dim)])
    c_signed = np.concatenate([mu.weights, -nu.weights])
    n = pts.shape[0]
    if n == 0:
        return 0.0
    if n > BL_SUPPORT_CAP:
        raise SupportCapError(
            f"union support has {n} points, above the LP cap {BL_SUPPORT_CAP}"
        )

    # rows: f_i - u <= 0 and -f_i - u <= 0 (two entries each), then
    # +-(f_i - f_j) - l d_ij <= 0 for each pair i < j (three), then u + l <= 1
    iu, ju = np.triu_indices(n, k=1)
    dij = np.linalg.norm(pts[iu] - pts[ju], axis=1)
    one = np.ones_like(dij)
    bound_cols = np.stack([np.arange(n), np.full(n, n)], axis=1).ravel()
    pair_cols = np.stack([iu, ju, np.full(iu.size, n + 1)], axis=1).ravel()
    indices = np.concatenate([bound_cols, bound_cols, pair_cols, pair_cols, [n, n + 1]])
    data = np.concatenate([np.tile([1.0, -1.0], n), np.full(2 * n, -1.0),
                           np.stack([one, -one, -dij], axis=1).ravel(),
                           np.stack([-one, one, -dij], axis=1).ravel(), [1.0, 1.0]])
    row_sizes = np.repeat([2, 3, 2], [2 * n, 2 * iu.size, 1])
    indptr = np.concatenate([[0], np.cumsum(row_sizes)])
    a_ub = sparse.csr_matrix((data, indices, indptr), shape=(row_sizes.size, n + 2))
    b_ub = np.zeros(row_sizes.size)
    b_ub[-1] = 1.0

    cost = np.zeros(n + 2)
    cost[:n] = -c_signed  # linprog minimizes
    bounds = [(None, None)] * n + [(0.0, None), (0.0, None)]
    # HiGHS' default feasibility tolerances (1e-7) let the optimum drift by
    # a few 1e-9, enough to make d(mu, nu) and d(nu, mu) differ at that level
    tol = {"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10}
    res = linprog(cost, A_ub=a_ub, b_ub=b_ub, bounds=bounds, method="highs", options=tol)
    if not res.success:  # pragma: no cover - defensive
        raise RuntimeError(f"bounded-Lipschitz LP failed: {res.message}")
    return max(0.0, float(-res.fun))


def w1_distance_1d(mu: EmpiricalMeasure, nu: EmpiricalMeasure) -> float:
    """Wasserstein-1 distance on the line: area between the CDFs."""
    if mu.dim != 1 or nu.dim != 1:
        raise ValueError("w1_distance_1d requires one-dimensional measures")
    m_mu, m_nu = total_mass(mu), total_mass(nu)
    scale = max(m_mu, m_nu, 1.0)
    if abs(m_mu - m_nu) > W1_MASS_TOL * scale:
        raise MassMismatchError(
            f"total masses differ: {m_mu} vs {m_nu} (W1 needs balanced mass)"
        )
    x = np.concatenate([mu.points.ravel(), nu.points.ravel()])
    w = np.concatenate([mu.weights, -nu.weights])
    order = np.argsort(x, kind="stable")
    x, w = x[order], w[order]
    cdf_diff = np.cumsum(w)[:-1]
    return float(np.sum(np.abs(cdf_diff) * np.diff(x)))


@dataclass
class MeasurePath:
    """Time-indexed family of measures on a common grid starting at 0."""

    times: np.ndarray
    measures: list
    diagnostics: dict = field(default_factory=dict)

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float).ravel()
        if times.size == 0 or times[0] != 0.0:
            raise ValueError("path grid must start at t = 0")
        if np.any(np.diff(times) <= 0.0):
            raise ValueError("path grid must be strictly increasing")
        if len(self.measures) != times.size:
            raise ValueError("one measure per grid point required")
        dims = {m.dim for m in self.measures}
        if len(dims) > 1:
            raise ValueError(f"measures have mixed dimensions {sorted(dims)}")
        times.setflags(write=False)
        self.times = times

    @property
    def dim(self) -> int:
        return self.measures[0].dim

    def at(self, t: float) -> EmpiricalMeasure:
        """Piecewise-constant (right-continuous) lookup, frozen at the end."""
        idx = int(np.searchsorted(self.times, t, side="right")) - 1
        return self.measures[max(idx, 0)]


# ---------------------------------------------------------------------------
# Serialization: CSV of particles + JSON manifest
# ---------------------------------------------------------------------------


def _atomic_write(path: str, writer):
    """Write via a temp file in the same directory, then rename.

    ``mkstemp`` creates the temp file with mode 0600 and the rename keeps
    it, so the file is given the mode a plain ``open()`` would create it
    with: 0666 minus the umask.
    """
    directory = os.path.dirname(os.path.abspath(path))
    umask = os.umask(0)
    os.umask(umask)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", newline="") as handle:
            os.chmod(tmp, 0o666 & ~umask)
            writer(handle)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


#: rows formatted by one string operation in ``path_to_csv``
_CSV_CHUNK_ROWS = 1024


def path_to_csv(path: MeasurePath, filename: str):
    """Columns: t, particle_id, x_1..x_d, weight; one row per particle.

    Each float is written as its ``repr`` (shortest exact round trip), the
    rows as ``csv.writer`` writes them.  Rows are formatted
    ``_CSV_CHUNK_ROWS`` at a time by one ``%`` on a repeated row template.
    Within a chunk each distinct float bit pattern is formatted once and
    its string reused for every cell holding it (t is constant within a
    measure, and weights and grid coordinates repeat), so the bytes are
    the same as formatting every cell.  Bit patterns, not values, are
    compared, so ``-0.0`` and ``0.0`` keep their own strings.
    """
    d = path.dim
    row = "%s,%d," + "%s," * d + "%s\r\n"

    def write(handle):
        csv.writer(handle).writerow(["t", "particle_id"] + [f"x_{k + 1}" for k in range(d)] + ["weight"])
        for t, mu in zip(path.times.tolist(), path.measures):
            for a in range(0, mu.size, _CSV_CHUNK_ROWS):
                b = min(a + _CSV_CHUNK_ROWS, mu.size)
                block = np.empty((b - a, d + 3))
                # column 1 holds t until particle_id replaces its strings,
                # so it adds no distinct value
                block[:, :2] = t
                block[:, 2:-1] = mu.points[a:b]
                block[:, -1] = mu.weights[a:b]
                bits, inverse = np.unique(block.view(np.int64).ravel(), return_inverse=True)
                text = np.array([repr(v) for v in bits.view(np.float64).tolist()], dtype=object)
                cells = text[inverse.reshape(block.shape)]
                cells[:, 1] = range(a, b)
                handle.write(row * (b - a) % tuple(cells.ravel().tolist()))

    _atomic_write(filename, write)


def path_from_csv(filename: str) -> MeasurePath:
    """Read a ``path_to_csv`` file; ValueError on an empty file, a header
    it does not write, no rows, or a row without one field per column."""
    with open(filename, newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header is None:
            raise ValueError(f"measure CSV {filename} is empty")
        d = len(header) - 3
        if d < 1 or header[0] != "t" or header[-1] != "weight":
            raise ValueError(f"unrecognized measure CSV header: {header}")
        by_time: dict = {}
        for row in reader:
            if len(row) != len(header):
                raise ValueError(
                    f"measure CSV {filename} line {reader.line_num} has {len(row)} fields, "
                    f"expected {len(header)}"
                )
            t = float(row[0])
            by_time.setdefault(t, ([], []))
            by_time[t][0].append([float(v) for v in row[2 : 2 + d]])
            by_time[t][1].append(float(row[-1]))
    if not by_time:
        raise ValueError(f"measure CSV {filename} has no rows")
    times = sorted(by_time)
    measures = [
        EmpiricalMeasure(points=np.array(by_time[t][0]), weights=np.array(by_time[t][1]))
        for t in times
    ]
    return MeasurePath(times=np.array(times), measures=measures)


def write_manifest(filename: str, payload: dict):
    """JSON sidecar with every tolerance, grid, and seed of a run."""

    def write(handle):
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")

    _atomic_write(filename, write)
