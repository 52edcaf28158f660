"""Weighted particle ensembles: finite positive measures on R^d.

Every measure handled by the package is a finite sum of weighted Dirac
masses.  Push-forward moves the points and leaves the weights untouched,
so total mass is conserved bitwise.  A path of measures is written as a
CSV of particles with a JSON manifest beside it.  The distances between
measures, which no solve reads, are in ``distances``.
"""

from __future__ import annotations

import json

import numpy as np

from .atomic import atomic_write

__all__ = [
    "EmpiricalMeasure",
    "MeasurePath",
    "push_forward",
    "total_mass",
    "moment",
    "expectation",
    "path_to_csv",
    "path_from_csv",
    "write_manifest",
]


class EmpiricalMeasure:
    """Finite positive measure sum_i w_i delta_{x_i} on R^d.

    ``points`` has shape (N, d) and ``weights`` shape (N,); the empty
    measure (N = 0) is allowed and has total mass 0.  Arrays are frozen
    after construction.
    """

    def __init__(self, points, weights):
        points = np.atleast_2d(np.asarray(points, dtype=float))
        weights = np.asarray(weights, dtype=float).ravel()
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
        self.points, self.weights = points, weights

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
    with np.errstate(over="ignore"):  # an inf moment is the caller's to reject
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


class MeasurePath:
    """Time-indexed family of measures on a common grid starting at 0."""

    def __init__(self, times, measures: list, diagnostics: dict | None = None):
        times = np.asarray(times, dtype=float).ravel()
        if times.size == 0 or times[0] != 0.0:
            raise ValueError("path grid must start at t = 0")
        if np.any(np.diff(times) <= 0.0):
            raise ValueError("path grid must be strictly increasing")
        if len(measures) != times.size:
            raise ValueError("one measure per grid point required")
        dims = {m.dim for m in measures}
        if len(dims) > 1:
            raise ValueError(f"measures have mixed dimensions {sorted(dims)}")
        times.setflags(write=False)
        self.times, self.measures = times, measures
        self.diagnostics = {} if diagnostics is None else diagnostics

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


#: rows written by one ``"".join`` in ``path_to_csv``
_CSV_CHUNK_ROWS = 2048


def path_to_csv(path: MeasurePath, filename: str):
    """Columns: t, particle_id, x_1..x_d, weight; one row per particle.

    Each float is written as its ``repr`` (shortest exact round trip), the
    header and rows as ``csv.writer`` writes them: no cell needs quoting.
    Each ``_CSV_CHUNK_ROWS`` rows are one ``"".join`` of cells that carry
    their own separators: ``"t,id,"`` per row, ``","`` after a coordinate,
    ``"\\r\\n"`` after the weight.
    In a chunk each distinct bit pattern of the coordinates, and of the
    weights, is formatted once and its string reused, so the bytes are the
    same as formatting every cell; ``-0.0`` and ``0.0`` differ in bits.
    """
    d = path.dim

    def write(handle):
        handle.write(",".join(["t", "particle_id", *(f"x_{k + 1}" for k in range(d)), "weight"]) + "\r\n")
        for t, mu in zip(path.times.tolist(), path.measures):
            prefix = repr(t) + ",%d,\n"
            for a in range(0, mu.size, _CSV_CHUNK_ROWS):
                b = min(a + _CSV_CHUNK_ROWS, mu.size)
                cells = np.empty((b - a, d + 2), dtype=object)
                # one % formats the prefixes, which hold no whitespace
                cells[:, 0] = (prefix * (b - a) % tuple(range(a, b))).split()
                for column, values, end in ((slice(1, -1), mu.points[a:b], ","), (-1, mu.weights[a:b], "\r\n")):
                    bits, inverse = np.unique(values.view(np.int64), return_inverse=True)
                    text = np.array([repr(v) + end for v in bits.view(np.float64).tolist()], dtype=object)
                    cells[:, column] = text[inverse.reshape(values.shape)]
                handle.write("".join(cells.ravel().tolist()))

    atomic_write(filename, write)


def path_from_csv(filename: str) -> MeasurePath:
    """Read a ``path_to_csv`` file; ValueError on an empty file, a header
    it does not write, no rows, or a row without one field per column."""
    import csv

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

    atomic_write(filename, write)
