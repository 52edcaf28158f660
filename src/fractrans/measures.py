"""Weighted particle ensembles: finite positive measures on R^d.

Every measure handled by the package is a finite sum of weighted Dirac
masses.  Push-forward moves the points and leaves the weights untouched,
so total mass is conserved bitwise.  The metric structure consists of the
dual bounded-Lipschitz distance and the Wasserstein-1 distance, both on
the line: the first exact by a chain dynamic program inside a cutting-plane
search, the second by the CDF area formula.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field

import numpy as np

from .atomic import atomic_write
from .errors import MassMismatchError

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


#: rows written by one ``"".join`` in ``path_to_csv``
_CSV_CHUNK_ROWS = 2048


def path_to_csv(path: MeasurePath, filename: str):
    """Columns: t, particle_id, x_1..x_d, weight; one row per particle.

    Each float is written as its ``repr`` (shortest exact round trip), the
    rows as ``csv.writer`` writes them.  Each ``_CSV_CHUNK_ROWS`` rows are
    one ``"".join`` of cells that carry their own separators: ``"t,id,"``
    per row, ``","`` after a coordinate, ``"\\r\\n"`` after the weight.
    In a chunk each distinct bit pattern of the coordinates, and of the
    weights, is formatted once and its string reused, so the bytes are the
    same as formatting every cell; ``-0.0`` and ``0.0`` differ in bits.
    """
    d = path.dim

    def write(handle):
        csv.writer(handle).writerow(["t", "particle_id"] + [f"x_{k + 1}" for k in range(d)] + ["weight"])
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
