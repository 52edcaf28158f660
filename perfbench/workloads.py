"""The four benchmark workloads: CLI configurations made from a seed, and
the answer check that decides whether a finished run counts.

Every workload runs at beta = 1/2, where the closed forms are elementary:
E_{1/2}(-z) = erfcx(z) and E[E_t^g] = Gamma(1+g) t^(g/2) / Gamma(1+g/2).
A check returns ``(ok, deviations, message)``; the deviations are recorded
in the results so that a speed-up that moves the answers is visible.
"""

from __future__ import annotations

import json
import math
import os
import random

import numpy as np

BETA = 0.5

#: closed-form anchors of the deterministic solvers agree to ~3e-11 at the
#: parent commit; this leaves room for rounding and refuses real damage
CLOSED_FORM_TOL = 1e-8
#: the solvers renormalise quadrature weights, so mass is exact to rounding
MASS_TOL = 1e-12
#: nonlinear moments may move with the Picard stopping sweep (seed-dependent
#: subsampling of the distance); allow this many multiples of picard_tol
PICARD_TOL_MULTIPLE = 5.0
#: Monte Carlo estimates must lie within this many standard errors, plus
#: the first-passage bias bound, of the exact value
MC_SIGMAS = 5.0
#: CSV sums are recomputed in another order than the solver's
CSV_REL_TOL = 1e-10

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE = os.path.join(HERE, "ref", "nonlinear-repulsion.json")


def erfcx(x: float) -> float:
    """Scaled complementary error function, accurate for |x| <= 5."""
    return math.exp(x * x) * math.erfc(x)


def _half_width(seed: int, salt: int) -> float:
    """Box half-width in [0.9, 1.1]: the seed moves the particle positions
    of the deterministic workloads without changing the work they do."""
    return 0.9 + 0.2 * random.Random(seed * 1000 + salt).random()


def linear_2d(seed: int) -> tuple[str, dict]:
    a = _half_width(seed, 1)
    return "solve", {
        "problem": "linear",
        "beta": BETA,
        "times": [0.5, 1.0],
        "velocity": {"kind": "damping"},
        "initial": {"kind": "uniform-grid", "low": [-a, -a], "high": [a, a], "n": 30},
    }


def nonlinear_repulsion(seed: int) -> tuple[str, dict]:
    # fixed grid so that one stored reference serves every seed; the seed
    # reaches the solver through --seed (subsampling in the Picard distance)
    return "solve", {
        "problem": "nonlinear",
        "beta": BETA,
        "times": [0.5],
        "velocity": {"kind": "repulsion"},
        "initial": {"kind": "uniform-grid", "low": [-1.0], "high": [1.0], "n": 16},
        "solver": {"q_h": 16, "q_g": 8},
    }


def clock_sample(seed: int) -> tuple[str, dict]:
    return "sample", {
        "beta": BETA,
        "times": [0.5, 1.0],
        "gammas": [1.0, 2.0],
        "lambdas": [-1.0],
        "n": 20000,
        "dtau": 1e-3,
    }


def source_2d(seed: int) -> tuple[str, dict]:
    a = _half_width(seed, 2)
    p = 0.4 + 0.2 * random.Random(seed * 1000 + 3).random()
    return "solve", {
        "problem": "source",
        "beta": BETA,
        "times": [0.5, 1.0],
        "velocity": {"kind": "damping"},
        "initial": {"kind": "uniform-grid", "low": [-a, -a], "high": [a, a], "n": 10},
        "source": {"kind": "dirac", "point": [p, p]},
    }


# ---------------------------------------------------------------------------
# Answer checks
# ---------------------------------------------------------------------------


def _load_manifest(out_dir: str) -> dict:
    with open(os.path.join(out_dir, "manifest.json")) as handle:
        return json.load(handle)


def _check_csv(out_dir: str, manifest: dict) -> tuple[bool, str]:
    """path.csv must hold, per output time, the mass and first moment that
    the manifest reports, so a fast but lossy writer counts as failed."""
    data = np.loadtxt(os.path.join(out_dir, "path.csv"), delimiter=",", skiprows=1, ndmin=2)
    t_col, pts, w = data[:, 0], data[:, 2:-1], data[:, -1]
    times = [0.0] + [float(t) for t in manifest["times"]]
    if sorted(set(t_col.tolist())) != times:
        return False, f"path.csv times {sorted(set(t_col.tolist()))} != {times}"
    outputs = manifest["outputs"]
    for k, t in enumerate(times):
        rows = t_col == t
        mass = float(w[rows].sum())
        m1 = float(np.dot(w[rows], np.linalg.norm(pts[rows], axis=1)))
        for got, want, what in ((mass, outputs["total_mass"][k], "mass"),
                                (m1, outputs["first_moment"][k], "first moment")):
            if abs(got - want) > CSV_REL_TOL * max(abs(want), 1.0):
                return False, f"path.csv {what} at t={t}: {got!r} != manifest {want!r}"
    return True, ""


def check_linear(out_dir: str, cfg: dict) -> tuple[bool, dict, str]:
    """Damping v = -x moves x to x e^{-s}, so the k-th moment ratio at time
    t is E[e^{-k E_t}] = erfcx(k sqrt(t)) at beta = 1/2."""
    man = _load_manifest(out_dir)
    out = man["outputs"]
    err_m1 = err_m2 = err_mass = 0.0
    for k, t in enumerate(man["times"], start=1):
        err_m1 = max(err_m1, abs(out["first_moment"][k] / out["first_moment"][0] - erfcx(math.sqrt(t))))
        err_m2 = max(err_m2, abs(out["second_moment"][k] / out["second_moment"][0] - erfcx(2.0 * math.sqrt(t))))
        err_mass = max(err_mass, abs(out["total_mass"][k] - out["total_mass"][0]))
    dev = {"first_moment_ratio": err_m1, "second_moment_ratio": err_m2, "mass": err_mass}
    if max(err_m1, err_m2) > CLOSED_FORM_TOL or err_mass > MASS_TOL:
        return False, dev, f"linear-2d off its closed form: {dev}"
    ok, msg = _check_csv(out_dir, man)
    return ok, dev, msg


def check_source(out_dir: str, cfg: dict) -> tuple[bool, dict, str]:
    """Unit initial mass plus a unit constant source: the mass solves
    D^beta m = 1, so m(t) = 1 + t^beta / Gamma(1 + beta)."""
    man = _load_manifest(out_dir)
    masses = man["outputs"]["total_mass"]
    err = max(
        abs(masses[k] - (1.0 + t**BETA / math.gamma(1.0 + BETA)))
        for k, t in enumerate(man["times"], start=1)
    )
    dev = {"mass": err}
    if err > CLOSED_FORM_TOL:
        return False, dev, f"source-2d mass off its closed form by {err:.3e}"
    ok, msg = _check_csv(out_dir, man)
    return ok, dev, msg


def check_nonlinear(out_dir: str, cfg: dict) -> tuple[bool, dict, str]:
    """Mass is conserved exactly; the moments must match the stored
    reference to within a multiple of the Picard tolerance."""
    man = _load_manifest(out_dir)
    with open(REFERENCE) as handle:
        ref = json.load(handle)
    out = man["outputs"]
    err_mass = max(abs(m - 1.0) for m in out["total_mass"])
    err_mom = max(
        abs(a - b)
        for key in ("first_moment", "second_moment")
        for a, b in zip(out[key], ref["outputs"][key])
    )
    tol = PICARD_TOL_MULTIPLE * float(man["solver"]["picard_tol"])
    dev = {"mass": err_mass, "moments_vs_reference": err_mom,
           "sweeps": man["diagnostics"].get("sweeps")}
    if err_mass > MASS_TOL or err_mom > tol:
        return False, dev, f"nonlinear-repulsion off its reference: {dev} (moment tol {tol})"
    ok, msg = _check_csv(out_dir, man)
    return ok, dev, msg


def check_clock(out_dir: str, cfg: dict) -> tuple[bool, dict, str]:
    """Each estimate within MC_SIGMAS standard errors of its closed form,
    widened by the first-passage overshoot: the sampled clock lies in
    [E_t, E_t + dtau), which shifts an increasing f(E_t) by at most
    dtau * sup f'."""
    with open(os.path.join(out_dir, "samples.jsonl")) as handle:
        records = [json.loads(line) for line in handle if line.strip()]
    expected = len(cfg["times"]) * (len(cfg["gammas"]) + len(cfg["lambdas"]))
    if len(records) != expected:
        return False, {}, f"samples.jsonl has {len(records)} records, expected {expected}"
    dtau = cfg["dtau"]
    worst_z = worst_abs = 0.0
    for rec in records:
        t = rec["t"]
        if "gamma" in rec:
            g = rec["gamma"]
            exact = math.gamma(1.0 + g) * t ** (g * BETA) / math.gamma(1.0 + g * BETA)
            mean = math.gamma(2.0) * t**BETA / math.gamma(1.0 + BETA)
            bias = dtau * g * (mean + dtau) ** (g - 1.0)  # valid for 1 <= g <= 2
        else:
            lam = rec["lambda"]
            exact = erfcx(-lam * math.sqrt(t))
            bias = abs(lam) * dtau * max(1.0, exact * math.exp(lam * dtau))
        err = abs(rec["estimate"] - exact)
        worst_abs = max(worst_abs, err)
        worst_z = max(worst_z, err / rec["stderr"])
        if err > MC_SIGMAS * rec["stderr"] + bias:
            return False, {"max_abs": err, "max_z": worst_z}, f"clock-sample estimate {rec} off exact {exact}"
    return True, {"max_abs": worst_abs, "max_z": worst_z}, ""


#: name -> (function making the CLI call from a seed, answer check)
WORKLOADS = {
    "linear-2d": (linear_2d, check_linear),
    "nonlinear-repulsion": (nonlinear_repulsion, check_nonlinear),
    "clock-sample": (clock_sample, check_clock),
    "source-2d": (source_2d, check_source),
}
