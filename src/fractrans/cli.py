"""Command-line front end: kernels | sample | solve | verify.

A single strict JSON document configures each run; unknown keys are
rejected.  Exit codes: 0 success, 1 verification failure, 2 configuration
error, 3 solver non-convergence, 4 numerical failure (a quadrature tail
mass that cannot be met, or a floating-point overflow).  Every output
file is written through a temp-file rename, so no partial file survives a
failure, and each solve emits a manifest recording every tolerance and
seed used.  ``kernels``, ``sample`` and ``solve`` run on numpy alone;
only ``verify`` imports scipy.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import numbers
import os
import sys

import numpy as np

from . import __version__
from .errors import PicardConvergenceError, TailMassError
from .measures import (
    EmpiricalMeasure,
    MeasurePath,
    _atomic_write,
    moment,
    path_from_csv,
    path_to_csv,
    total_mass,
    write_manifest,
)
from .specfun import (
    FracOrder,
    inverse_subordinator_density,
    mittag_leffler,
    subordinator_density,
)
from .subordinator import RngSpec, mc_exponential_functional, sample_inverse
from .transport import (
    ExplicitField,
    InteractionField,
    SolverConfig,
    attraction_field,
    repulsion_field,
    solve_linear,
    solve_nonlinear,
    solve_with_source,
)

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_CONFIG = 2
EXIT_NO_CONVERGENCE = 3
EXIT_NUMERICAL = 4


class ConfigError(ValueError):
    pass


def _require_keys(obj: dict, allowed: set, required: set, where: str):
    unknown = set(obj) - allowed
    if unknown:
        raise ConfigError(f"unknown keys in {where}: {sorted(unknown)}")
    missing = required - set(obj)
    if missing:
        raise ConfigError(f"missing keys in {where}: {sorted(missing)}")


def _load_config(path: str) -> dict:
    try:
        with open(path) as handle:
            cfg = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}")
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be a JSON object")
    return cfg


def _parse_measure(spec: dict, where: str) -> EmpiricalMeasure:
    _require_keys(spec, {"kind", "point", "points", "mass", "masses", "low", "high", "n", "path"}, {"kind"}, where)
    kind = spec["kind"]
    if kind == "dirac":
        return EmpiricalMeasure.dirac(spec.get("point", [0.0]), spec.get("mass", 1.0))
    if kind == "two-dirac":
        pts = np.asarray(spec.get("points", [[-1.0], [1.0]]), dtype=float)
        masses = np.asarray(spec.get("masses", [0.5, 0.5]), dtype=float)
        return EmpiricalMeasure(points=pts, weights=masses)
    if kind == "uniform-grid":
        _require_keys(spec, set(spec), {"low", "high", "n"}, f"{where} ({kind})")
        low = np.atleast_1d(np.asarray(spec["low"], dtype=float))
        high = np.atleast_1d(np.asarray(spec["high"], dtype=float))
        if low.shape != high.shape:
            raise ConfigError(
                f"uniform-grid low and high must have the same length in {where}, "
                f"got shapes {low.shape} and {high.shape}"
            )
        n = _count(spec["n"], "n")
        if n < 1:
            raise ConfigError(f"uniform-grid n must be at least 1, got {n}")
        axes = [np.linspace(lo, hi, n) for lo, hi in zip(low, high)]
        mesh = np.meshgrid(*axes, indexing="ij")
        pts = np.stack([m.ravel() for m in mesh], axis=1)
        mass = float(spec.get("mass", 1.0))
        return EmpiricalMeasure(points=pts, weights=np.full(pts.shape[0], mass / pts.shape[0]))
    if kind == "file":
        _require_keys(spec, set(spec), {"path"}, f"{where} ({kind})")
        try:
            path = path_from_csv(spec["path"])
        except OSError as exc:
            raise ConfigError(f"cannot read measure file in {where}: {exc}")
        return path.measures[0]
    raise ConfigError(f"unknown measure kind {kind!r} in {where}")


def _parse_velocity(spec: dict):
    _require_keys(
        spec, {"kind", "value", "matrix", "offset", "lip"}, {"kind"}, "velocity"
    )
    kind = spec["kind"]
    # the explicit kinds are autonomous: the solvers skip their g-average
    if kind == "constant":
        value = np.atleast_1d(np.asarray(spec.get("value", [1.0]), dtype=float))
        return ExplicitField(
            func=lambda x, t: np.broadcast_to(value, x.shape).copy(), lip=0.0, autonomous=True
        )
    if kind == "damping":
        return ExplicitField(func=lambda x, t: -x, lip=1.0, autonomous=True)
    if kind == "affine":
        _require_keys(spec, set(spec), {"matrix"}, "velocity (affine)")
        matrix = np.asarray(spec["matrix"], dtype=float)
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise ConfigError(f"affine matrix must be square, got shape {matrix.shape}")
        offset = np.atleast_1d(np.asarray(spec.get("offset", np.zeros(matrix.shape[0])), dtype=float))
        lip = float(np.linalg.norm(matrix, 2))
        return ExplicitField(func=lambda x, t: x @ matrix.T + offset, lip=lip, autonomous=True)
    if kind == "attraction":
        return attraction_field(lip=float(spec.get("lip", 1.0)))
    if kind == "repulsion":
        return repulsion_field()
    raise ConfigError(f"unknown velocity kind {kind!r}")


#: the "solver" block sets every SolverConfig field but ``times``, which
#: is given at the top level of the config
_SOLVER_KEYS = {f.name for f in dataclasses.fields(SolverConfig)} - {"times"}


def _is_number(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _count(value, key: str) -> int:
    if not isinstance(value, numbers.Integral) or isinstance(value, bool):
        raise ConfigError(f"{key} must be an integer, got {value!r}")
    return int(value)


def _parse_beta(cfg: dict) -> FracOrder:
    if not _is_number(cfg["beta"]):
        raise ConfigError(f"beta must be a number, got {cfg['beta']!r}")
    return FracOrder(float(cfg["beta"]))


def _float_list(cfg: dict, key: str, default=None) -> list:
    values = cfg.get(key, default)
    if not isinstance(values, list) or not all(_is_number(v) for v in values):
        raise ConfigError(f"{key} must be a JSON list of numbers")
    return [float(v) for v in values]


def _parse_solver_config(cfg: dict, times) -> SolverConfig:
    solver = cfg.get("solver", {})
    _require_keys(solver, _SOLVER_KEYS, set(), "solver")
    return SolverConfig(times=tuple(times), **solver)


def _write_jsonl(filename: str, records):
    """One JSON object per line, keys sorted."""

    def write(handle):
        for rec in records:
            handle.write(json.dumps(rec, sort_keys=True) + "\n")

    _atomic_write(filename, write)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_kernels(cfg: dict, out_dir: str, seed: int) -> int:
    _require_keys(cfg, {"betas", "s_grid", "t_grid", "z_grid"}, set(), "config")
    betas = _float_list(cfg, "betas", [0.3, 0.5, 0.7])
    s_grid = _float_list(cfg, "s_grid", np.linspace(0.0, 4.0, 21).tolist())
    t_grid = _float_list(cfg, "t_grid", [0.5, 1.0, 2.0])
    z_grid = _float_list(cfg, "z_grid", np.linspace(-5.0, 2.0, 15).tolist())

    def write_kernels(handle):
        writer = csv.writer(handle)
        writer.writerow(["beta", "s", "t", "g", "h"])
        for b in betas:
            beta = FracOrder(b)
            for t in t_grid:
                for s in s_grid:
                    g = subordinator_density(beta, s, t) if s > 0.0 else float("nan")
                    h = inverse_subordinator_density(beta, s, t)
                    writer.writerow([b, s, t, repr(g), repr(h)])

    def write_ml(handle):
        writer = csv.writer(handle)
        writer.writerow(["beta", "z", "value"])
        for b in betas:
            beta = FracOrder(b)
            for z in z_grid:
                writer.writerow([b, z, repr(mittag_leffler(beta, z))])

    os.makedirs(out_dir, exist_ok=True)
    _atomic_write(os.path.join(out_dir, "kernels.csv"), write_kernels)
    _atomic_write(os.path.join(out_dir, "mittag_leffler.csv"), write_ml)
    return EXIT_OK


def cmd_sample(cfg: dict, out_dir: str, seed: int) -> int:
    _require_keys(
        cfg,
        # "dtau" is accepted and ignored: the clock is drawn exactly
        {"beta", "times", "gammas", "lambdas", "n", "dtau", "seed"},
        {"beta", "times"},
        "config",
    )
    beta = _parse_beta(cfg)
    times = _float_list(cfg, "times")
    gammas = _float_list(cfg, "gammas", [1.0, 2.0])
    lambdas = _float_list(cfg, "lambdas", [])
    n = _count(cfg.get("n", 10_000), "n")
    if n < 2:
        raise ConfigError(f"n must be at least 2 for a standard error, got {n}")
    records = []
    for k, t in enumerate(times):
        draws = sample_inverse(beta, t, RngSpec(seed, stream_id=k), size=n)
        for g in gammas:
            vals = draws**g
            records.append(
                {
                    "beta": beta.beta,
                    "t": t,
                    "gamma": g,
                    "estimate": float(vals.mean()),
                    "stderr": float(vals.std(ddof=1) / math.sqrt(n)),
                    "n": n,
                    "seed": seed,
                }
            )
        for lam in lambdas:
            est, se = mc_exponential_functional(
                beta, lam, t, max(n, 100), RngSpec(seed, stream_id=1000 + k)
            )
            records.append(
                {
                    "beta": beta.beta,
                    "t": t,
                    "lambda": lam,
                    "estimate": est,
                    "stderr": se,
                    "n": n,
                    "seed": seed,
                }
            )

    os.makedirs(out_dir, exist_ok=True)
    _write_jsonl(os.path.join(out_dir, "samples.jsonl"), records)
    return EXIT_OK


def cmd_solve(cfg: dict, out_dir: str, seed: int) -> int:
    _require_keys(
        cfg,
        {"problem", "beta", "times", "velocity", "initial", "solver", "source", "seed"},
        {"problem", "beta", "times", "velocity", "initial"},
        "config",
    )
    problem = cfg["problem"]
    if problem not in ("linear", "nonlinear", "source"):
        raise ConfigError(f"unknown problem {problem!r}")
    beta = _parse_beta(cfg)
    times = _float_list(cfg, "times")
    mu0 = _parse_measure(cfg["initial"], "initial")
    field = _parse_velocity(cfg["velocity"])
    solver_cfg = _parse_solver_config(cfg, times)

    os.makedirs(out_dir, exist_ok=True)
    if problem == "linear":
        if not isinstance(field, ExplicitField):
            raise ConfigError("linear problem needs an explicit velocity")
        path = solve_linear(beta, field, mu0, solver_cfg)
    elif problem == "nonlinear":
        if not isinstance(field, InteractionField):
            raise ConfigError("nonlinear problem needs an interaction kernel")
        try:
            path = solve_nonlinear(beta, field, mu0, solver_cfg)
        except PicardConvergenceError as exc:
            _write_jsonl(os.path.join(out_dir, "picard.jsonl"), exc.trace)
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_NO_CONVERGENCE
        _write_jsonl(os.path.join(out_dir, "picard.jsonl"), path.diagnostics["picard_log"])
    else:
        if "source" not in cfg:
            raise ConfigError("source problem needs a 'source' block")
        if not isinstance(field, ExplicitField):
            raise ConfigError("source problem needs an explicit velocity")
        nu = _parse_measure(cfg["source"], "source")
        gamma_path = MeasurePath(times=np.array([0.0, times[-1]]), measures=[nu, nu])
        path = solve_with_source(beta, field, mu0, gamma_path, solver_cfg)

    path_to_csv(path, os.path.join(out_dir, "path.csv"))
    manifest = {
        "tool": {"name": "fractrans", "version": __version__},
        "problem": problem,
        "beta": beta.beta,
        "times": times,
        "seed": seed,
        "solver": {k: getattr(solver_cfg, k) for k in _SOLVER_KEYS},
        "outputs": {
            "total_mass": [total_mass(m) for m in path.measures],
            "first_moment": [moment(m, 1) for m in path.measures],
            "second_moment": [moment(m, 2) for m in path.measures],
        },
        "diagnostics": {
            k: v for k, v in path.diagnostics.items() if k != "picard_log"
        },
    }
    write_manifest(os.path.join(out_dir, "manifest.json"), manifest)
    return EXIT_OK


def cmd_verify(cfg: dict, out_dir: str, seed: int) -> int:
    from .verify import run_checks

    _require_keys(cfg, {"eps_tail"}, set(), "config")
    report = run_checks(cfg)
    os.makedirs(out_dir, exist_ok=True)
    write_manifest(os.path.join(out_dir, "verify.json"), report)
    for check in report["checks"]:
        status = "PASS" if check["pass"] else "FAIL"
        print(f"{status} {check['name']}: achieved {check['achieved']:.3e} "
              f"(target {check['target']:.3g} +/- {check['tolerance']:.3g})")
    return EXIT_OK if report["all_pass"] else EXIT_VERIFY_FAILED


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="fractrans",
        description="Fractional-in-time measure transport: kernels, samplers, solvers.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, helptext in (
        ("kernels", "tabulate the subordinator kernels and Mittag-Leffler values"),
        ("sample", "Monte Carlo estimates for the internal clock"),
        ("solve", "run a transport solver"),
        ("verify", "run the self-verification suite"),
    ):
        p = sub.add_parser(name, help=helptext)
        p.add_argument("--config", help="JSON configuration file")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--out", default=".", help="output directory")

    args = parser.parse_args(argv)
    handlers = {
        "kernels": cmd_kernels,
        "sample": cmd_sample,
        "solve": cmd_solve,
        "verify": cmd_verify,
    }
    try:
        cfg = _load_config(args.config) if args.config else {}
        seed = args.seed if args.seed is not None else _count(cfg.get("seed", 0), "seed")
        return handlers[args.command](cfg, args.out, seed)
    except (ConfigError, ValueError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (TailMassError, OverflowError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
