"""Command-line front end: kernels | sample | solve | verify.

A single strict JSON document configures each run, read against one key
table per command and per measure or velocity kind: a key that is
unknown, missing or of the wrong type is a configuration error.  Exit
codes: 0 success, 1 verification failure, 2 configuration error, 3
solver non-convergence, 4 numerical failure (a quadrature tail mass that
cannot be met, a floating-point overflow, or an output that is not
finite, which no file is written for).  Every output file is
written through a temp-file rename, and ``--out`` made with the first,
so a failure leaves no partial file or empty directory; each solve
emits a manifest recording every tolerance and seed used.  Every command runs on numpy alone.

Each command compiles only the modules it runs.  ``import fractrans.cli``,
``--version``, ``--help`` and ``sample`` load ``cli``, ``errors``,
``atomic`` and ``subordinator``; ``kernels`` adds ``rules`` and
``specfun``.  A ``linear`` or ``source`` solve adds ``measures``, ``rules``
and ``transport``, and a ``nonlinear`` solve adds ``picard`` and
``specfun`` to those.  ``verify`` loads ``distances``, ``measures``,
``rules``, ``specfun`` and ``transport``.  The
module ``__getattr__`` binds the names ``solve`` reads from each of
those modules on first use (``_SOLVE_NAMES``), so that
``perfbench/tracer.py`` can still wrap ``cli.solve_linear``,
``cli.path_to_csv`` and their siblings by name.  ``main`` freezes the
objects made at start-up out of the garbage collector, so no collection
walks them, the ones at exit included, and ``solve`` freezes once more
after loading its modules; importing the package, or looking up a name
on ``cli``, leaves the collector untouched.
"""

from __future__ import annotations

import argparse
import csv
import gc
import importlib
import inspect
import json
import math
import numbers
import os
import sys

import numpy as np

from . import __version__
from .atomic import atomic_write
from .errors import PicardConvergenceError, TailMassError
from .subordinator import FracOrder, RngSpec, mc_exponential_functional, mc_moment

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_CONFIG = 2
EXIT_NO_CONVERGENCE = 3
EXIT_NUMERICAL = 4


class ConfigError(ValueError):
    pass


_REQUIRED = object()  # the default of a key that must be given


class _Key:
    """A config key: its type (in ``_TYPES``), default and least value."""

    def __init__(self, type: str, default=_REQUIRED, least: int | None = None):
        self.type, self.default, self.least = type, default, least


#: each type's description, its JSON class (bool is never a number) and its conversion
_TYPES = {
    "number": ("a finite number", numbers.Real, float),
    "integer": ("an integer", numbers.Integral, int),
    "numbers": ("a list of numbers", list, lambda v: [_typed(x, "number") for x in v]),
    "matrix": ("a list of equal-length lists of numbers", list, lambda v: [_typed(x, "numbers") for x in v]),
    "string": ("a string", str, str),
    "object": ("a JSON object", dict, dict),
}


def _typed(value, type_: str):
    """``value`` converted to ``type_``; TypeError if it is not one."""
    _, cls, convert = _TYPES[type_]
    if isinstance(value, bool) or not isinstance(value, cls):
        raise TypeError
    value = convert(value)
    # json.load takes NaN and Infinity, which JSON itself does not have
    if type_ == "number" and not math.isfinite(value) or type_ == "matrix" and len(set(map(len, value))) > 1:
        raise TypeError
    return value


def _read(block, table: dict, where: str) -> dict:
    """Every key of ``table``: its value in ``block``, typed, or its default."""
    if not isinstance(block, dict):
        raise ConfigError(f"{where} must be a JSON object, got {block!r}")
    missing = [name for name, key in table.items() if key.default is _REQUIRED and name not in block]
    unknown = sorted(set(block) - set(table))
    if missing or unknown:
        raise ConfigError(f"{'missing' if missing else 'unknown'} keys in {where}: {missing or unknown}")
    values = {name: key.default for name, key in table.items()}
    for name, value in block.items():
        key = table[name]
        try:
            values[name] = _typed(value, key.type)
        except (TypeError, OverflowError):
            raise ConfigError(f"{name} in {where} must be {_TYPES[key.type][0]}, got {value!r}") from None
        if key.least is not None and values[name] < key.least:
            raise ConfigError(f"{name} in {where} must be at least {key.least}, got {values[name]}")
    return values


def _read_kind(block, kinds: dict, where: str) -> dict:
    """A measure or velocity block, read with the table of its kind only."""
    kind = block.get("kind") if isinstance(block, dict) else None
    if not isinstance(kind, str):
        return _read(block, {"kind": _Key("string")}, where)
    if kind not in kinds:
        raise ConfigError(f"unknown {where} kind {kind!r}")
    return _read(block, {"kind": _Key("string"), **kinds[kind]}, f"{where} ({kind})")


_MEASURES = {
    "dirac": {"point": _Key("numbers", [0.0]), "mass": _Key("number", 1.0)},
    "two-dirac": {"points": _Key("matrix", [[-1.0], [1.0]]), "masses": _Key("numbers", [0.5, 0.5])},
    "uniform-grid": {"low": _Key("numbers"), "high": _Key("numbers"),
                     "n": _Key("integer", least=1), "mass": _Key("number", 1.0)},
    "file": {"path": _Key("string")},
}

_VELOCITIES = {
    "constant": {"value": _Key("numbers", [1.0])},
    "damping": {},
    "affine": {"matrix": _Key("matrix"), "offset": _Key("numbers", [0.0])},
    "attraction": {},
    "repulsion": {},
}

#: the names ``solve`` reads from each module it loads, bound here by ``_bind`` on first use
_SOLVE_NAMES = {
    "measures": ("EmpiricalMeasure", "moment", "path_from_csv", "path_to_csv", "total_mass", "write_manifest"),
    # the two private names are the key tables made here from SolverConfig
    "transport": ("AffineField", "SolverConfig", "solve_linear", "solve_with_source", "_SOLVER",
                  "_NONLINEAR_ONLY"),
    "picard": ("attraction_field", "repulsion_field", "solve_nonlinear"),
}

#: the velocity kinds of the nonlinear problem, whose fields ``picard`` builds
_INTERACTIONS = ("attraction", "repulsion")


def _bind(*modules):
    """Import each of ``modules`` and bind here the names of it that
    ``_SOLVE_NAMES`` lists; a name already bound (a wrapper set on this
    module) is kept."""
    for module in modules:
        mod = importlib.import_module(f".{module}", __package__)
        names = {name: getattr(mod, name) for name in _SOLVE_NAMES[module] if not name.startswith("_")}
        if module == "transport":
            # every SolverConfig knob: its keyword arguments but ``times`` (a
            # top-level key), each typed as its default, the class attribute
            knobs = inspect.signature(mod.SolverConfig).parameters.values()
            names["_SOLVER"] = {p.name: _Key({int: "integer", float: "number"}[type(p.default)], p.default)
                                for p in knobs if p.name != "times"}
            # the solver keys that only the nonlinear problem reads
            names["_NONLINEAR_ONLY"] = list(mod.SolverConfig.NONLINEAR_ONLY)
        for name, value in names.items():
            globals().setdefault(name, value)


def __getattr__(name):
    module = next((m for m, names in _SOLVE_NAMES.items() if name in names), None)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    _bind(module)
    return globals()[name]


_COMMANDS = {
    "kernels": {
        "betas": _Key("numbers", [0.3, 0.5, 0.7]), "t_grid": _Key("numbers", [0.5, 1.0, 2.0]),
        "s_grid": _Key("numbers", np.linspace(0.0, 4.0, 21).tolist()),
        "z_grid": _Key("numbers", np.linspace(-5.0, 2.0, 15).tolist()),
    },
    "sample": {
        "beta": _Key("number"), "times": _Key("numbers"),
        "gammas": _Key("numbers", [1.0, 2.0]), "lambdas": _Key("numbers", []),
        "n": _Key("integer", 10_000, least=2),  # 2 draws for a standard error
        # accepted and not read: the clock is drawn exactly, but configs
        # written for first passage (the benchmark's clock-sample) send it
        "dtau": _Key("number", None),
        "seed": _Key("integer", 0),
    },
    "solve": {
        "problem": _Key("string"), "beta": _Key("number"), "times": _Key("numbers"),
        "velocity": _Key("object"), "initial": _Key("object"),
        "solver": _Key("object", {}), "source": _Key("object", None),
        # accepted and read by no solver, which is deterministic: it labels
        # the run in the manifest, as every benchmark run's --seed does
        "seed": _Key("integer", 0),
    },
    "verify": {},
}


def _load_config(path: str) -> dict:
    try:
        with open(path) as handle:
            return json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}")


def _parse_measure(block, where: str) -> EmpiricalMeasure:
    spec = _read_kind(block, _MEASURES, where)
    kind = spec["kind"]
    if kind == "dirac":
        return EmpiricalMeasure.dirac(spec["point"], spec["mass"])
    if kind == "two-dirac":
        return EmpiricalMeasure(points=np.array(spec["points"]), weights=np.array(spec["masses"]))
    if kind == "uniform-grid":
        low, high = spec["low"], spec["high"]
        if not low or len(low) != len(high):
            raise ConfigError(f"{where} low and high must have the same length >= 1, got {low} and {high}")
        for lo, hi in zip(low, high):
            if not math.isfinite(hi - lo):  # np.linspace forms the span first
                raise ConfigError(f"{where} uniform-grid span high - low = {hi!r} - {lo!r} overflows")
        # n^d points, in Python ints; 2^24 > 10^7 caps the power's size
        if spec["n"] ** min(len(low), 24) > 10**7:
            raise ConfigError(f"{where} uniform-grid n = {spec['n']} on {len(low)} axes is more than 1e7 points")
        axes = [np.linspace(lo, hi, spec["n"]) for lo, hi in zip(low, high)]
        pts = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, len(low))
        return EmpiricalMeasure(points=pts, weights=np.full(pts.shape[0], spec["mass"] / pts.shape[0]))
    try:
        return path_from_csv(spec["path"]).measures[0]
    except OSError as exc:
        raise ConfigError(f"cannot read measure file in {where}: {exc}")


def _parse_velocity(spec: dict):
    kind = spec["kind"]
    # the explicit kinds are affine, so the solvers advance each flow
    # interval by one composed RK4 map; a bare number broadcasts over the
    # dimensions (a I for the matrix)
    if kind == "constant":
        return AffineField(matrix=0.0, offset=spec["value"])
    if kind == "damping":
        return AffineField(matrix=-1.0)
    if kind == "affine":
        return AffineField(matrix=spec["matrix"], offset=spec["offset"])
    if kind == "attraction":
        return attraction_field()
    return repulsion_field()


def _check_finite(what: str, values):
    """OverflowError if one of ``values`` is not finite: JSON has no NaN or
    Infinity, so no output file may hold one."""
    bad = [x for x in values if not math.isfinite(x)]
    if bad:
        raise OverflowError(f"{what} is not finite: {bad[0]!r}")


def _write_jsonl(filename: str, records):
    """One JSON object per line, keys sorted."""

    def write(handle):
        for rec in records:
            handle.write(json.dumps(rec, sort_keys=True) + "\n")

    atomic_write(filename, write)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_kernels(cfg: dict, out_dir: str) -> int:
    from .specfun import inverse_subordinator_density, mittag_leffler, subordinator_density

    orders = [FracOrder(b) for b in cfg["betas"]]

    def write_kernels(handle):
        writer = csv.writer(handle)
        writer.writerow(["beta", "s", "t", "g", "h"])
        for beta in orders:
            for t in cfg["t_grid"]:
                for s in cfg["s_grid"]:
                    g = subordinator_density(beta, s, t) if s > 0.0 else float("nan")
                    h = inverse_subordinator_density(beta, s, t)
                    writer.writerow([beta.beta, s, t, repr(g), repr(h)])

    def write_ml(handle):
        writer = csv.writer(handle)
        writer.writerow(["beta", "z", "value"])
        for beta in orders:
            for z in cfg["z_grid"]:
                writer.writerow([beta.beta, z, repr(mittag_leffler(beta, z))])

    atomic_write(os.path.join(out_dir, "kernels.csv"), write_kernels)
    atomic_write(os.path.join(out_dir, "mittag_leffler.csv"), write_ml)
    return EXIT_OK


def cmd_sample(cfg: dict, out_dir: str) -> int:
    beta, n, seed = FracOrder(cfg["beta"]), cfg["n"], cfg["seed"]
    records = []
    for k, t in enumerate(cfg["times"]):
        run = {"beta": beta.beta, "t": t, "n": n, "seed": seed}  # n: the draws behind each record
        moments = mc_moment(beta, cfg["gammas"], t, n, RngSpec(seed, stream_id=k))
        for g, (est, se) in zip(cfg["gammas"], moments):
            records.append({**run, "gamma": g, "estimate": est, "stderr": se})
        for lam in cfg["lambdas"]:
            est, se = mc_exponential_functional(beta, lam, t, n, RngSpec(seed, stream_id=1000 + k))
            records.append({**run, "lambda": lam, "estimate": est, "stderr": se})
    _check_finite("a Monte Carlo estimate or standard error",
                  [rec[k] for rec in records for k in ("estimate", "stderr")])

    _write_jsonl(os.path.join(out_dir, "samples.jsonl"), records)
    return EXIT_OK


def cmd_solve(cfg: dict, out_dir: str) -> int:
    problem, times = cfg["problem"], cfg["times"]
    if problem not in ("linear", "nonlinear", "source"):
        raise ConfigError(f"unknown problem {problem!r}")
    _bind("measures", "transport", *(["picard"] if problem == "nonlinear" else []))
    gc.freeze()  # the modules loaded just now live until exit too
    if (cfg["source"] is None) == (problem == "source"):
        raise ConfigError("a 'source' block is needed by the source problem and read by no other")
    beta = FracOrder(cfg["beta"])
    mu0 = _parse_measure(cfg["initial"], "initial")
    velocity = _read_kind(cfg["velocity"], _VELOCITIES, "velocity")
    if (problem == "nonlinear") != (velocity["kind"] in _INTERACTIONS):
        raise ConfigError(f"velocity kind {velocity['kind']!r} does not fit the {problem} problem")
    nu = None if cfg["source"] is None else _parse_measure(cfg["source"], "source")
    # a velocity matrix or vector (but a broadcast scalar) or a source of
    # another dimension than the initial measure's would fail mid-solve
    dims = {f"velocity {k}": len(v) for k, v in velocity.items()
            if isinstance(v, list) and (k == "matrix" or len(v) != 1)}
    for where, dim in {**dims, "source": nu.dim if nu else mu0.dim}.items():
        if dim != mu0.dim:
            raise ConfigError(f"{where} has dimension {dim} but initial has dimension {mu0.dim}")
    field = _parse_velocity(velocity)
    solver = _read(cfg["solver"], _SOLVER, "solver")
    if problem != "nonlinear":
        unread = [k for k in _NONLINEAR_ONLY if k in cfg["solver"]]
        if unread:
            raise ConfigError(f"solver keys {unread} are read only by the nonlinear problem, "
                              f"not by {problem}")
        solver = {k: v for k, v in solver.items() if k not in _NONLINEAR_ONLY}
    solver_cfg = SolverConfig(times=tuple(times), **solver)

    if problem == "linear":
        path = solve_linear(beta, field, mu0, solver_cfg)
    elif problem == "nonlinear":
        try:
            path = solve_nonlinear(beta, field, mu0, solver_cfg)
        except PicardConvergenceError as exc:
            _write_jsonl(os.path.join(out_dir, "picard.jsonl"), exc.trace)
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_NO_CONVERGENCE
    else:
        path = solve_with_source(beta, field, mu0, nu, solver_cfg)

    outputs = {
        "total_mass": [total_mass(m) for m in path.measures],
        "first_moment": [moment(m, 1) for m in path.measures],
        "second_moment": [moment(m, 2) for m in path.measures],
    }
    for name, values in outputs.items():
        _check_finite(name, values)
    if problem == "nonlinear":
        _write_jsonl(os.path.join(out_dir, "picard.jsonl"), path.diagnostics["picard_log"])
    path_to_csv(path, os.path.join(out_dir, "path.csv"))
    manifest = {
        "tool": {"name": "fractrans", "version": __version__},
        "problem": problem,
        "beta": beta.beta,
        "times": times,
        "seed": cfg["seed"],
        "solver": solver,
        "outputs": outputs,
        "diagnostics": {
            k: v for k, v in path.diagnostics.items() if k != "picard_log"
        },
    }
    write_manifest(os.path.join(out_dir, "manifest.json"), manifest)
    return EXIT_OK


def cmd_verify(cfg: dict, out_dir: str) -> int:
    from .measures import write_manifest
    from .verify import run_checks

    report = run_checks()
    write_manifest(os.path.join(out_dir, "verify.json"), report)
    for check in report["checks"]:
        status = "PASS" if check["pass"] else "FAIL"
        print(f"{status} {check['name']}: achieved {check['achieved']:.3e} "
              f"(target {check['target']:.3g} +/- {check['tolerance']:.3g})")
    return EXIT_OK if report["all_pass"] else EXIT_VERIFY_FAILED


def main(argv=None) -> int:
    gc.freeze()  # what start-up made lives until exit: no collection, shutdown's included, should walk it
    parser = argparse.ArgumentParser(
        prog="fractrans",
        description="Fractional-in-time measure transport: kernels, samplers, solvers.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, handler, helptext in (
        ("kernels", cmd_kernels, "tabulate the subordinator kernels and Mittag-Leffler values"),
        ("sample", cmd_sample, "Monte Carlo estimates for the internal clock"),
        ("solve", cmd_solve, "run a transport solver"),
        ("verify", cmd_verify, "run the self-verification suite"),
    ):
        p = sub.add_parser(name, help=helptext)
        p.set_defaults(handler=handler)
        p.add_argument("--config", help="JSON configuration file")
        if "seed" in _COMMANDS[name]:
            p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--out", default=".", help="output directory")

    args = parser.parse_args(argv)
    try:
        cfg = _read(_load_config(args.config) if args.config else {}, _COMMANDS[args.command], "config")
        if getattr(args, "seed", None) is not None:
            cfg["seed"] = args.seed
        return args.handler(cfg, args.out)
    except (ConfigError, ValueError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (TailMassError, OverflowError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
