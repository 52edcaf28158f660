"""End-to-end tests for the command-line interface."""

import json
import math
import os

import numpy as np
import pytest

from fractrans import cli, transport, verify
from fractrans.cli import (
    _COMMANDS,
    _MEASURES,
    _REQUIRED,
    _SOLVER,
    _VELOCITIES,
    EXIT_CONFIG,
    EXIT_NO_CONVERGENCE,
    EXIT_NUMERICAL,
    EXIT_OK,
    EXIT_VERIFY_FAILED,
    main,
)
from fractrans.measures import EmpiricalMeasure, path_to_csv
from fractrans.specfun import FracOrder
from fractrans.transport import AffineField, ExplicitField, SolverConfig, solve_with_source


def _write_config(tmp_path, name, payload):
    target = tmp_path / name
    target.write_text(json.dumps(payload))
    return str(target)


def _linear_config(tmp_path, **overrides):
    payload = {
        "problem": "linear",
        "beta": 0.5,
        "times": [0.5, 1.0],
        "velocity": {"kind": "damping"},
        "initial": {"kind": "dirac", "point": [1.0]},
        "solver": {"q_h": 24, "q_g": 12, "ode_step": 0.02},
        "seed": 3,
    }
    payload.update(overrides)
    return _write_config(tmp_path, "cfg.json", payload)


def test_kernels_writes_tables(tmp_path):
    cfg = _write_config(tmp_path, "k.json", {"betas": [0.5], "t_grid": [1.0],
                                             "s_grid": [0.5, 1.0], "z_grid": [-1.0]})
    out = tmp_path / "out"
    assert main(["kernels", "--config", cfg, "--out", str(out)]) == EXIT_OK
    assert (out / "kernels.csv").exists()
    assert (out / "mittag_leffler.csv").exists()
    header = (out / "kernels.csv").read_text().splitlines()[0]
    assert header == "beta,s,t,g,h"


def test_sample_writes_estimates(tmp_path):
    cfg = _write_config(
        tmp_path, "s.json",
        {"beta": 0.5, "times": [1.0], "gammas": [1.0], "n": 500, "dtau": 0.01},
    )
    out = tmp_path / "out"
    assert main(["sample", "--config", cfg, "--out", str(out)]) == EXIT_OK
    lines = (out / "samples.jsonl").read_text().splitlines()
    rec = json.loads(lines[0])
    assert rec["beta"] == 0.5 and rec["stderr"] > 0.0


def test_sample_classical_clock_is_exact(tmp_path):
    # at beta = 1 the clock is E_t = t, so every moment is exact (dyadic
    # times keep the mean of n copies of t^gamma free of rounding)
    cfg = _write_config(
        tmp_path, "s1.json",
        {"beta": 1.0, "times": [0.5, 2.0], "gammas": [1.0, 2.0], "lambdas": [-1.0],
         "n": 500},
    )
    out = tmp_path / "out"
    assert main(["sample", "--config", cfg, "--out", str(out)]) == EXIT_OK
    records = [json.loads(line) for line in (out / "samples.jsonl").read_text().splitlines()]
    moments = [rec for rec in records if "gamma" in rec]
    assert len(moments) == 4
    assert all(rec["n"] == 500 for rec in records)
    for rec in moments:
        assert rec["estimate"] == rec["t"] ** rec["gamma"]
        assert rec["stderr"] == 0.0


def test_solve_linear_outputs(tmp_path):
    cfg = _linear_config(tmp_path)
    out = tmp_path / "run"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == EXIT_OK
    assert (out / "path.csv").exists()
    with open(out / "manifest.json") as handle:
        manifest = json.load(handle)
    assert manifest["problem"] == "linear"
    assert manifest["beta"] == 0.5
    assert manifest["seed"] == 3
    assert len(manifest["outputs"]["total_mass"]) == 3
    assert manifest["outputs"]["total_mass"][0] == pytest.approx(1.0)
    assert manifest["tool"]["name"] == "fractrans"


def test_solve_deterministic_across_runs(tmp_path):
    cfg = _linear_config(tmp_path)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["solve", "--config", cfg, "--out", str(out_a)]) == EXIT_OK
    assert main(["solve", "--config", cfg, "--out", str(out_b)]) == EXIT_OK
    for name in ("path.csv", "manifest.json"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name


def test_manifest_records_the_rk4_steps_of_a_sweep(tmp_path):
    # every deterministic solve counts the RK4 steps of one flow sweep, and
    # the manifest keeps the count next to the nonlinear sweep count
    out = tmp_path / "lin"
    assert main(["solve", "--config", _linear_config(tmp_path), "--out", str(out)]) == EXIT_OK
    assert json.loads((out / "manifest.json").read_text())["diagnostics"] == {"rk4_steps": 191}
    cfg = _write_config(tmp_path, "nl.json", {
        "problem": "nonlinear", "beta": 0.5, "times": [0.5],
        "velocity": {"kind": "repulsion"}, "initial": {"kind": "two-dirac"},
        "solver": {"q_h": 8, "q_g": 8, "ode_step": 0.05},
    })
    out = tmp_path / "nl"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == EXIT_OK
    diagnostics = json.loads((out / "manifest.json").read_text())["diagnostics"]
    # sweeps of the fine level; the coarse level took 3 sweeps of 7 steps
    assert (diagnostics["sweeps"], diagnostics["rk4_steps"]) == (3, 49)


def test_manifest_records_the_picard_levels_and_estimates(tmp_path):
    # the coarse level's sweeps and RK4 steps sit next to the fine ones, and
    # picard.jsonl holds one line per fine sweep; the contraction estimate is
    # a ratio of bounds, and the distance estimate rho / (1 - rho) times the
    # last fine bound
    cfg = _write_config(tmp_path, "nl.json", {
        "problem": "nonlinear", "beta": 0.5, "times": [0.5],
        "velocity": {"kind": "repulsion"}, "initial": {"kind": "uniform-grid", "low": [-1.0], "high": [1.0], "n": 16},
        "solver": {"q_h": 16, "q_g": 8},
    })
    out = tmp_path / "nl"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == EXIT_OK
    diagnostics = json.loads((out / "manifest.json").read_text())["diagnostics"]
    log = [json.loads(line) for line in (out / "picard.jsonl").read_text().splitlines()]
    assert len(log) == diagnostics["sweeps"] == 1
    coarse = (diagnostics["coarse_sweeps"], diagnostics["coarse_rk4_steps"])
    assert coarse == (4, 23) and diagnostics["rk4_steps"] == 238
    rho = diagnostics["contraction_estimate"]
    assert 0.0 < rho < 1.0
    estimate = rho / (1.0 - rho) * log[-1]["coupling_bound"]
    assert diagnostics["fixed_point_distance_estimate"] == pytest.approx(estimate)


def test_solve_nonlinear_and_source(tmp_path):
    cfg = _write_config(tmp_path, "nl.json", {
        "problem": "nonlinear",
        "beta": 0.5,
        "times": [0.5],
        "velocity": {"kind": "attraction"},
        "initial": {"kind": "two-dirac"},
        "solver": {"q_h": 16, "q_g": 8, "ode_step": 0.02, "picard_tol": 1e-4,
                   "t_ext": 2.0},
    })
    out = tmp_path / "nl"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == EXIT_OK
    assert (out / "picard.jsonl").exists()
    first = json.loads((out / "picard.jsonl").read_text().splitlines()[0])
    assert sorted(first) == ["coupling_bound", "sweep", "wall_time"]
    assert first["sweep"] == 1

    cfg = _write_config(tmp_path, "src.json", {
        "problem": "source",
        "beta": 0.5,
        "times": [1.0],
        "velocity": {"kind": "constant", "value": [0.0]},
        "initial": {"kind": "dirac"},
        "source": {"kind": "dirac", "point": [0.5]},
        "solver": {"q_h": 16, "q_g": 8},
    })
    out = tmp_path / "src"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == EXIT_OK
    with open(out / "manifest.json") as handle:
        manifest = json.load(handle)
    assert manifest["outputs"]["total_mass"][-1] > 1.0


def test_cli_source_is_one_constant_measure(tmp_path):
    # the CLI's source is one measure, constant in time, which the library
    # solve injects unchanged at every flow node; the library solve takes
    # the field the CLI builds, whose flow is RK4's composed affine map
    cfg = _linear_config(tmp_path, problem="source", initial={"kind": "dirac", "point": [1.0, 0.0]},
                         source={"kind": "dirac", "point": [0.5, -0.5]})
    out = tmp_path / "o"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == EXIT_OK
    damping = AffineField(matrix=-np.eye(2))
    source = EmpiricalMeasure.dirac([0.5, -0.5])
    config = SolverConfig(times=(0.5, 1.0), q_h=24, q_g=12, ode_step=0.02)
    path = solve_with_source(FracOrder(0.5), damping, EmpiricalMeasure.dirac([1.0, 0.0]), source, config)
    path_to_csv(path, str(tmp_path / "library.csv"))
    assert (out / "path.csv").read_bytes() == (tmp_path / "library.csv").read_bytes()


def test_solve_nonconvergence_exit_code(tmp_path):
    cfg = _write_config(tmp_path, "bad.json", {
        "problem": "nonlinear",
        "beta": 0.5,
        "times": [0.5],
        "velocity": {"kind": "repulsion"},
        "initial": {"kind": "two-dirac"},
        "solver": {"q_h": 8, "q_g": 8, "picard_tol": 1e-16,
                   "picard_max_iters": 2, "t_ext": 1.0},
    })
    out = tmp_path / "new" / "out"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == EXIT_NO_CONVERGENCE
    # the output directory is made for the log, the one file written
    assert os.listdir(out) == ["picard.jsonl"]
    lines = (out / "picard.jsonl").read_text().splitlines()
    assert len(lines) == 2
    assert sorted(json.loads(lines[-1])) == ["coupling_bound", "sweep", "wall_time"]


@pytest.mark.parametrize("overrides, code, message", [
    ({"solver": {"ode_step": 1e-300}}, EXIT_CONFIG, "configuration error: ode_step too small"),
    # e^{50 s} at the h-nodes of t = 1 carries the Dirac past the float range
    ({"times": [1.0], "velocity": {"kind": "affine", "matrix": [[50.0]]}, "solver": {}}, EXIT_NUMERICAL,
     "numerical error: first_moment is not finite"),
], ids=["exit-2", "exit-4"])
def test_failed_solve_leaves_no_output_directory(tmp_path, capsys, overrides, code, message):
    cfg = _linear_config(tmp_path, **overrides)
    out = tmp_path / "new" / "out"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == code
    assert capsys.readouterr().err.startswith(message)
    assert not (tmp_path / "new").exists()


def test_unreachable_tail_mass_exit_4(tmp_path, capsys):
    # the nonlinear problem reads the composite g-rule.  At beta = 0.1 the
    # g-kernel tail is too heavy for any q_g; at beta = 1/2, q_g = 4 is too
    # few nodes for the composite rule's panels
    for beta, q_g in ((0.1, 12), (0.5, 4)):
        cfg = _linear_config(tmp_path, beta=beta, problem="nonlinear", velocity={"kind": "repulsion"},
                             solver={"q_h": 24, "q_g": q_g, "ode_step": 0.02})
        assert main(["solve", "--config", cfg, "--out", str(tmp_path / "o")]) == EXIT_NUMERICAL
        assert capsys.readouterr().err.startswith("numerical error:")


def test_constant_source_solve_builds_no_g_rule(tmp_path, monkeypatch):
    # the CLI's source is one measure for all time, so with the autonomous
    # damping field nothing reads the g-rule:
    # beta = 0.1, whose g-rule cannot meet the default eps_tail, solves, and
    # its mass solves D^beta m = 1, m(t) = 1 + t^beta / Gamma(1 + beta)
    calls = []
    monkeypatch.setattr(transport, "g_quadrature", lambda *args: calls.append(args))
    cfg = _linear_config(tmp_path, beta=0.1, problem="source", source={"kind": "dirac", "point": [0.5]})
    out = tmp_path / "o"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == EXIT_OK
    assert calls == []
    manifest = json.loads((out / "manifest.json").read_text())
    for t, mass in zip(manifest["times"], manifest["outputs"]["total_mass"][1:]):
        assert mass == pytest.approx(1.0 + t**0.1 / math.gamma(1.1), abs=1e-10)


def test_autonomous_linear_solve_builds_no_g_rule(tmp_path, monkeypatch):
    # the damping field is autonomous and the linear problem has no source,
    # so nothing reads the g-rule: beta = 0.1, whose g-rule cannot meet the
    # default eps_tail, solves
    calls = []
    monkeypatch.setattr(transport, "g_quadrature", lambda *args: calls.append(args))
    cfg = _linear_config(tmp_path, beta=0.1)
    assert main(["solve", "--config", cfg, "--out", str(tmp_path / "o")]) == EXIT_OK
    assert calls == []


def test_kernels_at_small_order_near_unit_argument(tmp_path):
    # the Mittag-Leffler series cannot converge here within its term cap
    cfg = _write_config(tmp_path, "k.json", {"betas": [0.03], "z_grid": [-1.0, 1.0]})
    out = tmp_path / "out"
    assert main(["kernels", "--config", cfg, "--out", str(out)]) == EXIT_OK
    rows = (out / "mittag_leffler.csv").read_text().splitlines()
    assert len(rows) == 3


def test_mislabelled_autonomous_field_exit_2(tmp_path, monkeypatch, capsys):
    # a field marked autonomous that depends on t is a configuration error
    decay = ExplicitField(func=lambda x, t: np.exp(-t) * np.ones_like(x), lip=0.0, autonomous=True)
    monkeypatch.setattr(cli, "_parse_velocity", lambda spec: decay)
    cfg = _linear_config(tmp_path)
    assert main(["solve", "--config", cfg, "--out", str(tmp_path / "o")]) == EXIT_CONFIG
    assert "autonomous=True" in capsys.readouterr().err


def test_float_overflow_exit_4(tmp_path, capsys):
    # E_{1/2}(800) = e^{640000} erfc(-800) is past the floating-point range
    cfg = _write_config(tmp_path, "k.json", {"betas": [0.5], "z_grid": [800.0]})
    assert main(["kernels", "--config", cfg, "--out", str(tmp_path / "o")]) == EXIT_NUMERICAL
    err = capsys.readouterr().err
    assert err.startswith("numerical error:")
    assert "Traceback" not in err


@pytest.mark.filterwarnings("error::RuntimeWarning")  # a numpy warning would reach stderr
def test_non_finite_sample_exit_4(tmp_path, capsys):
    # E[exp(800 E_1)] overflows at beta = 1/2: the estimate is inf and its
    # standard error NaN, which JSON cannot hold, so nothing is written
    cfg = _write_config(tmp_path, "s.json", {"beta": 0.5, "times": [1.0], "lambdas": [800.0], "n": 200})
    out = tmp_path / "o"
    assert main(["sample", "--config", cfg, "--out", str(out)]) == EXIT_NUMERICAL
    err = capsys.readouterr().err
    assert err.startswith("numerical error:") and err.count("\n") == 1
    assert not (out / "samples.jsonl").exists()


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_non_finite_solve_exit_4(tmp_path, capsys):
    # a Dirac carried at speed 1e307 has a first moment past the float range
    cfg = _linear_config(tmp_path, times=[1.0], velocity={"kind": "constant", "value": [1e307]},
                         initial={"kind": "dirac", "point": [0.0]}, solver={})
    out = tmp_path / "o"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == EXIT_NUMERICAL
    err = capsys.readouterr().err
    assert err.startswith("numerical error:") and err.count("\n") == 1
    assert not (out / "manifest.json").exists()
    assert not (out / "path.csv").exists()


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("overrides", [
    # the affine flow x' = 50 x carries a grid at 1e300 past the float range
    {"times": [1.0], "velocity": {"kind": "affine", "matrix": [[50.0]]},
     "initial": {"kind": "uniform-grid", "low": [1e300], "high": [2e300], "n": 4}, "solver": {}},
    # the attraction between particles 1.6e308 apart overflows in the first sweep
    {"problem": "nonlinear", "times": [0.5], "velocity": {"kind": "attraction"},
     "initial": {"kind": "uniform-grid", "low": [-8e307], "high": [8e307], "n": 4},
     "solver": {"q_h": 4, "q_g": 8, "picard_max_iters": 2}},
], ids=["linear", "nonlinear"])
def test_overflowing_flow_exit_4(tmp_path, capsys, overrides):
    cfg = _linear_config(tmp_path, **overrides)
    out = tmp_path / "o"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == EXIT_NUMERICAL
    err = capsys.readouterr().err
    assert err.startswith("numerical error:") and err.count("\n") == 1
    assert not (out / "manifest.json").exists()
    assert not (out / "path.csv").exists()


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_far_apart_particles_exit_4_with_one_line(tmp_path, capsys):
    # particles 2e307 apart: their Picard coupling bound is finite, and
    # only the first moment past the float range stops the run
    cfg = _linear_config(tmp_path, problem="nonlinear", times=[0.5], velocity={"kind": "attraction"},
                         initial={"kind": "uniform-grid", "low": [-1e307], "high": [1e307], "n": 4},
                         solver={"q_h": 4, "q_g": 8, "picard_max_iters": 5})
    out = tmp_path / "o"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == EXIT_NUMERICAL
    err = capsys.readouterr().err
    assert err.startswith("numerical error: first_moment is not finite") and err.count("\n") == 1
    assert not (out / "manifest.json").exists()


def test_sample_infinite_negative_moment_exit_2(tmp_path, capsys):
    # E[E_1^-1.5] is infinite at beta = 1/2: no finite estimate is written
    cfg = _write_config(tmp_path, "s.json", {"beta": 0.5, "times": [1.0], "gammas": [-1.5, -0.5],
                                             "n": 2000})
    out = tmp_path / "o"
    assert main(["sample", "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith("configuration error:")
    assert not (out / "samples.jsonl").exists()


def test_sample_classical_clock_takes_every_gamma(tmp_path):
    cfg = _write_config(tmp_path, "s.json", {"beta": 1.0, "times": [1.0], "gammas": [-1.5], "n": 2000})
    out = tmp_path / "o"
    assert main(["sample", "--config", cfg, "--out", str(out)]) == EXIT_OK
    rec = json.loads((out / "samples.jsonl").read_text())
    assert rec["estimate"] == 1.0 and rec["stderr"] == 0.0


@pytest.mark.parametrize("mutation", [
    {"problem": "heat"},
    {"beta": 1.5},
    {"extra_key": 1},
    {"velocity": {"kind": "warp"}},
    {"velocity": {"kind": "damping", "bound": 3}},
    {"solver": {"mystery": 2}},
    {"solver": {"q_h": 16.5}},
    {"solver": {"q_g": 8.0}},
    {"solver": {"q_h": "16"}},
    {"times": 1.0},
    {"velocity": "constant"},
    {"initial": {"kind": "file", "path": 0}},
    {"initial": {"kind": "file", "path": 12345}},
    {"problem": "nonlinear", "velocity": {"kind": "repulsion", "lip": 7}},
    {"initial": {"kind": "dirac", "low": [5]}},
    {"velocity": {"kind": "damping", "matrix": [[1.0]]}},
    {"source": {"kind": "dirac"}},
    {"problem": "source", "source": {"kind": "dirac", "point": [0.5, 0.5]}},
    {"velocity": {"kind": "affine", "matrix": [[1.0, 0.0], [0.0, 1.0]]}},
    {"velocity": {"kind": "affine", "matrix": [[1.0]], "offset": [0.0, 0.0]}},
    {"problem": "source", "initial": {"kind": "dirac", "point": [0.0, 0.0]},
     "source": {"kind": "dirac"}},
    {"initial": {"kind": "dirac", "point": [0.0, 0.0]},
     "velocity": {"kind": "constant", "value": [1.0, 1.0, 1.0]}},
])
def test_bad_configs_exit_2(tmp_path, capsys, mutation):
    # a key that the command or the block's kind does not read, a block
    # that is not an object, a measure file path that is not a string
    # (open() would take 0 as stdin), and a velocity or source of another
    # dimension than the initial measure's exit 2 before any output exists
    base = {
        "problem": "linear",
        "beta": 0.5,
        "times": [1.0],
        "velocity": {"kind": "constant"},
        "initial": {"kind": "dirac"},
    }
    base.update(mutation)
    cfg = _write_config(tmp_path, "bad.json", base)
    assert main(["solve", "--config", cfg, "--out", str(tmp_path / "o")]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("configuration error:")
    assert len(err.splitlines()) == 1
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command, mutation", [
    ("solve", {"solver": {"ode_step": "0.01"}}),
    ("solve", {"solver": {"t_ext": "2"}}),
    ("solve", {"solver": {"eps_tail": [1e-10]}}),
    ("solve", {"solver": {"picard_tol": None}}),
    ("solve", {"solver": {"ode_step": True}}),
    ("solve", {"beta": [0.5]}),
    ("solve", {"beta": "0.5"}),
    ("solve", {"times": ["1.0"]}),
    ("sample", {"beta": [0.5]}),
    ("sample", {"beta": None}),
    ("sample", {"gammas": 1.0}),
    ("sample", {"lambdas": ["a"]}),
    ("kernels", {"betas": 0.5}),
    ("kernels", {"s_grid": "0.5"}),
    ("kernels", {"t_grid": 1.0}),
    ("kernels", {"z_grid": None}),
    ("sample", {"n": [5]}),
    ("solve", {"seed": [1]}),
    ("solve", {"initial": {"kind": "uniform-grid", "low": [0.0], "high": [1.0], "n": [3]}}),
    ("solve", {"initial": {"kind": "uniform-grid", "low": [0.0], "high": [1.0], "n": 0}}),
    ("solve", {"velocity": {"kind": "affine", "matrix": 2}}),
    ("solve", {"initial": {"kind": "file", "path": "no/such/measure.csv"}}),
    ("solve", {"initial": {"kind": "dirac", "point": {"a": 1}}}),
    ("solve", {"initial": {"kind": "uniform-grid", "low": [0.0], "high": [1.0], "n": 3,
                           "mass": [1, 2]}}),
    ("solve", {"velocity": {"kind": "constant", "value": {"a": 1}}}),
    ("solve", {"velocity": {"kind": "attraction", "lip": 1.0}}),
    ("solve", {"solver": []}),
    ("verify", {"eps_tail": "x"}),
    ("sample", {"n": 5, "lambdas": [1.0]}),
    ("solve", {"times": [float("nan")]}),
    ("solve", {"solver": {"ode_step": float("inf")}}),
    ("sample", {"beta": 10**400}),
    ("solve", {"initial": {"kind": "uniform-grid", "low": [], "high": [], "n": 2}}),
])
def test_malformed_numbers_exit_2(tmp_path, capsys, command, mutation):
    # a non-number where a float, a count or a list of floats belongs (NaN,
    # Infinity and an integer past the float range are not finite numbers),
    # an empty grid, a matrix that is not square, an unreadable measure
    # file, or fewer draws than the exponential functional's 100 is a
    # configuration error, not a traceback with the verification-failure
    # code
    base = {
        "solve": {"problem": "linear", "beta": 0.5, "times": [1.0],
                  "velocity": {"kind": "constant"}, "initial": {"kind": "dirac"}},
        "sample": {"beta": 0.5, "times": [1.0], "n": 10},
        "kernels": {"betas": [0.5], "s_grid": [1.0], "t_grid": [1.0], "z_grid": [-1.0]},
        "verify": {},
    }[command]
    base.update(mutation)
    cfg = _write_config(tmp_path, "bad.json", base)
    assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("configuration error:")
    assert "Traceback" not in err
    assert len(err.splitlines()) == 1
    assert not (tmp_path / "o").exists()


#: a value of another type for each key type: a string where a number or
#: an object belongs, a number where a list belongs, and so on
_WRONG = {"number": "1", "integer": 2.5, "numbers": 1.0, "matrix": [1.0],
          "string": 5, "object": "x"}
#: a value of each key type, for the required keys of a kind's block
_VALID = {"number": 1.0, "integer": 2, "numbers": [1.0], "matrix": [[1.0]],
          "string": "x", "object": {}}
_BASES = {
    "kernels": {},
    "sample": {"beta": 0.5, "times": [1.0]},
    "solve": {"problem": "linear", "beta": 0.5, "times": [1.0],
              "velocity": {"kind": "constant"}, "initial": {"kind": "dirac"}},
    "verify": {},
}


def _wrong_type_cases():
    """One case per key of every command, solver, measure and velocity
    table, so a key added to a table is covered without new test code."""
    for command, table in _COMMANDS.items():
        for name, key in table.items():
            yield pytest.param(command, {name: _WRONG[key.type]}, name, id=f"{command}.{name}")
    for name, key in _SOLVER.items():
        yield pytest.param("solve", {"solver": {name: _WRONG[key.type]}}, name, id=f"solver.{name}")
    for block, kinds in (("initial", _MEASURES), ("velocity", _VELOCITIES)):
        for kind, table in kinds.items():
            required = {k: _VALID[key.type] for k, key in table.items() if key.default is _REQUIRED}
            for name, key in table.items():
                spec = {"kind": kind, **required, name: _WRONG[key.type]}
                yield pytest.param("solve", {block: spec}, name, id=f"{block}.{kind}.{name}")


@pytest.mark.parametrize("command, mutation, key", _wrong_type_cases())
def test_every_table_key_rejects_a_wrong_type(tmp_path, capsys, command, mutation, key):
    cfg = _write_config(tmp_path, "bad.json", {**_BASES[command], **mutation})
    assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(f"configuration error: {key} in ")
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("block, spec", [
    ("initial", {"kind": "uniform-grid", "high": [1.0], "n": 3}),
    ("initial", {"kind": "uniform-grid", "low": [0.0], "n": 3}),
    ("initial", {"kind": "uniform-grid", "low": [0.0], "high": [1.0]}),
    ("initial", {"kind": "file"}),
    ("velocity", {"kind": "affine"}),
])
def test_missing_per_kind_keys_exit_2(tmp_path, capsys, block, spec):
    base = {"problem": "linear", "beta": 0.5, "times": [1.0],
            "velocity": {"kind": "constant"}, "initial": {"kind": "dirac"}}
    base[block] = spec
    cfg = _write_config(tmp_path, "bad.json", base)
    assert main(["solve", "--config", cfg, "--out", str(tmp_path / "o")]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("configuration error: missing keys")
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("velocity", [
    {"kind": "constant", "value": [1.0]},
    {"kind": "affine", "matrix": [[0.0, 1.0], [-1.0, 0.0]], "offset": [0.5]},
])
def test_one_entry_velocity_vectors_broadcast(tmp_path, velocity):
    # a value or offset of one entry applies to every axis of a 2-D problem
    cfg = _linear_config(tmp_path, velocity=velocity, initial={"kind": "dirac", "point": [0.0, 0.0]})
    out = tmp_path / "o"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == EXIT_OK
    with open(out / "manifest.json") as handle:
        assert json.load(handle)["outputs"]["first_moment"][-1] > 0.0


def test_uniform_grid_bounds_of_different_lengths_exit_2(tmp_path, capsys):
    # zip(low, high) would drop the second axis and write a 1-D path
    cfg = _linear_config(tmp_path, initial={
        "kind": "uniform-grid", "low": [-1.0, -1.0], "high": [1.0], "n": 3})
    out = tmp_path / "o"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
    assert "same length" in capsys.readouterr().err
    assert not (out / "path.csv").exists()


@pytest.mark.filterwarnings("error::RuntimeWarning")  # np.linspace would warn on the span
def test_uniform_grid_span_past_the_float_range_exit_2(tmp_path, capsys):
    # every grid point is finite, but high - low is not
    cfg = _linear_config(tmp_path, initial={
        "kind": "uniform-grid", "low": [-1e308], "high": [1e308], "n": 4})
    out = tmp_path / "o"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("configuration error:") and err.count("\n") == 1
    assert "span" in err and "overflows" in err
    assert not (out / "path.csv").exists()


@pytest.mark.filterwarnings("error::RuntimeWarning")  # an np.arange step of 0 would warn
@pytest.mark.parametrize("overrides", [
    {},
    # the nonlinear grid extends the output times to t_ext in steps of
    # their finest spacing, which repeated times make 0
    {"problem": "nonlinear", "velocity": {"kind": "repulsion"},
     "initial": {"kind": "uniform-grid", "low": [-1.0], "high": [1.0], "n": 4},
     "solver": {"q_h": 4, "q_g": 8, "t_ext": 1.0}},
], ids=["linear", "nonlinear"])
def test_repeated_output_times_exit_2_before_the_flow(tmp_path, capsys, overrides):
    cfg = _linear_config(tmp_path, **{"times": [0.5, 0.5], **overrides})
    out = tmp_path / "o"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("configuration error: output times") and err.count("\n") == 1
    assert "[0.5, 0.5]" in err
    assert not out.exists()


def test_sample_needs_two_draws(tmp_path):
    # one draw has no standard error (NaN, which is not strict JSON)
    cfg = _write_config(tmp_path, "s.json", {"beta": 0.5, "times": [1.0], "n": 1})
    out = tmp_path / "o"
    assert main(["sample", "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
    assert not out.exists()


def test_sample_negative_seed_exit_2(tmp_path, capsys):
    cfg = _write_config(tmp_path, "s.json", {"beta": 0.5, "times": [1.0], "n": 100})
    out = tmp_path / "o"
    assert main(["sample", "--config", cfg, "--out", str(out), "--seed", "-1"]) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith("configuration error:")
    assert not out.exists()


def test_sample_times_must_be_a_list(tmp_path):
    cfg = _write_config(tmp_path, "s.json", {"beta": 0.5, "times": 5})
    assert main(["sample", "--config", cfg, "--out", str(tmp_path / "o")]) == EXIT_CONFIG


def test_missing_and_malformed_config(tmp_path):
    assert main(["solve", "--config", str(tmp_path / "nope.json"),
                 "--out", str(tmp_path)]) == EXIT_CONFIG
    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    assert main(["solve", "--config", str(broken), "--out", str(tmp_path)]) == EXIT_CONFIG


def test_seed_override_changes_manifest(tmp_path):
    cfg = _linear_config(tmp_path)
    out = tmp_path / "o"
    assert main(["solve", "--config", cfg, "--seed", "11", "--out", str(out)]) == EXIT_OK
    with open(out / "manifest.json") as handle:
        assert json.load(handle)["seed"] == 11


def test_mixed_field_problem_rejected(tmp_path):
    cfg = _write_config(tmp_path, "m.json", {
        "problem": "linear",
        "beta": 0.5,
        "times": [1.0],
        "velocity": {"kind": "attraction"},
        "initial": {"kind": "dirac"},
    })
    assert main(["solve", "--config", cfg, "--out", str(tmp_path / "o")]) == EXIT_CONFIG


@pytest.mark.parametrize("code, failing", [
    (EXIT_OK, []),
    (EXIT_VERIFY_FAILED, ["kernel_origin_limit", "dirac_transport_first_moment"]),
])
def test_verify_report_and_exit_code(tmp_path, monkeypatch, code, failing):
    # a check whose achieved value is outside its tolerance fails the suite
    for name in failing:
        monkeypatch.setitem(verify.CHECKS, name, lambda: (0.0, 1.0, 1e-3))
    out = tmp_path / "o"
    assert main(["verify", "--config", _write_config(tmp_path, "v.json", {}), "--out", str(out)]) == code
    report = json.loads((out / "verify.json").read_text())
    assert len(report["checks"]) == 14
    assert [c["name"] for c in report["checks"] if not c["pass"]] == failing
    assert report["all_pass"] == (not failing)


@pytest.mark.parametrize("text, message", [
    ("", "is empty"),
    ("t,particle_id,x_1,weight\r\n0.0,0,1.0,1.0\r\n\r\n", "line 3 has 0 fields, expected 4"),
    ("t,particle_id,x_1,weight\r\n0.0,0,1.0\r\n", "line 2 has 3 fields, expected 4"),
], ids=["empty", "blank-row", "short-row"])
def test_malformed_measure_files_exit_2(tmp_path, capsys, text, message):
    measure = tmp_path / "measure.csv"
    measure.write_text(text, newline="")
    cfg = _linear_config(tmp_path, initial={"kind": "file", "path": str(measure)})
    out = tmp_path / "o"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("configuration error: measure CSV ") and message in err
    assert len(err.splitlines()) == 1
    assert not out.exists()


@pytest.mark.parametrize("command", ["kernels", "verify"])
def test_seed_flag_only_where_a_seed_is_read(tmp_path, capsys, command):
    # kernels and verify draw nothing, so they take no --seed
    with pytest.raises(SystemExit) as exc:
        main([command, "--seed", "5", "--out", str(tmp_path / "o")])
    assert exc.value.code == EXIT_CONFIG
    assert "--seed" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("problem, extra", [
    ("linear", {}),
    ("source", {"source": {"kind": "dirac", "point": [0.5]}}),
])
@pytest.mark.parametrize("key, value", [("t_ext", 2.0), ("picard_tol", 0.5), ("picard_max_iters", 3)])
def test_picard_keys_rejected_where_not_read(tmp_path, capsys, problem, extra, key, value):
    # only the Picard solve reads t_ext and the Picard knobs
    solver = {"q_h": 16, "q_g": 8, key: value}
    cfg = _linear_config(tmp_path, problem=problem, solver=solver, **extra)
    out = tmp_path / "o"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("configuration error: solver keys") and repr(key) in err
    assert len(err.splitlines()) == 1
    assert not out.exists()


def test_solver_table_is_the_solver_config_knobs(monkeypatch):
    # the solver keys, their defaults and their JSON types come from
    # SolverConfig, bound afresh here, so a new knob is a new key without a
    # second table
    monkeypatch.delitem(vars(cli), "_SOLVER")
    monkeypatch.delitem(vars(cli), "_NONLINEAR_ONLY", raising=False)
    defaults = vars(SolverConfig(times=(1.0,)))
    del defaults["times"]
    assert {name: key.default for name, key in cli._SOLVER.items()} == defaults
    assert {name: key.type for name, key in cli._SOLVER.items()} == {
        name: "integer" if isinstance(value, int) else "number" for name, value in defaults.items()}
    assert cli._NONLINEAR_ONLY == list(SolverConfig.NONLINEAR_ONLY)


def test_manifest_lists_the_solver_keys_the_problem_reads(tmp_path):
    picard = set(SolverConfig.NONLINEAR_ONLY)
    assert picard and picard < set(_SOLVER)
    for problem, extra, velocity in (
        ("linear", {}, {"kind": "damping"}),
        ("source", {"source": {"kind": "dirac", "point": [0.5]}}, {"kind": "damping"}),
        ("nonlinear", {}, {"kind": "attraction"}),
    ):
        cfg = _linear_config(tmp_path, problem=problem, velocity=velocity,
                             solver={"q_h": 8, "q_g": 8, "ode_step": 0.05}, **extra)
        out = tmp_path / problem
        assert main(["solve", "--config", cfg, "--out", str(out)]) == EXIT_OK
        solver = json.loads((out / "manifest.json").read_text())["solver"]
        read = set(_SOLVER) if problem == "nonlinear" else set(_SOLVER) - picard
        assert set(solver) == read, problem
        assert solver["q_h"] == 8 and solver["ode_step"] == 0.05
