"""End-to-end tests for the command-line interface."""

import json
import os

import pytest

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
    out = tmp_path / "out"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == EXIT_NO_CONVERGENCE
    lines = (out / "picard.jsonl").read_text().splitlines()
    assert len(lines) == 2
    assert sorted(json.loads(lines[-1])) == ["coupling_bound", "sweep", "wall_time"]


def test_unreachable_tail_mass_exit_4(tmp_path, capsys):
    # at beta = 0.1 the h-kernel tail is too heavy for the default eps_tail
    cfg = _linear_config(tmp_path, beta=0.1)
    assert main(["solve", "--config", cfg, "--out", str(tmp_path / "o")]) == EXIT_NUMERICAL
    assert capsys.readouterr().err.startswith("numerical error:")


def test_float_overflow_exit_4(tmp_path, capsys):
    # E_{1/2}(800) = e^{640000} erfc(-800) is past the floating-point range
    cfg = _write_config(tmp_path, "k.json", {"betas": [0.5], "z_grid": [800.0]})
    assert main(["kernels", "--config", cfg, "--out", str(tmp_path / "o")]) == EXIT_NUMERICAL
    err = capsys.readouterr().err
    assert err.startswith("numerical error:")
    assert "Traceback" not in err


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
    ("solve", {"velocity": {"kind": "attraction", "lip": None}}),
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


def test_sample_needs_two_draws(tmp_path):
    # one draw has no standard error (NaN, which is not strict JSON)
    cfg = _write_config(tmp_path, "s.json", {"beta": 0.5, "times": [1.0], "n": 1})
    out = tmp_path / "o"
    assert main(["sample", "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
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


@pytest.mark.parametrize("cfg, code, failing", [
    ({}, EXIT_OK, []),
    # a loose quadrature tail breaks the checks that integrate against h
    ({"eps_tail": 0.05}, EXIT_VERIFY_FAILED,
     ["moment_identity_quadrature", "exponential_identity_quadrature", "dirac_transport_first_moment"]),
])
def test_verify_report_and_exit_code(tmp_path, cfg, code, failing):
    out = tmp_path / "o"
    assert main(["verify", "--config", _write_config(tmp_path, "v.json", cfg), "--out", str(out)]) == code
    report = json.loads((out / "verify.json").read_text())
    assert len(report["checks"]) == 11
    assert [c["name"] for c in report["checks"] if not c["pass"]] == failing
    assert report["all_pass"] == (not failing)
