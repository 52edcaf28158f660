"""End-to-end tests for the command-line interface."""

import json
import os

import pytest

from fractrans.cli import (
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
])
def test_bad_configs_exit_2(tmp_path, mutation):
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
])
def test_malformed_numbers_exit_2(tmp_path, capsys, command, mutation):
    # a non-number where a float, a count or a list of floats belongs, an
    # empty grid, a matrix that is not square, or an unreadable measure
    # file is a configuration error, not a traceback with the
    # verification-failure code
    base = {
        "solve": {"problem": "linear", "beta": 0.5, "times": [1.0],
                  "velocity": {"kind": "constant"}, "initial": {"kind": "dirac"}},
        "sample": {"beta": 0.5, "times": [1.0], "n": 10},
        "kernels": {"betas": [0.5], "s_grid": [1.0], "t_grid": [1.0], "z_grid": [-1.0]},
    }[command]
    base.update(mutation)
    cfg = _write_config(tmp_path, "bad.json", base)
    assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("configuration error:")
    assert "Traceback" not in err


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
