"""The benchmark's answer checks pass on the CLI's outputs.

Each workload in ``perfbench/workloads.py`` is a CLI call made from a seed
plus an answer check on its outputs, and a benchmark run whose check fails
counts as failed.  This runs every workload through
``python -m fractrans.cli`` at seeds 0 and 1, writing into a temporary
directory, and asserts that the workload's own check passes, so a change
that moves an answer fails here too.  ``perfbench/`` is only read: the
module is loaded without writing its bytecode.

The nonlinear check allows 5 picard_tol (5e-3) off its stored reference,
which a change that moved the Picard iterate's layout could pass, so that
workload's answers are also pinned here to their digits.
"""

import importlib.util
import json
import os
import subprocess
import sys

import pytest

import fractrans

_SRC = os.path.dirname(os.path.dirname(os.path.abspath(fractrans.__file__)))
_WORKLOADS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench", "workloads.py")


def _load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", _WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    dont_write, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module


workloads = _load_workloads()


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_passes_its_answer_check(tmp_path, name, seed):
    build, check = workloads.WORKLOADS[name]
    command, config = build(seed)
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    out = tmp_path / "out"
    env = dict(os.environ, PYTHONPATH=_SRC, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, "-m", "fractrans.cli", command, "--config", str(config_path), "--out", str(out),
         "--seed", str(seed)],
        env=env, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    ok, deviations, message = check(str(out), config)
    assert ok, f"{message} {deviations}"


def test_nonlinear_workload_answers_are_pinned(tmp_path):
    # seed 0 of nonlinear-repulsion, pinned to a relative 1e-12 and its
    # counts exactly.  These are the answers of the composite g-rule's
    # lookup masses, which are off at q_g 8 (ROADMAP.md, defect 1): the
    # change that makes them exact moves these numbers on purpose and
    # re-pins them
    command, config = workloads.WORKLOADS["nonlinear-repulsion"][0](0)
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    out = tmp_path / "out"
    env = dict(os.environ, PYTHONPATH=_SRC, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, "-m", "fractrans.cli", command, "--config", str(config_path), "--out", str(out),
         "--seed", "0"],
        env=env, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    manifest = json.loads((out / "manifest.json").read_text())
    outputs, diagnostics = manifest["outputs"], manifest["diagnostics"]
    assert manifest["times"][-1] == 0.5
    assert outputs["first_moment"][-1] == pytest.approx(0.7029055203377658, rel=1e-12, abs=0.0)
    assert outputs["second_moment"][-1] == pytest.approx(0.6735181296227523, rel=1e-12, abs=0.0)
    log = [json.loads(line) for line in (out / "picard.jsonl").read_text().splitlines()]
    assert log[-1]["coupling_bound"] == pytest.approx(8.15961270982166e-05, rel=1e-12, abs=0.0)
    assert (diagnostics["sweeps"], diagnostics["coarse_sweeps"], diagnostics["rk4_steps"]) == (1, 4, 238)
