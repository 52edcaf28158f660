"""The benchmark's answer checks pass on the CLI's outputs.

Each workload in ``perfbench/workloads.py`` is a CLI call made from a seed
plus an answer check on its outputs, and a benchmark run whose check fails
counts as failed.  This runs every workload through
``python -m fractrans.cli`` at seeds 0 and 1, writing into a temporary
directory, and asserts that the workload's own check passes, so a change
that moves an answer fails here too.  ``perfbench/`` is only read: the
module is loaded without writing its bytecode.

The closed-form checks of the linear and source workloads allow 1e-8, and
the nonlinear check 5 picard_tol (5e-3) off its stored reference, which a
refactor that moved an answer by rounding could pass, so the answers of
the three solve workloads are also pinned here to their digits.
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


#: seed 0 of each solve workload: first and second moments at every
#: output time (0 first) and the RK4 steps of one flow sweep.  The
#: nonlinear answers are those of the composite g-rule's lookup masses,
#: which are off at q_g 8 (ROADMAP.md, defect 1): the change that makes
#: them exact moves them on purpose and re-pins them
_PINNED = {
    "linear-2d": ([0.7333873910943316, 0.38367644209779317, 0.31358440341693383],
                  [0.6122273934347886, 0.20583330009516634, 0.15636022921553827], 358),
    "nonlinear-repulsion": ([0.5333333333333333, 0.7029055203377658],
                            [0.37777777777777777, 0.6735181296227523], 238),
    "source-2d": ([0.9243607181160578, 0.7861831963779854, 0.7587718368560424],
                  [0.9702263992187575, 0.4605546925449847, 0.3989789498941526], 358),
}


@pytest.mark.parametrize("name", sorted(_PINNED))
def test_solve_workload_answers_are_pinned(tmp_path, name):
    # the closed-form checks allow 1e-8 and the nonlinear one 5e-3, so
    # each answer is pinned to a relative 1e-12 and its counts exactly
    command, config = workloads.WORKLOADS[name][0](0)
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
    first, second, rk4_steps = _PINNED[name]
    assert manifest["times"] == config["times"]
    assert outputs["first_moment"] == pytest.approx(first, rel=1e-12, abs=0.0)
    assert outputs["second_moment"] == pytest.approx(second, rel=1e-12, abs=0.0)
    assert diagnostics["rk4_steps"] == rk4_steps
    if name == "nonlinear-repulsion":
        log = [json.loads(line) for line in (out / "picard.jsonl").read_text().splitlines()]
        assert log[-1]["coupling_bound"] == pytest.approx(8.15961270982166e-05, rel=1e-12, abs=0.0)
        assert (diagnostics["sweeps"], diagnostics["coarse_sweeps"]) == (1, 4)
