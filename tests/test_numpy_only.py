"""The package and the ``sample`` command run on numpy alone.

scipy is imported inside the few functions that call it (adaptive
quadrature and root finding in rule construction, the bounded-Lipschitz
LP, ``verify``), so importing the CLI and drawing clocks never load it.
"""

import json
import os
import subprocess
import sys

import pytest

import fractrans
from fractrans.specfun import FracOrder, mittag_leffler

_SRC = os.path.dirname(os.path.dirname(os.path.abspath(fractrans.__file__)))

_NO_SCIPY = """
import sys

def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

import fractrans, fractrans.cli
assert not scipy_modules(), ("import", scipy_modules())
code = fractrans.cli.main(["sample", "--config", sys.argv[1], "--out", sys.argv[2]])
assert code == 0, code
assert not scipy_modules(), ("sample", scipy_modules())
"""


def test_cli_import_and_sample_load_no_scipy(tmp_path):
    # the benchmark's clock-sample configuration
    cfg = tmp_path / "clock.json"
    cfg.write_text(json.dumps({"beta": 0.5, "times": [0.5, 1.0], "gammas": [1.0, 2.0],
                               "lambdas": [-1.0], "n": 20000, "dtau": 1e-3}))
    env = dict(os.environ, PYTHONPATH=_SRC)
    proc = subprocess.run(
        [sys.executable, "-c", _NO_SCIPY, str(cfg), str(tmp_path / "out")],
        env=env, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "out" / "samples.jsonl").read_text().count("\n") == 6


@pytest.mark.parametrize("z", [-1e153, -1e160])
def test_ml_far_negative_argument_does_not_overflow(z):
    # the series-peak guard runs out of float range here: math.lgamma raises
    # where a log-gamma returning inf did not, so the guard must pick the
    # integral; E_{1/2}(z) ~ 1 / (sqrt(pi) |z|) < 1e-150
    value = mittag_leffler(FracOrder(0.5), z)
    assert 0.0 <= value <= 1e-150
