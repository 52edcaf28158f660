"""numpy is the only runtime dependency.

The special functions integrate on fixed Gauss-Legendre nodes and solve
rule quantiles by a vectorized Newton iteration, and the bounded-Lipschitz
distance is a dynamic program on the line, so no command loads scipy.
Nor does any command load ``numpy.polynomial`` (Gauss-Legendre nodes come
from ``eigh``) or ``fractrans.caputo`` (only ``solve_psi_fode`` reads it).
The tests here run the commands in a subprocess, with scipy importable
but unused, or hidden from the import system.
"""

import json
import os
import subprocess
import sys

import pytest
from scipy.special import erfcx

import fractrans
from fractrans.specfun import FracOrder, mittag_leffler

_SRC = os.path.dirname(os.path.dirname(os.path.abspath(fractrans.__file__)))

_NO_SCIPY = """
import json, sys

def unwanted_modules():
    # numpy.ma too: numpy 2.4 imports it from np.unique without return_inverse
    unused = ("numpy.ma", "numpy.polynomial", "fractrans.caputo")
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy" or m in unused)

import fractrans, fractrans.cli
assert not unwanted_modules(), ("import", unwanted_modules())
out = sys.argv[1]
for name, (command, cfg) in json.loads(sys.argv[2]).items():
    path = f"{out}/{name}.json"
    with open(path, "w") as handle:
        json.dump(cfg, handle)
    seed = [] if command in ("kernels", "verify") else ["--seed", "0"]  # they take no seed
    code = fractrans.cli.main([command, "--config", path, "--out", f"{out}/{name}"] + seed)
    assert code == 0, (name, code)
    assert not unwanted_modules(), (name, unwanted_modules())
"""

# the benchmark's configurations at seed 0
_RUNS = {
    "clock-sample": ("sample", {"beta": 0.5, "times": [0.5, 1.0], "gammas": [1.0, 2.0],
                                "lambdas": [-1.0], "n": 20000, "dtau": 1e-3}),
    "linear-2d": ("solve", {"problem": "linear", "beta": 0.5, "times": [0.5, 1.0],
                            "velocity": {"kind": "damping"},
                            "initial": {"kind": "uniform-grid",
                                        "low": [-0.9268728488224802, -0.9268728488224802],
                                        "high": [0.9268728488224802, 0.9268728488224802],
                                        "n": 30}}),
    "nonlinear-repulsion": ("solve", {"problem": "nonlinear", "beta": 0.5, "times": [0.5],
                                      "velocity": {"kind": "repulsion"},
                                      "initial": {"kind": "uniform-grid", "low": [-1.0],
                                                  "high": [1.0], "n": 16},
                                      "solver": {"q_h": 16, "q_g": 8}}),
    "source-2d": ("solve", {"problem": "source", "beta": 0.5, "times": [0.5, 1.0],
                            "velocity": {"kind": "damping"},
                            "initial": {"kind": "uniform-grid",
                                        "low": [-1.09120685437785, -1.09120685437785],
                                        "high": [1.09120685437785, 1.09120685437785],
                                        "n": 10},
                            "source": {"kind": "dirac",
                                       "point": [0.4475929254183783, 0.4475929254183783]}}),
    "kernels": ("kernels", {}),
    "verify": ("verify", {}),
}


def test_cli_import_and_sample_load_no_scipy(tmp_path):
    # the benchmark's sample and three solves, one of each problem kind, and
    # `kernels` and `verify` on their defaults
    env = dict(os.environ, PYTHONPATH=_SRC)
    proc = subprocess.run(
        [sys.executable, "-c", _NO_SCIPY, str(tmp_path), json.dumps(_RUNS)],
        env=env, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "clock-sample" / "samples.jsonl").read_text().count("\n") == 6
    for name in ("linear-2d", "nonlinear-repulsion", "source-2d"):
        assert (tmp_path / name / "manifest.json").exists(), name
    assert (tmp_path / "kernels" / "mittag_leffler.csv").exists()
    assert json.loads((tmp_path / "verify" / "verify.json").read_text())["all_pass"]


_HIDDEN_SCIPY = """
import json, sys

class HideScipy:
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "scipy":
            raise ModuleNotFoundError(f"No module named {name!r}", name=name)

sys.meta_path.insert(0, HideScipy())
import fractrans.cli
from fractrans.distances import bl_distance
from fractrans.measures import EmpiricalMeasure

code = fractrans.cli.main(["verify", "--out", sys.argv[1]])
bl = bl_distance(EmpiricalMeasure.dirac([0.0]), EmpiricalMeasure.dirac([1.0]))
print(json.dumps({"code": code, "bl": bl}))
"""


def test_verify_without_scipy_runs_every_check(tmp_path):
    env = dict(os.environ, PYTHONPATH=_SRC)
    proc = subprocess.run([sys.executable, "-c", _HIDDEN_SCIPY, str(tmp_path)],
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["code"] == 0 and result["bl"] == pytest.approx(2.0 / 3.0, abs=1e-15)
    checks = json.loads((tmp_path / "verify.json").read_text())["checks"]
    assert len(checks) == 13 and all(c["pass"] for c in checks)


def test_pyproject_requires_numpy_alone():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11 and later
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "pyproject.toml"), "rb") as handle:
        project = tomllib.load(handle)["project"]
    assert project["dependencies"] == ["numpy>=1.24"]
    extras = project["optional-dependencies"]
    assert set(extras) == {"test"}
    assert any(req.startswith("scipy") for req in extras["test"])


@pytest.mark.parametrize("z", [-1e153, -1e160])
def test_ml_far_negative_argument_does_not_overflow(z):
    # the series-peak guard runs out of float range here: math.lgamma raises
    # where a log-gamma returning inf did not, so the guard must pick the
    # integral; E_{1/2}(z) ~ 1 / (sqrt(pi) |z|) < 1e-150
    value = mittag_leffler(FracOrder(0.5), z)
    assert 0.0 <= value <= 1e-150


@pytest.mark.parametrize("z", [-1e3, -1e4, -1e5, -1e7])
def test_ml_half_order_far_negative_axis(z):
    # E_{1/2}(z) = e^{z^2} erfc(-z) = erfcx(|z|) for z < 0; the integrand's
    # mass sits near u ~ 1 however large |z| is
    assert mittag_leffler(FracOrder(0.5), z) == pytest.approx(erfcx(-z), rel=1e-10)
