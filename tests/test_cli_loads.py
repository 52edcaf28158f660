"""Each command loads only the modules it runs.

``import fractrans`` loads no submodule: the package resolves its public
names on first access.  ``import fractrans.cli``, ``--version``,
``--help`` and ``sample`` load ``cli``, ``errors``, ``atomic`` and
``subordinator``; ``kernels`` adds ``rules`` and ``specfun``; only
``solve`` and ``verify`` load ``measures`` and ``transport``, and only a
``nonlinear`` solve loads ``picard``, which a ``linear`` or ``source``
solve does not need, and with it ``specfun``.  No command imports
``dataclasses``: the package's records are plain classes, so none is
built at start-up.  Nor does any command import ``numpy.random``: the
clock draws its uniforms from the standard library's ``random``.  No
command imports ``argparse``, and only ``kernels`` imports ``csv``.
``cli`` binds the names it reads from those modules on first use,
through its module ``__getattr__``.
The names stay attributes of ``cli``: ``perfbench/tracer.py`` wraps
``cli.solve_linear``, ``cli.path_to_csv`` and their siblings before a
run, and ``cmd_solve`` must call those wrappers.  The tests that watch
``sys.modules`` or a fresh binding run in a subprocess.
"""

import json
import os
import subprocess
import sys

import pytest

import fractrans
from fractrans import cli, picard, rules, specfun, subordinator, transport
from fractrans.cli import EXIT_OK, main

_SRC = os.path.dirname(os.path.dirname(os.path.abspath(fractrans.__file__)))

_LINEAR = {"problem": "linear", "beta": 0.5, "times": [0.5], "velocity": {"kind": "damping"},
           "initial": {"kind": "dirac", "point": [1.0]}, "solver": {"q_h": 8}}
_RUNS = {
    "linear": _LINEAR,
    "nonlinear": {**_LINEAR, "problem": "nonlinear", "velocity": {"kind": "repulsion"},
                  "initial": {"kind": "uniform-grid", "low": [-1.0], "high": [1.0], "n": 4},
                  "solver": {"q_h": 8, "q_g": 8}},
    "source": {**_LINEAR, "problem": "source", "source": {"kind": "dirac", "point": [0.0]}},
}

_LOADS = """
import contextlib, io, json, sys

def loaded():
    return "fractrans.transport" in sys.modules

out = sys.argv[1]
import fractrans.cli
from fractrans.cli import main
assert not loaded(), "import"
for flag in ("--version", "--help"):
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            main([flag])
    except SystemExit:
        pass
    assert not loaded(), flag
# the benchmark's clock-sample config at seed 0, then kernels on its defaults
sample = {"beta": 0.5, "times": [0.5, 1.0], "gammas": [1.0, 2.0], "lambdas": [-1.0],
          "n": 20000, "dtau": 1e-3}
with open(f"{out}/sample.json", "w") as handle:
    json.dump(sample, handle)
assert main(["sample", "--config", f"{out}/sample.json", "--out", out, "--seed", "0"]) == 0
assert not loaded(), "sample"
assert main(["kernels", "--out", out]) == 0
assert not loaded(), "kernels"
with open(f"{out}/solve.json", "w") as handle:
    json.dump(json.loads(sys.argv[2]), handle)
assert main(["solve", "--config", f"{out}/solve.json", "--out", out]) == 0
assert loaded(), "solve"
"""


def _run(script, *args):
    env = dict(os.environ, PYTHONPATH=_SRC)
    return subprocess.run([sys.executable, "-c", script, *args], env=env,
                          capture_output=True, text=True)


def test_only_solve_loads_transport(tmp_path):
    proc = _run(_LOADS, str(tmp_path), json.dumps(_LINEAR))
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "samples.jsonl").read_text().count("\n") == 6
    assert (tmp_path / "mittag_leffler.csv").exists()


_FRESH = """
import contextlib, io, json, sys

out, step = sys.argv[1], sys.argv[2]
if step == "import fractrans":
    import fractrans
else:
    from fractrans.cli import main
if step in ("--version", "--help"):
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            main([step])
    except SystemExit:
        pass
elif not step.startswith("import"):
    with open(f"{out}/cfg.json", "w") as handle:
        json.dump(json.loads(sys.argv[3]), handle)
    with contextlib.redirect_stdout(io.StringIO()):
        assert main([step, "--config", f"{out}/cfg.json", "--out", out]) == 0
print(json.dumps([sorted(name for name in sys.modules if name.split(".")[0] == "fractrans"),
                  "dataclasses" in sys.modules, "numpy.random" in sys.modules,
                  [name for name in ("argparse", "csv") if name in sys.modules]]))
"""

_START = ["fractrans", "fractrans.atomic", "fractrans.cli", "fractrans.errors", "fractrans.subordinator"]
_SOLVE = ["fractrans.measures", "fractrans.rules", "fractrans.transport"]
#: the benchmark's clock-sample config
_SAMPLE = {"beta": 0.5, "times": [0.5, 1.0], "gammas": [1.0, 2.0], "lambdas": [-1.0], "n": 20000,
           "dtau": 1e-3}


#: (label, step, its config, the fractrans modules loaded after it)
_STEPS = [
    ("import fractrans", "import fractrans", None, ["fractrans"]),
    ("import fractrans.cli", "import fractrans.cli", None, _START),
    ("--version", "--version", None, _START),
    ("--help", "--help", None, _START),
    ("sample", "sample", _SAMPLE, _START),
    ("kernels", "kernels", {}, sorted(_START + ["fractrans.rules", "fractrans.specfun"])),
    ("solve", "solve", _LINEAR, sorted(_START + _SOLVE)),
    ("solve source", "solve", _RUNS["source"], sorted(_START + _SOLVE)),
    ("solve nonlinear", "solve", _RUNS["nonlinear"],
     sorted(_START + _SOLVE + ["fractrans.picard", "fractrans.specfun"])),
    ("verify", "verify", {},
     sorted(_START + _SOLVE + ["fractrans.distances", "fractrans.specfun", "fractrans.verify"])),
]


@pytest.mark.parametrize("step, cfg, expected", [row[1:] for row in _STEPS], ids=[row[0] for row in _STEPS])
def test_fresh_process_loads_exactly(tmp_path, step, cfg, expected):
    proc = _run(_FRESH, str(tmp_path), step, json.dumps(cfg))
    assert proc.returncode == 0, proc.stderr
    modules, dataclasses_loaded, numpy_random_loaded, parsers = json.loads(proc.stdout)
    assert modules == expected
    assert not dataclasses_loaded
    assert not numpy_random_loaded
    # argv is read without argparse, and csv is loaded only by kernels,
    # which writes its tables with csv.writer, and by reading a measure file
    assert parsers == (["csv"] if step == "kernels" else [])


_LAZY_PACKAGE = """
import json
import fractrans
names = dir(fractrans)
public = {name: getattr(fractrans, name) for name in fractrans.__all__}
import fractrans.errors, fractrans.measures, fractrans.rules, fractrans.specfun, fractrans.subordinator
same = [public[name] is getattr(getattr(fractrans, module), name)
        for name, module in fractrans._PUBLIC.items()]
try:
    fractrans.no_such_name
    unknown = None
except AttributeError as exc:
    unknown = str(exc)
print(json.dumps([names, sorted(fractrans.__all__), same, unknown]))
"""


def test_package_names_resolve_on_first_access():
    proc = _run(_LAZY_PACKAGE)
    assert proc.returncode == 0, proc.stderr
    names, all_names, same, unknown = json.loads(proc.stdout)
    public = ["EmpiricalMeasure", "FracOrder", "MassMismatchError", "MeasurePath",
              "PicardConvergenceError", "QuadratureRule", "RngSpec", "TailMassError"]
    assert all_names == sorted(public + ["__version__"])
    assert set(all_names) <= set(names)
    assert same == [True] * len(public)
    assert "no_such_name" in unknown
    assert fractrans.FracOrder is fractrans.specfun.FracOrder is fractrans.subordinator.FracOrder


_WRAPPED = """
import json, sys
from fractrans import cli

calls = []

def recorded(name, fn):
    def wrapper(*args, **kwargs):
        calls.append(name)
        return fn(*args, **kwargs)
    return wrapper

# as the benchmark tracer does: wrap the names on cli before any solve runs
for name in ("solve_linear", "solve_nonlinear", "solve_with_source"):
    setattr(cli, name, recorded(name, getattr(cli, name)))
out = sys.argv[1]
for problem, cfg in json.loads(sys.argv[2]).items():
    with open(f"{out}/{problem}.json", "w") as handle:
        json.dump(cfg, handle)
    assert cli.main(["solve", "--config", f"{out}/{problem}.json", "--out", f"{out}/{problem}"]) == 0
print(json.dumps(calls))
"""


def test_moved_names_are_the_same_objects():
    # the rules and the interaction solver moved out of specfun and
    # transport; both still give the one object under the old name
    for name in ("h_quadrature", "g_quadrature"):
        assert getattr(specfun, name) is getattr(rules, name) is getattr(transport, name)
    assert specfun.QuadratureRule is rules.QuadratureRule is fractrans.QuadratureRule
    for name in picard.__all__:
        assert getattr(transport, name) is getattr(picard, name)


_MISMATCH = """
import json, sys
from fractrans.cli import main

out = sys.argv[1]
with open(f"{out}/cfg.json", "w") as handle:
    json.dump(json.loads(sys.argv[2]), handle)
code = main(["solve", "--config", f"{out}/cfg.json", "--out", out])
print(json.dumps([code, "fractrans.picard" in sys.modules]))
"""


def test_linear_problem_with_an_interaction_velocity_exits_2_without_picard(tmp_path):
    # the velocity kind alone tells that the problem does not fit, before
    # any field is built, so the interaction solver is never loaded
    proc = _run(_MISMATCH, str(tmp_path), json.dumps({**_LINEAR, "velocity": {"kind": "repulsion"}}))
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [2, False]
    assert proc.stderr == "configuration error: velocity kind 'repulsion' does not fit the linear problem\n"


def test_solve_calls_the_wrappers_set_on_cli(tmp_path):
    proc = _run(_WRAPPED, str(tmp_path), json.dumps(_RUNS))
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == ["solve_linear", "solve_nonlinear", "solve_with_source"]


def test_monkeypatched_solver_reaches_cmd_solve(tmp_path, monkeypatch):
    calls = []

    def fake(*args):
        calls.append(args)
        return transport.solve_linear(*args)

    monkeypatch.setattr(cli, "solve_linear", fake)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(_LINEAR))
    assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "o")]) == EXIT_OK
    assert len(calls) == 1


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        getattr(cli, "no_such_name")
    assert getattr(cli, "sample_inverse", None) is None
