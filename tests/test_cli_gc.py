"""``cli.main`` freezes the start-up objects; importing the package does not.

Everything a command makes before ``main`` runs lives until exit, so
``main`` moves it to the collector's permanent generation
(``gc.freeze``) and no collection, the ones at shutdown included, walks
it.  ``solve`` loads ``measures``, ``rules`` and ``transport`` (and
``picard`` and ``specfun`` for the nonlinear problem) after that, and
freezes once more.  Library users import the package and keep
their collector as they set it.  Each test runs in a fresh interpreter,
whose freeze count starts at 0.
"""

import json
import os
import subprocess
import sys

import fractrans

_SRC = os.path.dirname(os.path.dirname(os.path.abspath(fractrans.__file__)))

_MAIN_FREEZES = """
import gc, sys
from fractrans import cli

counts = []

def recorded(cfg, out_dir):
    counts.append(gc.get_freeze_count())
    return 0

assert gc.get_freeze_count() == 0
cli.cmd_sample = recorded
assert cli.main(["sample", "--config", sys.argv[1], "--out", sys.argv[2]]) == 0
print(counts[0])
"""

_FREEZES = """
import gc, json, sys, types
from fractrans import cli

calls = []  # one per freeze: whether transport was loaded by then

def freeze():
    calls.append("fractrans.transport" in sys.modules)
    gc.freeze()

cli.gc = types.SimpleNamespace(freeze=freeze)
if sys.argv[1] == "lookup":
    cli.solve_linear, cli.path_to_csv  # a library lookup binds the names and freezes nothing
else:
    assert cli.main([sys.argv[1], "--config", sys.argv[2], "--out", sys.argv[3]]) == 0
print(json.dumps(calls))
"""

_IMPORTS_LEAVE_GC = """
import gc, json
before = gc.isenabled(), gc.get_threshold(), gc.get_freeze_count()
import fractrans
import fractrans.cli
import fractrans.transport
print(json.dumps([[gc.isenabled(), gc.get_threshold(), gc.get_freeze_count()], before]))
"""


def _run(script, *args):
    env = dict(os.environ, PYTHONPATH=_SRC)
    return subprocess.run([sys.executable, "-c", script, *args], env=env,
                          capture_output=True, text=True)


def test_main_freezes_the_start_up_objects(tmp_path):
    cfg = tmp_path / "sample.json"
    cfg.write_text(json.dumps({"beta": 0.5, "times": [1.0]}))
    proc = _run(_MAIN_FREEZES, str(cfg), str(tmp_path / "o"))
    assert proc.returncode == 0, proc.stderr
    # the command runs with the modules and objects of start-up frozen
    assert int(proc.stdout) > 0


def test_imports_leave_the_collector_as_they_found_it():
    proc = _run(_IMPORTS_LEAVE_GC)
    assert proc.returncode == 0, proc.stderr
    after, before = json.loads(proc.stdout)
    assert after == before
    assert after[0] is True and after[2] == 0


def test_solve_freezes_again_after_loading_its_modules(tmp_path):
    sample = tmp_path / "sample.json"
    sample.write_text(json.dumps({"beta": 0.5, "times": [1.0]}))
    solve = tmp_path / "solve.json"
    solve.write_text(json.dumps({"problem": "linear", "beta": 0.5, "times": [0.5],
                                 "velocity": {"kind": "damping"}, "initial": {"kind": "dirac"},
                                 "solver": {"q_h": 8}}))
    for command, cfg, freezes in (("sample", sample, [False]), ("solve", solve, [False, True]),
                                  ("lookup", "", [])):
        proc = _run(_FREEZES, command, str(cfg), str(tmp_path / command))
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == freezes, command
