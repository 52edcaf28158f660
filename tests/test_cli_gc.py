"""``cli.main`` freezes the start-up objects; importing the package does not.

Everything a command makes before ``main`` runs lives until exit, so
``main`` moves it to the collector's permanent generation
(``gc.freeze``) and no collection, the ones at shutdown included, walks
it.  ``cli`` pauses the collector from its first statement, so no
collection walks those objects while the modules load either: run as a
program (as the installed script runs it too), ``main`` ends the pause
after its freeze; imported, the module restores the collector's state at
its end.  ``solve`` loads ``measures``, ``rules`` and ``transport`` (and
``picard`` and ``specfun`` for the nonlinear problem) after that, and
freezes once more.  Library users import the package and keep their
collector as they set it.  Each test runs in a fresh interpreter, whose
freeze count starts at 0.
"""

import json
import os
import subprocess
import sys

import pytest

import fractrans

_SRC = os.path.dirname(os.path.dirname(os.path.abspath(fractrans.__file__)))

_CONFIGS = {
    "sample": {"beta": 0.5, "times": [1.0]},
    "solve": {"problem": "linear", "beta": 0.5, "times": [0.5], "velocity": {"kind": "damping"},
              "initial": {"kind": "dirac"}, "solver": {"q_h": 8}},
}

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


_PROGRAM = """
import gc, importlib.util, json, runpy, sys
import fractrans

cli_file = importlib.util.find_spec("fractrans.cli").origin
started = []  # set once cli's code starts to run
collections = []  # per collection: whether it ran after that and before main's freeze

def audit(event, args):
    if event == "exec" and getattr(args[0], "co_filename", None) == cli_file:
        started.append(True)

def in_start_up():
    return bool(started) and gc.get_freeze_count() == 0

sys.addaudithook(audit)

start, collector = sys.argv[1:3]
if collector == "off":
    gc.disable()
gc.callbacks.append(lambda phase, info: phase == "start" and collections.append(in_start_up()))
sys.argv = ["fractrans", *sys.argv[3:]]
try:
    if start == "script":  # what the installed fractrans script calls
        fractrans._command()
    else:
        runpy.run_module("fractrans.cli", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    code = exc.code
print(json.dumps([code, collections, gc.isenabled(), gc.get_freeze_count() > 0]))
"""

_LIBRARY_WITH_THE_COLLECTOR_OFF = """
import gc, json, sys
if sys.argv[3] == "before import":
    gc.disable()
before = gc.isenabled(), gc.get_threshold(), gc.get_freeze_count()
import fractrans.cli
imported = [gc.isenabled(), gc.get_threshold(), gc.get_freeze_count()]
gc.disable()
code = fractrans.cli.main(["sample", "--config", sys.argv[1], "--out", sys.argv[2]])
print(json.dumps([imported, before, code, gc.isenabled()]))
"""


def _run(script, *args):
    env = dict(os.environ, PYTHONPATH=_SRC)
    return subprocess.run([sys.executable, "-c", script, *args], env=env,
                          capture_output=True, text=True)


def test_main_freezes_the_start_up_objects(tmp_path):
    cfg = tmp_path / "sample.json"
    cfg.write_text(json.dumps(_CONFIGS["sample"]))
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
    sample.write_text(json.dumps(_CONFIGS["sample"]))
    solve = tmp_path / "solve.json"
    solve.write_text(json.dumps(_CONFIGS["solve"]))
    for command, cfg, freezes in (("sample", sample, [False]), ("solve", solve, [False, True]),
                                  ("lookup", "", [])):
        proc = _run(_FREEZES, command, str(cfg), str(tmp_path / command))
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == freezes, command


@pytest.mark.parametrize("start, command, collector", [
    ("module", "sample", "on"), ("module", "solve", "on"), ("module", "sample", "off"),
    ("script", "sample", "on"), ("script", "solve", "on"),
])
def test_program_runs_no_collection_before_main_freezes(tmp_path, start, command, collector):
    # python -m fractrans.cli, as runpy runs it, and the installed script:
    # from cli's first statement until main's freeze no collection runs,
    # and the pause ends with the freeze, except for a caller that had the
    # collector off
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(_CONFIGS[command]))
    proc = _run(_PROGRAM, start, collector, command, "--config", str(cfg), "--out", str(tmp_path / "o"))
    assert proc.returncode == 0, proc.stderr
    code, collections, enabled, frozen = json.loads(proc.stdout)
    assert code == 0 and frozen
    assert not any(collections)
    assert enabled == (collector == "on")


@pytest.mark.parametrize("when", ["before import", "after import"])
def test_a_disabled_collector_stays_disabled(tmp_path, when):
    # imported as a library, cli restores the collector's state, thresholds
    # and freeze count, and main, which only freezes, never enables a
    # collector that its caller disabled
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(_CONFIGS["sample"]))
    proc = _run(_LIBRARY_WITH_THE_COLLECTOR_OFF, str(cfg), str(tmp_path / "o"), when)
    assert proc.returncode == 0, proc.stderr
    imported, before, code, enabled = json.loads(proc.stdout)
    assert imported == before and before[0] == (when == "after import")
    assert code == 0 and enabled is False
