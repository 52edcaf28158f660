"""The functions the benchmark tracer wraps still exist.

``perfbench/tracer.py`` times and counts the layers of a CLI run by
replacing module attributes by name, and ``Tracer.patch`` skips a name
that is missing without a word, so a renamed or removed function makes
its metric read 0.  This lists every attribute behind a metric that the
tracer still feeds, and the backend name that ``perfbench/run.py``'s
environment probe reads from ``fractrans._core`` before every benchmark
run: without it, every run fails.

The lookups run in a fresh interpreter that imports what the tracer
imports and nothing else.  In this one, an earlier test's solve may have
bound a name on ``cli`` that a fresh process would not find.
"""

import json
import os
import subprocess
import sys

import pytest

import fractrans
from fractrans import _core

_SRC = os.path.dirname(os.path.dirname(os.path.abspath(fractrans.__file__)))

#: (module, class or None, attribute)
TARGETS = [
    ("fractrans.transport", None, "_advect_segment"),
    ("fractrans.transport", None, "g_quadrature"),
    ("fractrans.transport", None, "h_quadrature"),
    ("fractrans.transport", "ExplicitField", "__call__"),
    ("fractrans.cli", None, "solve_linear"),
    ("fractrans.cli", None, "solve_nonlinear"),
    ("fractrans.cli", None, "solve_with_source"),
    ("fractrans.cli", None, "path_to_csv"),
    ("fractrans.cli", None, "write_manifest"),
    ("fractrans.cli", None, "mc_exponential_functional"),
    ("fractrans.specfun", None, "stable_density"),
    ("fractrans.specfun", None, "inverse_subordinator_density"),
    ("fractrans.specfun", None, "stable_cdf"),
    ("fractrans.subordinator", None, "sample_stable_unit"),
]

_LOOKUPS = """
import importlib, json, sys

import fractrans._core
from fractrans import cli, specfun, subordinator, transport

found = []
for module, cls, name in json.loads(sys.argv[1]):
    owner = importlib.import_module(module)
    owner = getattr(owner, cls) if cls else owner
    found.append(callable(getattr(owner, name, None)))
print(json.dumps(found))
"""


@pytest.fixture(scope="module")
def found():
    env = dict(os.environ, PYTHONPATH=_SRC)
    proc = subprocess.run([sys.executable, "-c", _LOOKUPS, json.dumps(TARGETS)], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return dict(zip(TARGETS, json.loads(proc.stdout)))


@pytest.mark.parametrize("target", TARGETS, ids=[f"{cls or module}.{name}" for module, cls, name in TARGETS])
def test_traced_attribute_exists(found, target):
    assert found[target]


def test_backend_name_exists():
    assert isinstance(_core.BACKEND, str) and _core.BACKEND
