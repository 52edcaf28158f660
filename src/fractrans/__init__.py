"""Measure transport with memory: fractional-in-time transport equations
solved by averaging push-forward flows over a random internal clock.

The public names below are imported from their modules on first access
(PEP 562), so ``import fractrans`` compiles no submodule and each command
of the CLI compiles only the modules it runs.
"""

import importlib

__version__ = "0.1.0"

#: each public name and the module that defines it
_PUBLIC = {
    "FracOrder": "subordinator",
    "QuadratureRule": "rules",
    "EmpiricalMeasure": "measures",
    "MeasurePath": "measures",
    "RngSpec": "subordinator",
    "TailMassError": "errors",
    "MassMismatchError": "errors",
    "PicardConvergenceError": "errors",
}

__all__ = [*_PUBLIC, "__version__"]


def __getattr__(name):
    if name not in _PUBLIC:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_PUBLIC[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_PUBLIC})


def _command():
    """The installed ``fractrans`` script: ``fractrans.cli`` run as a
    program, as ``python -m fractrans.cli`` runs it, so that its imports
    run with the collector paused until ``cli.main`` freezes what they
    made.  Importing ``fractrans.cli`` would end the pause at the end of
    the module, and the next collection would walk all of it."""
    import runpy

    runpy.run_module("fractrans.cli", run_name="__main__", alter_sys=True)
