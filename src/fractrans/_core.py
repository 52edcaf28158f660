"""Name of the kernel implementation, read by the benchmark harness.

``perfbench/run.py`` records ``BACKEND`` in every run's environment and
``perfbench/tracer.py`` imports this module.  The package has one numpy
implementation of each kernel and imports nothing from here; the module
goes away together with those two readers in the next benchmark change.
"""

BACKEND = "numpy"
