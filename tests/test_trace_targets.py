"""The functions the benchmark tracer wraps still exist.

``perfbench/tracer.py`` times and counts the layers of a CLI run by
replacing module attributes by name, and ``Tracer.patch`` skips a name
that is missing without a word, so a renamed or removed function makes
its metric read 0.  This lists every attribute behind a metric that the
tracer still feeds, and the backend name that ``perfbench/run.py``'s
environment probe reads from ``fractrans._core`` before every benchmark
run: without it, every run fails.
"""

import pytest

from fractrans import _core, cli, specfun, subordinator, transport

TARGETS = [
    (transport, "_advect_segment"),
    (transport, "g_quadrature"),
    (transport, "h_quadrature"),
    (transport.ExplicitField, "__call__"),
    (cli, "solve_linear"),
    (cli, "solve_nonlinear"),
    (cli, "solve_with_source"),
    (cli, "path_to_csv"),
    (cli, "write_manifest"),
    (cli, "mc_exponential_functional"),
    (specfun, "stable_density"),
    (specfun, "inverse_subordinator_density"),
    (specfun, "stable_cdf"),
    (subordinator, "sample_stable_unit"),
]


@pytest.mark.parametrize("owner, name", TARGETS, ids=[f"{owner.__name__}.{name}" for owner, name in TARGETS])
def test_traced_attribute_exists(owner, name):
    assert callable(getattr(owner, name, None))


def test_backend_name_exists():
    assert isinstance(_core.BACKEND, str) and _core.BACKEND
