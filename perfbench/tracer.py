"""Traced CLI run: wrap each layer's public entry points, then call
``fractrans.cli.main(argv)`` in this process and write the trace as JSON.

    python3 perfbench/tracer.py TRACE.json solve --config cfg.json --out dir --seed 0

The wrappers are installed at the names the callers look them up by
(``cli.path_to_csv``, ``transport.bl_distance``,
``fractrans._core.pairwise_repulsion_sum``, ...), so the package source is
not touched.  A name that a later version of the package no longer has is
skipped and its metrics read 0.  Spans of the coarse layers are kept in
memory and written at exit; the hot layers (field evaluations, kernel
calls) are only summed, and density evaluations and stable draws are only
counted.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from collections import defaultdict

import numpy as np

import fractrans._core as core
from fractrans import cli, specfun, subordinator, transport

perf = time.perf_counter


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


class Tracer:
    """Per-metric time sums and counters plus a list of coarse spans."""

    def __init__(self):
        self.seconds = defaultdict(float)
        self.counts = defaultdict(int)
        self.spans = []
        self.stack = []
        self.top_level_s = 0.0

    def timed(self, fn, metric, after=None, hot=False):
        """``fn`` wrapped so that its duration adds to ``metric``; then
        ``after(args, kwargs, result)`` runs outside the timed span."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = tracer.stack[-1] if tracer.stack else None
            tracer.stack.append(metric)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf()
                tracer.stack.pop()
                tracer.seconds[metric] += t1 - t0
                if parent is None:
                    tracer.top_level_s += t1 - t0
                if not hot:
                    tracer.spans.append({"name": metric, "start": t0, "end": t1, "parent": parent})
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def counter(self, metric, amount=None):
        """Callback ``(args, kwargs, result)`` adding ``amount(args, kwargs,
        result)``, or 1, to the counter ``metric``."""

        def add(args, kwargs, result):
            self.counts[metric] += 1 if amount is None else int(amount(args, kwargs, result))

        return add

    def counted(self, fn, metric, amount=None):
        """``fn`` wrapped so that each call feeds ``counter(metric,
        amount)``; not timed."""
        add = self.counter(metric, amount)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            add(args, kwargs, result)
            return result

        return wrapper

    def patch(self, owner, attr, make):
        fn = getattr(owner, attr, None)
        if fn is not None:
            setattr(owner, attr, make(fn))


def install(tr: Tracer):
    """Wrap every layer boundary the CLI reaches; README.md lists the
    metric each wrapper feeds."""

    count = tr.counter

    # transport: solver calls, flows, field evaluations
    def solved(a, k, path):
        tr.counts["transport.particles_out"] += sum(m.size for m in path.measures)
        tr.counts["transport.picard_sweeps"] += int(path.diagnostics.get("sweeps", 0))

    for name in ("solve_linear", "solve_nonlinear", "solve_with_source"):
        tr.patch(cli, name, lambda f: tr.timed(f, "transport.solve_s", after=solved))

    def stepped(fn):
        # every RK4 step evaluates the velocity (the first argument) 4 times
        def wrapper(vel, *args, **kwargs):
            return fn(tr.counted(vel, "transport.velocity_calls"), *args, **kwargs)

        return tr.timed(functools.wraps(fn)(wrapper), "transport.flow_s")

    for name in ("integrate_flow", "_advect_segment"):
        tr.patch(transport, name, stepped)

    tr.patch(transport.ExplicitField, "__call__",
             lambda f: tr.timed(f, "transport.field_s", after=count("transport.field_evals"), hot=True))

    def traced_induced(induced):
        def wrapper(self, mu):
            return tr.timed(induced(self, mu), "transport.field_s",
                            after=count("transport.field_evals"), hot=True)

        return functools.wraps(induced)(wrapper)

    tr.patch(transport.InteractionField, "induced", traced_induced)

    # specfun: rule construction and density evaluations
    for name in ("h_quadrature", "g_quadrature"):
        tr.patch(transport, name,
                 lambda f: tr.timed(f, "specfun.rule_s", after=count("specfun.rule_calls")))
    for owner, name in ((specfun, "stable_density"), (specfun, "inverse_subordinator_density"),
                        (specfun, "stable_cdf"), (transport, "stable_cdf")):
        tr.patch(owner, name, lambda f: tr.counted(f, "specfun.density_evals"))

    # measures: Picard distance and output files
    def bl_done(a, k, result):
        tr.counts["measures.bl_calls"] += 1
        support = _arg(a, k, 0, "mu").size + _arg(a, k, 1, "nu").size
        tr.counts["measures.bl_support_max"] = max(tr.counts["measures.bl_support_max"], support)

    tr.patch(transport, "bl_distance", lambda f: tr.timed(f, "measures.bl_s", after=bl_done))
    csv_size = lambda a, k, r: os.path.getsize(_arg(a, k, 1, "filename"))
    tr.patch(cli, "path_to_csv",
             lambda f: tr.timed(f, "measures.csv_s", after=count("measures.csv_bytes", csv_size)))
    tr.patch(cli, "write_manifest", lambda f: tr.timed(f, "measures.manifest_s"))

    # _core: the interaction kernel, looked up on the package at call time
    def kernel_done(a, k, result):
        n, d = np.shape(result)
        m = np.shape(_arg(a, k, 1, "y"))[0]
        tr.counts["core.repulsion_calls"] += 1
        tr.counts["core.repulsion_pairs"] += n * m
        # computed from array sizes, not measured: read x, y, w, write out
        tr.counts["core.repulsion_bytes"] += 8 * (n * d + m * d + m + n * d)

    tr.patch(core, "pairwise_repulsion_sum",
             lambda f: tr.timed(f, "core.repulsion_s", after=kernel_done, hot=True))

    # subordinator: internal-clock sampling
    tr.patch(cli, "sample_inverse", lambda f: tr.timed(
        f, "subordinator.sample_s", after=count("subordinator.clocks", lambda a, k, r: np.size(r))))
    tr.patch(cli, "mc_exponential_functional", lambda f: tr.timed(
        f, "subordinator.sample_s", after=count("subordinator.clocks", lambda a, k, r: _arg(a, k, 3, "n"))))
    tr.patch(subordinator, "sample_stable_unit", lambda f: tr.counted(
        f, "subordinator.stable_draws", amount=lambda a, k, r: np.size(r)))


def main(argv) -> int:
    trace_path, cli_argv = argv[0], argv[1:]
    tr = Tracer()
    install(tr)
    t0 = perf()
    code = cli.main(cli_argv)
    main_s = perf() - t0
    counts = dict(tr.counts)
    counts["transport.flow_steps"] = counts.pop("transport.velocity_calls", 0) // 4
    payload = {
        "exit_code": code,
        "main_s": main_s,
        "top_level_s": tr.top_level_s,
        "seconds": dict(tr.seconds),
        "counts": counts,
        "spans": tr.spans,
    }
    with open(trace_path, "w") as handle:
        json.dump(payload, handle)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
