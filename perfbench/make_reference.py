#!/usr/bin/env python3
"""Regenerate the stored nonlinear-repulsion reference (seed 0).

    python3 perfbench/make_reference.py

Run from the root of a checkout.  Only regenerate at a commit whose answers
are trusted: the benchmark compares every nonlinear run against this file.
"""

import json
import os
import sys

import run
import workloads


def main() -> int:
    child = run.Child(os.path.join(run.OUT_ROOT, "reference"))
    wl = run.Workload("nonlinear-repulsion", 0, child)
    out = os.path.join(wl.dir, "out")
    _, _, code, log = child.spawn(["-m", "fractrans.cli", *wl.cli_args(out)])
    if code != 0:
        print(f"nonlinear run failed, see {log}", file=sys.stderr)
        return 1
    with open(os.path.join(out, "manifest.json")) as handle:
        manifest = json.load(handle)
    reference = {
        "seed": 0,
        "commit": run.git_commit(),
        "config": wl.config,
        "outputs": manifest["outputs"],
        "sweeps": manifest["diagnostics"]["sweeps"],
    }
    with open(workloads.REFERENCE, "w") as handle:
        json.dump(reference, handle, indent=1)
        handle.write("\n")
    print(f"wrote {workloads.REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
