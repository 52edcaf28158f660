#!/usr/bin/env python3
"""Run every workload at one seed and print every metric by name, with
its unit, its workload and its sample count.

    python3 perfbench/run_all.py --seed 0 --seconds 30

Run from the root of a checkout.  The untimed part interleaves the
workloads (one setup import and one CLI run of each, in a rotating order,
round after round, for ``--seconds`` per workload in total) so that drift
on the host lands on all of them; a traced measurement of each workload
follows.  Exits 1 if any run failed its answer check.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import time

import run
import workloads


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0, help="measuring time per workload")
    args = parser.parse_args(argv)
    if not run.in_checkout():
        return 2
    run.stop_on_sigterm()

    label = f"all-seed{args.seed}-{os.getpid()}"
    child = run.Child(os.path.join(run.OUT_ROOT, label))
    try:
        env = child.environment()
        wls = [run.Workload(name, args.seed, child) for name in workloads.WORKLOADS]
        samples = {wl.name: {} for wl in wls}
        deadline = time.perf_counter() + args.seconds * len(wls)
        rounds = 0
        while time.perf_counter() < deadline:
            k = rounds % len(wls)
            for wl in wls[k:] + wls[:k]:
                run.end_to_end_rep(wl, samples[wl.name])
            rounds += 1
        records = []
        for wl in wls:
            e2e = run.end_to_end_metrics(wl, samples[wl.name])
            layers, layer_samples = run.measure_layers(wl, time.perf_counter() + args.seconds)
            records.append(run.record(wl, env, {**e2e, **layers}, {**samples[wl.name], **layer_samples},
                                      {**run.END_TO_END, **run.PER_LAYER}))
    finally:
        shutil.rmtree(child.root, ignore_errors=True)
    run.save({"environment": env, "records": records}, label)

    print(f"{'workload':<20} {'metric':<30} {'median':>16} {'unit':<15} samples")
    for rec in records:
        for line in run.metric_lines(rec):
            print(line)
    for err in (err for rec in records for err in rec["errors"]):
        print(f"FAILED: {err}")
    failed = sum(r["failed"] for r in records)
    print(json.dumps({"environment": env, "seed": args.seed,
                      "attempted": sum(r["attempted"] for r in records), "failed": failed}))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
