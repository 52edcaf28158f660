#!/usr/bin/env python3
"""fractrans benchmark: run one workload through the CLI, as a user does.

    python3 perfbench/run.py --workload linear-2d --seed 0 --seconds 30 --trace 0

Run from the root of a source checkout (the package is imported from
``src/``).  With ``--trace 0`` each repetition spawns
``python -m fractrans.cli <cmd> ...`` as a fresh child and times it from
spawn to exit (``wall_s``), reads its peak RSS from ``os.wait4``
(``peak_rss_mb``), and times a fresh interpreter that only imports
``fractrans.cli`` (``setup_s``); both times are scaled by a fixed
calibration program timed next to them (``calibrate.py``), which takes
out host drift.  With ``--trace 1`` the child is
``perfbench/tracer.py`` instead, which wraps every layer and reports the
per-layer metrics; it alternates with untraced runs to give the tracing
overhead.  Every run's outputs pass an answer check (``workloads.py``) or
the run counts as failed.  Children get one BLAS/OpenMP thread each.

The last line of standard output is the result as JSON; the lines before
it name each metric with its unit and sample count, and a record with the
environment, the deviations from the closed forms and every sample.  The
same record is written under ``.perfbench_out/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_ROOT = ".perfbench_out"
THREAD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
}
#: a child still running after this long is killed and counted as failed
#: (the slowest repetition seen on a 2-vCPU Xeon VM took about 12 s)
CHILD_TIMEOUT_S = 60.0
#: fresh-interpreter imports (and calibration runs) per run, at least
MIN_SETUP_SAMPLES = 5
#: calibrate.py's time on a 2-vCPU Xeon VM when its host is quiet (python
#: 3.11.7, numpy 2.4.6, scipy 1.17.1); wall_s and setup_s are scaled by
#: CALIBRATION_REF_S / (median calibration time of the run)
CALIBRATION_REF_S = 0.6
#: traced runs per run, at least, so that the counters can be compared
MIN_TRACED_RUNS = 2

#: metric name -> unit, as defined in BENCHMARK.json; per-layer names
#: ending in _s are times (median over the traced runs), the others are
#: work counters (which must repeat exactly) and one ratio
with open(os.path.join(HERE, os.pardir, "BENCHMARK.json")) as _handle:
    _SPEC = json.load(_handle)
END_TO_END = {m["name"]: m["unit"] for m in _SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in _SPEC["per_layer"]}
#: per-layer metrics computed by this file, not read from the tracer
DERIVED = {"cli.import_s", "cli.import_scipy_s", "cli.self_s",
           "subordinator.draws_per_clock", "trace.wall_s", "trace.overhead_s"}


class Child:
    """Environment and output directory shared by the children of a run."""

    def __init__(self, root: str):
        self.root = root
        self.tmp = os.path.join(root, "tmp")
        os.makedirs(self.tmp, exist_ok=True)
        self.env = dict(os.environ, PYTHONPATH=os.path.abspath("src"), TMPDIR=self.tmp, **THREAD_ENV)
        self.env.pop("FRACTRANS_FORCE_FALLBACK", None)
        self.serial = 0

    def spawn(self, args: list) -> tuple[float, float, int, str]:
        """Run ``python <args>``; return (spawn-to-exit seconds, peak RSS
        in MiB, exit code, path of the captured output)."""
        self.serial += 1
        log = os.path.join(self.root, f"child-{self.serial}.log")
        with open(log, "wb") as handle:
            t0 = time.perf_counter()
            proc = subprocess.Popen([sys.executable, *args], env=self.env, stdout=handle,
                                    stderr=subprocess.STDOUT, stdin=subprocess.DEVNULL)
            killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:  # e.g. SIGTERM: leave no child behind
                proc.kill()
                proc.wait()
                raise
            finally:
                killer.cancel()
            elapsed = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        return elapsed, usage.ru_maxrss / 1024.0, proc.returncode, log

    def _must_succeed(self, args: list) -> tuple[float, str]:
        """Spawn a child that cannot fail unless the setup is broken."""
        elapsed, _, code, log = self.spawn(args)
        with open(log, errors="replace") as handle:
            text = handle.read()
        if code != 0:
            raise RuntimeError(f"python {' '.join(args)} exited {code}:\n{text[-2000:]}")
        return elapsed, text

    def calibration_time(self) -> float:
        return self._must_succeed([os.path.join(HERE, "calibrate.py")])[0]

    def import_time(self) -> float:
        return self._must_succeed(["-c", "import fractrans.cli"])[0]

    def environment(self) -> dict:
        probe = (
            "import json, os, sys, numpy, scipy, fractrans.cli, fractrans._core as c;"
            "print(json.dumps({'python': sys.version.split()[0], 'numpy': numpy.__version__,"
            " 'scipy': scipy.__version__, 'backend': c.BACKEND,"
            " 'cpus_usable': len(os.sched_getaffinity(0)),"
            f" 'threads': {{k: os.environ.get(k) for k in {sorted(THREAD_ENV)!r}}}}}))"
        )
        info = json.loads(self._must_succeed(["-c", probe])[1].strip().splitlines()[-1])
        info.update(nproc=os.cpu_count(), machine=platform.machine(), commit=git_commit())
        return info

    def scipy_import_share(self) -> float:
        """Seconds of ``import fractrans.cli`` spent in scipy modules' own
        code, from ``-X importtime`` (which reports microseconds)."""
        text = self._must_succeed(["-X", "importtime", "-c", "import fractrans.cli"])[1]
        total_us = 0
        for line in text.splitlines():
            m = re.match(r"import time:\s*(\d+)\s*\|\s*\d+\s*\|\s*(\S+)", line.strip())
            if m and m.group(2).split(".")[0] == "scipy":
                total_us += int(m.group(1))
        return total_us / 1e6


def git_commit() -> str:
    """Commit of the checkout, or 'unknown' where there is no .git here
    (the lookup is confined to this directory)."""
    if not os.path.isdir(".git"):
        return "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                             env=dict(os.environ, GIT_DIR=".git"), timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


class Workload:
    """One workload at one seed: runs its CLI call untraced or traced and
    checks every run's answer."""

    def __init__(self, name: str, seed: int, child: Child):
        build, self.check = workloads.WORKLOADS[name]
        self.name, self.seed, self.child = name, seed, child
        self.command, self.config = build(seed)
        self.dir = os.path.join(child.root, name)
        os.makedirs(self.dir, exist_ok=True)
        self.config_path = os.path.join(self.dir, "config.json")
        with open(self.config_path, "w") as handle:
            json.dump(self.config, handle)
        self.attempted = self.failed = 0
        self.deviations = []
        self.errors = []

    def cli_args(self, out: str) -> list:
        return [self.command, "--config", self.config_path, "--out", out, "--seed", str(self.seed)]

    def _finish(self, code: int, log: str, out: str) -> bool:
        """Answer check of one finished run; removes its outputs."""
        self.attempted += 1
        ok, message = code == 0, ""
        if ok:
            try:
                ok, dev, message = self.check(out, self.config)
                self.deviations.append(dev)
            except (OSError, ValueError, KeyError, IndexError) as exc:
                ok, message = False, f"unreadable output: {exc!r}"
        else:
            with open(log, errors="replace") as handle:
                message = f"exit code {code}: {handle.read()[-2000:]}"
        if not ok:
            self.failed += 1
            self.errors.append(message)
        shutil.rmtree(out, ignore_errors=True)
        return ok

    def run_untraced(self) -> tuple[float, float]:
        out = os.path.join(self.dir, "out")
        wall, rss, code, log = self.child.spawn(["-m", "fractrans.cli", *self.cli_args(out)])
        self._finish(code, log, out)
        return wall, rss

    def run_traced(self) -> tuple[float, dict]:
        out = os.path.join(self.dir, "out")
        trace_path = os.path.join(self.dir, "trace.json")
        tracer = os.path.join(HERE, "tracer.py")
        wall, _, code, log = self.child.spawn([tracer, trace_path, *self.cli_args(out)])
        trace = {}
        if self._finish(code, log, out):
            with open(trace_path) as handle:
                trace = json.load(handle)
        return wall, trace


def median(values):
    return statistics.median(values) if values else 0.0


def end_to_end_rep(wl: Workload, samples: dict):
    """One calibration run, one setup import and one CLI run, appended to
    ``samples`` (raw seconds)."""
    samples.setdefault("calibration_s", []).append(wl.child.calibration_time())
    samples.setdefault("raw_setup_s", []).append(wl.child.import_time())
    wall, rss = wl.run_untraced()
    samples.setdefault("raw_wall_s", []).append(wall)
    samples.setdefault("peak_rss_mb", []).append(rss)


def end_to_end_metrics(wl: Workload, samples: dict) -> dict:
    """Medians; the two times are scaled to the host speed at which
    calibrate.py takes CALIBRATION_REF_S (README.md, "Host drift")."""
    while len(samples["raw_setup_s"]) < MIN_SETUP_SAMPLES:
        samples["calibration_s"].append(wl.child.calibration_time())
        samples["raw_setup_s"].append(wl.child.import_time())
    scale = CALIBRATION_REF_S / median(samples["calibration_s"])
    samples["wall_s"] = [t * scale for t in samples["raw_wall_s"]]
    samples["setup_s"] = [t * scale for t in samples["raw_setup_s"]]
    return {k: median(samples[k]) for k in END_TO_END}


def measure_end_to_end(wl: Workload, deadline: float) -> tuple[dict, dict]:
    """Alternate setup imports and CLI runs until the deadline (a run is
    not started when the typical one would overrun it)."""
    samples = {}
    rep_s = []
    while True:
        t0 = time.perf_counter()
        end_to_end_rep(wl, samples)
        rep_s.append(time.perf_counter() - t0)
        if time.perf_counter() + median(rep_s) > deadline:
            break
    return end_to_end_metrics(wl, samples), samples


def measure_layers(wl: Workload, deadline: float) -> tuple[dict, dict]:
    """Traced runs, each followed by an untraced one for the tracing
    overhead.  Times are medians over the traced runs; every work counter
    must repeat exactly across them, or the run counts as failed."""
    samples = {"cli.import_s": [wl.child.import_time() for _ in range(3)],
               "cli.import_scipy_s": [wl.child.scipy_import_share()],
               "trace.wall_s": [], "trace.overhead_s": []}
    traces = []
    rep_s = []
    while True:
        t0 = time.perf_counter()
        wall, trace = wl.run_traced()
        untraced, _ = wl.run_untraced()
        if trace:
            traces.append(trace)
            samples["trace.wall_s"].append(wall)
            samples["trace.overhead_s"].append(wall - untraced)
        rep_s.append(time.perf_counter() - t0)
        # at least MIN_TRACED_RUNS traces, unless the host is so slow that
        # waiting for them would risk the run's time limit
        now = time.perf_counter()
        if now > deadline + 30.0 or (len(traces) >= MIN_TRACED_RUNS and now + median(rep_s) > deadline):
            break

    metrics = {}
    counters = [k for k in PER_LAYER if k not in DERIVED and not k.endswith("_s")]
    for key in PER_LAYER:
        if key in DERIVED:
            continue
        if key in counters:
            samples[key] = [t["counts"].get(key, 0) for t in traces]
            metrics[key] = samples[key][0] if traces else 0
        else:
            samples[key] = [t["seconds"].get(key, 0.0) for t in traces]
    for k in range(1, len(traces)):
        moved = [key for key in counters if samples[key][k] != samples[key][0]]
        if moved:
            wl.failed += 1
            wl.errors.append(f"work counters of traced run {k + 1} differ from run 1: "
                             + ", ".join(f"{key} {samples[key]}" for key in moved))
    samples["cli.self_s"] = [t["main_s"] - t["top_level_s"] for t in traces]
    samples["subordinator.draws_per_clock"] = [
        t["counts"].get("subordinator.stable_draws", 0) / t["counts"]["subordinator.clocks"]
        if t["counts"].get("subordinator.clocks") else 0.0
        for t in traces
    ]
    for key, values in samples.items():
        metrics.setdefault(key, median(values))
    return metrics, samples


def record(wl: Workload, env: dict, metrics: dict, samples: dict, units: dict) -> dict:
    """Everything known about one workload's measurement."""
    return {
        "workload": wl.name,
        "seed": wl.seed,
        "environment": env,
        "config": wl.config,
        "attempted": wl.attempted,
        "failed": wl.failed,
        "errors": wl.errors,
        "deviations": wl.deviations,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
        "samples": {k: len(v) for k, v in samples.items()},
        "raw": samples,
    }


def save(rec: dict, name: str):
    results = os.path.join(OUT_ROOT, "results")
    os.makedirs(results, exist_ok=True)
    with open(os.path.join(results, name + ".json"), "w") as handle:
        json.dump(rec, handle, indent=1)


def stop_on_sigterm():
    """Turn SIGTERM into SystemExit, so that a stopped benchmark kills its
    running child and removes its scratch directory."""
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))


def in_checkout() -> bool:
    """The benchmark runs the package from ``src/`` of the current directory."""
    if os.path.isfile(os.path.join("src", "fractrans", "cli.py")):
        return True
    print("error: run from the root of a fractrans checkout (src/fractrans missing)", file=sys.stderr)
    return False


def metric_lines(record: dict) -> list:
    n = record["samples"]
    return [
        f"{record['workload']:<20} {key:<30} {m['value']:>16.6g} {m['unit']:<15} n={n[key]}"
        for key, m in record["metrics"].items()
    ]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not in_checkout():
        return 2
    stop_on_sigterm()

    deadline = time.perf_counter() + args.seconds
    label = f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    child = Child(os.path.join(OUT_ROOT, label))
    try:
        env = child.environment()  # also the untimed warm-up import
        wl = Workload(args.workload, args.seed, child)
        if args.trace:
            rec = record(wl, env, *measure_layers(wl, deadline), PER_LAYER)
        else:
            rec = record(wl, env, *measure_end_to_end(wl, deadline), END_TO_END)
    finally:
        shutil.rmtree(child.root, ignore_errors=True)
    save(rec, label)

    for line in metric_lines(rec):
        print(line)
    for err in rec["errors"]:
        print(f"FAILED: {err}")
    print(json.dumps({k: rec[k] for k in ("environment", "seed", "deviations", "samples")}))
    print(json.dumps({
        "correct": rec["failed"] == 0,
        "attempted": rec["attempted"],
        "failed": rec["failed"],
        "metrics": rec["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
