"""One benchmark process: set up one workload, then time and check passes.

Started by run.py from the root of a checkout, with ``src`` on the import
path.  It prints ``READY`` once set-up is done (the parent times set-up up
to that line) and, as its last line, one JSON object with the pass times,
operation counts, problems, peak RSS and, when traced, the per-layer
numbers.

Untraced, the workload's passes run back to back for ``--seconds``.  Traced,
every other workload first runs one traced pass, so that each per-layer
metric has a value; then, for the rest of ``--seconds``, the requested
workload alternates untraced and traced passes (their difference is the
tracing overhead).  Between untraced passes the worker times a few fresh
set-up-only processes, so set-up samples spread over the whole run.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import resource
import statistics
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np

import hsps
from hsps.config import ConfigWarning

import layers
from workloads import WORKLOADS


SETUP_PROBES = 24      # fresh set-up-only processes timed between untraced passes
PROBES_PER_PASS = 3    # so the samples spread over the run
MIN_PASSES = 3         # fewest untraced passes of an untraced run


def setup_probe(args) -> float:
    """Seconds from starting a fresh worker until it reports set-up done."""
    cmd = [sys.executable, __file__, "--workload", args.workload, "--seed", str(args.seed),
           "--scale", str(args.scale), "--setup-only"]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        ready = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
    if ready.strip() != "READY" or proc.returncode != 0:
        raise RuntimeError(f"set-up probe exited {proc.returncode}")
    return elapsed


class Runner:
    def __init__(self, root: Path, seed: int, scale: float, corrupt: bool, tracer=None):
        self.root = root
        self.seed = seed
        self.scale = scale
        self.corrupt = corrupt
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.pass_counters: dict[int, dict] = {}
        self._next_pass = 1

    @contextlib.contextmanager
    def _tracing(self, label: str, traced: bool):
        """Yield the pass id, with the layer wrappers installed for the
        duration, when traced; otherwise yield None."""
        if not traced or self.tracer is None:
            yield None
            return
        pass_id = self._next_pass
        self._next_pass += 1
        self.tracer.begin_pass(pass_id, label)
        self.tracer.install()
        try:
            yield pass_id
        finally:
            self.tracer.uninstall()

    def setup(self, name: str):
        out = self.root / ".perfbench_out" / name
        out.mkdir(parents=True, exist_ok=True)
        with self._tracing(f"{name}:setup", traced=True):
            return WORKLOADS[name](self.root, out, self.seed, self.scale)

    def run_pass(self, workload, traced: bool) -> float:
        """Run and check one pass; returns its wall time in seconds."""
        results = {}
        with self._tracing(f"{workload.name}:pass", traced) as pass_id:
            ops = workload.ops(self.tracer if pass_id is not None else None)
            t0 = time.perf_counter()
            for name, op in ops:
                try:
                    results[name] = op()
                except Exception as exc:         # a failed operation, not a crash
                    results[name] = exc
            wall = time.perf_counter() - t0
        if self._check(workload, results) and pass_id is not None:
            self.pass_counters[pass_id] = workload.counters(results)
        return wall

    def _check(self, workload, results) -> bool:
        """Count the pass's operations and failures; True if none failed."""
        if self.corrupt:
            workload.corrupt(results)
        failed = {name for name, value in results.items() if isinstance(value, Exception)}
        for name in failed:
            self.problems.append(f"{workload.name}/{name}: raised {results[name]!r}")
        try:
            problems = workload.check(results)
        except Exception as exc:                 # unreadable output fails every op
            problems = {name: [f"check raised {exc!r}"] for name in results}
        names = set(results) | set(problems)
        for name in sorted(names):
            if problems.get(name):
                failed.add(name)
                self.problems += [f"{workload.name}/{name}: {p}" for p in problems[name]]
        self.attempted += len(names)
        self.failed += len(failed)
        return not failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="exit right after set-up (a set-up time sample)")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="work per pass relative to the full size (self-check)")
    parser.add_argument("--corrupt", action="store_true",
                        help="damage one output per pass before checking (self-check)")
    args = parser.parse_args(argv)
    root = Path.cwd()
    src = (root / "src" / "hsps").resolve()
    if Path(hsps.__file__).resolve().parent != src:
        print(f"worker: imported hsps from {hsps.__file__}, not {src}", file=sys.stderr)
        return 2
    warnings.simplefilter("ignore", ConfigWarning)

    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
    runner = Runner(root, args.seed, args.scale, args.corrupt, tracer)
    workload = runner.setup(args.workload)
    print("READY", flush=True)
    if args.setup_only:
        return 0

    walls, traced_walls = [], []
    started = time.perf_counter()
    if tracer is not None:
        for other in WORKLOADS:
            if other != args.workload:
                runner.run_pass(runner.setup(other), traced=True)
    min_passes = 1 if tracer is not None else MIN_PASSES
    setups = []
    while time.perf_counter() - started < args.seconds or len(walls) < min_passes:
        walls.append(runner.run_pass(workload, traced=False))
        if tracer is not None:
            traced_walls.append(runner.run_pass(workload, traced=True))
        else:
            for _ in range(min(PROBES_PER_PASS, SETUP_PROBES - len(setups))):
                setups.append(setup_probe(args))

    doc = {
        "workload": args.workload,
        "walls": walls,
        "setups": setups,
        "numpy": np.__version__,
    }
    if tracer is not None:
        doc["layers"], doc["layer_sources"] = layers.per_layer_metrics(
            tracer, runner.pass_counters, args.workload)
        doc["layers"]["trace.overhead_s"] = (statistics.median(traced_walls)
                                             - statistics.median(walls))
        doc["traced_walls"] = traced_walls
        tracer.save(root / ".perfbench_out" / f"trace-{args.workload}.npz")
    doc.update(
        attempted=runner.attempted,
        failed=runner.failed,
        problems=runner.problems[:20],
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    )
    print(json.dumps(doc), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
