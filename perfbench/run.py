#!/usr/bin/env python3
"""hsps benchmark: one entry point for the three workloads.

Run from the root of a checkout:

    python3 perfbench/run.py --workload mc_lab --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --self-check

Untraced (``--trace 0``) it reports the end-to-end metrics of one workload:
``wall_s`` (median wall time of one pass of the workload's fixed work),
``setup_s`` (median, over several fresh processes, of the time from process
start to the first timed call) and ``peak_rss_mb`` (peak resident memory of
the workload's process).  Traced (``--trace 1``) it reports the per-layer
metrics.  Each workload runs in its own child process, one at a time.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it name each
metric with its unit, the failure fraction and the environment.  A full
record, and in traced runs every span, is written under ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
WORKLOADS = ("mc_lab", "sweep_reduce", "oracle_audit")
REQUIRED_FILES = ("src/hsps/__init__.py", "configs/demo.json")
WORKER_TIMEOUT_S = 170.0


def environment(root: Path) -> dict:
    cpu_model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model,
        "loadavg_at_start": list(os.getloadavg()),
        "python": platform.python_version(),
        "git_commit": _git_commit(root),
        "note": (f"timings come from a shared {os.cpu_count()}-core machine with "
                 "no CPU pinning and no cache control"),
    }


def _git_commit(root: Path) -> str:
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _worker_cmd(args, *extra):
    return [sys.executable, str(BENCH_DIR / "worker.py"), "--workload", args.workload,
            "--seed", str(args.seed), *extra]


def _worker_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    env.pop("HSPS_LOG", None)
    return env


def run_worker(cmd, root: Path):
    """Start one worker; returns (seconds until READY, last stdout line)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=root, env=_worker_env(root), stdout=subprocess.PIPE,
                            text=True)
    try:
        ready = proc.stdout.readline()
        setup = time.perf_counter() - t0
        out, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if ready.strip() != "READY" or proc.returncode != 0:
        raise RuntimeError(f"worker {' '.join(cmd[2:])} failed (exit {proc.returncode}):\n"
                           f"{ready}{out}")
    lines = out.strip().splitlines()
    return setup, (lines[-1] if lines else "")


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def measure(args, root: Path):
    """Run one workload; returns (result line, record)."""
    base = ["--seconds", str(args.seconds), "--trace", str(args.trace), *args.worker_args]
    setup, line = run_worker(_worker_cmd(args, *base), root)
    doc = json.loads(line)
    setups = doc["setups"] + [setup]
    specs = _metric_specs()
    if args.trace:
        missing = [name for name in specs["per_layer"] if name not in doc["layers"]]
        if missing:
            raise ValueError(f"traced run produced no value for {missing}")
        metrics = {name: {"value": doc["layers"][name], "unit": unit}
                   for name, unit in specs["per_layer"].items()}
    else:
        values = {
            "wall_s": statistics.median(doc["walls"]),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": doc["peak_rss_mb"],
        }
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in specs["end_to_end"].items()}
    result = {
        "correct": doc["failed"] == 0,
        "attempted": doc["attempted"],
        "failed": doc["failed"],
        "metrics": metrics,
    }
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "fail_frac": doc["failed"] / doc["attempted"],
        "walls": doc["walls"], "setups": setups, "problems": doc["problems"],
        "numpy": doc["numpy"],
        "layer_sources": doc.get("layer_sources"), "traced_walls": doc.get("traced_walls"),
        "result": result,
    }
    return result, record


def _metric_specs():
    with open(BENCH_DIR.parent / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return {key: {m["name"]: m["unit"] for m in spec[key]} for key in ("end_to_end", "per_layer")}


def report(result, record, env):
    for name, metric in result["metrics"].items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    if not record["trace"]:
        q1, q3 = _quartiles(record["walls"])
        print(f"  wall_s: median of {len(record['walls'])} passes, quartiles {q1:.4f} .. {q3:.4f} s")
        print(f"  setup_s: median of {len(record['setups'])} fresh processes")
    print(f"fail_frac = {record['fail_frac']:.6g} ({result['failed']}/{result['attempted']} operations)")
    for problem in record["problems"]:
        print(f"  problem: {problem}")
    print("env: " + json.dumps({**env, "numpy": record["numpy"]}, sort_keys=True))


def self_check(root: Path) -> int:
    """Tiny-size run of every workload in both modes: every named metric is
    present with its unit, outputs pass their checks, and a deliberately
    corrupted output counts as a failure."""
    specs = _metric_specs()
    problems = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            args = argparse.Namespace(workload=workload, seed=12345, seconds=0.0, trace=trace,
                                      worker_args=["--scale", "0.01"])
            result, _ = measure(args, root)
            wanted = specs["per_layer" if trace else "end_to_end"]
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if got != wanted:
                problems.append(f"{workload} trace={trace}: metrics {got} != {wanted}")
            if not result["correct"] or result["failed"]:
                problems.append(f"{workload} trace={trace}: clean run failed: {result}")
        args = argparse.Namespace(workload=workload, seed=12345, seconds=0.0, trace=0,
                                  worker_args=["--scale", "0.01", "--corrupt"])
        result, record = measure(args, root)
        if result["failed"] == 0 or result["correct"]:
            problems.append(f"{workload}: corrupted output was not counted as a failure")
        print(f"self-check {workload}: clean runs ok, corrupted run failed "
              f"{result['failed']}/{result['attempted']} ({record['problems'][:1]})")
    for problem in problems:
        print(f"self-check FAILED: {problem}", file=sys.stderr)
    print("self-check " + ("FAILED" if problems else "passed"))
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true",
                        help="tiny run of every workload, checking metrics and failure counting")
    args = parser.parse_args(argv)
    root = Path.cwd()
    missing = [p for p in REQUIRED_FILES if not (root / p).is_file()]
    if missing:
        print(f"perfbench: run from the root of an hsps checkout; missing {missing}",
              file=sys.stderr)
        return 2
    if args.self_check:
        return self_check(root)
    if args.workload is None:
        parser.error("--workload is required")
    args.worker_args = []
    env = environment(root)
    try:
        result, record = measure(args, root)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    record["env"] = env
    out = root / ".perfbench_out"
    out.mkdir(exist_ok=True)
    path = out / f"result-{args.workload}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    report(result, record, env)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
