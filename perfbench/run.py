"""certlab benchmark: one workload per call, end to end or traced.

    python3 perfbench/run.py --workload decide --seed 0 --seconds 15 --trace 0

Workloads: decide, tradeoff, certify, decode (see README.md).  Each run
starts the workload in fresh interpreters, one at a time, each a single
process with one thread:

  --trace 0  one interpreter times the tasks and reports memory; it and
             SETUP_RUNS more report set-up time, whose median is setup_s.
             Prints tasks_per_s, task_p50_ms, task_tail_ms, setup_s and
             peak_rss_mib.  Times are scaled to the reference pace of
             pace.py: a task's by the probes run around it, set-up time
             by the median of the probes run around the set-ups.  The raw
             times are printed above the result line.
  --trace 1  one interpreter runs one round plain, a second runs the same
             round with every layer entry point wrapped in spans, and the
             per-layer metrics come from the second.  The spans are written
             to perfbench/out/trace-<workload>-seed<seed>.json.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  The exit code is 0 when the outputs are
correct, 1 when a check failed, and 2 when the benchmark could not run.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from pace import PROBES, SETUP_PROBES, WORKLOAD_KINDS, probe

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("decide", "tradeoff", "certify", "decode")
SETUP_RUNS = 2
DEADLINE_S = 170.0

END_TO_END = [
    ("tasks_per_s", "1/s"),
    ("task_p50_ms", "ms"),
    ("task_tail_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
]


class BenchError(Exception):
    pass


def tail_percentile(n: int) -> int:
    """Highest whole percentile with at least ten tasks beyond it (by
    nearest rank); 50 when there are too few tasks for a tail."""
    for q in range(99, 50, -1):
        if n - math.ceil(q * n / 100) >= 10:
            return q
    return 50


def nearest_rank(sorted_values: list[float], q: int) -> float:
    return sorted_values[max(0, math.ceil(q * len(sorted_values) / 100) - 1)]


def spawn(args, mode: str, deadline: float) -> dict:
    """Run worker.py once in a fresh interpreter; return its JSON report."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("out of time before all interpreters ran")
    before = [probe(WORKLOAD_KINDS[args.workload][1]) for _ in range(SETUP_PROBES)]
    t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--mode", mode, "--t0", repr(t0),
    ]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True, timeout=remaining)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} interpreter did not finish in time") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{mode} interpreter exited {proc.returncode}")
    report = json.loads(lines[-1])
    report["setup_probe_s"] += before
    return report


def end_to_end(args, deadline: float):
    main = spawn(args, "measure", deadline)
    setup_runs = [spawn(args, "setup", deadline) for _ in range(SETUP_RUNS)]
    reports = [main] + setup_runs
    task_s = sorted(main["task_s"])
    if not task_s:
        raise BenchError("no task completed")
    q = tail_percentile(len(task_s))
    raw_setups = [r["setup_raw_s"] for r in reports]
    setup_kind = WORKLOAD_KINDS[args.workload][1]
    setup_pace_s = statistics.median(t for r in reports for t in r["setup_probe_s"])
    setup_factor = PROBES[setup_kind][1] / setup_pace_s
    values = {
        "tasks_per_s": len(task_s) / sum(task_s),
        "task_p50_ms": statistics.median(task_s) * 1e3,
        "task_tail_ms": nearest_rank(task_s, q) * 1e3,
        "setup_s": statistics.median(raw_setups) * setup_factor,
        "peak_rss_mib": main["peak_rss_mib"],
    }
    raw_s = main["raw_task_s"]
    print(f"{args.workload}: {len(task_s)} tasks, tail = p{q} "
          f"({len(task_s) - math.ceil(q * len(task_s) / 100)} tasks beyond it); "
          f"pace {main['pace']:.3f} of the reference in the tasks, {setup_factor:.3f} in the set-ups")
    print(f"  raw: {len(raw_s) / sum(raw_s):.4g} tasks/s, median task {statistics.median(raw_s) * 1e3:.4g} ms, "
          f"set-up {', '.join(f'{s:.3f}' for s in raw_setups)} s")
    return reports, main["attempted"], main["failed"], [(n, u, values[n]) for n, u in END_TO_END]


def traced(args, deadline: float):
    from spans import LAYER_METRICS

    plain = spawn(args, "round", deadline)
    wrapped = spawn(args, "trace", deadline)
    layers = dict(wrapped["layers"])
    layers["trace.overhead_s"] = sum(wrapped["task_s"]) - sum(plain["task_s"])
    attempted = plain["attempted"] + wrapped["attempted"]
    failed = plain["failed"] + wrapped["failed"]
    return [plain, wrapped], attempted, failed, [(n, u, layers[n]) for n, u in LAYER_METRICS]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    deadline = time.monotonic() + DEADLINE_S
    try:
        reports, attempted, failed, metrics = (traced if args.trace else end_to_end)(args, deadline)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    errors = [e for r in reports for e in r["errors"]]
    for e in errors:
        print(f"check failed: {e}", file=sys.stderr)
    for name, unit, value in metrics:
        print(f"  {name} = {value} {unit}")
    result = {
        "correct": all(r["correct"] for r in reports),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, unit, value in metrics},
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
