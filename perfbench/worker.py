"""Runs one workload in this fresh interpreter and prints one JSON line.

run.py starts it; it is not meant to be run by hand.  Modes:

  measure  set up, run the workload's untimed warm-up rounds, then time
           every task of its rounds
  setup    set up only, up to where the first timed task would start
  round    like measure, for one round
  trace    like round, with every layer entry point wrapped in spans

Set-up is everything from the start of this process to the first timed
task: interpreter start, importing certlab, making the inputs of the first
round, and one untimed warm-up task that pays certlab's lazy set-up (the
variable masks behind satisfying_mask, code construction in get_code).

Task times are reported twice: raw, and scaled to the reference pace of
`pace.py` by the probes of the workload's task kind run around each
task.  A probe runs before the first task and one per PROBE_EVERY_S
of task time after the tasks, outside the task timers, so that a long task
is followed by many.  Set-up time is reported raw, with SETUP_PROBES
probes of the workload's set-up kind run just after it; run.py scales it
by these and the probes it ran just before the process started.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

from pace import PROBES, SETUP_PROBES, WORKLOAD_KINDS, Pace, probe

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
PROBE_EVERY_S = 0.025


def load_certlab() -> None:
    """Import certlab from the source tree beside the benchmark, never from
    an installed copy."""
    package = SRC / "certlab"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"perfbench: certlab source not found at {package}")
    sys.path.insert(0, str(SRC))
    import certlab

    if Path(certlab.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"perfbench: imported certlab from {certlab.__file__}, not {package}")


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("measure", "setup", "round", "trace"), required=True)
    parser.add_argument("--t0", type=float, required=True, help="CLOCK_MONOTONIC at process start")
    args = parser.parse_args()

    load_certlab()
    OUT.mkdir(exist_ok=True)
    tracer = None
    options = {}
    if args.mode == "trace":
        from spans import LEARNER_SPAN, Tracer

        tracer = Tracer()
        tracer.install()
        if args.workload == "decide":
            options["learner_wrap"] = lambda fn: tracer.wrap(fn, LEARNER_SPAN)
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed, OUT, **options)
    rounds = workload.rounds(args.seconds) if args.mode == "measure" else 1
    inputs = workload.round_inputs(0)
    warm = workload.warmup_input()
    errors = []
    problem = workload.check(warm, workload.collect(warm, workload.run(warm)))
    if problem:
        errors.append(f"warm-up: {problem}")
    setup_raw_s = time.clock_gettime(time.CLOCK_MONOTONIC) - args.t0
    kind, setup_kind = WORKLOAD_KINDS[args.workload]
    setup_probe_s = [probe(setup_kind) for _ in range(SETUP_PROBES)]
    if args.mode == "setup":
        workload.close()
        print(json.dumps({
            "setup_raw_s": setup_raw_s, "setup_probe_s": setup_probe_s, "correct": not errors, "errors": errors,
        }))
        return 0

    # a first round pays the growth of a fresh heap, which shows as 20%
    # dearer tasks in certify's first round
    first = workload.warmup_rounds if args.mode == "measure" else 0
    for r in range(first):
        for inp in inputs:
            problem = workload.check(inp, workload.collect(inp, workload.run(inp)))
            if problem:
                errors.append(f"warm-up: {problem}")
        inputs = workload.round_inputs(r + 1)

    since_ns = tracer.mark_timed() if tracer else 0
    spans: list[tuple[float, float]] = []
    attempted = failed = 0
    clock = time.perf_counter
    pace = Pace(kind)
    pace.sample()
    unprobed = 0.0
    for r in range(first, first + rounds):
        if r > first:
            inputs = workload.round_inputs(r)
        outputs = []
        for inp in inputs:
            attempted += 1
            t = clock()
            try:
                result = workload.run(inp)
            except Exception:  # a failing task is counted, and the run goes on
                failed += 1
                traceback.print_exc(file=sys.stderr)
                continue
            end = clock()
            spans.append((t, end))
            unprobed += end - t
            while unprobed >= PROBE_EVERY_S:
                pace.sample()
                unprobed -= PROBE_EVERY_S
            outputs.append((inp, workload.collect(inp, result)))
        for inp, out in outputs:
            problem = workload.check(inp, out)
            if problem:
                errors.append(problem)
    pace.sample()
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    raw_task_s = [end - start for start, end in spans]
    task_s = [(end - start) * pace.factor(start, end) for start, end in spans]
    errors.extend(workload.final_check())
    workload.close()

    report = {
        "setup_raw_s": setup_raw_s,
        "setup_probe_s": setup_probe_s,
        "pace": PROBES[kind][1] / statistics.median(pace.probe_s),
        "task_s": task_s,
        "raw_task_s": raw_task_s,
        "attempted": attempted,
        "failed": failed,
        "peak_rss_mib": peak_rss_mib,
        "correct": not errors,
        "errors": errors[:20],
    }
    if tracer is not None:
        from spans import layer_metrics

        report["layers"] = layer_metrics(tracer, since_ns)
        tracer.write(
            OUT / f"trace-{args.workload}-seed{args.seed}.json",
            {"workload": args.workload, "seed": args.seed, "timed_from_ns": since_ns},
        )
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
