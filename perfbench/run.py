#!/usr/bin/env python3
"""dimw benchmark: seeded workloads, end-to-end times, a traced run per module.

Run from the root of a checkout:

    python3 perfbench/run.py --workload pipeline --seed 1 --seconds 25 --trace 0

The last line of stdout is one JSON object with `correct`, `attempted`,
`failed` and `metrics`; the line before it records the input properties
(and, with `--trace 0`, the times before calibration).  `--trace 0`
reports the end-to-end metrics, calibrated for the machine's speed (see
calibrate.py), `--trace 1` the per-layer ones from a run whose rounds
alternate between untraced and traced.  The
program is imported from the checkout's `src`; without it the benchmark
exits with code 2 and prints no result.
"""

import os

# One thread: the workloads are single-thread callers, and numpy must see
# this before it is imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import layers  # noqa: E402
import workloads  # noqa: E402
from calibrate import Calibrator  # noqa: E402
from tracer import Tracer  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SETUPS = 5          # set-up repetitions per untraced run; setup_s is their median
MAX_REPORTED = 5    # failure reasons echoed to stderr per run

END_TO_END = [("setup_s", "s"), ("wall_s", "s"), ("op_p50_ms", "ms"),
              ("op_p99_ms", "ms"), ("peak_rss_mb", "MB")]


class Tally:
    def __init__(self):
        self.op_spans = []      # per round, each op's (start, end, paused) in order;
                                # paused: seconds calibration points took in it
        self.attempted = 0
        self.failed = 0

    def op_times(self, cal=None):
        return [[span_time(span, cal) for span in spans] for spans in self.op_spans]


def span_time(span, cal=None):
    """The time of an op or a set-up, (start, end, paused), less the time
    calibration points took in it, divided by the machine's slowdown while
    it ran when a calibrator is given."""
    start, end, paused = span
    return (end - start - paused) / (cal.slowdown(start, end) if cal else 1.0)


def percentile(values, q):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def timings(tally, cal=None):
    """Round time (the sum of its ops' times) and each op's latency, both as
    medians over the run's rounds.  Every round runs the same ops in the same
    order, so an op's median over rounds is its latency in this run."""
    rounds = tally.op_times(cal)
    wall = statistics.median(sum(times) for times in rounds)
    latencies = [statistics.median(times) for times in zip(*rounds)]
    return wall, latencies


def run_rounds(prep, seconds, tally, tracer=None, traced=None, per_round=None, cal=None):
    """Repeat the workload's round until `seconds` have passed (at least one
    round).  Ops are timed one by one; outputs are checked after each round,
    outside the timed ops.  With a running calibrator, the time its points
    take during an op is recorded with the op, to be taken off.

    With a tracer, rounds alternate between untraced (into `tally`) and
    traced (into `traced`, with one dict of per-layer metrics per round in
    `per_round`), so that both halves see the same drift in machine speed.
    """
    deadline = time.perf_counter() + seconds
    n = 0
    while True:
        tracing = tracer is not None and n % 2 == 1
        into = traced if tracing else tally
        results, spans = [], []
        if tracing:
            tracer.install()
            tracer.reset_counts()
            first = len(tracer.spans)
            tracer.active = True
        for op in prep.ops:
            if tracing:
                tracer.op_id += 1
            paused = cal.spent if cal else 0.0
            t0 = time.perf_counter()
            try:
                results.append((op.call(), None))
            except (Exception, SystemExit) as e:
                results.append((None, e))
            t1 = time.perf_counter()
            spans.append((t0, t1, (cal.spent if cal else 0.0) - paused))
        into.op_spans.append(spans)
        if tracing:
            tracer.restore()
            for res, _ in results:
                if isinstance(res, tuple):
                    tracer.add("cli.output_bytes", len(res[1].encode()))
            tspans = [(name, s, e, p - first if p >= 0 else -1, op_id)
                      for name, s, e, p, op_id in tracer.spans[first:]]
            per_round.append(layers.round_metrics(tspans, tracer.counts))
        for op, (res, exc) in zip(prep.ops, results):
            if exc is not None:
                reason = f"raised {exc!r}"
            else:
                try:
                    reason = op.check(res)
                except Exception as e:
                    reason = f"output check raised {e!r}"
            into.attempted += 1
            if reason:
                into.failed += 1
                if into.failed <= MAX_REPORTED:
                    print(f"perfbench: FAILED {op.label}: {reason}", file=sys.stderr)
        del results
        gc.collect()
        n += 1
        if time.perf_counter() >= deadline and (tracer is None or n >= 2):
            return
        prep.reset()


def settle():
    """Collect set-up garbage and move what survives out of the collector's
    reach, so that collections during the ops do not keep walking the
    benchmark's own objects, which a `dimw` process would not have."""
    gc.collect()
    gc.freeze()


def metric(value, unit):
    return {"value": value, "unit": unit}


def measure(prog, args, workdir, reference):
    tally = Tally()
    setups = []
    # Set-up starts a child interpreter; pinned to one CPU with it, the
    # points just before and after it measure the CPU the child ran on.
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})
    with Calibrator(workloads.KERNELS[args.workload]) as cal:
        try:
            for _ in range(SETUPS):
                paused = cal.spent
                t0 = time.perf_counter()
                with cal.paused():
                    workloads.cold_import(ROOT)
                prep = workloads.setup(prog, args.workload, args.seed, workdir, reference)
                setups.append((t0, time.perf_counter(), cal.spent - paused))
        finally:
            os.sched_setaffinity(0, cpus)
        settle()
        run_rounds(prep, args.seconds, tally, cal=cal)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    def end_to_end(cal):
        wall, latencies = timings(tally, cal)
        return {
            "setup_s": statistics.median(span_time(span, cal) for span in setups),
            "wall_s": wall,
            "op_p50_ms": 1000 * statistics.median(latencies),
            "op_p99_ms": 1000 * percentile(latencies, 0.99),
            "peak_rss_mb": peak_rss_mb,
        }

    values = end_to_end(cal)
    # the times before calibration, and the machine's median slowdown
    prep.properties["uncalibrated"] = end_to_end(None)
    prep.properties["slowdown"] = statistics.median(cal.slowdowns())
    return prep, tally, {name: metric(values[name], unit) for name, unit in END_TO_END}


def measure_traced(prog, args, workdir, reference):
    prep = workloads.setup(prog, args.workload, args.seed, workdir, reference)
    settle()
    plain, traced, per_round = Tally(), Tally(), []
    tracer = Tracer(prog, layers.HOOKS)
    with Calibrator(workloads.KERNELS[args.workload]) as cal:
        run_rounds(prep, args.seconds, plain, tracer, traced, per_round, cal)
    out_dir = ROOT / ".perfbench-out"
    out_dir.mkdir(exist_ok=True)
    tracer.write(out_dir / f"trace-{args.workload}-seed{args.seed}.jsonl.gz",
                 {"workload": args.workload, "seed": args.seed, "rounds": len(per_round)})
    metrics = {name: metric(statistics.median_low(r[name] for r in per_round), unit)
               for name, unit, _, _ in layers.PER_LAYER}
    name, unit, _ = layers.OVERHEAD
    metrics[name] = metric(timings(traced, cal)[0] / timings(plain, cal)[0], unit)
    tally = Tally()
    tally.attempted = plain.attempted + traced.attempted
    tally.failed = plain.failed + traced.failed
    return prep, tally, metrics


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


def main(argv=None):
    args = parse_args(argv)
    try:
        prog = workloads.import_program(ROOT)
    except workloads.ProgramMissing as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2
    reference = workloads.load_reference()
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        run = measure_traced if args.trace else measure
        prep, tally, metrics = run(prog, args, Path(tmp), reference)
    print(json.dumps({"inputs": prep.properties}, sort_keys=True))
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
