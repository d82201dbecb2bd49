"""Run the vartomo benchmark.

    python3 perfbench/run.py                       # every workload, one process each
    python3 perfbench/run.py --workload recon-2q-mix --seed 3 --seconds 30 --trace 0

One workload run is a closed loop with a single caller: set-up (import,
inputs, warm-up) runs SETUP_PASSES times, then whole cycles of the
workload's operations run one at a time, for the whole number of
cycles that ends nearest to ``--seconds``.  Each operation is timed alone and its output
checked afterwards.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics of the
traced run with ``--trace 1``.  Details go to standard error.

The program is imported from ``src/`` next to this directory; without it
the run exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("recon-1q-mix", "recon-2q-mix", "sweep-2q")
BLAS_THREADS = 1
SETUP_PASSES = 3
DEFAULT_SECONDS = 30


def log(*parts) -> None:
    print(*parts, file=sys.stderr, flush=True)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, help="run one workload (default: all)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1 or args.seed < 0:
        parser.error("--seconds must be at least 1 and --seed non-negative")
    return args


def run_workload(args) -> int:
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)  # before numpy loads OpenBLAS
    src = ROOT / "src"
    if not (src / "vartomo" / "__init__.py").is_file():
        log(f"error: the program's sources are missing ({src / 'vartomo'})")
        return 2
    sys.path.insert(0, str(src))
    start = time.perf_counter()
    try:
        import workloads
    except ImportError as exc:
        log(f"error: cannot import the program: {exc}")
        return 2
    import_s = time.perf_counter() - start
    import numpy as np

    tracer = None
    if args.trace:
        import spans

        tracer = spans.Tracer()
        spans.instrument(tracer)
    log(f"{args.workload}: seed {args.seed}, {args.seconds} s, BLAS threads {BLAS_THREADS}, "
        f"numpy {np.__version__}, import {import_s:.3f} s")

    passes = []
    for _ in range(SETUP_PASSES):
        plan = None  # let the last pass's inputs go before making new ones
        begin = time.perf_counter()
        with tracer.span("setup") if tracer else nullcontext():
            plan = workloads.WORKLOADS[args.workload](args.seed)
        passes.append(time.perf_counter() - begin)
        log(f"  set-up pass {passes[-1]:.3f} s (warm-up op {plan.warmup_s:.3f} s)")
    setup_s = import_s + statistics.median(passes)

    durations: list[float] = []
    labels: dict[str, list[float]] = {}
    failed = 0
    began = time.perf_counter()
    cycle = 0
    while True:
        cycle_start = time.perf_counter()
        for op in plan.cycle(cycle):
            if tracer:
                tracer.op = len(durations)
            t0 = time.perf_counter()
            with tracer.span("op") if tracer else nullcontext():
                try:
                    out, err = op.run(), None
                except Exception as exc:  # checked below: some ops must raise
                    out, err = None, exc
            elapsed = time.perf_counter() - t0
            if tracer:
                tracer.op = None
            durations.append(elapsed)
            labels.setdefault(op.label, []).append(elapsed)
            failures = op.check(out, err)
            if failures:
                failed += 1
                log(f"  FAILED {op.label}: {'; '.join(failures)}")
                if err is not None and not isinstance(err, RuntimeError):
                    log("".join(traceback.format_exception(err)))
        cycle += 1
        now = time.perf_counter()
        # stop at the whole number of cycles nearest to --seconds
        if now - began + (now - cycle_start) / 2 > args.seconds:
            break
    run_failures = plan.finish()
    for failure in run_failures:
        log(f"  FAILED run check: {failure}")
    log(f"  {cycle} cycles, {len(durations)} ops in {time.perf_counter() - began:.1f} s")
    for label, times in sorted(labels.items()):
        log(f"    {label:34s} n={len(times):4d} median {statistics.median(times) * 1e3:9.2f} ms"
            f" max {max(times) * 1e3:9.2f} ms total {sum(times):7.3f} s")

    if tracer:
        tracer.restore()
        metrics = spans.per_layer(tracer.spans)
        out_path = HERE / "out" / f"trace-{args.workload}-{args.seed}.json"
        tracer.write(out_path, {"workload": args.workload, "seed": args.seed})
        for name, seconds in sorted(spans.self_times(tracer.spans).items(), key=lambda kv: -kv[1]):
            log(f"    self {name:30s} {seconds:9.4f} s")
        log(f"  trace written to {out_path}")
    else:
        metrics = {
            "op_p50_s": (statistics.median(durations), "s"),
            "ops_per_s": (len(durations) / sum(durations), "1/s"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    result = {
        "correct": not run_failures,
        "attempted": len(durations),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


def run_all(args) -> int:
    """Every workload in its own process; with --trace 1 also a traced run
    of each, whose op median against the untraced one is the overhead."""
    results = {}
    status = 0
    for workload in WORKLOADS:
        modes = (0, 1) if args.trace else (0,)
        for trace_on in modes:
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace_on)]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                log(f"{workload}: exit code {proc.returncode}")
                return proc.returncode or 1
            result = json.loads(lines[-1])
            results[f"{workload}/trace" if trace_on else workload] = result
            if result["failed"] or not result["correct"]:
                status = 1
            print(f"{workload}{' (traced)' if trace_on else ''}: attempted {result['attempted']}, "
                  f"failed {result['failed']}, correct {result['correct']}")
            for name, metric in result["metrics"].items():
                print(f"  {name:26s} {metric['value']:14.6g} {metric['unit']}")
        if args.trace:
            traced = results[f"{workload}/trace"]["metrics"]["trace.op_p50_s"]["value"]
            plain = results[workload]["metrics"]["op_p50_s"]["value"]
            print(f"  tracing overhead on op_p50_s: {(traced / plain - 1) * 100:+.1f} %")
    print(json.dumps(results))
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload is None:
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
