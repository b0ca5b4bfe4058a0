"""One workload in one fresh process: the closed loop, or the traced run.

Started by ``run.py`` with the thread variables pinned to 1 and ``src``
on ``PYTHONPATH``; prints one JSON object on its last line of output.

The closed loop runs one untimed warm-up op, then whole cycles of ops
back to back until ``--seconds`` have passed, so every run carries the
same mix of sizes. Each op is timed alone; its correctness check runs
after the clock stops. The warm-up op is
checked and counted as attempted like the others.

The traced run takes one cycle, so its counts repeat for a seed. It runs them once checked (the warm-up), once under tracemalloc
for the peak allocations, then each op untraced and traced in turn: the
traced runs give the per-layer times, the pairs the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import math
import platform
import resource
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(Path(__file__).resolve().parent))

import qwalk1d  # noqa: E402

from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, CheckFailed  # noqa: E402

TAIL_BEYOND = 10
MAX_FAILURES_SHOWN = 5


class Tally:
    """Attempted and failed ops, worst check deviation, failure notes."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.checked = 0
        self.max_abs_err = 0.0
        self.notes: list[str] = []

    def fail(self, op, reason: str) -> None:
        self.failed += 1
        if len(self.notes) < MAX_FAILURES_SHOWN:
            self.notes.append(f"{op.label}: {reason}")

    def run(self, op) -> float:
        """Time one op, then check it; returns the op's wall time."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            result = op.run()
        except Exception:  # a raising op is a failed op, not a crash
            elapsed = time.perf_counter() - start
            self.fail(op, traceback.format_exc(limit=2).strip().splitlines()[-1])
            return elapsed
        elapsed = time.perf_counter() - start
        self.check(op, result)
        return elapsed

    def check(self, op, result) -> None:
        try:
            err = op.check(result)
        except CheckFailed as exc:
            self.fail(op, str(exc))
            return
        except Exception:  # the check could not even read the result
            self.fail(op, traceback.format_exc(limit=2).strip().splitlines()[-1])
            return
        self.checked += 1
        self.max_abs_err = max(self.max_abs_err, err)


def tail(latencies: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_BEYOND samples above it."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def closed_loop(workload, seconds: float, tally: Tally) -> tuple[dict, dict]:
    tally.run(workload.cycle()[0])
    latencies: list[float] = []
    cycles = 0
    started = time.perf_counter()
    while not cycles or time.perf_counter() - started < seconds:
        latencies += [tally.run(op) for op in workload.cycle()]
        cycles += 1
    tail_value, tail_pct = tail(latencies)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    metrics = {
        "ops_per_s": (len(latencies) / sum(latencies), "ops/s"),
        "op_p50_ms": (1e3 * statistics.median(latencies), "ms"),
        "op_tail_ms": (1e3 * tail_value, "ms"),
        "peak_rss_mb": (rss_mb, "MB"),
        "pass_ratio": ((tally.attempted - tally.failed) / tally.attempted, "ratio"),
    }
    info = {
        "ops": len(latencies),
        "cycles": cycles,
        "op_tail_percentile": tail_pct,
        "op_tail_samples": len(latencies),
        "timed_wall_s": sum(latencies),
        "loop_wall_s": time.perf_counter() - started,
        "latencies_s": latencies,
    }
    return metrics, info


def traced(workload, tally: Tally, spans: Path) -> tuple[dict, dict]:
    ops = workload.cycle()
    for op in ops:
        tally.run(op)
    tracer = Tracer()
    wrapped = tracer.install()
    tracer.run(lambda: [op.run() for op in ops], memory=True)
    tracer.reset()
    # Untraced and traced runs alternate op by op, so drift cancels.
    untraced_wall = traced_wall = 0.0
    for op in ops:
        start = time.perf_counter()
        op.run()
        middle = time.perf_counter()
        tracer.run(op.run)
        untraced_wall += middle - start
        traced_wall += time.perf_counter() - middle
    outputs = {
        "sites": sum(op.sites for op in ops),
        "rows": sum(op.rows for op in ops),
        "bytes": sum(op.output.stat().st_size for op in ops if op.output is not None),
    }
    values = tracer.metrics(outputs)
    values["check.max_abs_err"] = tally.max_abs_err
    values["trace.overhead_ratio"] = traced_wall / untraced_wall
    metrics = {name: (value, unit_of(name)) for name, value in values.items()}
    tracer.save(spans)
    info = {
        "ops": len(ops),
        "untraced_wall_s": untraced_wall,
        "traced_wall_s": traced_wall,
        "spans": len(tracer.span_name),
        "spans_file": str(spans.relative_to(ROOT)),
        "wrapped_callables": len(wrapped),
        "cli.bytes_written": "measured from the output files",
        "foundation.built_mb": "computed from returned array sizes",
    }
    return metrics, info


def unit_of(name: str) -> str:
    suffix = name.rsplit(".", 1)[1]
    if suffix.endswith("_s") and suffix != "steps_per_s":
        return "s"
    return {
        "peak_alloc_mb": "MB", "built_mb": "MB", "bytes_written": "bytes",
        "steps_per_s": "steps/s", "max_abs_err": "1", "overhead_ratio": "ratio",
        "cells_per_output_site": "ratio", "inner_fits_per_fit": "ratio",
        "calls_per_output_row": "ratio",
    }.get(suffix, "count")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full")
    args = parser.parse_args(argv)

    source = Path(qwalk1d.__file__).resolve()
    if ROOT / "src" not in source.parents:
        print(f"error: qwalk1d imported from {source}, not from this checkout", file=sys.stderr)
        return 2
    scratch = ROOT / ".bench_out"
    scratch.mkdir(exist_ok=True)
    tally = Tally()
    with tempfile.TemporaryDirectory(dir=scratch) as tmp:
        workload = WORKLOADS[args.workload](np.random.default_rng(args.seed), Path(tmp),
                                            scale=args.scale)
        if args.trace:
            spans = scratch / f"spans-{args.workload}-{args.seed}.npz"
            metrics, info = traced(workload, tally, spans)
        else:
            metrics, info = closed_loop(workload, args.seconds, tally)
    for value, _ in metrics.values():
        if not math.isfinite(value):
            print(f"error: non-finite metric in {metrics}", file=sys.stderr)
            return 2
    info.update({
        "checks_passed": tally.checked,
        "fail_ratio": tally.failed / tally.attempted,
        "check.max_abs_err": tally.max_abs_err,
        "failures": tally.notes,
        "python": platform.python_version(),
        "numpy": np.__version__,
    })
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
        "info": info,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
