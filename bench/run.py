"""qwalk1d benchmark: one workload per fresh single-threaded process.

    python3 bench/run.py --workload large_t_profiles --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20

Run from the root of a checkout. The package is imported from ``src``;
nothing is installed. ``--trace 0`` prints the end-to-end metrics,
``--trace 1`` the per-layer ones. The line before the result holds the
diagnostics (tail percentile, fail ratio, worst check deviation,
environment). ``--workload all`` runs every workload in turn and prints
a table, then one JSON object keyed by workload.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("large_t_profiles", "fit_histograms", "moment_curves", "verify_battery")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_PROBES = 5
WORKER_TIMEOUT_S = 170


def bench_env() -> dict[str, str]:
    """Single-threaded BLAS/OpenMP, default CLI workers, package from src."""
    env = dict(os.environ)
    env.pop("QWALK1D_WORKERS", None)
    env.update({name: "1" for name in THREAD_VARS})
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def setup_seconds(env: dict[str, str], probes: int) -> list[float]:
    """Wall times of fresh interpreters that do ``import qwalk1d``.

    No timeout: with one, ``subprocess`` polls the child every 50 ms and
    the times come out in 50 ms steps.
    """
    cmd = [sys.executable, "-c", "import qwalk1d"]
    times = []
    for _ in range(probes):
        start = time.perf_counter()
        subprocess.run(cmd, env=env, cwd=ROOT, check=True)
        times.append(time.perf_counter() - start)
    return times


def environment(env: dict[str, str]) -> dict:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "qwalk1d").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    revision = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
        revision = proc.stdout.strip() or None
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "thread_env": {name: env[name] for name in THREAD_VARS},
        "QWALK1D_WORKERS": env.get("QWALK1D_WORKERS"),
        "git_revision": revision,
        "source_sha256": digest.hexdigest(),
    }


def run_workload(name: str, seed: int, seconds: float, trace: int, scale: str) -> dict:
    env = bench_env()
    # The first import compiles bytecode; it is not part of set-up.
    setup_seconds(env, 1)
    probes = 0 if trace else SETUP_PROBES if scale == "full" else 1
    setup = setup_seconds(env, probes)
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", name, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--scale", scale]
    proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                          timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"{name} worker exited {proc.returncode}:\n{proc.stderr}")
    # Probes on both sides of the run, so one slow spell of the machine
    # does not set the median.
    setup += setup_seconds(env, probes)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    info = result.pop("info")
    if setup:
        result["metrics"]["setup_s"] = {"value": statistics.median(setup), "unit": "s"}
        info["setup_s_samples"] = setup
    info.update(workload=name, seed=seed, seconds=seconds, trace=trace,
                environment=environment(env))
    return {"result": result, "info": info}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="qwalk1d benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="tiny shrinks every input (smoke test only)")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "qwalk1d" / "__init__.py").is_file():
        print(f"error: no qwalk1d sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    runs = {}
    for name in names:
        try:
            runs[name] = run_workload(name, args.seed, args.seconds, args.trace, args.scale)
        except (RuntimeError, subprocess.SubprocessError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
    if args.workload != "all":
        run = runs[args.workload]
        print("info: " + json.dumps(run["info"]))
        print(json.dumps(run["result"]))
        return 0
    for name, run in runs.items():
        result, info = run["result"], run["info"]
        for metric, m in result["metrics"].items():
            print(f"{name:18s} {metric:36s} {m['value']:14.6g} {m['unit']}")
        print(f"{name:18s} {'fail_ratio':36s} {info['fail_ratio']:14.6g} ratio"
              f"   ({result['failed']} of {result['attempted']} ops)")
        if "op_tail_percentile" in info:
            print(f"{name:18s} {'op_tail_ms is percentile':36s} "
                  f"{info['op_tail_percentile']:14.6g} of {info['op_tail_samples']} samples")
    print(json.dumps({name: run["result"] for name, run in runs.items()}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
