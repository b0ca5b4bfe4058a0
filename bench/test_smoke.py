"""Timing-free smoke test of the benchmark at tiny input sizes.

    PYTHONPATH=src python -m pytest -q bench/test_smoke.py

Asserts that every metric declared in BENCHMARK.json is emitted with its
unit, and that the per-op correctness checks ran and passed. No timing
value is compared with anything.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import worker  # noqa: E402
from workloads import CheckFailed, VerifyBattery  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(workload: str, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--scale", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    *_, info_line, result_line = proc.stdout.strip().splitlines()
    assert info_line.startswith("info: ")
    return json.loads(result_line), json.loads(info_line[len("info: "):])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_declared_metric_is_emitted_and_checks_run(workload, trace):
    result, info = run_bench(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for metric in declared:
        emitted = result["metrics"][metric["name"]]
        assert emitted["unit"] == metric["unit"], metric["name"]
        assert isinstance(emitted["value"], (int, float))
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    assert info["checks_passed"] == result["attempted"]
    assert info["environment"]["thread_env"]["OMP_NUM_THREADS"] == "1"
    assert info["environment"]["QWALK1D_WORKERS"] is None


def test_a_failing_check_is_counted(tmp_path):
    """A workload whose check rejects every result reports every op failed."""

    def reject(_result):
        raise CheckFailed("rejected on purpose")

    workload = VerifyBattery(np.random.default_rng(0), tmp_path, scale="tiny")
    tally = worker.Tally()
    for op in workload.cycle():
        op.check = reject
        tally.run(op)
    assert tally.attempted == tally.failed == 1
    assert tally.notes and "rejected on purpose" in tally.notes[0]


def test_without_the_package_it_fails_without_a_result(tmp_path):
    """A copy holding only BENCHMARK.json and the benchmark exits non-zero, silently."""
    (tmp_path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    copy = tmp_path / "bench"
    copy.mkdir()
    for path in BENCH.glob("*.py"):
        (copy / path.name).write_text(path.read_text())
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", WORKLOADS[0], "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
