"""Smoke test of the e2e benchmark.

Run with ``PYTHONPATH=src python -m pytest benchmarks/e2e`` (outside the
tier-1 ``testpaths``). Every workload runs in ``--smoke`` mode, traced
and untraced, and must pass its output checks and print every metric
``BENCHMARK.json`` names, with its unit and a finite value.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(args, cwd):
    return subprocess.run([sys.executable, "benchmarks/e2e/run.py", *args],
                          cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_prints_every_metric(workload, trace):
    proc = run(["--smoke", "--workload", workload, "--seed", "0",
                "--trace", str(trace)], ROOT)
    assert proc.returncode == 0, proc.stderr[-4000:]
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}
    assert doc["correct"] and doc["failed"] == 0 and doc["attempted"] >= 1
    listed = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(doc["metrics"]) == [m["name"] for m in listed]
    for m in listed:
        cell = doc["metrics"][m["name"]]
        assert cell["unit"] == m["unit"]
        assert math.isfinite(cell["value"]), m["name"]


def test_run_without_program_source_fails(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(["--workload", "bgq-cg", "--seed", "0", "--seconds", "1",
                "--trace", "0"], tmp_path)
    assert proc.returncode == 2
    assert proc.stdout == ""
