"""Smoke test of the benchmark harness at tiny size.

Run from the root of a checkout::

    python3 -m pytest perfbench/test_harness.py
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOAD_NAMES = [w["name"] for w in SPEC["workloads"]]


def run_tiny(workload: str, trace: int, cwd: Path = ROOT, script: Path = HERE / "run.py"):
    proc = subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", "3",
         "--seconds", "0", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=300)
    return proc


def last_json(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace, key", [(0, "end_to_end"), (1, "per_layer")])
@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_tiny_run_emits_every_metric_with_its_unit(workload, trace, key):
    result = last_json(run_tiny(workload, trace))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC[key]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    if trace:
        assert result["metrics"]["fail_ratio"]["value"] == 0
    else:
        assert result["metrics"]["ok_ratio"]["value"] == 1


def test_traced_counts_repeat_exactly():
    first, second = (last_json(run_tiny("certify-deep", 1))["metrics"] for _ in range(2))
    counts = {k for k, v in first.items() if v["unit"] in ("count", "bytes", "1/point")}
    assert counts
    assert {k: first[k] for k in counts} == {k: second[k] for k in counts}


def test_refuses_to_run_without_package_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_tiny(WORKLOAD_NAMES[0], 0, cwd=tmp_path,
                    script=tmp_path / HERE.name / "run.py")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
