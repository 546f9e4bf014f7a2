"""Smoke test of the benchmark itself, at tiny input sizes.

    python3 -m pytest bench/test_bench.py

Every workload must emit every metric BENCHMARK.json names, with its
unit; a wrong quality reference must count as a failed operation; and a
directory without the latetrack source must fail without a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SEED = 3

sys.path.insert(0, str(BENCH))
from workloads import QUALITY, TIME_METRICS  # noqa: E402


def run_bench(workload, trace, *extra, cwd=ROOT, script=BENCH / "run.py"):
    proc = subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", str(SEED),
         "--seconds", "0", "--trace", str(trace), "--scale", "tiny", *extra],
        cwd=cwd, capture_output=True, text=True, timeout=300, check=False)
    lines = proc.stdout.strip().splitlines()
    return proc, lines


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace,kind", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_is_emitted_with_its_unit(workload, trace, kind):
    proc, lines = run_bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC[kind]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == want
    printed = {line.split()[0] for line in lines[:-1]}
    named = ("setup_s", "wall_s", "peak_rss_mb", "fail_ratio",
             *TIME_METRICS[workload], *QUALITY[workload])
    assert set(named) <= printed


def test_wrong_reference_counts_as_a_failure(tmp_path):
    wrong = {"quality": {"tiny": {"score": {
        "mauc_raw": {"tol": 1e-3, "band": [0.0, 1.0], "values": {str(SEED): 2.0}}}}}}
    ref = tmp_path / "reference.json"
    ref.write_text(json.dumps(wrong))
    proc, lines = run_bench("score", 0, "--reference", str(ref))
    assert proc.returncode == 1
    result = json.loads(lines[-1])
    assert result["failed"] == 1 and not result["correct"]
    assert "quality.mauc_raw" in proc.stderr


def test_without_the_source_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc, lines = run_bench("fit", 0, cwd=tmp_path, script=tmp_path / "bench" / "run.py")
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in lines)
