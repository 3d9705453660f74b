"""Smoke test of the benchmark at the tiny size.

    python -m pytest benchmarks/test_smoke.py

Runs every workload untraced and traced for about a second and checks
the report against BENCHMARK.json; then checks that a perturbed expected
value is reported as a failed call.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(workload, trace, *extra):
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace),
         "--size", "tiny", *extra],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), proc.stdout


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_reported_and_no_call_fails(workload, trace):
    result, report = run_bench(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    declared = SPEC["end_to_end" if trace == 0 else "per_layer"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert isinstance(result["metrics"][m["name"]]["value"], (int, float))
        assert m["name"] in report
    assert result["attempted"] >= 1
    assert result["failed"] == 0 and result["correct"] is True
    assert "failed_frac" in report
    if trace == 0:
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in declared)


def test_perturbed_expected_value_is_a_failure(tmp_path):
    expected = json.loads((BENCH_DIR / "expected.json").read_text())
    perturbed = [k for k in expected["tiny"]
                 if k.startswith("estimate/motivating/n=3/")]
    assert perturbed
    for key in perturbed:
        expected["tiny"][key]["rejections"] += 1
    path = tmp_path / "expected.json"
    path.write_text(json.dumps(expected))
    result, report = run_bench("estimate", 0, "--expected", str(path))
    assert result["correct"] is False
    assert 1 <= result["failed"] < result["attempted"]
    assert "FAILED estimate/motivating/n=3/" in report
