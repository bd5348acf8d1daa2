"""Smoke test of the benchmark: every workload, untraced and traced, at tiny
sizes, prints every metric named in BENCHMARK.json and fails no op."""

import json
import pathlib
import shutil
import subprocess
import sys

import pytest

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(cwd, script, *args):
    return subprocess.run([sys.executable, str(script), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_prints_every_metric(workload, trace):
    r = run_bench(ROOT, HERE / "run.py", "--workload", workload, "--seed", "3",
                  "--seconds", "1", "--trace", str(trace), "--smoke")
    assert r.returncode == 0, r.stderr
    *_, report_line, result_line = r.stdout.strip().splitlines()
    report, result = json.loads(report_line), json.loads(result_line)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    named = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in named}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert report["error_rate"] == 0
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__", "out"))
    r = run_bench(tmp_path, tmp_path / HERE.name / "run.py", "--workload", "query",
                  "--seed", "1", "--seconds", "1", "--trace", "0")
    assert r.returncode != 0
    assert r.stdout == ""
