"""Smoke test of the benchmark code at tiny input sizes.

Run from the root of a checkout:

    python3 -m pytest -q bench/test_smoke.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
sys.path.insert(0, str(ROOT / "bench"))
from workloads import WORKLOADS  # noqa: E402


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=cwd, capture_output=True,
        text=True, timeout=120, check=False,
    )


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_reported_and_digests_are_stable(workload, tmp_path):
    out = tmp_path / "result.json"
    results = {}
    for trace in (0, 1):
        proc = bench("--workload", workload, "--seed", "3", "--seconds", "0",
                     "--trace", str(trace), "--size", "tiny", "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        # the traced run re-checks its digests against the untraced pass
        assert result["correct"] and result["failed"] == 0
        assert result["attempted"] >= 1
        results[trace] = result["metrics"]
    want = {0: SPEC["end_to_end"], 1: SPEC["per_layer"]}
    for trace, metrics in results.items():
        assert {m["name"]: m["unit"] for m in want[trace]} == {
            name: metric["unit"] for name, metric in metrics.items()
        }
    for name in ("setup_s", "wall_s", "rounds_per_s"):
        assert results[0][name]["value"] > 0

    again = tmp_path / "again.json"
    proc = bench("--workload", workload, "--seed", "3", "--seconds", "0",
                 "--size", "tiny", "--out", str(again))
    assert proc.returncode == 0, proc.stderr
    first = json.loads(out.read_text())["workloads"][workload]
    second = json.loads(again.read_text())["workloads"][workload]
    assert first["digests"] == second["digests"]
    assert first["counters"] == second["counters"]

    proc = bench("--compare", str(out), str(again))
    assert proc.returncode == 0
    assert "wall_s" in proc.stdout and "digests identical" in proc.stdout


def test_without_sources_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__", "work-*"))
    proc = bench("--workload", "ct_grid", "--seed", "0", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
