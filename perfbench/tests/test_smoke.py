"""Smoke tests of the benchmark: every workload once, traced and untraced.

    python3 -m pytest perfbench/tests -q

Each run uses one second of measurement, so a workload does one unit of
work (the paper cell trains its three models once) and the serving
phases are short; the test checks the result line's shape and that the
output checks passed, not the numbers.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import common  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402


def _run(workload: str, trace: int, cwd: Path = ROOT, seconds: float = 1.0):
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", str(seconds), "--trace", str(trace)],
        cwd=str(cwd), stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=300,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", common.WORKLOADS)
def test_workload_reports_every_metric(workload, trace):
    proc = _run(workload, trace, seconds=4.0 if workload == "serve-tcp" else 1.0)
    assert proc.returncode == 0, proc.stderr[-3000:]
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True
    assert line["attempted"] >= 1 and line["failed"] == 0
    expected = run.PER_LAYER if trace else run.END_TO_END
    assert {k: v["unit"] for k, v in line["metrics"].items()} == expected
    if not trace:
        assert all(v["value"] > 0 for v in line["metrics"].values())


def test_benchmark_json_matches_the_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["paths"] == ["perfbench"]
    assert [w["name"] for w in spec["workloads"]] == list(common.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    serve_why = next(w["why"] for w in spec["workloads"] if w["name"] == "serve-tcp")
    for number in (common.STEADY_RPS, common.WINDOWS_RPS, common.WINDOWS_CONTRACT_RPS,
                   common.CLOSED_CONNECTIONS, common.CLOSED_OUTSTANDING):
        assert f"{number:g}" in serve_why


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("paper-cell", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_self_times_add_up_without_double_counting():
    clock = layers.LayerClock()

    def inner():
        time.sleep(0.02)

    inner = clock.wrap("inner", inner)

    def outer():
        time.sleep(0.01)
        inner()
        inner()

    outer = clock.wrap("outer", outer)
    outer()
    clock.stop()
    report = clock.report()
    assert report["self_s"]["inner"] == pytest.approx(0.04, abs=0.01)
    assert report["self_s"]["outer"] == pytest.approx(0.01, abs=0.01)
    assert sum(report["self_s"].values()) <= report["wall_s"]
    assert report["threads"] == 1
