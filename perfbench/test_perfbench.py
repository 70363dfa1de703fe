"""Smoke tests of the benchmark itself: every workload, both modes, every check.

Run from the repository root with ``python -m pytest perfbench``.  Each
case runs the real benchmark command in ``--smoke`` mode (K=4, a few ms
of traffic), so the whole file takes seconds.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _bench(*args, cwd=ROOT, **env):
    clean = {k: v for k, v in os.environ.items() if k not in ("REPRO_ENGINE", "REPRO_ELIDE_TX")}
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, env={**clean, **env}, capture_output=True, text=True, timeout=170,
    )


def _smoke(workload: str, trace: int) -> dict:
    proc = _bench("--smoke", "--workload", workload, "--seed", "3",
                  "--seconds", "1", "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_reports_every_metric_and_passes_every_check(workload, trace):
    result = _smoke(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in spec} == {
        name: metric["unit"] for name, metric in result["metrics"].items()}
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


def _queue_share(metrics: dict) -> float:
    self_times = [m["value"] for name, m in metrics.items()
                  if name.endswith(".self_s") or name == "net.network.start_flow_s"]
    return metrics["net.queues.self_s"]["value"] / sum(self_times)


def test_traced_incast_workloads_separate_the_layers():
    dibs = _smoke("incast-dibs-k8", 1)["metrics"]
    pfabric = _smoke("incast-pfabric-k8", 1)["metrics"]
    assert dibs["net.switch.detours"]["value"] > 0
    assert pfabric["net.switch.detours"]["value"] == 0
    assert _queue_share(pfabric) >= 5 * _queue_share(dibs)


def test_refuses_engine_override_env():
    for name, value in (("REPRO_ENGINE", "heap"), ("REPRO_ELIDE_TX", "0")):
        proc = _bench("--smoke", "--workload", WORKLOADS[0], "--seed", "0",
                      "--seconds", "1", "--trace", "0", **{name: value})
        assert proc.returncode != 0
        assert proc.stdout.strip() == ""


def test_refuses_without_simulator_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", WORKLOADS[0], "--seed", "0", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
