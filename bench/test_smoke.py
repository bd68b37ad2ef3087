"""Smoke test of the benchmark itself, kept out of the package's test suite.

    python3 -m pytest -q bench/test_smoke.py

Runs a tiny instance of every workload, untraced and traced, and checks that
each result line carries exactly the metrics BENCHMARK.json declares, with
no failed operation.  Takes about half a minute.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys

import pytest

from common import OUT, ROOT
from run import TINY_POINTS_PER_CHILD, WORKLOADS

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_workloads_match_declaration():
    assert [w["name"] for w in DECLARED["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run_reports_every_metric(workload, trace):
    result = _run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    record = json.loads(
        (OUT / "results" / f"{workload}-seed7-trace{trace}.json").read_text())
    assert record["fail_frac"] == 0.0
    declared = DECLARED["per_layer" if trace else "end_to_end"]
    metrics = result["metrics"]
    assert list(metrics) == [m["name"] for m in declared]
    for m in declared:
        value = metrics[m["name"]]
        assert value["unit"] == m["unit"]
        assert isinstance(value["value"], (int, float)) and math.isfinite(value["value"])
        if not trace:
            assert value["value"] > 0.0, m["name"]
    if trace and workload == "fig5-dense-scan":
        assert metrics["photodetection.photocount_pmf.calls"]["value"] == 0
        assert metrics["photodetection.detect_pmf.calls"]["value"] == 0
    if trace and workload == "thermal-points":
        pmf_calls = metrics["photodetection.photocount_pmf.calls"]["value"]
        assert pmf_calls == 2 * TINY_POINTS_PER_CHILD
        assert metrics["scan.assess_per_boundary"]["value"] == 1.0
