"""Tests for the e2e smoke count gate (benchmarks/check_e2e_counts.py)."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).parent.parent
SCRIPT = ROOT / "benchmarks" / "check_e2e_counts.py"
COMMITTED = ROOT / "benchmarks" / "baselines" / "e2e_smoke_counts.json"
DECLARATION = ROOT / "BENCHMARK.json"


def run_gate(*args):
    return subprocess.run(
        [sys.executable, str(SCRIPT), *args], capture_output=True, text=True
    )


def _report(calls=10, smoke=True):
    per_layer = {"tables.calls": calls, "node.tasks": 4, "tables.self_s": 0.5}
    return {"smoke": smoke, "workloads": {"w": {"per_layer": per_layer}}}


@pytest.fixture()
def paths(tmp_path):
    results = tmp_path / "e2e-smoke.json"
    baseline = tmp_path / "counts.json"
    results.write_text(json.dumps(_report()))
    assert run_gate(
        "--results", str(results), "--baseline", str(baseline), "--update"
    ).returncode == 0
    return results, baseline


def _gate(paths):
    results, baseline = paths
    return run_gate("--results", str(results), "--baseline", str(baseline))


def test_update_keeps_only_count_keys(paths):
    _, baseline = paths
    assert json.loads(baseline.read_text()) == {
        "w": {"node.tasks": 4, "tables.calls": 10}
    }


def test_identical_counts_pass(paths):
    paths[0].write_text(json.dumps(_report()))
    assert _gate(paths).returncode == 0


def test_a_moved_count_fails_even_downwards(paths):
    paths[0].write_text(json.dumps(_report(calls=9)))
    gate = _gate(paths)
    assert gate.returncode == 1
    assert "w: tables.calls = 9 vs baseline 10" in gate.stdout


def test_a_missing_count_fails(paths):
    report = _report()
    del report["workloads"]["w"]["per_layer"]["node.tasks"]
    paths[0].write_text(json.dumps(report))
    gate = _gate(paths)
    assert gate.returncode == 1 and "node.tasks missing" in gate.stdout


def test_non_smoke_results_are_a_usage_error(paths):
    paths[0].write_text(json.dumps(_report(smoke=False)))
    assert _gate(paths).returncode == 2


def test_committed_baseline_covers_every_declared_count():
    """Every BENCHMARK.json workload and count-unit per-layer key has a
    pinned value."""
    spec = json.loads(DECLARATION.read_text())
    keys = {m["name"] for m in spec["per_layer"] if m["unit"] == "count"}
    baseline = json.loads(COMMITTED.read_text())
    assert set(baseline) == {w["name"] for w in spec["workloads"]}
    for counts in baseline.values():
        assert set(counts) == keys
