"""Self-test of the end-to-end benchmark, on ``--smoke`` runs.

Run with ``PYTHONPATH=src python -m pytest benchmarks/e2e -q``.  Each
smoke run executes every workload at 1/20 of its size, one untraced
repeat plus one traced run, in about 20 s.
"""

from __future__ import annotations

import importlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path[:0] = [str(HERE), str(ROOT / "src")]

from layertrace import ENTRY_POINTS, LayerTrace  # noqa: E402

#: Per-layer metrics that are pure counts of deterministic work.
DETERMINISTIC_EXTRAS = (
    "event_queue.events",
    "collectors.records",
    "scheduler.backlog_chunks_sorted",
    "scheduler.sorts_avoided_ratio",
    "node.tasks",
    "node.storage_loads",
)


def _smoke(tmp_path: Path, tag: str) -> dict:
    out = tmp_path / f"{tag}.json"
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--json", str(out)],
        capture_output=True,
        text=True,
        timeout=600,
        cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    return {
        "stdout": proc.stdout,
        "last": json.loads(proc.stdout.strip().splitlines()[-1]),
        "report": json.loads(out.read_text()),
    }


@pytest.fixture(scope="module")
def smoke_runs(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("e2e")
    return _smoke(tmp, "first"), _smoke(tmp, "second")


@pytest.fixture(scope="module")
def spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_every_benchmark_metric_is_printed(smoke_runs, spec):
    first, _ = smoke_runs
    assert first["last"]["correct"] is True
    assert first["last"]["failed"] == 0
    workloads = [w["name"] for w in spec["workloads"]]
    assert sorted(first["report"]["workloads"]) == sorted(workloads)
    for metric in spec["end_to_end"]:
        assert f"  {metric['name']} " in first["stdout"], metric["name"]
    for name in workloads:
        per_layer = first["last"]["metrics"][name]
        for metric in spec["per_layer"]:
            assert metric["name"] in per_layer, (name, metric["name"])
            assert per_layer[metric["name"]]["unit"] == metric["unit"]


def test_traced_digest_equals_untraced(smoke_runs):
    first, _ = smoke_runs
    for name, report in first["report"]["workloads"].items():
        samples = report["samples"]
        assert [s["traced"] for s in samples] == [False, True], name
        assert samples[0]["digest"] == samples[1]["digest"], name


def test_self_times_sum_to_traced_wall(smoke_runs):
    first, _ = smoke_runs
    for name, report in first["report"]["workloads"].items():
        traced = report["samples"][-1]
        self_s = sum(row["self_ns"] for row in traced["layers"].values()) / 1e9
        wall = traced["run_raw_s"]
        assert abs(self_s - wall) <= 0.01 * wall, (name, self_s, wall)


def test_traced_run_restores_every_attribute(smoke_runs):
    first, _ = smoke_runs
    for name, report in first["report"]["workloads"].items():
        traced = report["samples"][-1]
        assert traced["wrapped"] > 0 and traced["restored"] is True, name


def test_install_and_restore_in_process():
    from repro.core.ours import OursScheduler

    def snapshot():
        out = {}
        for _, module_name, owner_name, attrs in ENTRY_POINTS:
            module = importlib.import_module(module_name)
            owner = module if owner_name is None else getattr(module, owner_name)
            for attr in attrs:
                out[(module_name, owner_name, attr)] = getattr(owner, attr)
        return out

    before = snapshot()
    trace = LayerTrace()
    trace.install(OursScheduler)
    try:
        during = snapshot()
        assert all(during[k] is not before[k] for k in before)
    finally:
        trace.restore()
    after = snapshot()
    assert all(after[k] is before[k] for k in before)
    assert "schedule" in OursScheduler.__dict__
    assert "reschedule" not in OursScheduler.__dict__


def test_deterministic_counts_repeat_exactly(smoke_runs):
    first, second = smoke_runs
    for name in first["report"]["workloads"]:
        a = first["report"]["workloads"][name]["per_layer"]
        b = second["report"]["workloads"][name]["per_layer"]
        keys = [k for k in a if k.endswith(".calls")] + list(DETERMINISTIC_EXTRAS)
        assert {k: a[k] for k in keys} == {k: b[k] for k in keys}, name


def test_fails_without_the_program(tmp_path):
    """A directory holding only the benchmark exits nonzero, no result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(
        HERE,
        tmp_path / "benchmarks" / "e2e",
        ignore=shutil.ignore_patterns("out", "__pycache__"),
    )
    proc = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "paper-s2",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True,
        text=True,
        timeout=120,
        cwd=tmp_path,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
