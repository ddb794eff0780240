"""Smoke tests: every example script runs end-to-end at tiny scale."""

import subprocess
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).parent.parent / "examples"


def run_example(name: str, *args: str, timeout: float = 300.0) -> str:
    # An example runs as ``__main__`` in its own process, out of reach of
    # pyproject's warning filters: the flag makes a deprecated surface
    # it reaches fail the test.
    result = subprocess.run(
        [
            sys.executable,
            "-W",
            "error::DeprecationWarning",
            str(EXAMPLES / name),
            *args,
        ],
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    assert result.returncode == 0, result.stderr[-2000:]
    return result.stdout


class TestExamples:
    def test_quickstart(self):
        out = run_example("quickstart.py", "--scale", "0.1")
        assert "OURS" in out and "FCFS" in out

    def test_cost_model_timeline(self):
        out = run_example("cost_model_timeline.py")
        assert "Definition 4" in out or "framerates" in out
        assert "33.33" in out

    def test_custom_scheduler(self):
        out = run_example("custom_scheduler.py", "--scale", "0.08")
        assert "DELAY" in out

    def test_render_gallery(self, tmp_path):
        out = run_example(
            "render_gallery.py",
            "--size", "20", "--image", "32", "--ranks", "2",
            "--out", str(tmp_path),
        )
        assert "supernova" in out
        assert (tmp_path / "supernova.ppm").exists()
        assert (tmp_path / "plume.ppm").exists()
        assert (tmp_path / "combustion.ppm").exists()

    def test_batch_animation(self, tmp_path):
        out = run_example(
            "batch_animation.py",
            "--frames", "2", "--size", "16", "--image", "24",
            "--ranks", "2", "--out", str(tmp_path),
        )
        assert "2 frames" in out
        assert (tmp_path / "frame_0000.ppm").exists()

    def test_service_dynamics(self):
        out = run_example("service_dynamics.py", "--scale", "0.1")
        assert "node backlog" in out
        assert "OURS" in out and "FCFSL" in out

    def test_multi_user_service(self):
        out = run_example(
            "multi_user_service.py", "--duration", "6", "--nodes", "4"
        )
        assert "Per-action delivered framerates" in out

    def test_fault_tolerance(self):
        out = run_example("fault_tolerance.py", "--scale", "0.15")
        assert "with crashes" in out
        assert "busy nodes" in out

    def test_slo_report(self):
        out = run_example("slo_report.py", "--scale", "0.1")
        assert "SLO report" in out
        assert "fps >= 33.3" in out
        assert "p95 latency <= 0.25s" in out
        assert "framerate-SLO violation time" in out

    def test_overload_management(self):
        out = run_example("overload_management.py", "--scale", "0.05")
        assert "offered load: 2.5x" in out
        assert "frontend:" in out
        assert "Admitted sessions" in out

    def test_trace_inspection(self, tmp_path):
        out = run_example(
            "trace_inspection.py", "--scale", "0.05",
            "--trace-dir", str(tmp_path),
        )
        assert "FCFS (locality-blind)" in out
        assert "OURS (locality-aware)" in out
        assert "I/O-stall fraction" in out
        assert (tmp_path / "scenario1_FCFS.json").exists()
        assert (tmp_path / "scenario1_OURS.json").exists()

    def test_federation(self):
        out = run_example("federation.py", "--scale", "0.02", "--shards", "2")
        assert "=== hash router ===" in out
        assert "=== locality router ===" in out
        assert "SLO report (merged)" in out
        assert "locality-minus-hash hit-rate delta" in out

    def test_live_watch(self, tmp_path):
        stream = tmp_path / "run.ndjson"
        out = run_example(
            "live_watch.py", "--scale", "0.1", "--out", str(stream),
        )
        assert "streamed 64 snapshots" in out
        assert "events/s" in out
        assert "replaying scenario1" in out
        assert "summary: 64 snapshots, 0 anomalies, 0 stalls" in out
        assert stream.exists()

    def test_live_watch_storm(self, tmp_path):
        out = run_example(
            "live_watch.py", "--scale", "0.1", "--storm",
            "--out", str(tmp_path / "storm.ndjson"),
        )
        assert "fault: crash" in out
        assert "!!" in out
        assert "faults localized" in out
        assert "0 false positives" in out
