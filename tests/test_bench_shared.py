"""Tests for the overhead benches' sampling helpers (benchmarks/_shared.py)."""

from __future__ import annotations

import pytest

from benchmarks._shared import REPEATS, interleaved_rounds, paired_ratio, pooled


def _measure_factory(calls):
    def measure(name, cpu):
        calls.append(name)
        return {
            "events": 100.0,
            "wall_s": cpu,
            "cpu_s": cpu,
            "events_per_sec": 100.0 / cpu,
            "decisions": 7.0,
        }

    return measure


CONFIGS = {"a": dict(name="a", cpu=0.5), "b": dict(name="b", cpu=1.0)}


def test_runs_go_round_robin_and_pool_into_one_sample():
    calls = []
    rounds = interleaved_rounds(CONFIGS, 2, _measure_factory(calls))
    assert calls == ["a", "b"] * (2 * REPEATS)
    assert len(rounds) == 2
    sample = rounds[0]["a"]
    assert sample["cpu_s"] == pytest.approx(0.5 * REPEATS)
    assert sample["wall_s"] == pytest.approx(0.5 * REPEATS)
    assert sample["events_per_sec"] == pytest.approx(200.0)
    # Per-run leaves stay per run.
    assert sample["events"] == 100.0
    assert sample["decisions"] == 7.0
    assert paired_ratio(rounds, "b", "a") == pytest.approx(0.5)


def test_pooled_rejects_runs_whose_deterministic_leaves_differ():
    run = {"events": 100.0, "wall_s": 1.0, "cpu_s": 1.0, "events_per_sec": 100.0}
    # Timing leaves may differ between runs.
    pooled([run, dict(run, wall_s=2.0, cpu_s=1.5, events_per_sec=66.7)])
    with pytest.raises(AssertionError, match="trace_hash"):
        pooled([dict(run, trace_hash="x"), dict(run, trace_hash="y")])
