"""Tests for a run's timeline snapshots and sparklines."""

import pytest

from repro.reporting.timeline import sparkline
from repro.sim.run_config import RunConfig
from repro.sim.simulator import run_simulation
from repro.workload.scenarios import scenario_1


class TestSparkline:
    def test_empty(self):
        assert sparkline([]) == "(empty)"

    def test_constant_series(self):
        line = sparkline([5, 5, 5])
        assert "min=5" in line and "max=5" in line

    def test_monotone_ramp(self):
        line = sparkline(list(range(10)), width=10)
        body = line.split("]")[0][1:]
        assert body[0] == " " and body[-1] == "@"

    def test_bucketing_long_series(self):
        line = sparkline(list(range(1000)), width=20)
        body = line.split("]")[0][1:]
        assert len(body) == 20

    def test_annotations(self):
        line = sparkline([1.0, 3.0, 2.0])
        assert "min=1" in line and "max=3" in line


class TestSamplerEndToEnd:
    """A run's timeline: ``result.metrics.snapshots``, one probe snapshot
    per tick of the metrics grid (horizon/64)."""

    @pytest.fixture(scope="class")
    def result(self):
        config = RunConfig(metrics=True)
        return run_simulation(scenario_1(scale=0.1), "OURS", config=config)

    def test_sample_count_matches_duration(self, result):
        # 64 windows over the 6 s horizon, plus the t=0 tick.
        assert len(result.metrics.snapshots) == 65

    def test_times_monotone(self, result):
        times = [s.time for s in result.metrics.snapshots]
        assert times == sorted(times)
        assert times[0] == 0.0

    def test_jobs_completed_monotone(self, result):
        completed = [s.completed for s in result.metrics.snapshots]
        assert all(b >= a for a, b in zip(completed, completed[1:]))

    def test_busy_nodes_bounded(self, result):
        assert all(0 <= s.busy <= 8 for s in result.metrics.snapshots)

    def test_completion_rate_length(self, result):
        snapshots = result.metrics.snapshots
        rates = [
            (b.completed - a.completed) / (b.time - a.time)
            for a, b in zip(snapshots, snapshots[1:])
        ]
        assert len(rates) == len(snapshots) - 1
        assert all(r >= 0 for r in rates)

    def test_sampler_does_not_prolong_simulation(self):
        scenario = scenario_1(scale=0.05)
        with_tl = run_simulation(
            scenario, "OURS", config=RunConfig(drain=True, metrics=True)
        )
        without = run_simulation(scenario, "OURS", config=RunConfig(drain=True))
        assert with_tl.jobs_completed == without.jobs_completed
        # The probe stops within one interval of quiescence.
        interval = with_tl.metrics.snapshots[1].time
        assert with_tl.simulated_time <= without.simulated_time + interval + 1e-9

    def test_no_timeline_by_default(self):
        result = run_simulation(scenario_1(scale=0.05), "OURS")
        assert result.metrics is None
