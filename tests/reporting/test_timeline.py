"""Tests for timeline sampling and sparklines."""

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


class TestSamplerValidation:
    def test_interval_positive(self):
        with pytest.raises(ValueError):
            RunConfig(timeline_interval=0.0)


class TestSamplerEndToEnd:
    @pytest.fixture(scope="class")
    def result(self):
        with pytest.warns(DeprecationWarning, match="timeline_interval"):
            config = RunConfig(timeline_interval=0.25)
        return run_simulation(scenario_1(scale=0.1), "OURS", config=config)

    def test_sample_count_matches_duration(self, result):
        # 6 s horizon / 0.25 s ≈ 24 samples (+/- the final tick).
        assert 20 <= len(result.timeline_samples.samples) <= 27

    def test_times_monotone(self, result):
        times = result.timeline_samples.series("time")
        assert times == sorted(times)
        assert times[0] == 0.0

    def test_jobs_completed_monotone(self, result):
        completed = result.timeline_samples.series("jobs_completed")
        assert all(b >= a for a, b in zip(completed, completed[1:]))

    def test_busy_nodes_bounded(self, result):
        busy = result.timeline_samples.series("busy_nodes")
        assert all(0 <= b <= 8 for b in busy)

    def test_completion_rate_length(self, result):
        rates = result.timeline_samples.completion_rate()
        assert len(rates) == len(result.timeline_samples.samples) - 1
        assert all(r >= 0 for r in rates)

    def test_sampler_does_not_prolong_simulation(self):
        with pytest.warns(DeprecationWarning, match="timeline_interval"):
            config = RunConfig(drain=True, timeline_interval=0.2)
        with_tl = run_simulation(scenario_1(scale=0.05), "OURS", config=config)
        without = run_simulation(
            scenario_1(scale=0.05), "OURS", config=RunConfig(drain=True)
        )
        assert with_tl.jobs_completed == without.jobs_completed
        # The sampler stops within one interval of quiescence.
        assert with_tl.simulated_time <= without.simulated_time + 0.2 + 1e-9

    def test_no_timeline_by_default(self):
        result = run_simulation(scenario_1(scale=0.05), "OURS")
        assert result.timeline_samples is None
