"""Unit tests for the metrics registry, histograms, and windowing."""

from __future__ import annotations

import json

import pytest

from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    MetricWindow,
    default_window_interval,
    log_buckets,
)
from repro.sim.run_config import RunConfig
from repro.sim.simulator import run_simulation
from repro.workload.scenarios import scenario_1


class TestCounterGauge:
    def test_counter_increments(self):
        c = Counter("jobs")
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5

    def test_counter_rejects_negative(self):
        c = Counter("jobs")
        with pytest.raises(ValueError):
            c.inc(-1.0)

    def test_gauge_moves_both_ways(self):
        g = Gauge("depth")
        g.set(4.0)
        g.inc()
        g.dec(2.0)
        assert g.value == 3.0


class TestReadThrough:
    def test_counter_reads_its_sources_live(self):
        counts = {"a": 1, "b": 2}
        c = Counter("tasks")
        c.read_from(lambda: counts["a"])
        c.read_from(lambda: counts["b"])
        assert c.value == 3.0
        counts["a"] = 10
        assert c.value == 12.0
        assert isinstance(c.value, float)

    def test_freeze_keeps_the_value_and_drops_the_readers(self):
        counts = [5]
        c = Counter("tasks")
        c.read_from(lambda: counts[0])
        c.freeze()
        counts[0] = 99
        assert c.value == 5.0
        # A new source adds to the frozen total, like a second run.
        c.read_from(lambda: 2)
        assert c.value == 7.0

    def test_gauge_level_restarts_with_a_new_source(self):
        g = Gauge("depth")
        g.read_from(lambda: 4)
        g.freeze()
        assert g.value == 4.0
        g.read_from(lambda: 1)
        assert g.value == 1.0

    def test_closed_registry_pickles_with_live_values(self):
        import pickle

        reg = MetricsRegistry()
        state = {"hits": 3}
        reg.counter("repro_hits", "hits").read_from(lambda: state["hits"])
        reg.gauge("repro_level").read_from(lambda: 2)
        reg.histogram("repro_lat").observe(0.5)
        before = reg.to_prometheus()
        reg.close()
        state["hits"] = 100
        clone = pickle.loads(pickle.dumps(reg))
        assert clone.to_prometheus() == before
        assert clone.value("repro_hits") == 3.0


class TestLogBuckets:
    def test_bounds_are_increasing_and_span_range(self):
        bounds = log_buckets(lowest=1e-3, highest=10.0, per_decade=4)
        assert bounds[0] == 1e-3
        assert bounds[-1] >= 10.0 * (1 - 1e-9)
        assert all(b > a for a, b in zip(bounds, bounds[1:]))

    def test_per_decade_controls_resolution(self):
        coarse = log_buckets(lowest=1e-2, highest=1.0, per_decade=1)
        fine = log_buckets(lowest=1e-2, highest=1.0, per_decade=10)
        assert len(fine) > len(coarse)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            log_buckets(lowest=0.0)
        with pytest.raises(ValueError):
            log_buckets(lowest=1.0, highest=0.5)
        with pytest.raises(ValueError):
            log_buckets(per_decade=0)


class TestHistogram:
    def test_boundary_value_lands_in_inclusive_bucket(self):
        # Prometheus `le` bounds are inclusive: an observation exactly on
        # a bucket bound counts in that bucket, not the next one.
        h = Histogram("lat", bounds=[1.0, 2.0, 4.0])
        h.observe(2.0)
        assert h.bucket_counts == [0, 1, 0, 0]

    def test_below_lowest_and_overflow_buckets(self):
        h = Histogram("lat", bounds=[1.0, 2.0])
        h.observe(0.5)   # below the first bound
        h.observe(99.0)  # above the last bound -> implicit +inf bucket
        assert h.bucket_counts == [1, 0, 1]
        assert h.count == 2

    def test_non_increasing_bounds_rejected(self):
        with pytest.raises(ValueError):
            Histogram("bad", bounds=[1.0, 1.0, 2.0])

    def test_empty_percentile_is_zero(self):
        h = Histogram("lat")
        assert h.percentile(50) == 0.0
        assert h.mean == 0.0

    def test_single_observation_quantiles_exact(self):
        h = Histogram("lat")
        h.observe(0.37)
        # min/max clamping makes every quantile exact for one value.
        assert h.p50 == pytest.approx(0.37)
        assert h.p99 == pytest.approx(0.37)

    def test_quantiles_ordered_and_within_range(self):
        h = Histogram("lat")
        values = [0.01 * i for i in range(1, 101)]
        for v in values:
            h.observe(v)
        assert min(values) <= h.p50 <= h.p95 <= h.p99 <= max(values)
        assert h.p50 == pytest.approx(0.5, rel=0.25)
        assert h.mean == pytest.approx(sum(values) / len(values))

    def test_invalid_quantile_rejected(self):
        h = Histogram("lat")
        with pytest.raises(ValueError):
            h.percentile(101)


class TestRegistry:
    def test_get_or_create_returns_same_object(self):
        reg = MetricsRegistry()
        a = reg.counter("repro_jobs", "help text")
        b = reg.counter("repro_jobs")
        assert a is b
        assert len(reg) == 1

    def test_labels_distinguish_series(self):
        reg = MetricsRegistry()
        a = reg.counter("repro_jobs", labels={"type": "interactive"})
        b = reg.counter("repro_jobs", labels={"type": "batch"})
        assert a is not b
        a.inc(3)
        assert reg.value("repro_jobs", {"type": "interactive"}) == 3.0
        assert reg.value("repro_jobs", {"type": "batch"}) == 0.0

    def test_kind_conflict_raises(self):
        reg = MetricsRegistry()
        reg.counter("repro_jobs")
        with pytest.raises(ValueError):
            reg.gauge("repro_jobs")
        with pytest.raises(ValueError):
            reg.histogram("repro_jobs", labels={"x": "1"})

    def test_value_of_missing_metric_is_zero(self):
        assert MetricsRegistry().value("nope") == 0.0

    def test_value_of_histogram_raises(self):
        reg = MetricsRegistry()
        reg.histogram("repro_lat")
        with pytest.raises(TypeError):
            reg.value("repro_lat")

    def test_prometheus_exposition_format(self):
        reg = MetricsRegistry()
        reg.counter("repro_jobs", "completed jobs", {"type": "batch"}).inc(7)
        reg.gauge("repro_depth", "queue depth").set(3)
        h = reg.histogram("repro_lat", "latency", bounds=[1.0, 2.0])
        h.observe(0.5)
        h.observe(1.5)
        text = reg.to_prometheus()
        assert "# HELP repro_jobs_total completed jobs" in text
        assert "# TYPE repro_jobs_total counter" in text
        assert 'repro_jobs_total{type="batch"} 7' in text
        assert "repro_depth 3" in text
        # Histogram buckets are cumulative, with +Inf and sum/count.
        assert 'repro_lat_bucket{le="1"} 1' in text
        assert 'repro_lat_bucket{le="2"} 2' in text
        assert 'repro_lat_bucket{le="+Inf"} 2' in text
        assert "repro_lat_sum 2" in text
        assert "repro_lat_count 2" in text

    def test_label_values_escape_quotes_backslashes_newlines(self):
        reg = MetricsRegistry()
        reg.counter(
            "repro_jobs", labels={"dataset": 'vol "a"\\raw\nv2'}
        ).inc(1)
        text = reg.to_prometheus()
        # Prometheus quoted label values escape \, ", and newline.
        assert 'dataset="vol \\"a\\"\\\\raw\\nv2"' in text
        assert "\n\n" not in text  # no raw newline leaked into a line

    def test_label_lines_stay_single_line(self):
        reg = MetricsRegistry()
        reg.gauge("repro_depth", labels={"queue": "a\nb"}).set(2)
        lines = reg.to_prometheus().splitlines()
        series = [l for l in lines if l.startswith("repro_depth")]
        assert series == ['repro_depth{queue="a\\nb"} 2']

    def test_help_text_escapes_backslash_and_newline(self):
        reg = MetricsRegistry()
        reg.counter("repro_jobs", 'path C:\\x\nsecond "line"').inc()
        lines = reg.to_prometheus().splitlines()
        help_line = next(l for l in lines if l.startswith("# HELP"))
        # HELP escapes \ and newline but leaves quotes alone.
        assert help_line == '# HELP repro_jobs_total path C:\\\\x\\nsecond "line"'

    def test_snapshot_includes_quantiles(self):
        reg = MetricsRegistry()
        reg.histogram("repro_lat").observe(1.0)
        reg.counter("repro_jobs").inc()
        rows = {row["name"]: row for row in reg.snapshot()}
        assert rows["repro_jobs"]["value"] == 1.0
        assert rows["repro_lat"]["count"] == 1
        assert rows["repro_lat"]["p99"] == pytest.approx(1.0)


def test_default_window_interval():
    assert default_window_interval(64.0) == pytest.approx(1.0)
    assert default_window_interval(0.0) == pytest.approx(1e-3)


def test_metric_window_event_roundtrip():
    window = MetricWindow(
        start=0.0,
        end=1.0,
        jobs_completed=5,
        interactive_completed=4,
        batch_completed=1,
        fps=4.0,
        latency_p50=0.1,
        latency_p95=0.2,
        latency_p99=0.3,
        cache_hits=9,
        cache_misses=1,
        hit_rate=0.9,
        io_bytes=1024,
    )
    event = window.to_event()
    assert event["type"] == "window"
    assert event["fps"] == 4.0
    assert window.duration == 1.0


class TestSimulationIntegration:
    @pytest.fixture(scope="class")
    def run(self):
        scenario = scenario_1(scale=0.05)
        return run_simulation(scenario, "OURS", config=RunConfig(metrics=True))

    def test_metrics_disabled_by_default(self):
        result = run_simulation(scenario_1(scale=0.05), "OURS")
        assert result.metrics is None

    def test_enabling_metrics_does_not_perturb_the_run(self, run):
        import dataclasses

        baseline = run_simulation(scenario_1(scale=0.05), "OURS")
        # sched_cost_us is wall clock and differs between ANY two runs;
        # every simulated quantity must be bit-identical.
        assert dataclasses.replace(
            run.summary(), sched_cost_us=0.0
        ) == dataclasses.replace(baseline.summary(), sched_cost_us=0.0)
        assert run.jobs_completed == baseline.jobs_completed

    def test_counters_match_result(self, run):
        reg = run.metrics.registry
        completed = sum(
            reg.value("repro_jobs_completed", {"type": t})
            for t in ("interactive", "batch")
        )
        assert completed == run.jobs_completed
        hits = reg.value("repro_cache_hits")
        misses = reg.value("repro_cache_misses")
        assert hits + misses == reg.value("repro_tasks_executed")

    def test_completed_counters_equal_the_rows_per_type(self):
        """The reader is the collector's per-type count (no record scan);
        the frozen registry keeps the value through a pickle."""
        import pickle

        from repro.core.job import JobType
        from repro.workload.scenarios import scenario_2

        result = run_simulation(
            scenario_2(scale=0.05), "OURS", config=RunConfig(metrics=True)
        )
        reg = result.metrics.registry
        clone = pickle.loads(pickle.dumps(reg))
        for t in JobType:
            rows = sum(1 for r in result.records if r.job_type is t)
            assert rows > 0
            assert reg.value("repro_jobs_completed", {"type": t.value}) == rows
            assert clone.value("repro_jobs_completed", {"type": t.value}) == rows

    def test_windows_cover_the_run(self, run):
        windows = run.metrics.windows
        assert windows
        assert all(w.end > w.start for w in windows)
        assert all(
            a.end <= b.start + 1e-9 for a, b in zip(windows, windows[1:])
        )
        total = sum(w.interactive_completed for w in windows)
        reg = run.metrics.registry
        assert total == reg.value("repro_jobs_completed", {"type": "interactive"})

    def test_window_series_extraction(self, run):
        fps = run.metrics.window_series("fps")
        assert len(fps) == len(run.metrics.windows)
        assert all(v >= 0.0 for v in fps)

    def test_jsonl_export(self, run, tmp_path):
        path = run.metrics.write_jsonl(tmp_path / "metrics.jsonl")
        events = [json.loads(line) for line in path.read_text().splitlines()]
        assert events[0]["type"] == "run"
        assert events[0]["scheduler"] == "OURS"
        assert events[-1]["type"] == "summary"
        assert sum(1 for e in events if e["type"] == "window") == len(
            run.metrics.windows
        )

    def test_prometheus_export(self, run, tmp_path):
        path = run.metrics.write_prometheus(tmp_path / "metrics.prom")
        text = path.read_text()
        assert "# TYPE repro_jobs_completed_total counter" in text
        assert "# TYPE repro_job_latency_seconds histogram" in text
