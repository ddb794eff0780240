"""Tests for measurement collection."""

import pytest

from repro.core.chunks import ChunkedDecomposition, Dataset
from repro.core.job import JobType, RenderJob
from repro.reporting.collectors import (
    JobRecord,
    SchedulingCostStats,
    SimulationCollector,
)
from repro.util.units import GiB, MiB

POLICY = ChunkedDecomposition(512 * MiB)


def finished_job(job_type=JobType.INTERACTIVE, action=0, arrival=0.0):
    job = RenderJob(job_type, Dataset("ds", GiB), arrival, action=action)
    for i, t in enumerate(job.decompose(POLICY)):
        t.node = i % 2
        t.start_time = arrival + 0.1
        t.finish_time = arrival + 0.2
        t.cache_hit = i == 0
        t.io_time = 0.0 if i == 0 else 0.05
    job.finish_time = arrival + 0.21
    return job


class TestJobRecord:
    def test_derived_metrics(self):
        rec = JobRecord(
            job_id=1,
            job_type=JobType.BATCH,
            dataset="ds",
            user=0,
            action=0,
            sequence=0,
            arrival=1.0,
            start=2.0,
            finish=5.0,
            task_count=4,
            cache_hits=3,
            io_seconds=2.0,
            group_size=2,
        )
        assert rec.latency == 4.0
        assert rec.execution == 3.0
        assert rec.cache_misses == 1


class TestSchedulingCostStats:
    def test_means(self):
        stats = SchedulingCostStats()
        stats.record(0.002, jobs=2, tasks=8)
        stats.record(0.001, jobs=1, tasks=4)
        assert stats.invocations == 2
        assert stats.mean_cost_per_job == pytest.approx(0.001)
        assert stats.mean_cost_per_job_us == pytest.approx(1000.0)
        assert stats.mean_cost_per_invocation == pytest.approx(0.0015)

    def test_empty(self):
        stats = SchedulingCostStats()
        assert stats.mean_cost_per_job == 0.0
        assert stats.mean_cost_per_invocation == 0.0


class TestCollector:
    def test_job_completion_record(self):
        collector = SimulationCollector()
        job = finished_job()
        collector.on_submit(job)
        collector.on_job_complete(job, job.completion_summary())
        (rec,) = collector.records
        assert rec.cache_hits == 1
        assert rec.task_count == 2
        assert rec.io_seconds == pytest.approx(0.05)
        assert rec.group_size == 2
        assert collector.hit_rate == pytest.approx(0.5)

    def test_interactive_issue_tracking(self):
        collector = SimulationCollector()
        for i in range(3):
            job = RenderJob(
                JobType.INTERACTIVE, Dataset("ds", GiB), 0.1 * i, action=7
            )
            collector.on_submit(job)
        batch = RenderJob(JobType.BATCH, Dataset("ds", GiB), 0.5, action=9)
        collector.on_submit(batch)
        assert set(collector.action_issues) == {7}
        count, first, last = collector.action_issues[7]
        assert count == 3
        assert first == 0.0
        assert last == pytest.approx(0.2)

    def test_split_by_type(self):
        collector = SimulationCollector()
        a = finished_job(JobType.INTERACTIVE)
        b = finished_job(JobType.BATCH)
        collector.on_job_complete(a, a.completion_summary())
        collector.on_job_complete(b, b.completion_summary())
        assert len(collector.interactive_records()) == 1
        assert len(collector.batch_records()) == 1
        assert collector.jobs_completed == 2

    def test_hit_rate_empty(self):
        assert SimulationCollector().hit_rate == 0.0
