"""Tests for measurement collection."""

import pickle

import pytest

from repro.core.chunks import ChunkedDecomposition, Dataset
from repro.core.job import JOB_TYPES, JobType, RenderJob
from repro.reporting.collectors import (
    JobRecord,
    JobRecords,
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


def old_row(job):
    """The row the collector built before it stored columns."""
    group_nodes, start, hits, io_total = job.completion_summary()
    return JobRecord(
        job.job_id,
        job.job_type,
        job.dataset.name,
        job.user,
        job.action,
        job.sequence,
        job.arrival_time,
        start,
        job.finish_time,
        len(job.tasks),
        hits,
        io_total,
        len(group_nodes),
    )


@pytest.fixture
def collected():
    """A collector fed mixed jobs over two datasets, and their old rows."""
    collector = SimulationCollector()
    rows = []
    for i in range(7):
        job_type = JobType.BATCH if i % 3 == 0 else JobType.INTERACTIVE
        job = finished_job(job_type, action=i % 2, arrival=0.1 * i + 1 / 3)
        if i % 2:
            job.dataset = Dataset("other", GiB)
        job.user, job.sequence = i + 100, -i
        collector.on_submit(job)
        collector.on_job_complete(job, job.completion_summary())
        rows.append(old_row(job))
    return collector, rows


class TestJobRecords:
    def test_rows_equal_the_old_tuples(self, collected):
        collector, rows = collected
        records = collector.records
        assert isinstance(records, JobRecords)
        assert len(records) == len(rows) == 7
        for i, row in enumerate(rows):
            got = records[i]
            assert type(got) is JobRecord
            assert got == row
            assert got.job_type is row.job_type
            assert [type(v) for v in got] == [type(v) for v in row]
        assert list(records) == rows
        assert records.dataset_names == ["ds", "other"]

    def test_negative_index_and_slices(self, collected):
        records, rows = collected[0].records, collected[1]
        assert records[-1] == rows[-1]
        assert records[-7] == rows[0]
        for index in (8, -8):
            with pytest.raises(IndexError):
                records[index]
        for cut in (slice(2, None), slice(None, -2), slice(None, None, 3),
                    slice(5, 1, -1), slice(9, 12)):
            assert records[cut] == rows[cut]
            assert type(records[cut]) is JobRecords

    def test_pickles(self, collected):
        records, rows = collected[0].records, collected[1]
        clone = pickle.loads(pickle.dumps(records))
        assert type(clone) is JobRecords
        assert clone == rows
        collector = pickle.loads(pickle.dumps(collected[0]))
        assert collector.records == rows

    def test_column_readers_match_the_rows(self, collected):
        records, rows = collected[0].records, collected[1]
        for job_type in JobType:
            typed = [r for r in rows if r.job_type is job_type]
            assert records.count_of(job_type) == len(typed)
            assert records.count_of(job_type, 4) == sum(
                r.job_type is job_type for r in rows[4:]
            )
            assert list(records.where(job_type, "action", "finish")) == [
                (r.action, r.finish) for r in typed
            ]
        assert records.latencies() == [r.latency for r in rows]
        assert records.latencies(3) == [r.latency for r in rows[3:]]
        assert JobRecords.of(records) is records

    def test_joined_concatenates_and_remaps_datasets(self, collected):
        records, rows = collected[0].records, collected[1]
        tail = JobRecords.of(rows[1:])
        assert tail.dataset_names == ["other", "ds"]
        merged = JobRecords.joined([records, JobRecords(), tail])
        assert merged == rows + rows[1:]
        assert merged.dataset_names == ["ds", "other"]
        assert [type(v) for v in merged[-1]] == [type(v) for v in rows[-1]]
        assert JobRecords.joined([]) == []


def test_completed_counts_per_type_match_the_rows(collected):
    collector, rows = collected
    for job_type in JobType:
        typed = sum(r.job_type is job_type for r in rows)
        assert collector.completed_by_type[job_type] == typed
        assert collector.submitted_by_type[job_type] == typed


def test_per_type_counts_are_indexed_by_code(collected):
    """The counts are plain lists indexed by ``JOB_TYPES`` code, the same
    codes the records' ``type_code`` column stores; an enum-keyed count
    would pay the member's Python-level ``__hash__`` per increment."""
    collector, rows = collected
    assert type(collector.completed_by_code) is list
    assert type(collector.submitted_by_code) is list
    completed, submitted = collector.completed_by_code, collector.submitted_by_code
    for code, job_type in enumerate(JOB_TYPES):
        assert completed[code] == collector.records.type_code.count(code)
        assert collector.completed_by_type[job_type] == completed[code]
        assert collector.submitted_by_type[job_type] == submitted[code]
    assert collector.jobs_submitted == sum(collector.submitted_by_code) == len(rows)
