"""Tests for rendering jobs and tasks."""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.event_queue import EventQueue
from repro.core.chunks import ChunkedDecomposition, Dataset
from repro.core.job import JobType, RenderJob
from repro.core.registry import make_scheduler
from repro.sim.service import VisualizationService
from repro.util.units import GiB, MiB
from repro.workload.scenarios import make_scenario

POLICY = ChunkedDecomposition(512 * MiB)


def make_job(size=2 * GiB, job_type=JobType.INTERACTIVE, **kw):
    return RenderJob(job_type, Dataset("ds", size), 1.0, **kw)


class TestDecomposition:
    def test_decompose_creates_tasks(self):
        job = make_job()
        tasks = job.decompose(POLICY)
        assert len(tasks) == 4
        assert job.task_count == 4
        assert job.composite_group_size == 4
        assert [t.index for t in tasks] == [0, 1, 2, 3]
        assert all(t.job is job for t in tasks)

    def test_decompose_idempotent(self):
        """Repeated decomposition gives handles of the same tasks, and
        leaves the job's task store as it was."""
        job = make_job()
        first = job.decompose(POLICY)
        first[1].node = 3
        state = list(job.task_state)
        second = job.decompose(POLICY)
        assert second == first == job.tasks
        assert [hash(t) for t in second] == [hash(t) for t in first]
        assert second[1].node == 3
        assert job.task_state == state

    def test_task_type_follows_job(self):
        job = make_job(job_type=JobType.BATCH)
        assert all(t.job_type is JobType.BATCH for t in job.decompose(POLICY))


class TestIds:
    def test_ids_monotonic(self):
        a, b = make_job(), make_job()
        assert b.job_id == a.job_id + 1

    def test_metadata_fields(self):
        job = make_job(user=3, action=7, sequence=12)
        assert (job.user, job.action, job.sequence) == (3, 7, 12)


class TestTiming:
    def test_start_finish_and_completion(self):
        job = make_job()
        tasks = job.decompose(POLICY)
        assert not job.is_complete
        for i, t in enumerate(tasks):
            t.start_time = 2.0 + i
            t.finish_time = 3.0 + i
        assert job.is_complete
        assert job.start_time() == 2.0
        assert job.last_task_finish() == 6.0

    def test_start_time_requires_started_tasks(self):
        job = make_job()
        job.decompose(POLICY)
        with pytest.raises(ValueError):
            job.start_time()
        with pytest.raises(ValueError):
            job.last_task_finish()

    def test_group_nodes_distinct_in_order(self):
        job = make_job()
        tasks = job.decompose(POLICY)
        for t, node in zip(tasks, [2, 0, 2, 1]):
            t.node = node
        assert job.group_nodes() == [2, 0, 1]

    def test_group_nodes_skips_unassigned(self):
        job = make_job()
        tasks = job.decompose(POLICY)
        tasks[0].node = None
        tasks[1].node = 3
        tasks[2].node = None
        tasks[3].node = 3
        assert job.group_nodes() == [3]

    def test_completion_summary(self):
        job = make_job()
        tasks = job.decompose(POLICY)
        for t, node, start, hit, io in zip(
            tasks, [1, 0, 1, 2], [4.0, 2.5, 3.0, 5.0], [True, False, True, False],
            [0.0, 0.25, 0.0, 0.5],
        ):
            t.node, t.start_time, t.cache_hit, t.io_time = node, start, hit, io
            t.finish_time = start + 1.0
        assert job.completion_summary() == ([1, 0, 2], 2.5, 2, 0.75)

    def test_completion_summary_requires_started_tasks(self):
        job = make_job()
        with pytest.raises(ValueError):
            job.completion_summary()
        job.decompose(POLICY)
        with pytest.raises(ValueError):
            job.completion_summary()

    def test_task_done_flag(self):
        job = make_job()
        task = job.decompose(POLICY)[0]
        assert not task.done
        task.finish_time = 5.0
        assert task.done


def list_scan_group_nodes(job):
    """The original O(t*p) list-scan ``group_nodes``, kept as the oracle."""
    seen = []
    for t in job.tasks:
        if t.node is not None and t.node not in seen:
            seen.append(t.node)
    return seen


def loop_completion_summary(job):
    """Per-task loop oracle for ``completion_summary``."""
    hits = 0
    io_total = 0.0
    for t in job.tasks:
        if t.cache_hit:
            hits += 1
        io_total += t.io_time
    return list_scan_group_nodes(job), job.start_time(), hits, io_total


class TestGroupNodesProperty:
    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.one_of(st.none(), st.integers(min_value=0, max_value=7)),
            min_size=1,
            max_size=64,
        )
    )
    def test_matches_list_scan(self, nodes):
        ds = Dataset("ds", len(nodes) * 512 * MiB)
        job = RenderJob(JobType.BATCH, ds, 0.0)
        for t, node in zip(job.decompose(POLICY), nodes):
            t.node = node
        assert job.group_nodes() == list_scan_group_nodes(job)

    @pytest.mark.parametrize("gpus", [1, 2])
    @pytest.mark.parametrize("crashes", [(), ((2.0, 1), (3.0, 6))])
    def test_matches_list_scan_in_runs(self, gpus, crashes):
        """Finished jobs of real runs: 2-executor nodes, re-dispatched tasks."""
        scenario = make_scenario(2, scale=0.05)
        system = dataclasses.replace(scenario.system, gpus_per_node=gpus)
        events = EventQueue()
        cluster = system.build_cluster(events=events)
        service = VisualizationService(
            cluster, make_scheduler("OURS"), system.chunk_max
        )
        service.prewarm(scenario.trace.datasets)
        jobs = []

        def submit(request, dataset):
            job = service.build_job(request, dataset, events.now)
            jobs.append(job)
            service.submit(job)

        datasets = {d.name: d for d in scenario.trace.datasets}
        for request in scenario.trace.requests:
            events.schedule(
                request.time, submit, request, datasets[request.dataset]
            )
        redispatched = []
        for at, node in crashes:
            events.schedule(
                at, lambda k: redispatched.append(service.fail_node(k)), node
            )
        service.start()
        events.run()
        assert jobs and not service.has_work()
        assert sum(redispatched) > 0 if crashes else not redispatched
        for job in jobs:
            assert job.group_nodes() == list_scan_group_nodes(job)
            assert job.completion_summary() == loop_completion_summary(job)
