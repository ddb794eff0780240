"""Tests for the visualization service (head-node logic)."""

import gc

import pytest

from repro.cluster.cluster import Cluster
from repro.cluster.costs import CostParameters
from repro.cluster.storage import StorageSpec
from repro.core.chunks import Dataset, dataset_suite
from repro.core.job import JobType, RenderJob
from repro.core.ours import OursScheduler
from repro.core.fcfs import FCFSScheduler, FCFSUScheduler
from repro.core.sf import SFScheduler
from repro.sim.service import VisualizationService
from repro.util.units import GiB, MiB
from repro.workload.trace import Request


def make_service(scheduler, *, nodes=4, quota=GiB, chunk_max=256 * MiB):
    cluster = Cluster(
        nodes,
        quota,
        CostParameters(render_jitter=0.0),
        storage_spec=StorageSpec(bandwidth=100 * MiB, latency=0.01),
    )
    return VisualizationService(cluster, scheduler, chunk_max)


class TestImmediateScheduling:
    def test_job_completes_with_compositing(self):
        service = make_service(FCFSScheduler())
        ds = Dataset("ds", GiB)
        job = RenderJob(JobType.INTERACTIVE, ds, 0.0)
        service.submit(job)
        service.cluster.events.run()
        assert job.is_complete
        assert service.jobs_completed == 1
        composite = service.cluster.cost.composite_time(len(job.group_nodes()))
        assert job.finish_time == pytest.approx(
            job.last_task_finish() + composite
        )

    def test_collector_records(self):
        service = make_service(FCFSScheduler())
        job = RenderJob(JobType.INTERACTIVE, Dataset("ds", GiB), 0.0)
        service.submit(job)
        service.cluster.events.run()
        (record,) = service.collector.records
        assert record.job_id == job.job_id
        assert record.task_count == 4
        assert record.cache_hits == 0
        assert record.finish == job.finish_time

    def test_scheduling_cost_measured(self):
        service = make_service(FCFSScheduler())
        service.submit(RenderJob(JobType.INTERACTIVE, Dataset("ds", GiB), 0.0))
        stats = service.collector.scheduling
        assert stats.invocations == 1
        assert stats.jobs_scheduled == 1
        assert stats.tasks_assigned == 4
        assert stats.total_seconds > 0


class TestJobRelease:
    """A completed job is freed by refcount, with no release step.

    A task handle refers to its job, but the job does not refer to its
    tasks (their state is the job's task store), so there is no job ↔
    task cycle for the paused cyclic GC to miss.  Everything around the
    completion call that finished a job, listeners included, sees the
    job through the task it is given.
    """

    def run_jobs(self, count, *, prepend=False):
        service = make_service(FCFSScheduler())
        seen = []
        service.cluster.add_task_finish_listener(
            lambda node, task: seen.append(task.job), prepend=prepend
        )
        jobs = [
            RenderJob(JobType.INTERACTIVE, Dataset("ds", GiB), 0.0)
            for _ in range(count)
        ]
        for job in jobs:
            service.submit(job)
        service.cluster.events.run()
        return service, jobs, seen

    def test_completed_jobs_are_freed_without_the_cyclic_gc(self):
        def live_jobs():
            return sum(type(obj) is RenderJob for obj in gc.get_objects())

        was_enabled = gc.isenabled()
        gc.collect()
        gc.disable()
        try:
            before = live_jobs()
            service = make_service(FCFSScheduler())
            finished = []
            service.add_completion_listener(lambda job: finished.append(job.job_id))
            for _ in range(3):
                service.submit(
                    RenderJob(JobType.INTERACTIVE, Dataset("ds", GiB), 0.0)
                )
            service.cluster.events.run()
            assert len(finished) == 3
            assert live_jobs() == before
        finally:
            if was_enabled:
                gc.enable()

    def test_completed_job_keeps_its_task_state(self):
        _, (first, second), _ = self.run_jobs(2)
        assert first.is_complete and second.is_complete
        assert all(task.job is first for task in first.tasks)
        assert all(task.job is second for task in second.tasks)
        # Record-building views read the job's store after completion.
        assert second.task_count == 4
        assert second.group_nodes() == [0, 1, 2, 3]

    @pytest.mark.parametrize("prepend", [True, False])
    def test_listeners_see_the_job_on_its_last_task(self, prepend):
        _, jobs, seen = self.run_jobs(2, prepend=prepend)
        assert seen == [jobs[0]] * 4 + [jobs[1]] * 4

    def test_completed_task_repr_and_job_type(self):
        _, (job,), _ = self.run_jobs(1)
        task = job.tasks[0]
        assert task.job_type is JobType.INTERACTIVE
        assert repr(task).startswith(f"RenderTask(job={job.job_id}, index=0,")


class TestCycleScheduling:
    def test_jobs_buffered_until_cycle(self):
        service = make_service(OursScheduler(cycle=0.015))
        events = service.cluster.events
        job = RenderJob(JobType.INTERACTIVE, Dataset("ds", GiB), 0.0)
        service.submit(job)
        assert service.cluster.total_backlog() == 0  # nothing dispatched yet
        events.run(until=0.016)
        assert job.tasks  # decomposed and dispatched at the cycle
        events.run()
        assert job.is_complete

    def test_cycle_self_terminates(self):
        service = make_service(OursScheduler(cycle=0.015))
        events = service.cluster.events
        service.submit(RenderJob(JobType.INTERACTIVE, Dataset("ds", GiB), 0.0))
        events.run()
        assert len(events) == 0  # no perpetual cycle events
        assert not service.has_work()

    def test_cycle_rearms_on_new_submission(self):
        service = make_service(OursScheduler(cycle=0.015))
        events = service.cluster.events
        service.submit(RenderJob(JobType.INTERACTIVE, Dataset("ds", GiB), 0.0))
        events.run()
        t = events.now
        job2 = RenderJob(JobType.INTERACTIVE, Dataset("ds", GiB), t)
        service.submit(job2)
        events.run()
        assert job2.is_complete

    def test_deferred_batch_eventually_runs(self):
        service = make_service(OursScheduler(cycle=0.015))
        events = service.cluster.events
        batch = RenderJob(JobType.BATCH, Dataset("cold", GiB), 0.0)
        service.submit(batch)
        events.run()
        assert batch.is_complete
        assert not service.has_work()


class TestWindowScheduling:
    def test_window_fills_and_flushes(self):
        service = make_service(SFScheduler(window_size=3, window_timeout=10.0))
        events = service.cluster.events
        jobs = [
            RenderJob(JobType.INTERACTIVE, Dataset("ds", GiB), 0.0)
            for _ in range(3)
        ]
        for j in jobs:
            service.submit(j)
        # The third submission fills the window → immediate flush.
        assert all(j.tasks for j in jobs)
        events.run()
        assert all(j.is_complete for j in jobs)

    def test_partial_window_flushes_on_timeout(self):
        service = make_service(SFScheduler(window_size=16, window_timeout=0.05))
        events = service.cluster.events
        job = RenderJob(JobType.INTERACTIVE, Dataset("ds", GiB), 0.0)
        service.submit(job)
        assert not job.tasks
        events.run(until=0.051)
        assert job.tasks
        events.run()
        assert job.is_complete

    def test_stale_timeout_ignored_after_flush(self):
        service = make_service(SFScheduler(window_size=2, window_timeout=0.05))
        events = service.cluster.events
        j1 = RenderJob(JobType.INTERACTIVE, Dataset("ds", GiB), 0.0)
        j2 = RenderJob(JobType.INTERACTIVE, Dataset("ds", GiB), 0.0)
        service.submit(j1)
        service.submit(j2)  # fills window, flushes, timer becomes stale
        events.run()
        assert service.jobs_completed == 2


class TestPrewarm:
    def test_prewarm_fills_caches_and_mirrors(self):
        service = make_service(FCFSScheduler())
        datasets = dataset_suite(2, GiB)  # 8 chunks of 256 MiB
        loaded = service.prewarm(datasets)
        assert loaded == 8
        for k, node in enumerate(service.cluster.nodes):
            assert len(node.cache) == 2
            for chunk in node.cache.chunks():
                assert service.tables.is_cached(chunk, k)

    def test_prewarm_respects_quota(self):
        service = make_service(FCFSScheduler(), quota=512 * MiB)
        datasets = dataset_suite(4, GiB)  # 16 chunks but only 8 slots
        loaded = service.prewarm(datasets)
        assert loaded == 8
        for node in service.cluster.nodes:
            assert node.cache.used_bytes <= 512 * MiB

    def test_prewarm_uniform_pins_by_index(self):
        sched = FCFSUScheduler()
        service = make_service(sched)
        datasets = dataset_suite(1, GiB)
        service.prewarm(datasets)
        for k, node in enumerate(service.cluster.nodes):
            chunks = node.cache.chunks()
            assert len(chunks) == 1
            assert chunks[0].index == k

    def test_prewarmed_jobs_all_hit(self):
        service = make_service(FCFSScheduler())
        datasets = dataset_suite(2, GiB)
        service.prewarm(datasets)
        job = RenderJob(JobType.INTERACTIVE, datasets[0], 0.0)
        service.submit(job)
        service.cluster.events.run()
        assert all(t.cache_hit for t in job.tasks)
