"""Tests for rendering-node task execution."""

import pytest

from repro.cluster.costs import CostParameters
from repro.cluster.event_queue import EventQueue
from repro.cluster.gpu import GpuSpec
from repro.cluster.node import RenderNode
from repro.cluster.storage import StorageModel, StorageSpec
from repro.core.chunks import ChunkedDecomposition, Dataset
from repro.core.job import JobType, RenderJob
from repro.util.units import GiB, MiB

COST = CostParameters(render_jitter=0.0)
POLICY = ChunkedDecomposition(256 * MiB)


def make_node(events, *, quota=GiB, finished=None, cost=COST, vram=False):
    storage = StorageModel(StorageSpec(bandwidth=100 * MiB, latency=0.01))
    return RenderNode(
        0,
        quota,
        cost,
        storage,
        events,
        gpu=GpuSpec(video_memory=512 * MiB) if vram else None,
        model_vram=vram,
        on_task_finish=finished,
    )


def make_tasks(n_chunks=4):
    ds = Dataset("ds", n_chunks * 256 * MiB)
    job = RenderJob(JobType.INTERACTIVE, ds, 0.0)
    return job.decompose(POLICY)


class TestExecution:
    def test_cold_task_pays_io(self):
        events = EventQueue()
        node = make_node(events)
        task = make_tasks()[0]
        node.enqueue(task)
        events.run()
        assert task.cache_hit is False
        expected_io = 0.01 + (256 * MiB) / (100 * MiB)
        assert task.io_time == pytest.approx(expected_io)
        render = COST.render_time(task.chunk.size, 4)
        assert task.finish_time == pytest.approx(expected_io + render)

    def test_warm_task_skips_io(self):
        events = EventQueue()
        node = make_node(events)
        tasks = make_tasks()
        node.cache.insert(tasks[0].chunk)
        node.enqueue(tasks[0])
        events.run()
        assert tasks[0].cache_hit is True
        assert tasks[0].io_time == 0.0

    def test_fifo_order(self):
        events = EventQueue()
        finished = []
        # The node reports each finished task's ``(job, index)`` row.
        node = make_node(events, finished=lambda n, row: finished.append(row[1]))
        for task in make_tasks():
            node.enqueue(task)
        events.run()
        assert finished == [0, 1, 2, 3]

    def test_serial_execution_times(self):
        """Tasks run one at a time on the render thread."""
        events = EventQueue()
        node = make_node(events)
        tasks = make_tasks(2)
        node.cache.insert(tasks[0].chunk)
        node.cache.insert(tasks[1].chunk)
        for t in tasks:
            node.enqueue(t)
        events.run()
        assert tasks[1].start_time == pytest.approx(tasks[0].finish_time)

    def test_stats_accumulate(self):
        events = EventQueue()
        node = make_node(events)
        tasks = make_tasks()
        node.cache.insert(tasks[0].chunk)
        for t in tasks:
            node.enqueue(t)
        events.run()
        assert node.tasks_executed == 4
        assert node.cache_hits == 1
        assert node.cache_misses == 3
        assert node.io_seconds > 0
        assert node.busy_time > 0

    def test_utilization_bounds(self):
        events = EventQueue()
        node = make_node(events)
        tasks = make_tasks(1)
        node.enqueue(tasks[0])
        events.run()
        assert node.utilization(events.now) == pytest.approx(1.0)
        assert node.utilization(0.0) == 0.0

    def test_wrong_node_assignment_rejected(self):
        events = EventQueue()
        node = make_node(events)
        task = make_tasks()[0]
        task.node = 3
        with pytest.raises(ValueError):
            node.enqueue(task)

    def test_cache_eviction_during_execution(self):
        """Quota of 2 chunks: executing a 5-chunk job cycles the cache."""
        events = EventQueue()
        node = make_node(events, quota=512 * MiB)
        ds = Dataset("big", 5 * 256 * MiB)
        job = RenderJob(JobType.BATCH, ds, 0.0)
        for t in job.decompose(POLICY):
            node.enqueue(t)
        events.run()
        assert node.cache_misses == 5
        assert len(node.cache) == 2

    def test_drain_check(self):
        events = EventQueue()
        node = make_node(events)
        node.enqueue(make_tasks()[0])
        with pytest.raises(AssertionError):
            node.drain_check()
        events.run()
        node.drain_check()


class TestRenderJitter:
    def test_jitter_changes_render_time_deterministically(self):
        import numpy as np

        cost = CostParameters(render_jitter=0.2)

        def run(seed):
            events = EventQueue()
            storage = StorageModel(StorageSpec())
            node = RenderNode(
                0, GiB, cost, storage, events, rng=np.random.default_rng(seed)
            )
            task = make_tasks()[0]
            node.cache.insert(task.chunk)
            node.enqueue(task)
            events.run()
            return task.finish_time

        assert run(1) == run(1)
        assert run(1) != run(2)

    def test_jitter_bounded(self):
        import numpy as np

        cost = CostParameters(render_jitter=0.2)
        nominal = cost.render_time(256 * MiB, 4)
        events = EventQueue()
        storage = StorageModel(StorageSpec())
        node = RenderNode(
            0, GiB, cost, storage, events, rng=np.random.default_rng(0)
        )
        tasks = make_tasks()
        for t in tasks:
            node.cache.insert(t.chunk)
            node.enqueue(t)
        events.run()
        for t in tasks:
            exec_time = t.finish_time - t.start_time
            assert 0.8 * nominal <= exec_time <= 1.2 * nominal


class TestVram:
    def test_vram_model_charges_upload(self):
        events = EventQueue()
        node = make_node(events, vram=True)
        tasks = make_tasks(2)
        for t in tasks:
            node.cache.insert(t.chunk)  # main-memory warm
        node.enqueue(tasks[0])
        events.run()
        render = COST.render_time(tasks[0].chunk.size, 2)
        upload = (256 * MiB) / (4 * GiB)
        assert tasks[0].finish_time == pytest.approx(render + upload)
        assert node.vram.uploads == 1

    def test_vram_hit_no_upload(self):
        events = EventQueue()
        node = make_node(events, vram=True)
        task_a = make_tasks(2)[0]
        node.cache.insert(task_a.chunk)
        node.enqueue(task_a)
        events.run()
        start = events.now
        job2 = RenderJob(JobType.INTERACTIVE, Dataset("ds", 2 * 256 * MiB), start)
        task_b = job2.decompose(POLICY)[0]  # same chunk key
        node.enqueue(task_b)
        events.run()
        render = COST.render_time(task_b.chunk.size, 2)
        assert task_b.finish_time - task_b.start_time == pytest.approx(render)

    def test_crash_clears_vram(self):
        """A revived node re-uploads what was resident before the crash."""
        events = EventQueue()
        node = make_node(events, vram=True)
        task_a = make_tasks(2)[0]
        node.cache.insert(task_a.chunk)
        node.enqueue(task_a)
        events.run()
        assert node.vram.resident(task_a.chunk)
        node.fail()
        node.revive()
        assert not node.vram.resident(task_a.chunk)
        job2 = RenderJob(JobType.INTERACTIVE, Dataset("ds", 2 * 256 * MiB), events.now)
        task_b = job2.decompose(POLICY)[0]  # same chunk key
        node.enqueue(task_b)
        events.run()
        assert task_b.cache_hit is False  # main memory died too
        render = COST.render_time(task_b.chunk.size, 2)
        upload = (256 * MiB) / (4 * GiB)
        assert task_b.finish_time - task_b.start_time == pytest.approx(
            task_b.io_time + upload + render
        )
        assert node.vram.uploads == 2

    def test_default_has_no_vram_model(self):
        events = EventQueue()
        node = make_node(events, vram=False)
        assert node.vram is None
