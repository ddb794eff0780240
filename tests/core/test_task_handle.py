"""A task is a row: node queues hold ``(job, index)``, the job keeps the
state, and ``RenderTask`` is a handle built on read.

Covers the handle's read/write contract against the job's task store,
pickling, the handles ``fail`` and ``steal_backlog`` hand back, the
bytes a queued task costs, and that an untraced, fault-free run keeps
no task object once its tasks are dispatched.
"""

import gc
import itertools
import pickle
import tracemalloc

import pytest

from repro.cluster.costs import CostParameters
from repro.cluster.event_queue import EventQueue
from repro.cluster.node import RenderNode
from repro.cluster.storage import StorageModel, StorageSpec
from repro.core.chunks import ChunkedDecomposition, Dataset
from repro.core.job import (
    S_EST,
    S_FINISH,
    S_HIT,
    S_IO,
    S_NODE,
    S_START,
    TASK_WIDTH,
    JobType,
    RenderJob,
    RenderTask,
)
from repro.core.tables import SchedulerTables
from repro.obs.audit import AuditConfig
from repro.sim.run_config import RunConfig
from repro.sim.simulator import run_simulation
from repro.util.units import GiB, MiB
from repro.workload.scenarios import make_scenario

COST = CostParameters(render_jitter=0.0)
CHUNK = 64 * MiB
POLICY = ChunkedDecomposition(CHUNK)

#: Handle property → store slot.
FIELDS = {
    "node": S_NODE,
    "est": S_EST,
    "start_time": S_START,
    "finish_time": S_FINISH,
    "io_time": S_IO,
    "cache_hit": S_HIT,
}


def make_job(tasks=4, job_id=None, dataset="ds"):
    return RenderJob(
        JobType.INTERACTIVE, Dataset(dataset, tasks * CHUNK), 0.0, job_id=job_id
    )


def make_node(events, *, quota=GiB):
    storage = StorageModel(StorageSpec(bandwidth=100 * MiB, latency=0.01))
    return RenderNode(0, quota, COST, storage, events)


class TestHandle:
    def test_fresh_task_state(self):
        job = make_job()
        tasks = job.decompose(POLICY)
        assert len(job.task_state) == TASK_WIDTH * len(tasks)
        for task in tasks:
            assert (task.node, task.est, task.start_time, task.finish_time) == (
                None,
                None,
                None,
                None,
            )
            assert task.io_time == 0.0
            assert task.cache_hit is None
            assert task.assign_time is None

    def test_reads_and_writes_match_the_store(self):
        job = make_job()
        task = job.decompose(POLICY)[2]
        base = 2 * TASK_WIDTH
        for value, (name, slot) in enumerate(FIELDS.items(), start=1):
            setattr(task, name, float(value))
            assert job.task_state[base + slot] == float(value)
            job.task_state[base + slot] = -float(value)
            assert getattr(job.task(2), name) == -float(value)
        # No other task's slots moved.
        fresh = [None, None, None, None, 0.0, None]
        assert job.task_state[:base] == fresh * 2
        assert job.task_state[base + TASK_WIDTH :] == fresh

    def test_assign_time_lives_beside_the_store(self):
        job = make_job()
        tasks = job.decompose(POLICY)
        assert job.assign_times is None
        tasks[1].assign_time = 0.25
        assert job.assign_times == [None, 0.25, None, None]
        assert job.task(1).assign_time == 0.25

    def test_two_reads_compare_equal(self):
        job = make_job()
        first, second = job.decompose(POLICY), job.tasks
        assert first == second
        assert first[0] is not second[0]
        assert {first[0]: "x"}[second[0]] == "x"
        assert first[0] != make_job().decompose(POLICY)[0]

    def test_handle_starts_with_its_row(self):
        job = make_job()
        task = job.decompose(POLICY)[3]
        assert isinstance(task, RenderTask)
        assert task[:2] == (job, 3)
        assert (task.job, task.index, task.chunk) == (job, 3, job.chunks[3])
        assert RenderTask(job, 3, job.chunks[3]) == task

    def test_pickle_round_trip_keeps_fields(self):
        job = make_job(job_id=7)
        tasks = job.decompose(POLICY)
        tasks[0].node, tasks[0].start_time, tasks[0].cache_hit = 2, 1.5, True
        tasks[0].assign_time = 1.0
        restored = pickle.loads(pickle.dumps(tasks))
        assert [type(t) for t in restored] == [RenderTask] * 4
        # One job object behind every restored handle, with the state.
        assert all(t.job is restored[0].job for t in restored)
        for before, after in zip(tasks, restored):
            assert after.job.job_id == 7
            assert (after.index, after.chunk) == (before.index, before.chunk)
            for name in (*FIELDS, "assign_time"):
                assert getattr(after, name) == getattr(before, name)

    def test_audited_result_pickles_with_its_records(self):
        """Unread audit entries hold task handles; pickling the result
        materializes them into the same records."""
        config = RunConfig(drain=True, audit=AuditConfig(capacity=None))
        scenario = make_scenario(1, scale=0.02)
        reference = run_simulation(scenario, "OURS", config).audit.records
        result = run_simulation(scenario, "OURS", config)
        restored = pickle.loads(pickle.dumps(result))
        assert list(restored.audit.records) == list(reference)
        assert len(reference) > 0


class TestNodeHandsBackHandles:
    def test_fail_orphans_are_handles_with_reset_state(self):
        events = EventQueue()
        node = make_node(events)
        job = make_job(tasks=3)
        tasks = job.decompose(POLICY)
        for task in tasks:
            node.enqueue(task)
        running = tasks[0]
        assert running.start_time == 0.0 and running.cache_hit is False
        orphans = node.fail()
        assert orphans == tasks
        assert all(type(t) is RenderTask for t in orphans)
        for task in orphans:
            assert (task.node, task.start_time, task.finish_time) == (None,) * 3
            assert (task.io_time, task.cache_hit) == (0.0, None)
        assert node.backlog == 0 and not node.busy

    def test_fail_leaves_the_stale_prediction(self):
        events = EventQueue()
        node = make_node(events)
        task = make_job(tasks=1).decompose(POLICY)[0]
        task.est = 0.5
        node.enqueue(task)
        (orphan,) = node.fail()
        assert orphan.est == 0.5

    def test_steal_backlog_returns_unstarted_handles(self):
        events = EventQueue()
        node = make_node(events)
        job = make_job(tasks=3)
        tasks = job.decompose(POLICY)
        for task in tasks:
            node.enqueue(task)
        stolen = node.steal_backlog()
        assert stolen == tasks[1:]
        assert all(type(t) is RenderTask for t in stolen)
        assert all(t.node is None and t.start_time is None for t in stolen)
        assert node.running_tasks == tasks[:1]
        assert tasks[0].node == 0
        events.run()
        assert tasks[0].finish_time is not None

    def test_queue_holds_rows(self):
        events = EventQueue()
        node = make_node(events)
        job = make_job(tasks=3)
        for task in job.decompose(POLICY):
            node.enqueue(task)
        assert list(node.queue) == [job, 1, job, 2]
        assert node.backlog == 2
        assert node.queued_tasks() == job.tasks[1:]
        assert node.rows() == [(job, 0), (job, 1), (job, 2)]
        assert node.current_task == job.tasks[0]


def bytes_per_queued_task(tasks_per_job, jobs):
    """Traced bytes one queued task costs behind a busy node.

    The jobs exist before tracing starts; decomposition and enqueueing
    are traced, so the figure holds the job's task store, the queue's
    row and the per-job store header, and nothing a handle held (the
    handles are dropped once enqueued).
    """
    events = EventQueue()
    node = make_node(events)
    datasets = Dataset("ds", tasks_per_job * CHUNK)
    POLICY.decompose(datasets)  # the policy's chunk cache is per dataset
    pending = [
        RenderJob(JobType.BATCH, datasets, 0.0, job_id=i) for i in range(jobs)
    ]
    node.enqueue(pending[0].decompose(POLICY)[0])  # the busy task
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for job in pending:
            for task in job.decompose(POLICY):
                if task.node is None:
                    node.enqueue(task)
        after = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert node.backlog == tasks_per_job * jobs - 1
    return (after - before) / node.backlog


@pytest.mark.parametrize(
    "tasks_per_job,jobs,bound", [(64, 200, 80.0), (4, 3200, 110.0)]
)
def test_bytes_per_queued_task(tasks_per_job, jobs, bound):
    """A queued task was a 112-byte object plus two list slots (128
    bytes in this measurement, at either job size); it is now its two
    queue slots and its six slots in the job's store (65 bytes)."""
    assert bytes_per_queued_task(tasks_per_job, jobs) <= bound


def test_fault_free_run_keeps_no_task_object_after_dispatch(monkeypatch):
    """Mid-run, with thousands of tasks queued, no ``RenderTask`` is
    alive: FCFSU places every task at arrival, and the nodes, the
    tables and the service carry rows."""
    samples = []
    correct = SchedulerTables.correct_completion
    completions = itertools.count(1)

    def sampling_correct(self, task, node, now):
        correct(self, task, node, now)
        if next(completions) % 2000 == 0:
            live = sum(type(obj) is RenderTask for obj in gc.get_objects())
            samples.append((sum(self._pending_per_node), live))

    monkeypatch.setattr(SchedulerTables, "correct_completion", sampling_correct)
    result = run_simulation(make_scenario(3, scale=0.01), "FCFSU", RunConfig())
    assert result.jobs_completed < result.jobs_submitted
    assert max(in_flight for in_flight, _ in samples) > 500
    assert [live for _, live in samples] == [0] * len(samples)
