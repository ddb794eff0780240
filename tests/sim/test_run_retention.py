"""A run's live heap tracks its in-flight work, not the trace.

The simulator pauses the cyclic GC for the whole run, so anything a
reference cycle holds outlives the run.  A task handle refers to its
job, but no job refers to its tasks (their state lives in the job's
task store), so a finished job is freed by refcount as soon as the last
row or handle naming it goes.  These tests pause the GC themselves and
count the ``RenderJob`` / ``RenderTask`` instances that survive a run:
only unfinished jobs (and whatever an observer keeps on purpose) are
left.
"""

import dataclasses
import gc
from array import array
import hashlib
import itertools
import json
from contextlib import contextmanager

import pytest

from repro.core.job import RenderJob, RenderTask
from repro.core.tables import SchedulerTables
from repro.faults.plan import FaultPlan, RecoveryConfig
from repro.obs.audit import AuditConfig
from repro.frontend.config import FrontendConfig
from repro.sim.run_config import RunConfig
from repro.sim.simulator import run_simulation
from repro.workload.scenarios import make_scenario
from repro.workload.trace import Request


def _live():
    """Every ``RenderJob`` and ``RenderTask`` the GC can see."""
    jobs, tasks = [], []
    for obj in gc.get_objects():
        cls = type(obj)
        if cls is RenderJob:
            jobs.append(obj)
        elif cls is RenderTask:
            tasks.append(obj)
    return jobs, tasks


@contextmanager
def _gc_paused():
    was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


def retained_after(scenario, scheduler, config):
    """Run with the GC paused; return the result and the jobs/tasks the
    run left alive (anything alive beforehand is excluded)."""
    with _gc_paused():
        jobs_before, tasks_before = _live()
        seen_jobs = {id(j) for j in jobs_before}
        seen_tasks = {id(t) for t in tasks_before}
        del jobs_before, tasks_before
        result = run_simulation(scenario, scheduler, config)
        jobs, tasks = _live()
        jobs = [j for j in jobs if id(j) not in seen_jobs]
        tasks = [t for t in tasks if id(t) not in seen_tasks]
    return result, jobs, tasks


def _storm_config(scenario):
    return RunConfig(
        drain=True,
        faults=FaultPlan.storm(
            5,
            node_count=scenario.system.node_count,
            duration=scenario.trace.duration,
        ),
    )


DRAINED = {
    "s1-fcfs": (lambda: make_scenario(1, scale=0.05), "FCFS", None),
    "s1-ours": (lambda: make_scenario(1, scale=0.05), "OURS", None),
    "s3-fcfsu": (lambda: make_scenario(3, scale=0.01), "FCFSU", None),
    "s2-ours-healed-storm": (
        lambda: make_scenario(2, scale=0.05),
        "OURS",
        _storm_config,
    ),
}


@pytest.mark.parametrize("name", sorted(DRAINED))
def test_drained_run_retains_no_jobs_or_tasks(name):
    build, scheduler, make_config = DRAINED[name]
    scenario = build()
    config = (
        make_config(scenario) if make_config is not None else RunConfig(drain=True)
    )
    result, jobs, tasks = retained_after(scenario, scheduler, config)
    assert result.drained
    assert result.jobs_completed == result.jobs_submitted > 0
    assert (len(jobs), len(tasks)) == (0, 0)


@pytest.mark.parametrize(
    "config",
    [
        RunConfig(),
        RunConfig(
            frontend=FrontendConfig.protective(max_sessions=8, queue_limit=32)
        ),
    ],
    ids=["horizon", "frontend"],
)
def test_bounded_run_retains_only_unfinished_jobs(config):
    scenario = make_scenario(2, scale=0.05, load=2.5)
    result, jobs, tasks = retained_after(scenario, "OURS", config)
    unfinished = result.jobs_submitted - result.jobs_completed
    assert unfinished > 0, "the run must end with work in flight"
    assert len(jobs) == unfinished
    assert all(job.finish_time is None for job in jobs)
    # Every surviving task handle belongs to a surviving job.  Queued
    # tasks are rows, not objects: the handles left are the ones the
    # policy's batch backlog holds.
    survivors = {id(job) for job in jobs}
    assert all(id(task.job) in survivors for task in tasks)
    assert len(tasks) <= sum(job.task_count for job in jobs)


def test_audited_run_keeps_every_job_by_design():
    """The causal collector keeps completed jobs for critical paths."""
    scenario = make_scenario(2, scale=0.05)
    result, jobs, _ = retained_after(
        scenario, "OURS", RunConfig(drain=True, audit=True)
    )
    assert result.jobs_completed == result.jobs_submitted > 0
    assert len(jobs) == result.jobs_submitted


# ---------------------------------------------------------------------------
# Readers of ``task.job`` after completion still see the job.  The
# constants were recorded while tasks were objects.
# ---------------------------------------------------------------------------


def test_audit_records_materialized_after_the_run_are_unchanged():
    """Deferred audit entries carry their task handle, so records built
    after every job completed match the originals."""
    result = run_simulation(
        make_scenario(2, scale=0.05),
        "OURS",
        RunConfig(drain=True, audit=AuditConfig(capacity=None)),
    )
    assert result.jobs_completed == result.jobs_submitted
    digest = hashlib.sha256()
    for record in result.audit.records:
        digest.update(json.dumps(record.to_dict(), sort_keys=True).encode())
        digest.update(b"\n")
    assert result.audit.total_recorded == 3724
    assert digest.hexdigest() == (
        "139335481b73f345333d413ce9e90d2f69f724a75641b6dac17b5d87e8f1788e"
    )


@pytest.mark.parametrize(
    "number,scheduler,scale,expected",
    [
        (
            2,
            "OURS",
            0.05,
            "4b987986d600d86bd9a429db7e10d2bf218c236a8cd7f3ed91e96942fbd05639",
        ),
        (
            3,
            "FCFSU",
            0.01,
            "8435faf8d33e5fd999e6ebb9778f58e70165afbf8ff96804569c3662b8eab341",
        ),
    ],
)
def test_recorded_trace_is_unchanged(number, scheduler, scale, expected):
    """The assignment recorder reads every finished task's row; it
    still records the trace it recorded when tasks were objects."""
    result = run_simulation(
        make_scenario(number, scale=scale),
        scheduler,
        RunConfig(record_assignments=True),
    )
    assert len(result.assignment_trace) == result.tasks_executed
    assert result.assignment_trace_hash() == expected


# ---------------------------------------------------------------------------
# The head node's tables hold no task.  Each in-flight prediction lives in
# its job's task store (``RenderTask.est``), so a task stranded by a lost
# job or left unfinished at the horizon is not kept alive by the tables.
# ---------------------------------------------------------------------------


def _tasks_held_by(tables):
    """``RenderTask`` objects in the tables' slots, one referent level down."""
    held = 0
    for name in SchedulerTables.__slots__:
        value = getattr(tables, name, None)
        for obj in [value, *gc.get_referents(value)]:
            if type(obj) is RenderTask:
                held += 1
    return held


def _no_requeue_crash():
    return dataclasses.replace(
        FaultPlan.parse("crash@1:node=0"), recovery=RecoveryConfig(requeue=False)
    )


TASK_FREE_TABLES = {
    # Overloaded at the horizon: thousands of tasks still queued.
    "s3-fcfsu-horizon": (lambda: make_scenario(3, scale=0.01), "FCFSU", None),
    # The crashed node's tasks are never requeued, so their jobs are lost.
    "s1-ours-crash-no-requeue": (
        lambda: make_scenario(1, scale=0.05),
        "OURS",
        _no_requeue_crash,
    ),
}


@pytest.mark.parametrize("name", sorted(TASK_FREE_TABLES))
def test_tables_hold_no_task_mid_run_or_after(name, monkeypatch):
    build, scheduler, make_plan = TASK_FREE_TABLES[name]
    built = []
    init = SchedulerTables.__init__

    def recording_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self)

    samples = []  # (tasks in flight, tasks held) every 500th completion
    correct = SchedulerTables.correct_completion
    completions = itertools.count(1)

    def sampling_correct(self, task, node, now):
        correct(self, task, node, now)
        if next(completions) % 500 == 0:
            samples.append((sum(self._pending_per_node), _tasks_held_by(self)))

    monkeypatch.setattr(SchedulerTables, "__init__", recording_init)
    monkeypatch.setattr(SchedulerTables, "correct_completion", sampling_correct)
    config = RunConfig(faults=make_plan() if make_plan is not None else None)
    result = run_simulation(build(), scheduler, config)
    assert result.jobs_completed < result.jobs_submitted
    (tables,) = built
    assert any(in_flight > 0 for in_flight, _ in samples)
    assert [held for _, held in samples] == [0] * len(samples)
    assert _tasks_held_by(tables) == 0


# ---------------------------------------------------------------------------
# The arrival feed: the queue holds a bounded slice of the trace.  The
# simulator feeds arrivals ``FEED_CHUNK`` at a time instead of building an
# event per request up front.
# ---------------------------------------------------------------------------


def _live_requests():
    return sum(type(obj) is Request for obj in gc.get_objects())


def test_trace_holds_no_per_request_objects():
    """The trace is typed columns: no ``Request`` and no boxed time per row."""
    trace = make_scenario(2, scale=0.1).trace
    requests = trace.requests
    assert len(requests) > 1000
    held = gc.get_referents(requests)
    assert not [obj for obj in held if isinstance(obj, (Request, float))]
    assert sum(map(len, (obj for obj in held if isinstance(obj, array)))) == (
        6 * len(requests)
    )


def test_queue_holds_at_most_one_chunk_of_arrivals(monkeypatch):
    from repro.cluster.event_queue import FEED_CHUNK
    from repro.sim.service import VisualizationService

    scenario = make_scenario(1, scale=0.25)
    requests = len(scenario.trace.requests)
    assert requests > FEED_CHUNK, "the trace must need more than one chunk"
    built, unbuilt = [], []  # sorted-run size and len() at each arrival
    rows = {}  # arrival index -> Request rows alive besides the one in hand
    before = _live_requests()  # rows other tests may keep
    submit = VisualizationService.submit_request
    # Right after each refill, and a few times in between.
    sample_at = set(range(0, requests, 500)) | {
        FEED_CHUNK - 1,
        FEED_CHUNK,
        FEED_CHUNK + 1,
    }

    def sampling_submit(self, request, dataset):
        events = self.cluster.events
        if len(built) in sample_at:
            rows[len(built)] = _live_requests() - before - 1
        built.append(len(events._ahead))
        unbuilt.append(len(events) - len(events._heap) - len(events._ahead))
        submit(self, request, dataset)

    monkeypatch.setattr(VisualizationService, "submit_request", sampling_submit)
    result = run_simulation(scenario, "OURS", RunConfig(drain=True))
    assert result.drained and result.jobs_completed == requests
    assert len(built) == requests
    assert max(built) <= FEED_CHUNK
    # len() counted every arrival not yet built, so it shrank by one per
    # arrival whichever container held it.
    assert unbuilt[0] == requests - FEED_CHUNK
    assert [b + u for b, u in zip(built, unbuilt)] == list(
        range(requests - 1, -1, -1)
    )
    # Request rows are built from the trace's columns a chunk at a time
    # and dropped once submitted: the rows alive are the built chunk.
    assert rows[0] == FEED_CHUNK - 1
    assert rows[FEED_CHUNK] == min(FEED_CHUNK, requests - FEED_CHUNK) - 1
    assert max(rows.values()) <= FEED_CHUNK
    assert _live_requests() == before
