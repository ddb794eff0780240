"""The fault layer reads and rewrites each task's own prediction.

A placed task's predicted execution time lives in its job's task store
(read through a handle as ``RenderTask.est``).  A cache-wipe rewarm revises it (and moves
``Available`` by the same amount), and the prepended surprise-miss
listener reads it before the completion correction clears it.
"""

import pytest

from repro.core.chunks import Dataset
from repro.core.fcfs import FCFSScheduler
from repro.core.job import JobType, RenderJob
from repro.core.tables import SchedulerTables
from repro.faults import CacheWipe, DetectionConfig, FaultPlan, RecoveryConfig
from repro.faults.injector import FaultRuntime
from repro.faults.recovery import RecoveryEngine
from repro.sim.run_config import RunConfig
from repro.sim.simulator import run_simulation
from repro.util.units import GiB
from repro.workload.scenarios import make_scenario

from tests.sim.test_service import make_service


def placed_on(service, node):
    """The tasks running or queued on ``node``, as handles."""
    node_obj = service.cluster.nodes[node]
    return node_obj.running_tasks + node_obj.queued_tasks()


def submit(service, dataset, at=0.0):
    job = RenderJob(JobType.INTERACTIVE, dataset, at)
    service.submit(job)
    return job


def test_rewarm_rewrites_slot_and_moves_available_by_the_delta():
    service = make_service(FCFSScheduler(), nodes=1)
    dataset = Dataset("ds", GiB)
    events = service.cluster.events
    submit(service, dataset)
    events.run()  # node 0 now caches all four chunks, mirror too
    submit(service, dataset, at=events.now)
    tables = service.tables
    pending = placed_on(service, 0)
    assert len(pending) == 4
    renders = [
        tables.cost.render_time(t.chunk.size, t.job.composite_group_size)
        for t in pending
    ]
    assert [t.est for t in pending] == renders  # predicted hits
    before = tables.available[0]
    service.cluster.nodes[0].cache.clear()  # the wipe
    engine = RecoveryEngine(RecoveryConfig(), service)
    assert engine.rewarm(0, now=events.now) > 0
    revised = [tables.io_estimate(t.chunk) + r for t, r in zip(pending, renders)]
    assert [t.est for t in pending] == revised
    delta = sum(new - old for new, old in zip(revised, renders))
    assert tables.available[0] == pytest.approx(before + delta)


def test_surprise_miss_listener_sees_the_placement_prediction(monkeypatch):
    """The listener runs before the completion correction, so on every
    finish it reads the task's current prediction: the one recorded when
    it was placed, or the rewarm's revision of it."""
    last_placed = {}
    record = SchedulerTables.record_assignment

    def recording_record(self, task, node, now):
        est = record(self, task, node, now)
        last_placed[task.job, task.index] = est
        return est

    rewarm = RecoveryEngine.rewarm

    def recording_rewarm(self, node, now):
        reloading = rewarm(self, node, now)
        for task in placed_on(self.service, node):
            last_placed[task.job, task.index] = task.est
        return reloading

    seen = []
    listener = FaultRuntime._on_task_finish

    def recording_listener(self, node, row):
        job, index = row
        seen.append((job.task(index).est, last_placed[job, index]))
        return listener(self, node, row)

    monkeypatch.setattr(SchedulerTables, "record_assignment", recording_record)
    monkeypatch.setattr(RecoveryEngine, "rewarm", recording_rewarm)
    monkeypatch.setattr(FaultRuntime, "_on_task_finish", recording_listener)
    plan = FaultPlan(
        events=(CacheWipe(2.0, node=1),),
        detection=DetectionConfig(),
        recovery=RecoveryConfig(),
    )
    result = run_simulation(
        make_scenario(1, scale=0.05), "OURS", RunConfig(drain=True, faults=plan)
    )
    assert len(seen) == result.tasks_executed > 0
    assert [d.kind for d in result.fault_report.detections] == ["wipe"]
    assert all(est is not None for est, _ in seen)
    assert [est for est, _ in seen] == [placed for _, placed in seen]
