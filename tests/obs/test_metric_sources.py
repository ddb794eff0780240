"""One count per quantity: built-in metrics equal the simulator's counts.

The built-in counters and gauges read the plain attributes the nodes,
storage, collector and frontend already keep.  These tests run every
feature that owns such a count at once and check each series against
its source, after the run closed the registry and after pickling.
"""

from __future__ import annotations

import dataclasses
import pickle

import pytest

from repro.cluster.node import RenderNode
from repro.cluster.storage import StorageModel
from repro.core.job import JobType
from repro.faults.plan import FaultPlan, NodeCrash
from repro.frontend.config import (
    AdmissionConfig,
    BackpressureConfig,
    DegradeConfig,
    FrontendConfig,
    QueuePolicy,
)
from repro.obs.metrics import Histogram, MetricsRegistry
from repro.sim.run_config import RunConfig
from repro.sim.simulator import run_simulation
from repro.workload.scenarios import scenario_1, scenario_2


@pytest.fixture(scope="module")
def storm_run():
    """Drained overloaded Scenario 2 run: frontend, healed storm, metrics.

    Returns the result plus the nodes and storage model the run's
    metric hooks were handed, captured by wrapping those hooks.
    """
    nodes, storages = [], []
    node_hook, storage_hook = RenderNode.set_metrics, StorageModel.set_metrics

    def capture_node(self, registry):
        nodes.append(self)
        node_hook(self, registry)

    def capture_storage(self, registry):
        storages.append(self)
        storage_hook(self, registry)

    scenario = scenario_2(scale=0.05, load=2.5)
    config = RunConfig(
        drain=True,
        metrics=True,
        frontend=FrontendConfig(
            admission=AdmissionConfig(rate=50.0, max_sessions=8),
            backpressure=BackpressureConfig(
                queue_limit=64, policy=QueuePolicy.SHED_OLDEST
            ),
            degrade=DegradeConfig(),
        ),
        faults=FaultPlan.storm(
            11,
            node_count=scenario.system.node_count,
            duration=scenario.trace.duration,
        ),
    )
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(RenderNode, "set_metrics", capture_node)
        mp.setattr(StorageModel, "set_metrics", capture_storage)
        result = run_simulation(scenario, "OURS", config=config)
    return result, nodes, storages[0]


def _expected(result, nodes, storage):
    """Every reader-backed built-in series and the count it must equal."""
    fe = result.frontend
    collector = result.collector
    out = {
        ("repro_frontend_admitted", None): fe.requests_seen - fe.rejected,
        ("repro_frontend_rejected", ("reason", "reject-rate")): fe.rejected_rate,
        (
            "repro_frontend_rejected",
            ("reason", "reject-sessions"),
        ): fe.rejected_sessions,
        ("repro_frontend_quality_level", None): fe.final_quality_level,
        ("repro_frontend_frames_dropped", None): fe.frames_dropped,
        ("repro_frontend_wait_depth", None): fe.unserved_at_end,
        ("repro_frontend_deferred", None): fe.deferred,
        ("repro_frontend_shed", ("which", "oldest")): fe.shed_oldest,
        ("repro_frontend_shed", ("which", "newest")): fe.shed_newest,
        ("repro_cache_hits", None): result.tasks_hit,
        ("repro_cache_misses", None): result.tasks_missed,
        ("repro_tasks_executed", None): result.tasks_hit + result.tasks_missed,
        ("repro_io_seconds", None): sum(p.io_seconds for p in result.profile.nodes),
        ("repro_io_timeouts", None): sum(n.io_timeouts for n in nodes),
        ("repro_io_loads", None): storage.total_loads,
        ("repro_io_bytes", None): storage.total_bytes,
        (
            "repro_sched_assignments",
            ("scheduler", "OURS"),
        ): collector.scheduling.tasks_assigned,
    }
    for t in JobType:
        label = ("type", t.value)
        out[("repro_jobs_submitted", label)] = collector.submitted_by_type[t]
        out[("repro_jobs_completed", label)] = sum(
            1 for r in result.records if r.job_type is t
        )
    return out


def _value(registry, name, label):
    return registry.value(name, dict([label]) if label else None)


class TestOneCountAcrossFeatures:
    def test_the_run_exercises_every_source(self, storm_run):
        result, nodes, _ = storm_run
        fe = result.frontend
        assert result.drained
        assert fe.rejected_rate and fe.rejected_sessions and fe.shed_oldest
        assert fe.frames_dropped and fe.quality_changes
        assert result.fault_report.crashes and result.fault_report.revivals
        assert result.tasks_missed and nodes

    def test_each_built_in_equals_its_source(self, storm_run):
        result, nodes, storage = storm_run
        registry = result.metrics.registry
        for (name, label), expected in _expected(result, nodes, storage).items():
            assert _value(registry, name, label) == expected, name

    def test_job_counts_are_the_collectors(self, storm_run):
        result, _, _ = storm_run
        collector = result.collector
        assert result.jobs_submitted == sum(collector.submitted_by_type.values())
        assert result.jobs_completed == len(result.records)

    def test_values_survive_pickling(self, storm_run):
        result, nodes, storage = storm_run
        clone = pickle.loads(pickle.dumps(result))
        registry = clone.metrics.registry
        assert registry.to_prometheus() == result.metrics.registry.to_prometheus()
        for (name, label), expected in _expected(result, nodes, storage).items():
            assert _value(registry, name, label) == expected, name


def test_reused_registry_accumulates_counters():
    """Two serial runs on one registry add up, as pushed counters did."""
    scenario = scenario_1(scale=0.05)
    shared = MetricsRegistry()
    first = run_simulation(scenario, "OURS", RunConfig(metrics=shared))
    after_first = {
        (m.name, m.labels): m.value
        for m in shared
        if m.kind == "counter"
    }
    second = run_simulation(scenario, "FCFSL", RunConfig(metrics=shared))
    alone = run_simulation(scenario, "FCFSL", RunConfig(metrics=True))
    assert first.metrics.registry is second.metrics.registry is shared
    for metric in alone.metrics.registry:
        if metric.kind != "counter":
            continue
        key = (metric.name, metric.labels)
        total = shared.get(metric.name, dict(metric.labels)).value
        assert total == pytest.approx(after_first.get(key, 0.0) + metric.value)
    latency = shared.get("repro_job_latency_seconds", {"type": "interactive"})
    assert isinstance(latency, Histogram)
    assert latency.count == sum(
        1
        for result in (first, second)
        for r in result.records
        if r.job_type is JobType.INTERACTIVE
    )


def test_crash_during_load_backoff_counts_the_miss_once():
    """A crash that voids a load in timeout backoff keeps one miss count.

    Every cold load times out once and backs off for a second; node 0
    crashes while its first load is backing off, and the orphaned task
    misses again wherever it is re-dispatched.  The registry counts
    misses and executions when a task begins, like the nodes do.
    """
    scenario = scenario_2(scale=0.02)
    storage = dataclasses.replace(
        scenario.system.storage, timeout=0.01, max_retries=1, backoff=1.0
    )
    scenario = dataclasses.replace(
        scenario,
        prewarm=False,
        system=scenario.system.with_overrides(storage=storage),
    )
    result = run_simulation(
        scenario,
        "OURS",
        RunConfig(
            drain=True,
            metrics=True,
            faults=FaultPlan(events=(NodeCrash(0.5, 0),)),
        ),
    )
    registry = result.metrics.registry
    assert result.drained and registry.value("repro_io_timeouts") > 0
    assert registry.value("repro_cache_misses") == result.tasks_missed
    assert registry.value("repro_tasks_executed") == (
        result.tasks_hit + result.tasks_missed
    )
