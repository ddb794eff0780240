"""Property-based end-to-end invariants of the simulation.

Random small workloads are driven through the full service under every
scheduler, then structural invariants are checked:

* task conservation — every submitted job's tasks execute exactly once;
* time sanity — ``JI <= JS <= TF <= JF`` per job, clock monotonicity;
* **cache-mirror exactness** — the head node's mirrored ``Cache`` table
  equals each rendering node's actual LRU content at quiescence (the
  property the whole locality design rests on);
* accounting — hit + miss counts match executed tasks; storage loads
  balance.
"""

from typing import List

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.chunks import dataset_suite
from repro.core.registry import SCHEDULER_NAMES, make_scheduler
from repro.sim.config import system_linux8
from repro.sim.service import VisualizationService
from repro.sim.simulator import run_simulation
from repro.util.units import GiB, MiB
from repro.workload.actions import poisson_action_stream
from repro.workload.batch import poisson_batch_stream
from repro.workload.scenarios import Scenario
from repro.workload.trace import merge_traces


def random_scenario(seed: int, *, nodes: int = 4, n_datasets: int = 3) -> Scenario:
    system = system_linux8(node_count=nodes, memory_quota=1 * GiB)
    datasets = dataset_suite(n_datasets, 1 * GiB)  # 2 chunks each @512MiB
    interactive = poisson_action_stream(
        datasets,
        3.0,
        arrival_rate=1.5,
        mean_action_duration=1.0,
        target_framerate=100.0 / 3.0,
        seed=seed,
        name="rand-i",
    )
    batch = poisson_batch_stream(
        datasets,
        3.0,
        submission_rate=0.8,
        mean_frames=4,
        seed=seed + 1,
        name="rand-b",
    )
    return Scenario(
        name=f"rand{seed}",
        system=system,
        trace=merge_traces([interactive, batch], name=f"rand{seed}"),
        prewarm=(seed % 2 == 0),
    )


def run_with_service(scenario: Scenario, scheduler_name: str):
    """Like run_simulation but keeps the service/cluster for inspection."""
    from repro.cluster.event_queue import EventQueue, PRIORITY_ARRIVAL

    scheduler = make_scheduler(scheduler_name)
    events = EventQueue()
    cluster = scenario.system.build_cluster(events=events)
    service = VisualizationService(cluster, scheduler, scenario.system.chunk_max)
    if scenario.prewarm:
        service.prewarm(scenario.trace.datasets)
    datasets = {d.name: d for d in scenario.trace.datasets}
    jobs: List = []

    def submit(request, dataset):
        from repro.core.job import RenderJob

        job = RenderJob(
            request.job_type,
            dataset,
            cluster.now,
            user=request.user,
            action=request.action,
            sequence=request.sequence,
        )
        jobs.append(job)
        service.submit(job)

    # Preload the trace the way ``run_simulation`` does, so the
    # invariants hold over the bulk arrival path.
    events.schedule_many(
        (
            (request.time, submit, (request, datasets[request.dataset]))
            for request in scenario.trace.requests
        ),
        priority=PRIORITY_ARRIVAL,
    )
    service.start()
    events.run()  # to quiescence (drain)
    return service, jobs


@pytest.mark.parametrize("scheduler_name", SCHEDULER_NAMES)
def test_invariants_each_scheduler(scheduler_name):
    scenario = random_scenario(17)
    service, jobs = run_with_service(scenario, scheduler_name)
    _check_invariants(service, jobs)


@given(seed=st.integers(0, 10_000))
@settings(max_examples=12, deadline=None)
def test_invariants_random_workloads_ours(seed):
    scenario = random_scenario(seed)
    service, jobs = run_with_service(scenario, "OURS")
    _check_invariants(service, jobs)


@given(seed=st.integers(0, 10_000))
@settings(max_examples=8, deadline=None)
def test_invariants_random_workloads_fcfsl(seed):
    scenario = random_scenario(seed)
    service, jobs = run_with_service(scenario, "FCFSL")
    _check_invariants(service, jobs)


def _check_invariants(service: VisualizationService, jobs) -> None:
    cluster = service.cluster

    # -- task conservation --------------------------------------------------
    assert not service.has_work(), "drained run must be quiescent"
    assert service.jobs_completed == len(jobs)
    total_tasks = sum(j.task_count for j in jobs)
    assert cluster.total_tasks_executed() == total_tasks
    hits = sum(n.cache_hits for n in cluster.nodes)
    misses = sum(n.cache_misses for n in cluster.nodes)
    assert hits + misses == total_tasks

    # -- per-job time sanity --------------------------------------------------
    for job in jobs:
        assert job.is_complete
        assert job.arrival_time <= job.start_time() + 1e-12
        assert job.start_time() <= job.last_task_finish()
        assert job.last_task_finish() <= job.finish_time
        for task in job.tasks:
            assert task.node is not None
            assert 0 <= task.io_time
            assert task.start_time <= task.finish_time

    # -- cache-mirror exactness -----------------------------------------------
    for k, node in enumerate(cluster.nodes):
        mirror = service.tables.mirrors[k]
        assert mirror.chunks() == node.cache.chunks(), (
            f"head-node mirror of node {k} diverged from reality"
        )
        mirror.check_invariants()
    service.tables.check_invariants()

    # -- storage accounting ------------------------------------------------------
    assert cluster.storage.active_loads == 0
    assert cluster.storage.total_loads == misses
