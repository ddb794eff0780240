"""repro — reproduction of "A Job Scheduling Design for Visualization
Services using GPU Clusters" (Hsu, Wang, Ma, Yu, Chen — IEEE CLUSTER 2012).

A locality-aware job scheduler for multi-user parallel volume rendering
services, with:

* the paper's cycle-based heuristic scheduler (``OURS``, Algorithm 1)
  and the five baselines it is evaluated against (FS, SF, FCFS, FCFSU,
  FCFSL),
* the cost model of §IV (task/job execution time, latency, framerate),
* a discrete-event GPU-cluster simulator (LRU memory quotas, disk I/O,
  optional explicit VRAM model; compositing priced by the cost model),
* a real software volume-rendering substrate (NumPy ray caster, sort-
  last compositing via binary swap / 2-3 swap over a simulated
  communicator),
* workload generators reproducing the four Table II scenarios,
* analysis/reporting for every table and figure of the evaluation,
* a structured observability layer (virtual-time spans/counters, Chrome
  trace-event export, per-node io/render/composite/idle profiles, live
  NDJSON telemetry streaming with online anomaly detection), and
* an overload-management frontend (admission control, backpressure,
  SLO-driven graceful degradation) for demand beyond cluster capacity,
* a fault-injection + self-healing subsystem (deterministic fault
  plans, oracle-free detection, audited recovery, root-cause analysis
  over the decision audit log), and
* a fleet-scale federation tier: N independent simulator shards behind
  a user router (consistent-hash or dataset-locality-aware) with a
  deterministic merged report.

Public API
----------

Two convenience entry points cover the common cases end to end:

* :func:`simulate` — build a Table II scenario and run it on one
  simulated cluster; returns a
  :class:`~repro.sim.SimulationResult`.
* :func:`federate` — shard a scenario across a federation of
  simulators; returns a :class:`~repro.federation.FederatedResult`.

Everything they accept (``RunConfig``, ``FederationConfig``,
``Scenario`` factories, scheduler names) and everything they return is
exported here; the lower-level building blocks
(:func:`run_simulation`, :func:`run_federation`, the scheduler
registry, the obs/faults/frontend subsystems) stay public for
composed use.

Quickstart::

    from repro import simulate

    result = simulate(scenario=1, scheduler="OURS", scale=0.2)
    print(result.summary().row())

Federated fleet::

    from repro import FederationConfig, federate

    merged = federate(
        scenario=4,
        scale=0.1,
        config=FederationConfig(shards=8, router="locality"),
    )
    print(merged.shard_table())

Overloaded service with protection::

    from repro import FrontendConfig, RunConfig, make_scenario, simulate

    overloaded = make_scenario(2, scale=0.2, load=2.5)
    protected = simulate(
        overloaded,
        "OURS",
        config=RunConfig(frontend=FrontendConfig.protective()),
    )
    print(protected.frontend.summary())
"""

from repro.cluster import (
    Cluster,
    CostParameters,
    EventQueue,
    GpuSpec,
    LinkSpec,
    LRUChunkCache,
    StorageSpec,
)
from repro.core import (
    Chunk,
    ChunkedDecomposition,
    Dataset,
    JobIdAllocator,
    JobType,
    RenderJob,
    RenderTask,
    SCHEDULER_NAMES,
    Scheduler,
    SchedulerTables,
    UniformDecomposition,
    action_framerate,
    framerate,
    job_latency,
    make_scheduler,
    register_scheduler,
)
from repro.federation import (
    FederatedResult,
    FederationConfig,
    build_shards,
    plan_replication,
    run_federation,
)
from repro.faults import (
    CacheWipe,
    DetectionConfig,
    FaultPlan,
    FaultReport,
    NodeCrash,
    RecoveryConfig,
    StorageDegrade,
    Straggler,
)
from repro.frontend import (
    AdmissionConfig,
    BackpressureConfig,
    DegradeConfig,
    FrontendConfig,
    FrontendStats,
    QualityLevel,
    QueuePolicy,
)
from repro.reporting import SchedulerSummary, SimulationCollector, comparison_table
from repro.obs import (
    AnomalyRecord,
    AuditConfig,
    AuditLog,
    ClusterProfile,
    CriticalPathAnalysis,
    NodeProfile,
    NullTracer,
    StreamConfig,
    StreamReport,
    Tracer,
    first_divergence,
    follow_stream,
    phase_delta_table,
    read_stream,
    score_anomalies,
    write_chrome_trace,
)
from repro.sim import (
    RunConfig,
    SimulationResult,
    SystemConfig,
    VisualizationService,
    compare_schedulers,
    run_simulation,
    system_anl,
    system_linux8,
)
from repro.workload import (
    Scenario,
    WorkloadTrace,
    make_scenario,
    persistent_actions,
    poisson_action_stream,
    poisson_batch_stream,
    scenario_1,
    scenario_2,
    scenario_3,
    scenario_4,
)

__version__ = "1.10.0"


def simulate(scenario=1, scheduler="OURS", *, config=None, scale=1.0,
             seed=None, load=1.0, users=1):
    """Run one scenario on one simulated cluster (the simple front door).

    Args:
        scenario: A Table II scenario number (1-4) or an already-built
            :class:`Scenario`.
        scheduler: Registry name (``OURS``, ``FCFS``, ...) or a
            :class:`Scheduler` instance.
        config: Optional :class:`RunConfig`.
        scale, seed, load, users: Scenario-builder knobs, used only
            when ``scenario`` is a number.

    Returns:
        The :class:`~repro.sim.SimulationResult`.
    """
    if not isinstance(scenario, Scenario):
        scenario = make_scenario(
            scenario, scale=scale, seed=seed, load=load, users=users
        )
    return run_simulation(scenario, scheduler, config=config)


def federate(scenario=4, scheduler="OURS", *, config=None, scale=1.0,
             seed=None, load=1.0, users=None):
    """Run one scenario across a federation of simulator shards.

    Args:
        scenario: A Table II scenario number (1-4) or an already-built
            :class:`Scenario`.
        scheduler: Per-shard scheduling policy (name or instance).
        config: Optional :class:`FederationConfig`; defaults to two
            locality-routed shards.
        scale, seed, load, users: Scenario-builder knobs, used only
            when ``scenario`` is a number.  ``users`` defaults to the
            shard count so each shard sees about one Table II load
            after routing.

    Returns:
        The merged :class:`~repro.federation.FederatedResult`.
    """
    if config is None:
        config = FederationConfig()
    if not isinstance(scenario, Scenario):
        scenario = make_scenario(
            scenario,
            scale=scale,
            seed=seed,
            load=load,
            users=config.shards if users is None else users,
        )
    return run_federation(scenario, scheduler, config)


__all__ = [
    "simulate",
    "federate",
    "FederationConfig",
    "FederatedResult",
    "run_federation",
    "build_shards",
    "plan_replication",
    "Cluster",
    "CostParameters",
    "EventQueue",
    "GpuSpec",
    "LinkSpec",
    "LRUChunkCache",
    "StorageSpec",
    "Chunk",
    "ChunkedDecomposition",
    "Dataset",
    "JobIdAllocator",
    "JobType",
    "RenderJob",
    "RenderTask",
    "SCHEDULER_NAMES",
    "Scheduler",
    "SchedulerTables",
    "UniformDecomposition",
    "action_framerate",
    "framerate",
    "job_latency",
    "make_scheduler",
    "register_scheduler",
    "CacheWipe",
    "DetectionConfig",
    "FaultPlan",
    "FaultReport",
    "NodeCrash",
    "RecoveryConfig",
    "StorageDegrade",
    "Straggler",
    "AdmissionConfig",
    "BackpressureConfig",
    "DegradeConfig",
    "FrontendConfig",
    "FrontendStats",
    "QualityLevel",
    "QueuePolicy",
    "SchedulerSummary",
    "SimulationCollector",
    "comparison_table",
    "Tracer",
    "NullTracer",
    "write_chrome_trace",
    "ClusterProfile",
    "NodeProfile",
    "AuditConfig",
    "AuditLog",
    "CriticalPathAnalysis",
    "first_divergence",
    "phase_delta_table",
    "StreamConfig",
    "StreamReport",
    "AnomalyRecord",
    "follow_stream",
    "read_stream",
    "score_anomalies",
    "RunConfig",
    "SimulationResult",
    "SystemConfig",
    "VisualizationService",
    "compare_schedulers",
    "run_simulation",
    "system_anl",
    "system_linux8",
    "Scenario",
    "WorkloadTrace",
    "make_scenario",
    "persistent_actions",
    "poisson_action_stream",
    "poisson_batch_stream",
    "scenario_1",
    "scenario_2",
    "scenario_3",
    "scenario_4",
    "__version__",
]
