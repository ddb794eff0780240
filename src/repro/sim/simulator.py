"""Top-level simulation runner: scenario x scheduler → results.

:func:`run_simulation` wires a scenario's cluster, a scheduler, and the
workload trace into one discrete-event run and returns a
:class:`SimulationResult` with everything the evaluation section reports
(framerates, latencies, hit rates, scheduling costs, utilization).

Run options travel in one :class:`~repro.sim.run_config.RunConfig`::

    result = run_simulation(scenario, "OURS", config=RunConfig(drain=True))

A run is a core plus ``_PARTS``, an ordered tuple with one generator
function per optional feature.  The core builds the queue, cluster,
service and probe, feeds the arrivals to the queue in bounded chunks,
runs, drains and builds the result.  A part returns at once when its
feature is off.  Its code up to the first ``yield`` runs before the
service is built (it may set the tracer, registry or audit log the
service takes); up to the second it wires the feature in and registers
closers, which close in reverse, probe first, however the run ends; the
rest supplies its result fields.
The order is a contract: it fixes event-queue sequence numbers, probe
grid order, listener order and metric registration order.

:func:`run_many` is the one way to run many independent simulations,
serially or on a process pool; :func:`compare_schedulers` uses it to
run the same scenario under several policies — the shape of Figs. 4-7.
"""

from __future__ import annotations

import gc
import hashlib
import time as _time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from itertools import repeat
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.faults.injector import FaultReport
    from repro.obs.stream import StreamReport

from repro.cluster.cluster import Cluster
from repro.cluster.event_queue import EventQueue
from repro.core.cost_model import mean
from repro.core.job import JobIdAllocator, JobType
from repro.core.registry import make_scheduler
from repro.core.scheduler_base import Scheduler
from repro.reporting.analysis import (
    LatencyStats,
    SchedulerSummary,
    batch_working_time,
    delivered_framerates_by_action,
    framerates_by_action,
    latency_stats,
    mean_interactive_framerate,
    summarize,
)
from repro.reporting.collectors import JobRecords, SimulationCollector
from repro.reporting.timeline import TimelineSampler
from repro.obs.audit import AuditConfig, AuditLog
from repro.obs.causal import CausalCollector, CriticalPathAnalysis
from repro.obs.counters import CounterSampler, default_counter_interval
from repro.obs.metrics import (
    MetricsRegistry,
    MetricsSampler,
    RunMetrics,
    default_window_interval,
)
from repro.obs.probe import Probe
from repro.obs.profile import ClusterProfile
from repro.obs.tracer import PID_HEAD, Tracer, active_tracer, pid_for_node
from repro.frontend.frontend import FrontendStats, ServiceFrontend
from repro.sim.run_config import RunConfig
from repro.sim.service import VisualizationService
from repro.workload.scenarios import Scenario


#: One completed task assignment: ``(user, action, sequence, task_index,
#: dataset, chunk_index, node_id, start_time, finish_time, io_time,
#: cache_hit)``.  Job ids are deliberately absent — they depend on the
#: run's id-allocator namespace, so shard-namespaced federated runs
#: would hash differently from otherwise-identical plain runs;
#: ``(user, action, sequence)`` identifies the job instead.
AssignmentRecord = Tuple[
    int, int, int, int, str, int, int, float, float, float, bool
]


def hash_assignment_trace(trace: Sequence[AssignmentRecord]) -> str:
    """A bit-exact digest of an assignment trace.

    Floats are hashed via :meth:`float.hex`, so two traces hash equal
    only when every timestamp matches to the last bit — the invariant
    the golden-trace tests pin across optimizations and across
    serial/parallel sweep execution.
    """
    digest = hashlib.sha256()
    for rec in trace:
        digest.update(
            "|".join(
                v.hex() if isinstance(v, float) else repr(v) for v in rec
            ).encode()
        )
        digest.update(b"\n")
    return digest.hexdigest()


@dataclass
class SimulationResult:
    """Everything measured in one scenario x scheduler run."""

    scenario_name: str
    scheduler_name: str
    horizon: float
    target_framerate: float
    collector: SimulationCollector
    jobs_submitted: int
    jobs_completed: int
    simulated_time: float
    events_processed: int
    mean_node_utilization: float
    drained: bool
    tasks_executed: int = 0
    tasks_hit: int = 0
    tasks_missed: int = 0
    timeline_samples: Optional["TimelineSampler"] = None
    profile: Optional["ClusterProfile"] = None
    tracer: Optional["Tracer"] = None
    metrics: Optional["RunMetrics"] = None
    frontend: Optional["FrontendStats"] = None
    assignment_trace: Optional[List[AssignmentRecord]] = None
    audit: Optional["AuditLog"] = None
    critical_paths: Optional["CriticalPathAnalysis"] = None
    fault_report: Optional["FaultReport"] = None
    #: Wall-clock seconds spent inside the event loop (including drain).
    wall_seconds: float = 0.0
    stream: Optional["StreamReport"] = None

    @property
    def events_per_sec(self) -> float:
        """Event-loop throughput: events processed per wall second."""
        if self.wall_seconds <= 0.0:
            return 0.0
        return self.events_processed / self.wall_seconds

    def assignment_trace_hash(self) -> str:
        """Digest of the recorded assignment trace.

        Requires the run to have used
        ``RunConfig(record_assignments=True)``.
        """
        if self.assignment_trace is None:
            raise ValueError(
                "no assignment trace recorded; run with "
                "RunConfig(record_assignments=True)"
            )
        return hash_assignment_trace(self.assignment_trace)

    # -- job records -----------------------------------------------------------

    @property
    def records(self) -> JobRecords:
        """All completed-job records (a read-only, column-wise sequence)."""
        return self.collector.records

    @property
    def unfinished_jobs(self) -> int:
        """Jobs submitted but not completed within the run."""
        return self.jobs_submitted - self.jobs_completed

    # -- headline metrics --------------------------------------------------------

    @property
    def frame_interval(self) -> float:
        """Request spacing of one action: 1 / target framerate."""
        return 1.0 / self.target_framerate

    def interactive_framerates(self) -> Dict[int, float]:
        """Definition-4 framerate per interactive action."""
        return framerates_by_action(self.records)

    def delivered_framerates(self) -> Dict[int, float]:
        """Delivered framerate per interactive action."""
        return delivered_framerates_by_action(
            self.records, self.collector.action_issues, self.frame_interval
        )

    @property
    def interactive_fps(self) -> float:
        """Mean per-action *delivered* framerate (Fig. 4-7 bars)."""
        return mean(list(self.delivered_framerates().values()))

    @property
    def interactive_fps_definition4(self) -> float:
        """Mean per-action Definition-4 framerate (completion spacing)."""
        return mean_interactive_framerate(self.records)

    @property
    def interactive_latency(self) -> LatencyStats:
        """Interactive-job latency summary (Fig. 4-7 marked lines)."""
        return latency_stats(self.records, JobType.INTERACTIVE)

    @property
    def batch_latency(self) -> LatencyStats:
        """Batch-job latency summary (Fig. 5-7 left bars)."""
        return latency_stats(self.records, JobType.BATCH)

    @property
    def batch_working_time(self) -> float:
        """Mean batch ``JExec`` (Fig. 5-7 right bars)."""
        return batch_working_time(self.records)

    @property
    def hit_rate(self) -> float:
        """Data-reuse hit rate over *executed* tasks (Table III).

        Counts every task the rendering nodes ran (hits and misses are
        tallied when a task begins executing), including tasks of jobs
        that had not fully completed by the horizon; the collector's
        per-completed-job hit counts remain available via
        ``collector.hit_rate``.
        """
        total = self.tasks_hit + self.tasks_missed
        if total == 0:
            return 0.0
        return self.tasks_hit / total

    @property
    def sched_cost_us(self) -> float:
        """Average scheduling cost per job in µs (Table III)."""
        return self.collector.scheduling.mean_cost_per_job_us

    # -- observability -----------------------------------------------------

    def timeline(self, *, slo_reports=(), top_paths: int = 3):
        """Join this run's recorders into one drawable timeline model.

        Requires the run to have carried a tracer
        (``RunConfig(tracer=Tracer())``); audit, critical-path, and
        fault data are folded in when present.  See
        :func:`repro.obs.timeline.extract_timeline`.

        Raises:
            repro.obs.timeline.TimelineError: If no trace was recorded.
        """
        from repro.obs.timeline import extract_timeline

        return extract_timeline(
            self, slo_reports=slo_reports, top_paths=top_paths
        )

    def node_utilization_fractions(self) -> Dict[int, Dict[str, float]]:
        """Per-node ``{io, render, composite, idle}`` fractions.

        Each node's four fractions sum to 1.0; see
        :class:`~repro.obs.profile.NodeProfile`.
        """
        if self.profile is None:
            return {}
        return {p.node_id: p.fractions() for p in self.profile.nodes}

    def profile_table(self, *, title: str = "") -> str:
        """The per-node time-breakdown text table."""
        if self.profile is None:
            return "(no profile recorded)"
        return self.profile.table(title=title)

    def summary(self) -> SchedulerSummary:
        """One comparison row for this run."""
        return summarize(
            self.scheduler_name,
            self.records,
            hit_rate=self.hit_rate,
            sched_cost_us=self.sched_cost_us,
            action_issues=self.collector.action_issues,
            frame_interval=self.frame_interval,
        )


def run_simulation(
    scenario: Scenario,
    scheduler: Union[str, Scheduler],
    config: Optional[RunConfig] = None,
) -> SimulationResult:
    """Run one scenario under one scheduler.

    Args:
        scenario: System configuration + workload trace.
        scheduler: A registry name (e.g. ``"OURS"``) or an instance.
        config: A :class:`~repro.sim.run_config.RunConfig` describing
            how to run — drain control, storage seed, observability
            (tracer / metrics / timeline), the fault plan, and the
            overload-management ``frontend``.  ``None`` means all
            defaults (horizon-bounded, uninstrumented, no frontend).

    Returns:
        A :class:`SimulationResult` (``result.profile`` carries the
        per-node io/render/composite/idle breakdown; ``result.frontend``
        the overload accounting when a frontend was configured).
    """
    if config is None:
        config = RunConfig()
    return _run(scenario, scheduler, config)


class _Run:
    """One run's shared state: what the core builds and the parts extend."""

    def __init__(self, scenario: Scenario, scheduler: Scheduler, config: RunConfig):
        self.scenario = scenario
        self.scheduler = scheduler
        self.config = config
        self.horizon = scenario.trace.duration
        #: Where periodic clocks stop; drained runs tick to quiescence.
        self.stop_at = None if config.drain else self.horizon
        self.events = EventQueue()
        self.cluster = scenario.system.build_cluster(
            events=self.events, storage_seed=config.storage_seed
        )
        self.tracer = self.registry = self.audit = self.faults = None
        self.closers: list = []
        self.fields: dict = {}


def _audit(run: _Run):
    config = run.config.audit
    if not config:
        return
    run.audit = AuditLog(
        config if isinstance(config, AuditConfig) else AuditConfig(),
        scheduler=run.scheduler.name,
        scenario=run.scenario.name,
    )
    causal = CausalCollector()
    yield
    # A per-job completion listener, not a per-task cluster listener:
    # the cluster keeps its single-listener task-finish fast path and
    # the collector fires once per job, after finish_time is set.
    run.service.add_completion_listener(causal.on_job_complete)
    run.closers.append(run.audit)
    yield
    run.fields.update(audit=run.audit, critical_paths=causal.analysis())


def _frontend(run: _Run):
    if run.config.frontend is None:
        return
    yield
    frontend = ServiceFrontend(
        run.config.frontend,
        run.service,
        target_framerate=run.scenario.target_framerate,
        horizon=run.stop_at,
        metrics=run.registry,
        audit=run.audit,
    )
    run.submit = frontend.submit_request
    run.starts.append(frontend.start)
    run.pending.append(lambda: frontend.waiting_count > 0)
    yield
    run.fields["frontend"] = frontend.stats()


def _metrics(run: _Run):
    registry = run.config.metrics
    # An explicit registry counts even while empty (``len() == 0``).
    if not isinstance(registry, MetricsRegistry):
        if not registry:
            return
        registry = MetricsRegistry()
    run.registry = registry
    yield
    for node in run.cluster.nodes:
        node.set_metrics(registry)
    run.cluster.storage.set_metrics(registry)
    window = run.config.metrics_interval or default_window_interval(run.horizon)
    run.probe.add(MetricsSampler(registry, window))
    series = run.probe.series(window)
    # Counters and gauges read the run's live objects; freezing them
    # keeps the result picklable and lets the cluster go.
    run.closers.append(registry)
    yield
    run.fields["metrics"] = RunMetrics(
        registry=registry,
        windows=[s.window for s in series if s.window is not None],
        scenario=run.scenario.name,
        scheduler=run.scheduler.name,
    )


def _tracer(run: _Run):
    tracer = run.tracer = active_tracer(run.config.tracer)
    if tracer is None:
        return
    yield
    tracer.name_process(PID_HEAD, "head node")
    for node in run.cluster.nodes:
        tracer.name_process(pid_for_node(node.node_id), f"render node {node.node_id}")
        node.set_tracer(tracer)
        if run.audit is not None:
            node.set_flow_events(True)
    interval = run.config.counter_interval or default_counter_interval(run.horizon)
    run.probe.add(
        CounterSampler(tracer, interval, per_node_cache=run.cluster.node_count <= 16)
    )
    run.fields["tracer"] = tracer


def _assignments(run: _Run):
    if not run.config.record_assignments:
        return
    yield
    trace: List[AssignmentRecord] = []
    record = trace.append

    def _record_assignment(node, task) -> None:
        job = task.job
        record(
            (
                job.user,
                job.action,
                job.sequence,
                task.index,
                task.chunk.dataset,
                task.chunk.index,
                node.node_id,
                task.start_time,
                task.finish_time,
                task.io_time,
                bool(task.cache_hit),
            )
        )

    run.cluster.add_task_finish_listener(_record_assignment)
    run.fields["assignment_trace"] = trace


def _prewarm(run: _Run):
    if not run.scenario.prewarm:
        return
    yield
    run.service.prewarm(run.scenario.trace.datasets)


def _timeline(run: _Run):
    if run.config.timeline_interval is None:
        return
    yield
    series = run.probe.series(run.config.timeline_interval)
    yield
    run.fields["timeline_samples"] = TimelineSampler(series)


def _faults(run: _Run):
    if run.config.faults is None:
        return
    yield
    # Lazy import: fault-free runs never touch the subsystem.
    from repro.faults.injector import FaultRuntime

    run.faults = FaultRuntime(run.config.faults, run.service)
    run.faults.arm()
    yield
    run.fields["fault_report"] = run.faults.finalize()


def _stream(run: _Run):
    config = run.config.stream
    if config is None:
        return
    yield
    # Lazy import like the fault subsystem's.
    from repro.obs.stream import TelemetryStream

    interval = config.interval or default_window_interval(run.horizon)
    stream = TelemetryStream(
        replace(config, interval=interval),
        scenario=run.scenario.name,
        scheduler=run.scheduler.name,
        horizon=run.stop_at,
        target_framerate=run.scenario.target_framerate,
        job_namespace=run.config.job_namespace,
    )
    if run.faults is not None:
        stream.note_injections(run.faults.report.injections)
    stream.attach(run.service, run.probe)
    run.closers.append(stream)
    yield
    run.fields["stream"] = stream.report()


#: Every optional run feature, in attach order; see the module docstring.
_PARTS = (
    _audit,  # the decision audit log and the causal critical paths
    _frontend,  # admission, backpressure and degradation
    _metrics,  # the metrics registry, its gauges and its windows
    _tracer,  # the virtual-time tracer and its counter tracks
    _assignments,  # the per-task trace the golden hashes digest
    _prewarm,  # the paper's test run: caches loaded before time starts
    _timeline,  # cluster-dynamics samples for the timeline plots
    _faults,  # the fault plan, with its detection and recovery
    _stream,  # live NDJSON telemetry and its stall watchdog
)


def _advance(parts) -> None:
    """Run every part to its next ``yield`` (or its end)."""
    for part in parts:
        next(part, None)


def _run(
    scenario: Scenario,
    scheduler: Union[str, Scheduler],
    config: RunConfig,
) -> SimulationResult:
    """The core run: service, probe and one loop, with the parts attached."""
    if isinstance(scheduler, str):
        scheduler = make_scheduler(scheduler)
    scheduler.reset()
    run = _Run(scenario, scheduler, config)
    events, cluster, horizon = run.events, run.cluster, run.horizon
    parts = [part(run) for part in _PARTS]
    _advance(parts)
    service = run.service = VisualizationService(
        cluster,
        scheduler,
        scenario.system.chunk_max,
        tracer=run.tracer,
        metrics=run.registry,
        audit=run.audit,
        job_ids=JobIdAllocator(config.job_namespace),
    )
    # One clock for every periodic observer; see :mod:`repro.obs.probe`.
    probe = run.probe = Probe(service, horizon=run.stop_at)
    run.submit = service.submit_request
    run.starts = [service.start]
    run.pending = [service.has_work]

    def has_pending() -> bool:
        return any(pending() for pending in run.pending)

    # The cyclic GC is paused for the whole run: feed, loop and drain.
    # The service releases completed jobs' task back-references, so
    # finished work is freed by refcount and a drained run leaves no
    # cyclic garbage behind; generational sweeps over the live
    # simulation graph would be pure overhead.  The ``finally`` restores
    # the GC and closes what the parts registered (releasing the
    # service, the watchdog thread and file handles: results must
    # pickle), even when a part, a policy or a listener raises.
    gc_was_enabled = gc.isenabled()
    try:
        _advance(parts)
        run.closers.append(probe)
        probe.start()
        gc.disable()
        # Stream the trace into the queue's sorted arrival run, a chunk
        # at a time, so the event heap only ever holds self-scheduled
        # work and the queue holds a bounded slice of the trace.  The
        # trace is columns; each arrival's Request row is built, by C
        # iterators over the columns, only when its chunk is fed.
        requests = scenario.trace.requests
        events.feed(
            zip(
                requests.time,
                repeat(run.submit),
                zip(
                    requests,
                    map(scenario.trace.datasets.__getitem__, requests.dataset_code),
                ),
            ),
            len(requests),
        )
        for start in run.starts:
            start()
        wall_t0 = _time.perf_counter()
        events.run(until=horizon)
        drained = not has_pending()
        if config.drain and not drained:
            # The drain ends right after the event that finishes the
            # last piece of work.  The service requests the stop test
            # wherever in-flight work reaches zero, so the loop tests
            # ``has_pending`` only there instead of after every event.
            limit = (
                None
                if config.max_drain_time is None
                else horizon + config.max_drain_time
            )
            events.run(until=limit, stop=lambda: not has_pending())
            drained = not has_pending()
        wall_seconds = _time.perf_counter() - wall_t0
        service.release_completed()
    finally:
        if gc_was_enabled:
            gc.enable()
        for closer in reversed(run.closers):
            closer.close()
    _advance(parts)

    now = max(events.now, 1e-9)
    return SimulationResult(
        scenario_name=scenario.name,
        scheduler_name=scheduler.name,
        horizon=horizon,
        target_framerate=scenario.target_framerate,
        collector=service.collector,
        jobs_submitted=service.jobs_submitted,
        jobs_completed=service.jobs_completed,
        simulated_time=events.now,
        events_processed=events.processed,
        mean_node_utilization=cluster.mean_utilization(now),
        drained=drained,
        tasks_executed=sum(n.tasks_executed for n in cluster.nodes),
        tasks_hit=sum(n.cache_hits for n in cluster.nodes),
        tasks_missed=sum(n.cache_misses for n in cluster.nodes),
        profile=ClusterProfile.from_cluster(cluster, now),
        wall_seconds=wall_seconds,
        **run.fields,
    )


#: One independent run of :func:`run_many`.  The scenario is a
#: :class:`Scenario` or a zero-arg builder; the scheduler is a registry
#: name, an instance, or a zero-arg factory.
RunPoint = Tuple[
    Union[Scenario, Callable[[], Scenario]],
    Union[str, Scheduler, Callable[[], Scheduler]],
    RunConfig,
]


def _run_point(point: RunPoint) -> SimulationResult:
    """Build one point's scenario and scheduler and run them (picklable)."""
    scenario, scheduler, config = point
    if not isinstance(scenario, Scenario):
        scenario = scenario()
    if not isinstance(scheduler, (str, Scheduler)):
        scheduler = scheduler()
    return run_simulation(scenario, scheduler, config)


def run_many(
    points: Iterable[RunPoint], *, workers: int = 1
) -> List[SimulationResult]:
    """Run independent simulations; results come back in input order.

    ``workers=1`` runs the points one after another in this process.
    ``workers > 1`` runs them on a process pool of
    ``min(workers, len(points))`` processes; every point (builders,
    schedulers, configs) must then be picklable — module-level
    functions, :func:`functools.partial` of them, registry names and
    instances are; lambdas and closures are not.  Each run is
    deterministic, so both paths return the same results.

    Raises:
        ValueError: For ``workers < 1``.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    points = list(points)
    if workers == 1 or not points:
        return [_run_point(point) for point in points]
    with ProcessPoolExecutor(max_workers=min(workers, len(points))) as pool:
        return list(pool.map(_run_point, points))


def compare_schedulers(
    scenario: Scenario,
    schedulers: Sequence[Union[str, Scheduler]],
    *,
    config: Optional[RunConfig] = None,
    drain: bool = False,
    max_drain_time: Optional[float] = None,
) -> List[SimulationResult]:
    """Run the same scenario under each scheduler (Figs. 4-7 harness).

    Every run replays the identical trace on a fresh cluster.  Pass a
    :class:`~repro.sim.run_config.RunConfig` to control the runs; the
    ``drain`` / ``max_drain_time`` shortcuts remain for the common case.
    """
    if config is None:
        config = RunConfig(drain=drain, max_drain_time=max_drain_time)
    return run_many((scenario, sched, config) for sched in schedulers)


__all__ = [
    "RunConfig",
    "SimulationResult",
    "run_simulation",
    "run_many",
    "compare_schedulers",
    "hash_assignment_trace",
]
