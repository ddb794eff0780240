"""The visualization service: head-node logic (paper §III-A, Fig. 1).

The head node communicates with users and manages the rendering nodes.
Its *listening thread* converts incoming requests to rendering jobs and
pushes them to a job queue; its *dispatching thread* pops jobs, applies
the data-decomposition policy and the scheduling scheme, and distributes
tasks to rendering nodes; completed jobs are composited and returned.

In the simulation, :class:`VisualizationService` owns:

* the scheduler and its head-node tables (with completion corrections),
* the trigger machinery (immediate / ω-cycle / batch-window),
* job lifecycle tracking (tasks outstanding → job finish + compositing),
* measurement of the scheduling procedure's wall-clock cost (Table III).

Scheduling-cycle events self-terminate when no work remains and are
re-armed by the next submission, so a simulation can be run to event-
queue exhaustion (drain) or stopped at a horizon.  Wherever in-flight
work reaches zero (a task completion, or a dispatch that leaves nothing
in flight) the service calls
:meth:`~repro.cluster.event_queue.EventQueue.request_stop_check`, so a
draining run tests "is all work done?" only after those events.
"""

from __future__ import annotations

import time as _time
from typing import Dict, List, Optional

from repro.cluster.cluster import Cluster
from repro.cluster.event_queue import PRIORITY_CYCLE
from repro.cluster.node import RenderNode, Row
from repro.core.job import JOB_TYPES, JobIdAllocator, JobType, RenderJob, RenderTask
from repro.core.scheduler_base import Scheduler, SchedulerContext, Trigger
from repro.core.tables import SchedulerTables
from repro.reporting.collectors import SimulationCollector
from repro.obs.audit import REASON_FALLBACK
from repro.obs.tracer import PID_HEAD, LaneRef, active_tracer, pid_for_node
from repro.workload.trace import Request

#: Bound once: ``submit`` runs per job and reads the trigger member.
_IMMEDIATE = Trigger.IMMEDIATE
_CYCLE = Trigger.CYCLE


class VisualizationService:
    """Head-node job queue, dispatcher, and bookkeeping.

    Args:
        cluster: The cluster to dispatch onto.
        scheduler: The scheduling policy.
        chunk_max: ``Chkmax`` for the scheduler's decomposition policy.
        collector: Optional measurement sink (one is created if absent).
        tracer: Optional :class:`~repro.obs.tracer.Tracer`.  When given
            (and enabled), the service emits head-node instants (job
            submit/complete), one span per scheduler invocation, and one
            compositing span per job; it is also shared with policies
            via ``ctx.tracer``.
        metrics: Optional :class:`~repro.obs.metrics.MetricsRegistry`.
            When given, the service exposes the collector's job
            submission/completion and placement counts through it and
            observes job-latency and scheduler-cost histograms into it;
            it is also shared with policies via ``ctx.metrics``.
            ``None`` (default) costs nothing.
        audit: Optional :class:`~repro.obs.audit.AuditLog`.  When
            given, every placement routed through ``ctx.assign``
            records a decision entry, and (if a tracer is also active)
            the service emits Chrome flow events linking each job's
            causal chain.  ``None`` (default) costs nothing.
        job_ids: Optional :class:`~repro.core.job.JobIdAllocator` this
            service draws job ids from.  Each service gets a fresh
            namespace-0 allocator by default, so every run's ids start
            at 0 regardless of process history; a federation passes
            shard-namespaced allocators so merged ids never collide.
    """

    def __init__(
        self,
        cluster: Cluster,
        scheduler: Scheduler,
        chunk_max: int,
        *,
        collector: Optional[SimulationCollector] = None,
        tracer=None,
        metrics=None,
        audit=None,
        job_ids: Optional[JobIdAllocator] = None,
    ) -> None:
        self.cluster = cluster
        self.scheduler = scheduler
        self.job_ids = job_ids if job_ids is not None else JobIdAllocator()
        self.decomposition = scheduler.make_decomposition(
            cluster.node_count, chunk_max
        )
        quota = cluster.nodes[0].cache.capacity
        self.tables = SchedulerTables(
            cluster.node_count,
            quota,
            cluster.cost,
            cluster.storage,
            executors_per_node=cluster.nodes[0].executors,
        )
        self.tracer = active_tracer(tracer)
        self.metrics = metrics
        self.audit = audit
        # Flow events tie the causal chain together on the Chrome
        # timeline; they need both the timeline (tracer) and the causal
        # bookkeeping (audit) to mean anything.
        self._flows = self.tracer is not None and audit is not None
        if self.tracer is not None:
            # The lanes the job rows land on, taken once.
            self._jobs_lane = LaneRef(PID_HEAD, "jobs")
            self._composite_lanes = [
                LaneRef(pid_for_node(k), "composite")
                for k in range(cluster.node_count)
            ]
        self.collector = collector if collector is not None else SimulationCollector()
        self._bind_metrics()
        self.ctx = SchedulerContext(
            cluster,
            self.tables,
            self.decomposition,
            tracer=self.tracer,
            metrics=self.metrics,
            audit=self.audit,
        )
        cluster.add_task_finish_listener(self._on_task_finish, rows=True)
        # Completion-path bindings (one lookup per task otherwise).
        self._correct_completion = self.tables.correct_completion
        self._composite_times = cluster.cost.composite_times
        self._nodes = cluster.nodes

        self._datasets: Dict[str, object] = {}
        self._pending: List[RenderJob] = []
        #: Tasks dispatched to nodes and not yet finished.  Per-job
        #: completion is tracked on ``RenderJob.tasks_left`` (set at
        #: decomposition); this aggregate only answers ``has_work``.
        self._tasks_inflight = 0
        self._events = cluster.events
        #: Optional fault-injection hook: ``guard(assignment) -> bool``.
        #: Returning True absorbs the placement (the head node believes
        #: it was dispatched; the fault runtime stashes the task).  None
        #: → one identity check per dispatch batch, faults-off runs stay
        #: bit-identical.
        self._dispatch_guard = None
        self._cycle_armed = False
        self._window_generation = 0
        self._completion_listeners: List = []

    def _bind_metrics(self) -> None:
        """Register the collector's counts and bind the two histograms."""
        registry = self.metrics
        if registry is None:
            self._latency_histograms = self._sched_cost_histogram = None
            return
        collector = self.collector
        submitted = collector.submitted_by_code
        completed = collector.completed_by_code
        for code, t in enumerate(JOB_TYPES):
            registry.counter(
                "repro_jobs_submitted",
                "rendering jobs accepted by the head node",
                labels={"type": t.value},
            ).read_from(lambda code=code: submitted[code])
        for code, t in enumerate(JOB_TYPES):
            registry.counter(
                "repro_jobs_completed",
                "rendering jobs completed (compositing included)",
                labels={"type": t.value},
            ).read_from(lambda code=code: completed[code])
        self._latency_histograms = {
            t: registry.histogram(
                "repro_job_latency_seconds",
                "Definition-3 job latency (JF - JI)",
                labels={"type": t.value},
            )
            for t in JobType
        }
        labels = {"scheduler": self.scheduler.name}
        self._sched_cost_histogram = registry.histogram(
            "repro_sched_cost_seconds",
            "wall-clock cost of one scheduler invocation (Table III)",
            labels=labels,
        )
        scheduling = collector.scheduling
        registry.counter(
            "repro_sched_assignments",
            "task placements produced by the scheduler",
            labels=labels,
        ).read_from(lambda: scheduling.tasks_assigned)

    def add_completion_listener(self, callback) -> None:
        """Register ``callback(job)`` to fire on every job completion.

        Used by closed-loop workload drivers (users who pace their
        requests by delivered frames) and custom instrumentation.
        """
        self._completion_listeners.append(callback)

    # -- prewarm ("test run") --------------------------------------------------

    def prewarm(self, datasets: "List[object]") -> int:
        """Pre-load chunk caches before measurement (the paper's test run).

        The Estimate table is initialized via a test run (§V-B); that
        same run leaves the dataset chunks resident in node memory —
        Scenarios 1 and 3 explicitly rely on data being "completely
        cached".  Chunks are placed round-robin (or by their pinned node
        under the uniform decomposition) while they fit without
        eviction; node caches and the head-node mirrors are updated in
        lockstep so the Cache table stays exact.

        Returns:
            The number of chunks made resident.
        """
        from repro.core.chunks import UniformDecomposition

        uniform = isinstance(self.decomposition, UniformDecomposition)
        p = self.cluster.node_count
        loaded = 0
        cursor = 0
        for ds in datasets:
            for chunk in self.decomposition.decompose(ds):  # type: ignore[arg-type]
                if uniform:
                    candidates = [chunk.index]
                else:
                    candidates = [(cursor + off) % p for off in range(p)]
                for k in candidates:
                    node = self.cluster.nodes[k]
                    if chunk.size <= node.cache.free_bytes:
                        node.cache.insert(chunk)
                        self.tables.warm(chunk, k)
                        if self.tracer is not None:
                            self._trace_prewarm(chunk, k)
                        loaded += 1
                        cursor = (k + 1) % p
                        break
        return loaded

    def _trace_prewarm(self, chunk, k: int) -> None:
        """Trace one prewarm load as an io span at t=0 on node ``k``.

        The prewarm models the paper's pre-measurement test run, which
        really does stream every chunk off storage; the spans overlap at
        the origin because the warm-up happens before simulated time
        starts.
        """
        from repro.obs.tracer import CAT_IO

        self.tracer.complete(
            pid_for_node(k),
            "io",
            f"prewarm {chunk.dataset}[{chunk.index}]",
            0.0,
            self.cluster.storage.estimate_load_time(chunk.size),
            category=CAT_IO,
            args={"bytes": chunk.size, "prewarm": True},
        )

    # -- submission ----------------------------------------------------------

    def build_job(
        self, request: Request, dataset: object, arrival_time: float
    ) -> RenderJob:
        """Convert a request to a job with an id from this service.

        Every trace-driven submission path (direct or through the
        frontend) builds jobs here, so all of a run's ids come from one
        allocator — which is what keeps them collision-free across
        federated shards.
        """
        return RenderJob(
            request.job_type,
            dataset,  # type: ignore[arg-type]
            arrival_time,
            user=request.user,
            action=request.action,
            sequence=request.sequence,
            job_id=self.job_ids.allocate(),
        )

    def submit_request(self, request: Request, dataset: object) -> None:
        """Listener-thread path: convert a request to a job and queue it."""
        self.submit(self.build_job(request, dataset, self._events._now))

    def submit(self, job: RenderJob) -> None:
        """Queue a rendering job according to the scheduler's trigger."""
        self.collector.on_submit(job)
        if self.tracer is not None:
            self.tracer.record_submit(
                self._jobs_lane,
                self._events._now,
                job.job_type,
                job.job_id,
                job.user,
                job.action,
                self._flows,
            )
        trigger = self.scheduler.trigger
        if trigger is _IMMEDIATE:
            self._run_scheduler([job])
        elif trigger is _CYCLE:
            self._pending.append(job)
            self._arm_cycle()
        else:  # Trigger.WINDOW
            self._pending.append(job)
            if len(self._pending) >= self.scheduler.window_size:
                self._flush_window()
            elif len(self._pending) == 1:
                generation = self._window_generation
                self.cluster.events.schedule_after(
                    self.scheduler.window_timeout,
                    self._on_window_timeout,
                    generation,
                    priority=PRIORITY_CYCLE,
                )

    # -- triggers ------------------------------------------------------------

    def _arm_cycle(self) -> None:
        """Ensure a scheduling-cycle event is pending."""
        if not self._cycle_armed:
            self._cycle_armed = True
            self.cluster.events.schedule_after(
                self.scheduler.cycle, self._on_cycle, priority=PRIORITY_CYCLE
            )

    def start(self) -> None:
        """Arm the first scheduling cycle for cycle-triggered schedulers.

        Harmless for other triggers; idempotent.
        """
        if self.scheduler.trigger is Trigger.CYCLE:
            self._arm_cycle()

    def _on_cycle(self) -> None:
        jobs = self._pending
        self._pending = []
        self._run_scheduler(jobs)
        # Re-arm while the scheduler still holds deferred work or new
        # jobs arrived during this cycle's scheduling; otherwise go
        # quiescent until the next submission re-arms us.
        self._cycle_armed = False
        if self._pending or self.scheduler.pending_task_count() > 0:
            self._arm_cycle()

    def _on_window_timeout(self, generation: int) -> None:
        if generation == self._window_generation and self._pending:
            self._flush_window()

    def _flush_window(self) -> None:
        jobs = self._pending
        self._pending = []
        self._window_generation += 1
        self._run_scheduler(jobs)

    # -- scheduling ------------------------------------------------------------

    def _run_scheduler(self, jobs: List[RenderJob]) -> None:
        """Invoke the policy, measure its cost, dispatch its assignments."""
        if self.audit is not None:
            self.audit.begin_invocation(self._events._now, len(jobs))
        t0 = _time.perf_counter()
        self.scheduler.schedule(jobs, self.ctx)
        elapsed = _time.perf_counter() - t0
        assignments = self.ctx.take_assignments()
        self.collector.scheduling.record(elapsed, len(jobs), len(assignments))
        if self._sched_cost_histogram is not None and (jobs or assignments):
            self._sched_cost_histogram.observe(elapsed)
        if self.tracer is not None and (jobs or assignments):
            # One span per scheduler invocation.  The span starts at the
            # invocation's virtual instant; its duration is the measured
            # wall-clock scheduling cost (the Table III quantity), which
            # makes expensive invocations visibly wider on the timeline.
            self.tracer.complete(
                PID_HEAD,
                "scheduler",
                f"schedule[{self.scheduler.name}]",
                self.cluster.now,
                elapsed,
                category="sched",
                args={"jobs": len(jobs), "assignments": len(assignments)},
            )
        self._dispatch(assignments)

    def _dispatch(self, assignments) -> None:
        """Enqueue each assignment's task on its node's FIFO queue."""
        inflight = self._tasks_inflight + len(assignments)
        self._tasks_inflight = inflight
        nodes = self._nodes
        guard = self._dispatch_guard
        if guard is None:
            for task, k in assignments:
                nodes[k].enqueue(task)
        else:
            for assignment in assignments:
                # An absorbed task stays counted in flight — the head
                # node believes the (silently dead) node is executing
                # it, and the count is reconciled at crash detection.
                if not guard(assignment):
                    nodes[assignment.node].enqueue(assignment.task)
        if not inflight:
            # Every scheduler invocation ends here, as do the paths that
            # take tasks out of flight without completing them (crash
            # orphans, requeues): a policy that places nothing can leave
            # the service idle.
            self._events.request_stop_check()

    def requeue_tasks(self, tasks: List[RenderTask], *, reason: str) -> None:
        """Take ``tasks`` out of flight and re-place them through the policy.

        The one re-placement path of the fault layer (a crash's orphans,
        a quarantined node's stolen backlog): callers have already
        reconciled the tables; this routes the tasks back through
        ``reschedule``, so every re-placement is audited with ``reason``,
        and dispatches the resulting assignments, which count the tasks
        in flight again.
        """
        if tasks:
            self._tasks_inflight -= len(tasks)
            self.scheduler.reschedule(tasks, self.ctx, reason=reason)
            self._dispatch(self.ctx.take_assignments())

    # -- fault tolerance (paper §VI-D) -------------------------------------

    def fail_node(self, node_id: int) -> int:
        """Crash rendering node ``node_id`` and recover its workload.

        The node's in-flight and queued tasks are re-dispatched to the
        surviving nodes via the scheduler's ``reschedule`` policy
        (locality-aware by default: chunks with live replicas stay
        cached, the rest reload from the file system).  Returns the
        number of tasks recovered.
        """
        orphans = self.cluster.nodes[node_id].fail()
        self.tables.mark_node_failed(node_id)
        self.requeue_tasks(orphans, reason=REASON_FALLBACK)
        return len(orphans)

    # -- completion ------------------------------------------------------------

    def _on_task_finish(self, node: RenderNode, row: Row) -> None:
        """Task-finish listener: ``row`` is the finished task's
        ``(job, index)``; the job's task store is read directly."""
        now = self._events._now
        self._correct_completion(row, node.node_id, now)
        inflight = self._tasks_inflight - 1
        self._tasks_inflight = inflight
        if not inflight:
            # The last in-flight task finished: a drain may be over.
            self._events.request_stop_check()
        job = row[0]
        left = job.tasks_left - 1
        job.tasks_left = left
        if left:
            return
        # The job's one pass over its tasks feeds both compositing and
        # the collector's JobRecord.
        summary = job.completion_summary()
        # The compositing thread assembles the final image after the last
        # render; it extends job latency but frees the render thread.
        group_nodes = summary[0]
        group = len(group_nodes)
        composite = self._composite_times[group]
        job.finish_time = now + composite
        nodes = self._nodes
        for k in group_nodes:
            # Each participant's compositing thread works for the
            # exchange's duration (sort-last compositing is collective).
            nodes[k].composite_seconds += composite
        self.collector.on_job_complete(job, summary)
        if self._latency_histograms is not None:
            self._latency_histograms[job.job_type].observe(
                job.finish_time - job.arrival_time
            )
        if self.tracer is not None:
            self._trace_completion(job, now, composite, group_nodes)
        for listener in self._completion_listeners:
            listener(job)

    def _trace_completion(
        self, job: RenderJob, now: float, composite: float, group_nodes: List[int]
    ) -> None:
        """Record the job's compositing span and completion instant.

        The span lives on the *root* participant's ``composite`` lane
        (the lowest node id of the render group — the rank that holds
        the assembled image in sort-last compositing).
        """
        root = min(group_nodes) if group_nodes else 0
        self.tracer.record_completion(
            self._composite_lanes[root],
            self._jobs_lane,
            now,
            composite,
            len(group_nodes),
            job.job_id,
            job.job_type,
            job.arrival_time,
            self._flows,
        )

    # -- state ---------------------------------------------------------------

    @property
    def jobs_submitted(self) -> int:
        """Jobs that entered the head node's queue (the collector's count)."""
        return self.collector.jobs_submitted

    @property
    def jobs_completed(self) -> int:
        """Jobs completed, compositing included (the collector's count)."""
        return self.collector.jobs_completed

    @property
    def outstanding_jobs(self) -> int:
        """Jobs submitted but not yet completed (queued, deferred, running)."""
        collector = self.collector
        return sum(collector.submitted_by_code) - len(collector.records)

    @property
    def queue_depth(self) -> int:
        """Jobs waiting in the head-node queue (not yet scheduled)."""
        return len(self._pending)

    @property
    def tasks_inflight(self) -> int:
        """Tasks dispatched to rendering nodes and not yet finished."""
        return self._tasks_inflight

    def has_work(self) -> bool:
        """True while any job is queued, deferred, or in flight."""
        return (
            bool(self._pending)
            or self._tasks_inflight > 0
            or self.scheduler.pending_task_count() > 0
        )


__all__ = ["VisualizationService"]
