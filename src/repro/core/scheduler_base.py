"""Scheduler interface and shared machinery.

A *scheduler* maps queued rendering jobs to per-node task assignments.
Schedulers differ along three axes, all visible in this interface:

* **Trigger** — when scheduling runs:
  ``IMMEDIATE`` (per job arrival: the FCFS family),
  ``CYCLE`` (every ω seconds: OURS and FS),
  ``WINDOW`` (when a batch window fills or times out: SF).
* **Decomposition** — how jobs split into tasks: the paper's chunked
  policy by default; FCFSU substitutes the uniform one-chunk-per-node
  policy.
* **Policy** — the placement decision itself, expressed against the
  head-node tables in :class:`~repro.core.tables.SchedulerTables`.

Schedulers may *defer* work by keeping an internal backlog (OURS holds
batch tasks until nodes free up); ``pending_task_count`` exposes it so
the service knows when the system has fully drained.
"""

from __future__ import annotations

import enum
from abc import ABC, abstractmethod
from typing import List, NamedTuple, Optional, Sequence

from repro.cluster.cluster import Cluster
from repro.cluster.costs import CostParameters
from repro.core.chunks import ChunkedDecomposition, DecompositionPolicy
from repro.core.job import RenderJob, RenderTask
from repro.core.tables import SchedulerTables
from repro.obs.audit import REASON_FALLBACK


class Trigger(enum.Enum):
    """When a scheduler's ``schedule`` method is invoked."""

    IMMEDIATE = "immediate"
    CYCLE = "cycle"
    WINDOW = "window"


class Assignment(NamedTuple):
    """One placement decision: run ``task`` on node ``node``.

    One instance exists per task placement; a named tuple keeps the
    per-assignment cost to a C-level allocation of two references.
    """

    task: RenderTask
    node: int


#: Direct tuple allocation for Assignment instances: the generated
#: namedtuple ``__new__`` is a Python-level frame per call, and assign()
#: runs once per placed task.  ``tuple.__new__(Assignment, ...)`` builds
#: the identical object C-level.
_assignment_new = tuple.__new__


class SchedulerContext:
    """Everything a policy may consult when placing tasks.

    Wraps the cluster (read-only state: time, node count) and the head
    node's tables.  Policies must route *all* placements through
    :meth:`assign` so the tables stay consistent.

    ``tracer`` is the run's observability sink (or ``None`` when tracing
    is off): the service emits one span per scheduler invocation, and
    policies may add their own instants/spans for decisions worth seeing
    on the timeline (guard with ``if ctx.tracer is not None``).
    ``metrics`` is likewise the run's
    :class:`~repro.obs.metrics.MetricsRegistry` (or ``None`` when the
    metrics layer is off): policies may publish their own counters or
    histograms (guard with ``if ctx.metrics is not None``).
    ``audit`` is the run's :class:`~repro.obs.audit.AuditLog` (or
    ``None``, the default): when present, every :meth:`assign` also
    records a decision-audit entry with the candidate-node snapshot and
    the policy's reason code.
    """

    __slots__ = (
        "cluster",
        "tables",
        "decomposition",
        "tracer",
        "metrics",
        "audit",
        "_audit_record",
        "_tables_record",
        "_assignments",
        "_events",
        "_node_count",
    )

    def __init__(
        self,
        cluster: Cluster,
        tables: SchedulerTables,
        decomposition: DecompositionPolicy,
        *,
        tracer=None,
        metrics=None,
        audit=None,
    ) -> None:
        self.cluster = cluster
        self.tables = tables
        self.decomposition = decomposition
        self.tracer = tracer
        self.metrics = metrics
        self.audit = audit
        # Pre-bound audit hook (or None): assign() pays one load and one
        # identity check on the unaudited path.
        self._audit_record = audit.record_assignment if audit is not None else None
        # Pre-bound table hook: assign() runs once per placed task and
        # the tables object is fixed for the context's lifetime.
        self._tables_record = tables.record_assignment
        self._assignments: List[Assignment] = []
        # Hot-path caches: the event queue (clock reads) and the node
        # count (fixed for a cluster's lifetime; failed nodes keep their
        # slot) — scheduling probes them constantly.
        self._events = cluster.events
        self._node_count = cluster.node_count

    @property
    def now(self) -> float:
        """Current simulation time."""
        return self._events._now

    @property
    def node_count(self) -> int:
        """Number of rendering nodes ``p``."""
        return self._node_count

    @property
    def cost(self) -> CostParameters:
        """Rendering cost constants."""
        return self.cluster.cost

    def decompose(self, job: RenderJob) -> List[RenderTask]:
        """Decompose ``job`` under the active decomposition policy."""
        return job.decompose(self.decomposition)

    def assign(
        self, task: RenderTask, node: int, reason: Optional[str] = None
    ) -> None:
        """Place ``task`` on ``node``, updating the head-node tables.

        ``reason`` is the policy's decision-audit reason code (one of
        the :data:`~repro.obs.audit.REASON_CODES`); it is consulted only
        when the run carries an audit log, and ``None`` lets the log
        derive a code from the tables — so policies unaware of auditing
        keep working.
        """
        if not 0 <= node < self._node_count:
            raise ValueError(f"node {node} out of range")
        now = self._events._now
        audit_record = self._audit_record
        if audit_record is not None:
            # Audited before the tables absorb the assignment: the
            # candidate snapshot must show the state the policy scored.
            audit_record(task, node, self.tables, now, reason)
        self._tables_record(task, node, now)
        self._assignments.append(_assignment_new(Assignment, (task, node)))

    def assign_all(
        self,
        tasks: Sequence[RenderTask],
        node: int,
        reason: Optional[str] = None,
    ) -> None:
        """Place every task in ``tasks`` on ``node`` (batched :meth:`assign`).

        Bit-identical to calling :meth:`assign` per task in order — the
        tables absorb the same per-task updates in the same sequence —
        but the bounds check, clock read, and audit probe are hoisted
        out of the loop.  OURS places whole interactive chunks this way.
        """
        if not 0 <= node < self._node_count:
            raise ValueError(f"node {node} out of range")
        now = self._events._now
        audit_record = self._audit_record
        record = self._tables_record
        append = self._assignments.append
        if audit_record is not None:
            for task in tasks:
                audit_record(task, node, self.tables, now, reason)
                record(task, node, now)
                append(_assignment_new(Assignment, (task, node)))
        else:
            for task in tasks:
                record(task, node, now)
                append(_assignment_new(Assignment, (task, node)))

    def take_assignments(self) -> List[Assignment]:
        """Return and clear the assignments accumulated via :meth:`assign`."""
        out = self._assignments
        self._assignments = []
        return out


class Scheduler(ABC):
    """Base class for scheduling policies.

    Subclasses set the class attributes below and implement
    :meth:`schedule`.

    Attributes:
        name: Registry name (e.g. ``"OURS"``, ``"FCFSL"``).
        trigger: When :meth:`schedule` is invoked by the service.
        cycle: Scheduling period ω for ``CYCLE`` triggers.
        window_size: Batch-window length for ``WINDOW`` triggers.
        window_timeout: Maximum wait before a partial window flushes.
    """

    name: str = "base"
    trigger: Trigger = Trigger.IMMEDIATE
    cycle: float = 0.015
    window_size: int = 16
    window_timeout: float = 0.1

    def make_decomposition(
        self, node_count: int, chunk_max: int
    ) -> DecompositionPolicy:
        """Decomposition policy this scheduler requires.

        Default: the paper's chunked policy with maximal chunk size
        ``Chkmax``.  FCFSU overrides this with the uniform policy.
        """
        return ChunkedDecomposition(chunk_max)

    @abstractmethod
    def schedule(self, jobs: Sequence[RenderJob], ctx: SchedulerContext) -> None:
        """Place the queued ``jobs`` (possibly deferring some work).

        Implementations decompose jobs via ``ctx.decompose`` and place
        tasks via ``ctx.assign``.  Deferred work must be retained
        internally and re-attempted on later invocations (the service
        passes an empty ``jobs`` list on cycles with no new arrivals).
        """

    def pending_task_count(self) -> int:
        """Tasks held back internally and not yet assigned (default 0)."""
        return 0

    def reschedule(
        self,
        tasks: Sequence[RenderTask],
        ctx: SchedulerContext,
        reason: str = REASON_FALLBACK,
    ) -> None:
        """Re-place tasks orphaned by a node failure (paper §VI-D).

        Default: locality-aware greedy onto surviving nodes — tasks
        whose chunks have live replicas go there, the rest reload from
        the file system.  Policies may override (e.g. to fold orphans
        back into their cycle queues).  Audited as ``fallback`` by
        default: the placement happens outside the policy's normal
        scoring loop.  The fault-recovery engine passes its own reason
        codes (``requeue-crash``, ``speculative``) instead.
        """
        for task in tasks:
            ctx.assign(task, greedy_locality_aware(task, ctx), reason)

    def reset(self) -> None:
        """Clear internal state between simulation runs (default no-op)."""

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(name={self.name!r})"


def greedy_min_available(
    task: RenderTask,
    ctx: SchedulerContext,
) -> int:
    """The locality-blind greedy step: the min-available-time node."""
    return ctx.tables.min_available_node()


def greedy_locality_aware(
    task: RenderTask,
    ctx: SchedulerContext,
) -> int:
    """Greedy step scoring ``Available[k] + exec_estimate(c, k)``.

    Among non-cached nodes the I/O penalty is uniform, so only the
    cached replicas of the chunk and the globally min-available node can
    win; this evaluates just those candidates.
    """
    tables = ctx.tables
    chunk = task.chunk
    group = task.job.composite_group_size
    now = ctx.now
    render = ctx.cost.render_times[chunk.size, group]
    best_node = tables.min_available_node()
    best_score = tables.predicted_available(best_node, now) + tables.exec_estimate(
        chunk, best_node, group
    )
    for k in tables.cached_nodes(chunk):
        if k == best_node:
            continue
        score = tables.predicted_available(k, now) + render
        if score < best_score:
            best_score = score
            best_node = k
    return best_node


__all__ = [
    "Trigger",
    "Assignment",
    "SchedulerContext",
    "Scheduler",
    "greedy_min_available",
    "greedy_locality_aware",
]
