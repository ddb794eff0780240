"""Self-healing recovery policies — layer 3 of :mod:`repro.faults`.

The :class:`RecoveryEngine` layers scheduler-composable healing actions
over the existing :class:`~repro.core.scheduler_base.SchedulerContext`
machinery — every re-placement flows through ``ctx.assign`` with one of
the new closed-vocabulary audit reasons, so the decision audit log
(:mod:`repro.obs.audit`) records recovery exactly like first-time
scheduling and root-cause analysis can reconstruct what happened from
the log alone:

* ``requeue-crash`` — tasks orphaned by a detected crash re-placed onto
  surviving nodes.
* ``quarantine`` — a straggling node removed from scheduling (recorded
  as a non-placement audit row, ``task_index = -1``).
* ``speculative`` — a quarantined node's queued backlog re-issued onto
  healthy nodes.
* ``rewarm`` — the head node's cache mirror resynced after a wipe and
  the hottest lost chunks reloaded from storage.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.cluster.event_queue import PRIORITY_COMPLETION
from repro.cluster.node import S_EST, TASK_WIDTH
from repro.faults.plan import RecoveryConfig
from repro.obs.audit import (
    REASON_QUARANTINE,
    REASON_REQUEUE_CRASH,
    REASON_REWARM,
    REASON_SPECULATIVE,
)
from repro.obs.tracer import PID_HEAD


def trace_fault(tracer, name: str, now: float, node: int) -> None:
    """Mark a fault or recovery step on the head node's ``faults`` track.

    No-op when the run is not traced (``tracer`` is ``None``).
    """
    if tracer is not None:
        tracer.instant(
            PID_HEAD, "faults", name, now, category="service",
            args={"node": node},
        )


@dataclass(frozen=True)
class RecoveryAction:
    """One healing action taken by the recovery engine."""

    kind: str  # one of the four recovery reason codes
    node: int
    time: float
    #: Tasks re-placed (requeue/speculative) or chunks reloaded (rewarm).
    count: int = 0

    def to_dict(self) -> dict:
        """JSON-friendly form (bench artifacts, CLI --report)."""
        return {
            "kind": self.kind,
            "node": self.node,
            "time": self.time,
            "count": self.count,
        }


class RecoveryEngine:
    """Applies healing policies against the live service + tables."""

    def __init__(
        self,
        config: RecoveryConfig,
        service,
        *,
        audit=None,
        tracer=None,
    ) -> None:
        self.config = config
        self.service = service
        self.tables = service.tables
        self.cluster = service.cluster
        self.audit = audit
        self.tracer = tracer
        self.actions: List[RecoveryAction] = []
        #: Per-node virtual time when the latest rewarm reload lands —
        #: surprise misses before then are the rebuild, not a new wipe.
        self.rewarm_until: dict = {}

    # -- crash -------------------------------------------------------------

    def requeue_crash(self, node: int, tasks: list, now: float) -> int:
        """React to a detected crash: mark the node failed, re-place its
        stranded tasks (orphans + placements absorbed before detection).

        Returns the number of tasks re-placed.
        """
        self.tables.mark_node_failed(node)
        if not self.config.requeue:
            tasks = []
        if self.audit is not None:
            # Bookkeeping row naming the *crashed* node (the re-placement
            # rows below carry the surviving destination nodes).
            self.audit.record_recovery(now, REASON_REQUEUE_CRASH, node)
        # The stranded tasks stayed counted in flight while the head
        # node believed the dead node was executing them; requeueing
        # takes them out of flight before it dispatches them again.
        self.service.requeue_tasks(tasks, reason=REASON_REQUEUE_CRASH)
        self.actions.append(
            RecoveryAction(REASON_REQUEUE_CRASH, node, now, len(tasks))
        )
        trace_fault(self.tracer, "requeue-crash", now, node)
        return len(tasks)

    # -- straggler ---------------------------------------------------------

    def quarantine(self, node: int, now: float) -> bool:
        """Stop scheduling onto ``node`` (sticky for the run).

        Refuses (returning False) when the node is the last schedulable
        one — quarantining it would wedge every policy.
        """
        if not self.config.quarantine:
            return False
        tables = self.tables
        schedulable = sum(
            1
            for k in range(len(tables.alive))
            if tables.alive[k] and not tables.quarantined[k]
        )
        if schedulable <= 1:
            return False
        tables.quarantine(node)
        if self.audit is not None:
            self.audit.record_recovery(now, REASON_QUARANTINE, node)
        self.actions.append(RecoveryAction(REASON_QUARANTINE, node, now))
        trace_fault(self.tracer, "quarantine", now, node)
        if self.config.speculative:
            self.speculative(node, now)
        return True

    def speculative(self, node: int, now: float) -> int:
        """Re-issue a quarantined node's queued backlog elsewhere.

        Only unstarted tasks are stolen; whatever is already executing
        finishes (slowly) where it is, so no task completes twice.
        """
        backlog = self.cluster.nodes[node].steal_backlog()
        if not backlog:
            return 0
        for task in backlog:
            self.tables.cancel_assignment(task, node)
        self.service.requeue_tasks(backlog, reason=REASON_SPECULATIVE)
        self.actions.append(
            RecoveryAction(REASON_SPECULATIVE, node, now, len(backlog))
        )
        trace_fault(self.tracer, "speculative", now, node)
        return len(backlog)

    # -- cache wipe --------------------------------------------------------

    def rewarm(self, node: int, now: float) -> int:
        """Resync the head node's mirror with the node's real cache and
        reload up to ``rewarm_limit`` of the most-recently-used lost
        chunks through the shared storage.

        Returns the number of chunks being reloaded.
        """
        if not self.config.rewarm:
            return 0
        tables = self.tables
        cluster = self.cluster
        real_cache = cluster.nodes[node].cache
        lost = [
            chunk
            for chunk in tables.mirrors[node].chunks()
            if chunk not in real_cache
        ]
        if not lost:
            return 0
        for chunk in lost:
            tables.drop_cached(chunk, node)
        # Full inventory resync: adopt the node's true contents *and*
        # recency order.  Dropping the lost entries alone leaves the
        # mirror's LRU order diverged from the real cache, so future
        # evictions pick different victims and every rewarm spawns the
        # next round of surprise misses.
        for chunk in real_cache.chunks():
            tables.warm(chunk, node)
        # Re-estimate the node's pending work against the resynced
        # mirror: tasks placed before the wipe predicted cache hits
        # that can no longer happen.  Left stale, each one would raise
        # a fresh surprise-miss (and a false "wipe" verdict) as the
        # backlog drains.
        node_obj = cluster.nodes[node]
        mirror = tables.mirrors[node]
        for job, index in node_obj.rows():
            slot = index * TASK_WIDTH + S_EST
            est = job.task_state[slot]
            chunk = job.chunks[index]
            if est is None or chunk in mirror:
                continue
            render = tables.cost.render_times[chunk.size, job.composite_group_size]
            if est == render:
                new_est = tables.io_estimates[chunk] + render
                job.task_state[slot] = new_est
                # Propagate the correction into Available (§VI-D table
                # maintenance): the node is about to spend the backlog
                # on reloads, and placement should know.
                tables.available[node] += (
                    new_est - est
                ) / tables.executors_per_node
        # Surprise misses until the (re-estimated) backlog drains are
        # run-time staleness of old predictions, not a fresh wipe.
        self.rewarm_until[node] = max(
            self.rewarm_until.get(node, 0.0), tables.available[node]
        )
        # chunks() returns LRU-first; reload the hottest tail.
        reload = lost[-self.config.rewarm_limit:] if self.config.rewarm_limit else []
        storage = cluster.storage
        events = cluster.events
        for chunk in reload:
            io_time = storage.begin_load(chunk.size)
            self.rewarm_until[node] = max(
                self.rewarm_until.get(node, 0.0), now + io_time
            )
            events.schedule(
                now + io_time,
                self._finish_rewarm,
                node,
                chunk,
                priority=PRIORITY_COMPLETION,
            )
        if self.audit is not None:
            self.audit.record_recovery(now, REASON_REWARM, node)
        self.actions.append(
            RecoveryAction(REASON_REWARM, node, now, len(reload))
        )
        trace_fault(self.tracer, "rewarm", now, node)
        return len(reload)

    def _finish_rewarm(self, node: int, chunk) -> None:
        """Completion of one rewarm load: insert + re-mirror."""
        self.cluster.storage.end_load(chunk.size)
        render_node = self.cluster.nodes[node]
        if render_node.alive:
            cache = render_node.cache
            cache.insert(chunk)
            tables = self.tables
            tables.warm(chunk, node)
            # The two inserts may evict different victims — the recency
            # orders drifted while the reload was in flight.  Drop the
            # mirror-only leftovers so hit predictions stay truthful.
            for stale in list(tables.mirrors[node].chunks()):
                if stale not in cache:
                    tables.drop_cached(stale, node)


__all__ = ["RecoveryAction", "RecoveryEngine"]
