"""The First-Come-First-Serve scheduler family (paper §VI-B).

* **FCFS** — schedules jobs in arrival order; every task goes to the
  node with the smallest predicted available time.  Locality-blind.
* **FCFSL** — FCFS with data locality in the greedy search: tasks score
  nodes by ``Available[k] + exec_estimate`` so a node holding the chunk
  wins unless its backlog exceeds the I/O cost.
* **FCFSU** — FCFS over the *uniform* decomposition: every dataset is
  split into exactly ``p`` chunks and chunk ``j`` is pinned to node
  ``j``.  Data reuse is perfect whenever the data fits in aggregate
  memory, but every job occupies the entire cluster, so per-job
  overheads are multiplied (the paper's "twice as many computing
  resources" effect).

All three trigger immediately on job arrival (no scheduling cycle).
"""

from __future__ import annotations

from typing import Sequence

from repro.core.chunks import DecompositionPolicy, UniformDecomposition
from repro.core.job import RenderJob
from repro.core.scheduler_base import (
    Scheduler,
    SchedulerContext,
    Trigger,
    greedy_locality_aware,
    greedy_min_available,
)
from repro.obs.audit import (
    REASON_CACHE_HIT,
    REASON_FALLBACK,
    REASON_MIN_ESTIMATE,
    REASON_ONLY_AVAILABLE,
)


class FCFSScheduler(Scheduler):
    """First-Come-First-Serve with locality-blind greedy placement."""

    name = "FCFS"
    trigger = Trigger.IMMEDIATE

    def schedule(self, jobs: Sequence[RenderJob], ctx: SchedulerContext) -> None:
        for job in jobs:
            for task in ctx.decompose(job):
                ctx.assign(
                    task, greedy_min_available(task, ctx), REASON_ONLY_AVAILABLE
                )


class FCFSLScheduler(Scheduler):
    """First-Come-First-Serve with data locality in the greedy search."""

    name = "FCFSL"
    trigger = Trigger.IMMEDIATE

    def schedule(self, jobs: Sequence[RenderJob], ctx: SchedulerContext) -> None:
        tables = ctx.tables
        # The reason code is read only by the audit log; unaudited runs
        # skip its per-task cache probe.
        audited = ctx.audit is not None
        reason = None
        for job in jobs:
            for task in ctx.decompose(job):
                node = greedy_locality_aware(task, ctx)
                if audited:
                    reason = (
                        REASON_CACHE_HIT
                        if tables.is_cached(task.chunk, node)
                        else REASON_MIN_ESTIMATE
                    )
                ctx.assign(task, node, reason)


class FCFSUScheduler(Scheduler):
    """First-Come-First-Serve with uniform data partition and distribution.

    The decomposition produces exactly one chunk per rendering node and
    the placement is the identity mapping: task ``j`` (chunk ``j``) runs
    on node ``j``.  This reproduces the conventional parallel-volume-
    rendering configuration the paper uses as its strongest
    perfect-locality baseline.
    """

    name = "FCFSU"
    trigger = Trigger.IMMEDIATE

    def make_decomposition(
        self, node_count: int, chunk_max: int
    ) -> DecompositionPolicy:
        return UniformDecomposition(node_count)

    def schedule(self, jobs: Sequence[RenderJob], ctx: SchedulerContext) -> None:
        tables = ctx.tables
        # As in FCFSL, only audited runs compute the reason code.
        audited = ctx.audit is not None
        reason = None
        for job in jobs:
            tasks = ctx.decompose(job)
            if len(tasks) != ctx.node_count:
                raise ValueError(
                    f"FCFSU requires one task per node, got {len(tasks)} tasks "
                    f"for {ctx.node_count} nodes"
                )
            for task in tasks:
                # Static pinning: chunk j always runs on node j — a cache
                # hit once warm, otherwise outside any scoring loop.
                node = task.chunk.index
                if audited:
                    reason = (
                        REASON_CACHE_HIT
                        if tables.is_cached(task.chunk, node)
                        else REASON_FALLBACK
                    )
                ctx.assign(task, node, reason)


__all__ = ["FCFSScheduler", "FCFSLScheduler", "FCFSUScheduler"]
