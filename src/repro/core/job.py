"""Rendering jobs and tasks (paper §III-A, §IV).

A *rendering job* ``J_i`` corresponds to one rendering request — either a
single frame of an interactive user action, or one frame of a batch
submission (animation / time-varying data).  Based on the data
decomposition policy, a job is split into ``t_i`` independent *tasks*
``T_{i,j}``, each responsible for one data chunk.  Tasks of the same job
join at a compositing barrier: the job finishes when its last task
finishes plus the image-compositing time of the render group.
"""

from __future__ import annotations

import enum
import math
from operator import attrgetter
from typing import List, Optional, Tuple

from repro.core.chunks import Chunk, Dataset, DecompositionPolicy  # noqa: F401 (Chunk re-exported for typing)


class JobType(enum.Enum):
    """Job classes with different scheduling treatment (paper §V-A).

    Interactive jobs come from live user actions and must be scheduled in
    the same cycle they arrive; batch jobs may be deferred until rendering
    nodes become available.
    """

    INTERACTIVE = "interactive"
    BATCH = "batch"


#: Job types by code, in declaration order: a type's code is its index
#: here.  The trace's request columns, the job records and the
#: collector's per-type counts all store this code rather than the
#: member, because an enum member's hash is a Python-level call.
JOB_TYPES: Tuple[JobType, ...] = tuple(JobType)


#: Id-space stride between allocator namespaces.  Wide enough that no
#: single run can overflow into the next namespace (2^40 jobs at the
#: full-scale Scenario 4 rate is centuries of simulated time), while
#: namespace 0 still yields the plain 0, 1, 2, ... sequence — so
#: un-namespaced runs are byte-identical to the historical global
#: counter after a fresh start.
NAMESPACE_STRIDE = 1 << 40


class JobIdAllocator:
    """Explicit job-id source, replacing the process-global counter.

    Each simulator carries its own allocator, so concurrent or repeated
    runs in one process no longer share (or need to reset) hidden
    state.  A federation gives shard ``k`` the allocator
    ``JobIdAllocator(namespace=k)``: ids from distinct namespaces never
    collide, which is what makes merged per-shard results joinable on
    ``job_id``.

    Args:
        namespace: Shard index; ids start at
            ``namespace * NAMESPACE_STRIDE``.
    """

    __slots__ = ("namespace", "_next")

    def __init__(self, namespace: int = 0) -> None:
        if namespace < 0:
            raise ValueError(f"namespace must be >= 0, got {namespace}")
        self.namespace = namespace
        self._next = namespace * NAMESPACE_STRIDE

    def allocate(self) -> int:
        """Return the next id in this allocator's namespace."""
        job_id = self._next
        self._next += 1
        return job_id

    @property
    def allocated(self) -> int:
        """How many ids this allocator has handed out."""
        return self._next - self.namespace * NAMESPACE_STRIDE

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"JobIdAllocator(namespace={self.namespace}, "
            f"allocated={self.allocated})"
        )


#: Fallback allocator for jobs constructed without an explicit id —
#: direct ``RenderJob(...)`` construction in tests and closed-loop
#: drivers.  Simulator runs use their own per-service allocator and
#: never touch this one.
_default_allocator = JobIdAllocator()


def _next_job_id() -> int:
    return _default_allocator.allocate()


_task_node = attrgetter("node")
_INF = float("inf")


class RenderTask:
    """A task ``T_{i,j}``: render one data chunk for one job.

    Mutable timing fields are filled in by the simulator as the task moves
    through the system (cf. Definition 1 of the paper):

    * ``job`` — the owning job.  The service sets it to ``None`` after
      the job completes (when the next job completes, or at run end),
      breaking the job ↔ task reference cycle so finished jobs are
      freed by refcount; code that reads it later must capture the job
      while the task is in flight,
    * ``node`` — rendering node the task was assigned to,
    * ``assign_time`` — when the scheduler placed the task (recorded
      only on audited runs; ``None`` otherwise),
    * ``est`` — the head node's predicted execution time, set by
      ``SchedulerTables.record_assignment`` and meaningful from
      placement until the completion correction or a cancellation
      clears it (a crash leaves it stale: re-placement overwrites it),
    * ``start_time`` — ``TS(i,j,k)``, when the node began executing it,
    * ``finish_time`` — ``TF(i,j,k) = TS + TExec``,
    * ``io_time`` — the ``t_io`` component actually paid (0 on cache hit),
    * ``cache_hit`` — whether the chunk was already in the node's memory.
    """

    __slots__ = (
        "job",
        "index",
        "chunk",
        "node",
        "assign_time",
        "est",
        "start_time",
        "finish_time",
        "io_time",
        "cache_hit",
    )

    def __init__(self, job: "RenderJob", index: int, chunk: Chunk) -> None:
        self.job = job
        self.index = index
        self.chunk = chunk
        self.node = None
        self.assign_time = None
        self.est = None
        self.start_time = None
        self.finish_time = None
        self.io_time = 0.0
        self.cache_hit = None

    @property
    def job_type(self) -> Optional[JobType]:
        """The owning job's type; ``None`` once the job was released."""
        job = self.job
        return None if job is None else job.job_type

    @property
    def done(self) -> bool:
        """True once the task has a finish time."""
        return self.finish_time is not None

    def __repr__(self) -> str:
        job = self.job
        return (
            f"RenderTask(job={None if job is None else job.job_id}, "
            f"index={self.index}, "
            f"chunk={self.chunk.key}, node={self.node})"
        )


class RenderJob:
    """A rendering job ``J_i`` over one dataset.

    Attributes:
        job_id: Globally unique, monotonically increasing id.
        job_type: Interactive or batch.
        dataset: The dataset to render.
        arrival_time: ``JI(i)`` — the job initial time, when the request
            was issued and queued at the head node.
        user: Identifier of the submitting user (used by Fair Sharing).
        action: Identifier of the user action / batch submission this job
            belongs to.  Framerate (Definition 4) is computed per action
            over the series of its jobs.
        sequence: Index of the job within its action's frame series.
        chunk_fraction: Fraction of the dataset's chunks this job
            renders (graceful degradation: a reduced-resolution frame
            covers fewer chunks, shrinking ``t_i`` and the compositing
            group per cost-model Definitions 1-4).  ``1.0`` = full
            quality.
        tasks: The decomposed tasks; populated by :meth:`decompose`.
    """

    __slots__ = (
        "job_id",
        "job_type",
        "dataset",
        "arrival_time",
        "user",
        "action",
        "sequence",
        "chunk_fraction",
        "tasks",
        "composite_group_size",
        "tasks_left",
        "finish_time",
    )

    def __init__(
        self,
        job_type: JobType,
        dataset: Dataset,
        arrival_time: float,
        *,
        user: int = 0,
        action: int = 0,
        sequence: int = 0,
        job_id: Optional[int] = None,
    ) -> None:
        self.job_id = _next_job_id() if job_id is None else job_id
        self.job_type = job_type
        self.dataset = dataset
        self.arrival_time = float(arrival_time)
        self.user = user
        self.action = action
        self.sequence = sequence
        self.chunk_fraction = 1.0
        self.tasks: List[RenderTask] = []
        # Number of distinct participants assumed for compositing-cost
        # purposes; set at decomposition (== task count upper bound).
        self.composite_group_size: int = 0
        # Tasks not yet finished; set at decomposition, decremented by
        # the service on each task completion (0 again == job done).
        self.tasks_left: int = 0
        self.finish_time: Optional[float] = None

    # -- decomposition ----------------------------------------------------

    def decompose(self, policy: DecompositionPolicy) -> List[RenderTask]:
        """Split the job into one task per chunk of its dataset.

        Idempotent: repeated calls return the existing task list (the
        paper decomposes each job exactly once, at scheduling time).

        When ``chunk_fraction < 1`` (graceful degradation) only the
        leading ``ceil(m * fraction)`` chunks are rendered — at least
        one — so a degraded frame costs proportionally less I/O,
        rendering, and compositing.
        """
        if not self.tasks:
            chunks = policy.decompose(self.dataset)
            if self.chunk_fraction < 1.0:
                keep = max(1, math.ceil(len(chunks) * self.chunk_fraction))
                chunks = chunks[:keep]
            self.tasks = [RenderTask(self, j, c) for j, c in enumerate(chunks)]
            self.composite_group_size = len(self.tasks)
            self.tasks_left = len(self.tasks)
        return self.tasks

    @property
    def task_count(self) -> int:
        """``t_i`` — number of tasks (0 before decomposition)."""
        return len(self.tasks)

    # -- timing (Definitions 2-3) -----------------------------------------

    @property
    def is_complete(self) -> bool:
        """True when every task has finished."""
        return bool(self.tasks) and all(t.done for t in self.tasks)

    def start_time(self) -> float:
        """``JS(i)`` — minimal task start time.  Requires all tasks started."""
        starts = [t.start_time for t in self.tasks]
        if not starts or any(s is None for s in starts):
            raise ValueError(f"job {self.job_id} has unstarted tasks")
        return min(starts)  # type: ignore[type-var]

    def last_task_finish(self) -> float:
        """Maximal task finish time (before image compositing)."""
        ends = [t.finish_time for t in self.tasks]
        if not ends or any(e is None for e in ends):
            raise ValueError(f"job {self.job_id} has unfinished tasks")
        return max(ends)  # type: ignore[type-var]

    def group_nodes(self) -> List[int]:
        """Distinct rendering nodes participating in this job.

        In order of first appearance over the tasks; unassigned tasks
        (``node is None``) are skipped.
        """
        # A dict keeps first-insertion order: O(t) instead of a list scan.
        nodes = dict.fromkeys(map(_task_node, self.tasks))
        nodes.pop(None, None)
        return list(nodes)

    def completion_summary(self) -> Tuple[List[int], float, int, float]:
        """``(group_nodes, JS, cache hits, I/O seconds)`` in one pass.

        Everything job completion needs from the tasks: the
        participating nodes (as :meth:`group_nodes`), the start time
        ``JS`` (as :meth:`start_time`), the number of cache-hit tasks,
        and the summed ``t_io`` (added in task order).  Requires every
        task to have started.
        """
        if not self.tasks:
            raise ValueError(f"job {self.job_id} has no tasks")
        nodes: dict = {}
        start = _INF
        hits = 0
        io_total = 0.0
        for task in self.tasks:
            nodes[task.node] = None
            task_start = task.start_time
            if task_start is None:
                raise ValueError(f"job {self.job_id} has unstarted tasks")
            if task_start < start:
                start = task_start
            if task.cache_hit:
                hits += 1
            io_total += task.io_time
        nodes.pop(None, None)
        return list(nodes), start, hits, io_total

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"RenderJob(id={self.job_id}, {self.job_type.value}, "
            f"dataset={self.dataset.name}, t={self.arrival_time:.4f}, "
            f"action={self.action})"
        )


def reset_job_ids() -> None:
    """Reset the fallback job-id allocator (test isolation helper).

    Only affects jobs constructed without an explicit ``job_id``;
    simulator runs carry their own :class:`JobIdAllocator` and are
    unaffected.
    """
    global _default_allocator
    _default_allocator = JobIdAllocator()


__all__ = [
    "JobType",
    "JOB_TYPES",
    "RenderTask",
    "RenderJob",
    "JobIdAllocator",
    "NAMESPACE_STRIDE",
    "reset_job_ids",
]
