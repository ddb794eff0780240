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
from itertools import count, repeat
from operator import itemgetter
from typing import List, Optional, Sequence, Tuple

from repro.cluster.node import (  # noqa: F401 (the store layout, re-exported)
    S_EST,
    S_FINISH,
    S_HIT,
    S_IO,
    S_NODE,
    S_START,
    TASK_WIDTH,
)
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


#: One fresh task's slots: unassigned, unstarted, no I/O paid.
_FRESH = [None, None, None, None, 0.0, None]

_new = tuple.__new__


def _field(slot: int, doc: str) -> property:
    """A handle property reading and writing one slot of the job's store."""

    def get(self):
        return self[0].task_state[self[1] * TASK_WIDTH + slot]

    def put(self, value) -> None:
        self[0].task_state[self[1] * TASK_WIDTH + slot] = value

    return property(get, put, doc=doc)


class RenderTask(tuple):
    """A task ``T_{i,j}``: render one data chunk for one job.

    A handle, not a record: the tuple ``(job, index, chunk)``.  The
    task's mutable state (cf. Definition 1 of the paper) lives in the
    owning job's task store (:attr:`RenderJob.task_state`), and the
    properties below read and write it there: ``node``, ``est``,
    ``start_time``, ``finish_time``, ``io_time`` and ``cache_hit`` (see
    the ``S_*`` slot constants), plus ``assign_time``, which audited
    runs record in :attr:`RenderJob.assign_times`.

    Handles are built on read (:meth:`RenderJob.decompose`,
    :attr:`RenderJob.tasks`, :meth:`RenderJob.task`), so two reads of
    one task compare equal (and hash alike) but need not be the same
    object.  A handle starts with the task's *row* ``(job, index)``,
    the form node queues and task-finish paths carry, so code that
    takes a row takes a handle as well.
    """

    __slots__ = ()

    def __new__(cls, job: "RenderJob", index: int, chunk: Chunk) -> "RenderTask":
        return _new(cls, (job, index, chunk))

    def __getnewargs__(self) -> tuple:
        return tuple(self)

    job = property(itemgetter(0), doc="The owning job.")
    index = property(itemgetter(1), doc="The task's index within its job.")
    chunk = property(itemgetter(2), doc="The data chunk the task renders.")
    node = _field(S_NODE, "Rendering node the task was assigned to.")
    est = _field(S_EST, "The head node's pending execution-time prediction.")
    start_time = _field(S_START, "When the node began executing the task.")
    finish_time = _field(S_FINISH, "When the task finished.")
    io_time = _field(S_IO, "The I/O time actually paid (0 on a cache hit).")
    cache_hit = _field(S_HIT, "Whether the chunk was already in node memory.")

    @property
    def assign_time(self) -> Optional[float]:
        """When the scheduler placed the task (audited runs only)."""
        times = self[0].assign_times
        return None if times is None else times[self[1]]

    @assign_time.setter
    def assign_time(self, value: Optional[float]) -> None:
        job = self[0]
        if job.assign_times is None:
            job.assign_times = [None] * len(job.chunks)
        job.assign_times[self[1]] = value

    @property
    def job_type(self) -> JobType:
        """The owning job's type."""
        return self[0].job_type

    @property
    def done(self) -> bool:
        """True once the task has a finish time."""
        return self.finish_time is not None

    def __repr__(self) -> str:
        job, index, chunk = self
        return (
            f"RenderTask(job={job.job_id}, index={index}, "
            f"chunk={chunk.key}, node={self.node})"
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
        chunks: The chunk of each task, by task index; set by
            :meth:`decompose` (empty before).  Shared with the
            decomposition policy's cache: read it, never mutate it.
        task_state: The job's task store, one flat list of
            :data:`TASK_WIDTH` slots per task (see the ``S_*``
            constants); set by :meth:`decompose`.
        assign_times: Each task's latest placement time, by task index,
            or ``None``: only the decision audit records it (on its
            first placement of one of the job's tasks).
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
        "chunks",
        "task_state",
        "assign_times",
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
        self.chunks: Sequence[Chunk] = ()
        self.task_state: Sequence = ()
        self.assign_times: Optional[List[Optional[float]]] = None
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

        Idempotent: repeated calls return handles of the same tasks (the
        paper decomposes each job exactly once, at scheduling time).

        When ``chunk_fraction < 1`` (graceful degradation) only the
        leading ``ceil(m * fraction)`` chunks are rendered — at least
        one — so a degraded frame costs proportionally less I/O,
        rendering, and compositing.
        """
        chunks = self.chunks
        if not chunks:
            chunks = policy.decompose(self.dataset)
            if self.chunk_fraction < 1.0:
                keep = max(1, math.ceil(len(chunks) * self.chunk_fraction))
                chunks = chunks[:keep]
            size = len(chunks)
            self.chunks = chunks
            self.task_state = _FRESH * size
            self.composite_group_size = size
            self.tasks_left = size
        return self.tasks

    @property
    def tasks(self) -> List[RenderTask]:
        """Handles of the decomposed tasks, in index order (empty before
        :meth:`decompose`).  Built in C: one tuple per task, no Python
        frame per handle."""
        return list(
            map(_new, repeat(RenderTask), zip(repeat(self), count(), self.chunks))
        )

    def task(self, index: int) -> RenderTask:
        """The handle of task ``index``."""
        return _new(RenderTask, (self, index, self.chunks[index]))

    @property
    def task_count(self) -> int:
        """``t_i`` — number of tasks (0 before decomposition)."""
        return len(self.chunks)

    def _column(self, slot: int) -> list:
        """One field of every task, in index order."""
        return self.task_state[slot::TASK_WIDTH]

    # -- timing (Definitions 2-3) -----------------------------------------

    @property
    def is_complete(self) -> bool:
        """True when every task has finished."""
        return bool(self.chunks) and None not in self._column(S_FINISH)

    def start_time(self) -> float:
        """``JS(i)`` — minimal task start time.  Requires all tasks started."""
        starts = self._column(S_START)
        if not starts or None in starts:
            raise ValueError(f"job {self.job_id} has unstarted tasks")
        return min(starts)

    def last_task_finish(self) -> float:
        """Maximal task finish time (before image compositing)."""
        ends = self._column(S_FINISH)
        if not ends or None in ends:
            raise ValueError(f"job {self.job_id} has unfinished tasks")
        return max(ends)

    def group_nodes(self) -> List[int]:
        """Distinct rendering nodes participating in this job.

        In order of first appearance over the tasks; unassigned tasks
        (``node is None``) are skipped.
        """
        # A dict keeps first-insertion order: O(t) instead of a list scan.
        nodes = dict.fromkeys(self._column(S_NODE))
        nodes.pop(None, None)
        return list(nodes)

    def completion_summary(self) -> Tuple[List[int], float, int, float]:
        """``(group_nodes, JS, cache hits, I/O seconds)`` in one pass.

        Everything job completion needs from the tasks: the
        participating nodes (as :meth:`group_nodes`), the start time
        ``JS`` (as :meth:`start_time`), the number of cache-hit tasks,
        and the summed ``t_io`` (added in task order).  Requires every
        task to have started.  Reads the store's columns by slicing, so
        the work per task runs in C.
        """
        state = self.task_state
        if not state:
            raise ValueError(f"job {self.job_id} has no tasks")
        starts = state[S_START::TASK_WIDTH]
        if None in starts:
            raise ValueError(f"job {self.job_id} has unstarted tasks")
        nodes = dict.fromkeys(state[S_NODE::TASK_WIDTH])
        nodes.pop(None, None)
        io_total = 0.0
        for io_time in state[S_IO::TASK_WIDTH]:
            io_total += io_time
        return (
            list(nodes),
            min(starts),
            state[S_HIT::TASK_WIDTH].count(True),
            io_total,
        )

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
    "S_NODE",
    "S_EST",
    "S_START",
    "S_FINISH",
    "S_IO",
    "S_HIT",
    "TASK_WIDTH",
    "JobIdAllocator",
    "NAMESPACE_STRIDE",
    "reset_job_ids",
]
