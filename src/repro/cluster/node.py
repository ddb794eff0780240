"""A rendering node: FIFO task queue, memory cache, render thread.

Per the paper's system design (§III-A, §V-C), a rendering node processes
incoming tasks on a First-In-First-Out basis on its rendering thread; a
separate compositing thread handles image compositing (so compositing
does not block the next render), and a communication thread talks to the
head node (modeled as free).

Task execution (Definition 1):

``TExec(i,j,k) = t_io + t_render (+ t_upload)``

* ``t_io`` — paid only when the chunk is absent from the node's main
  memory; the node then loads it through the shared
  :class:`~repro.cluster.storage.StorageModel` and inserts it into its
  LRU cache (evicting as needed).
* ``t_upload`` — host→VRAM copy, charged only when the explicit
  :class:`~repro.cluster.gpu.GpuMemoryModel` is enabled (off by default,
  matching the paper's cost model).
* ``t_render`` — from :class:`~repro.cluster.costs.CostParameters`.

``t_composite`` is charged at the *job* level by the service, since it
runs on the compositing thread.
"""

from __future__ import annotations

import heapq
from collections import deque
from itertools import islice
from typing import TYPE_CHECKING, Callable, Deque, List, Optional, Tuple, Union

from repro.cluster.costs import CostParameters
from repro.cluster.event_queue import PRIORITY_COMPLETION, EventQueue
from repro.cluster.gpu import GpuMemoryModel, GpuSpec
from repro.cluster.memory import LRUChunkCache
from repro.cluster.storage import StorageModel

if TYPE_CHECKING:  # pragma: no cover - typing only (keeps cluster<-core one-way)
    from repro.core.job import RenderJob, RenderTask

#: A task's row: its job and its index within the job.
Row = Tuple["RenderJob", int]
#: A public task-finish listener: ``callback(node, task)``.
TaskFinishCallback = Callable[["RenderNode", "RenderTask"], None]
#: A row-level task-finish callback: ``callback(node, row)``.
RowFinishCallback = Callable[["RenderNode", Row], None]

#: The per-task fields of a job's task store, in slot order.  Task
#: ``j``'s field ``f`` lives at ``job.task_state[j * TASK_WIDTH + f]``
#: (:class:`~repro.core.job.RenderJob` owns the store; the layout is
#: defined here, in the layer that writes most of it, because the
#: cluster layer does not import ``repro.core``):
#:
#: * ``S_NODE`` — rendering node the task was assigned to,
#: * ``S_EST`` — the head node's predicted execution time, set by
#:   ``SchedulerTables.record_assignment`` and meaningful from placement
#:   until the completion correction or a cancellation clears it (a
#:   crash leaves it stale: re-placement overwrites it),
#: * ``S_START`` — ``TS(i,j,k)``, when the node began executing it,
#: * ``S_FINISH`` — ``TF(i,j,k) = TS + TExec``,
#: * ``S_IO`` — the ``t_io`` component actually paid (0 on cache hit),
#: * ``S_HIT`` — whether the chunk was already in the node's memory.
#:
#: Six slots, 48 bytes a task: the placement time only audited runs
#: record lives beside the store (``RenderJob.assign_times``).
S_NODE, S_EST, S_START, S_FINISH, S_IO, S_HIT = range(6)
TASK_WIDTH = 6

_INF = float("inf")
_heappush = heapq.heappush


class RenderNode:
    """One rendering node of the cluster.

    Attributes:
        node_id: Index of this node, ``0 <= node_id < p``.
        cache: The node's main-memory LRU chunk cache (its "memory
            quota", Table II).
        queue: Tasks assigned by the head node, processed FIFO, as
            rows: a flat deque ``job, index, job, index, ...`` (two
            slots per queued task; :meth:`queued_tasks` gives handles).
        executors: Concurrent rendering pipelines (GPUs) on the node.
            The paper's systems have 1 (GTX 285) or 2 (dual FX5600)
            GPUs per node; the calibrated presets model one pipeline
            per node (matching the paper's per-node accounting), and
            the multi-GPU ablation sets 2.
    """

    __slots__ = (
        "node_id",
        "cache",
        "queue",
        "executors",
        "_cost",
        "_render_times",
        "_storage",
        "_events",
        "_heap",
        "_seq",
        "_vram",
        "_on_task_finish",
        "_rng",
        "_jitter_buf",
        "_jitter_pos",
        "_running",
        "_loading",
        "_alive",
        "render_factor",
        "io_factor",
        "_tracer",
        "_flows",
        "_pid",
        "_slot_of",
        "_free_slots",
        "_slot_lanes",
        "busy_time",
        "tasks_executed",
        "cache_hits",
        "cache_misses",
        "io_seconds",
        "io_timeouts",
        "composite_seconds",
        "last_finish_time",
    )

    def __init__(
        self,
        node_id: int,
        memory_quota: int,
        cost: CostParameters,
        storage: StorageModel,
        events: EventQueue,
        *,
        gpu: Optional[GpuSpec] = None,
        model_vram: bool = False,
        on_task_finish: Optional[RowFinishCallback] = None,
        rng: Optional["object"] = None,
        executors: int = 1,
    ) -> None:
        if executors < 1:
            raise ValueError(f"executors must be >= 1, got {executors}")
        self.executors = executors
        self.node_id = node_id
        self.cache = LRUChunkCache(memory_quota)
        self.queue: Deque[Union["RenderJob", int]] = deque()
        self._cost = cost
        # The shared render price list: execution reads it once per task.
        self._render_times = cost.render_times
        self._storage = storage
        self._events = events
        # The queue's heap and tie-break counter: each task's completion
        # is pushed here directly, one heap push per task with no
        # ``EventQueue.schedule`` frame (see ``_commit_execution``).
        self._heap = events._heap
        self._seq = events._seq
        self._vram: Optional[GpuMemoryModel] = (
            GpuMemoryModel(gpu) if (model_vram and gpu is not None) else None
        )
        self._on_task_finish = on_task_finish
        self._rng = rng
        # Jitter draws are consumed one per executed task; scalar
        # ``Generator.uniform`` calls are slow, so draws are pre-fetched
        # in blocks (bit-identical: a block draw consumes the PCG64
        # stream exactly as the same number of scalar draws would).
        self._jitter_buf: list = []
        self._jitter_pos = 0
        # Rows of the executing tasks; each completion event carries its
        # row object.
        self._running: List[Row] = []
        # Rows with an active storage stream (keeps end_load balanced
        # across completions, crashes, and timed-out attempts).
        self._loading: set = set()
        self._alive = True
        # Straggler degradation (fault injection): multipliers on the
        # node's render and I/O times.  1.0 → healthy, hot path pays one
        # float compare per task.
        self.render_factor = 1.0
        self.io_factor = 1.0
        # observability (None → zero-cost: one identity check per task)
        self._tracer = None
        self._flows = False
        self._pid = 0
        self._slot_of: dict = {}
        self._free_slots: list = []
        # Per executor slot: the (cache, io, render) lane refs its task
        # rows land on (see ``_trace_execution``).
        self._slot_lanes: list = []
        # statistics
        self.busy_time = 0.0
        self.tasks_executed = 0
        self.cache_hits = 0
        self.cache_misses = 0
        self.io_seconds = 0.0
        self.io_timeouts = 0
        self.composite_seconds = 0.0
        self.last_finish_time = 0.0

    # -- inspection --------------------------------------------------------

    @property
    def busy(self) -> bool:
        """True while at least one rendering pipeline is executing."""
        return bool(self._running)

    @property
    def saturated(self) -> bool:
        """True when every rendering pipeline is occupied."""
        return len(self._running) >= self.executors

    @property
    def alive(self) -> bool:
        """False once the node has crashed (see :meth:`fail`)."""
        return self._alive

    @property
    def current_task(self) -> Optional["RenderTask"]:
        """The earliest-started task currently executing, if any."""
        if not self._running:
            return None
        job, index = self._running[0]
        return job.task(index)

    @property
    def running_tasks(self) -> List["RenderTask"]:
        """All tasks currently executing (<= ``executors``), as handles."""
        return [job.task(index) for job, index in self._running]

    def queued_tasks(self) -> List["RenderTask"]:
        """The queued (unstarted) tasks in FIFO order, as handles."""
        return [job.task(index) for job, index in self._queued_rows()]

    def _queued_rows(self) -> List[Row]:
        queue = self.queue
        return list(zip(islice(queue, 0, None, 2), islice(queue, 1, None, 2)))

    @property
    def backlog(self) -> int:
        """Queued tasks not yet started (excludes the running one)."""
        return len(self.queue) >> 1

    @property
    def vram(self) -> Optional[GpuMemoryModel]:
        """The explicit VRAM model, when enabled."""
        return self._vram

    def utilization(self, elapsed: float) -> float:
        """Busy fraction of the node's pipeline-seconds over ``elapsed``."""
        if elapsed <= 0:
            return 0.0
        return min(1.0, self.busy_time / (elapsed * self.executors))

    # -- observability -----------------------------------------------------

    def set_tracer(self, tracer) -> None:
        """Attach a :class:`~repro.obs.tracer.Tracer` to this node.

        Emits one I/O span per cache-missing load, one render span per
        executed task (on a per-pipeline lane when the node has several
        executors), and cache hit/miss/evict instants.  Call before the
        simulation runs; pass ``None`` to detach.
        """
        from repro.obs.tracer import active_tracer, pid_for_node

        self._tracer = tracer = active_tracer(tracer)
        self._pid = pid_for_node(self.node_id)
        self._slot_of = {}
        self._free_slots = []
        self._slot_lanes = []
        if tracer is not None and self.executors == 1:
            self._slot_lanes.append(self._lane_refs(""))
        self.cache.observer = (
            self._on_cache_event if self._tracer is not None else None
        )
        if self._vram is not None:
            self._vram.observer = (
                self._on_vram_event if self._tracer is not None else None
            )

    def _lane_refs(self, suffix: str) -> tuple:
        """The ``cache``, ``io`` and ``render`` lane refs of one pipeline."""
        from repro.obs.tracer import LaneRef

        pid = self._pid
        return (
            LaneRef(pid, "cache"),
            LaneRef(pid, "io" + suffix),
            LaneRef(pid, "render" + suffix),
        )

    def set_flow_events(self, enabled: bool) -> None:
        """Emit Chrome flow steps linking each job's causal chain.

        Effective only while a tracer is attached; the simulator turns
        this on when a run carries both a tracer and an audit log.
        """
        self._flows = bool(enabled)

    def set_metrics(self, registry) -> None:
        """Expose this node's task/cache/I/O counts through ``registry``.

        Registers readers of the node's own statistics; the series are
        cluster aggregates (every node's reader adds to the same one) —
        per-node breakdowns stay the tracer's job.  Tasks count when
        they begin, like :attr:`cache_hits` and :attr:`cache_misses`.
        ``None`` registers nothing.
        """
        if registry is None:
            return
        registry.counter(
            "repro_tasks_executed", "render tasks begun executing"
        ).read_from(lambda: self.cache_hits + self.cache_misses)
        registry.counter(
            "repro_cache_hits", "tasks whose chunk was memory-resident"
        ).read_from(lambda: self.cache_hits)
        registry.counter(
            "repro_cache_misses", "tasks that paid a storage load"
        ).read_from(lambda: self.cache_misses)
        registry.counter(
            "repro_io_seconds", "simulated seconds spent loading chunks"
        ).read_from(lambda: self.io_seconds)
        registry.counter(
            "repro_io_timeouts", "chunk loads abandoned at the I/O deadline"
        ).read_from(lambda: self.io_timeouts)

    def _on_cache_event(self, kind: str, chunk) -> None:
        """Cache observer: emit insert/evict instants.

        The structured args (dataset, index, bytes) make chunk residency
        reconstructable from the instant stream alone — the timeline
        model pairs each insert with its evict (or the end of the run)
        to draw the cache-residency heatmap.
        """
        if kind in ("insert", "evict"):
            self._tracer.instant(
                self._pid,
                "cache",
                f"{kind} {chunk.key}",
                self._events.now,
                category="cache",
                args={
                    "dataset": chunk.dataset,
                    "index": chunk.index,
                    "bytes": chunk.size,
                },
            )

    def _on_vram_event(self, kind: str, chunk) -> None:
        """VRAM observer: emit host→device upload instants."""
        if kind == "upload":
            self._tracer.instant(
                self._pid,
                "gpu",
                f"upload {chunk.key}",
                self._events.now,
                category="render",
                args={"bytes": chunk.size},
            )

    # -- execution ---------------------------------------------------------

    def enqueue(self, task: "RenderTask") -> None:
        """Accept a task from the head node; start it if idle.

        ``task`` is a :class:`~repro.core.job.RenderTask` handle or its
        ``(job, index)`` row: the queue keeps the row, and the task's
        state stays in the job's store.
        """
        if not self._alive:
            raise RuntimeError(f"node {self.node_id} has failed")
        job = task[0]
        index = task[1]
        state = job.task_state
        slot = index * TASK_WIDTH + S_NODE
        node = state[slot]
        if node is not None and node != self.node_id:
            raise ValueError(
                f"task {job.task(index)!r} already assigned to node {node}, "
                f"cannot enqueue on node {self.node_id}"
            )
        state[slot] = self.node_id
        queue = self.queue
        queue.append(job)
        queue.append(index)
        running = self._running
        executors = self.executors
        while queue and len(running) < executors:
            self._begin_next()

    def _begin_next(self) -> None:
        """Pop the next row; load its chunk (or hit) and execute."""
        queue = self.queue
        job = queue.popleft()
        index = queue.popleft()
        row = (job, index)
        self._running.append(row)
        state = job.task_state
        base = index * TASK_WIDTH
        state[base + S_START] = self._events._now

        # Inlined self.cache.touch — this is the per-task hit test.
        chunk = job.chunks[index]
        entries = self.cache._entries
        if chunk in entries:
            entries.move_to_end(chunk)
            state[base + S_HIT] = True
            self.cache_hits += 1
            self._commit_execution(row, 0.0)
        else:
            state[base + S_HIT] = False
            self.cache_misses += 1
            self._attempt_load(row, 0, 0.0)

    def _attempt_load(self, row: Row, attempt: int, waited: float) -> None:
        """Open a storage stream for a missing chunk; retry on timeout.

        With ``StorageSpec.timeout`` unset every load is accepted on the
        first attempt and this is a straight pass-through.  With a
        deadline, an attempt whose quoted duration exceeds it releases
        the stream at the deadline and retries ``backoff * 2**attempt``
        later; the final attempt is always accepted so the task cannot
        starve.  Retries re-quote the duration, so a load stalled by a
        transient I/O storm completes quickly once contention passes.
        """
        if not self._alive or row not in self._running:
            # Crash or re-dispatch (§VI-D) voided this load while the
            # retry was backing off.
            return
        now = self._events._now
        chunk = row[0].chunks[row[1]]
        io_time = self._storage.begin_load(chunk.size)
        if self.io_factor != 1.0:
            io_time *= self.io_factor
        spec = self._storage.spec
        if (
            spec.timeout is not None
            and io_time > spec.timeout
            and attempt < spec.max_retries
        ):
            self._storage.end_load(chunk.size)
            self.io_timeouts += 1
            delay = spec.timeout + spec.backoff * (2.0 ** attempt)
            self._events.schedule(
                now + delay,
                self._attempt_load,
                row,
                attempt + 1,
                waited + delay,
                priority=PRIORITY_COMPLETION,
            )
            return
        self._loading.add(row)
        evicted = self.cache.insert(chunk)
        if self._vram is not None:
            for victim in evicted:
                self._vram.invalidate(victim)
        self._commit_execution(row, io_time, waited)

    def _commit_execution(
        self, row: Row, io_time: float, waited: float = 0.0
    ) -> None:
        """Charge the task's costs and push its completion event.

        ``waited`` is simulated time already burned on timed-out load
        attempts; it is part of the task's I/O accounting but not of the
        remaining execution (it has already elapsed in event time).

        The completion goes straight onto the event heap as the same
        ``(time, priority, seq, callback, args)`` entry
        :meth:`EventQueue.schedule <repro.cluster.event_queue.EventQueue.schedule>`
        would build, behind the same finite/not-in-the-past guard.
        """
        now = self._events._now
        job, index = row
        chunk = job.chunks[index]
        upload_time = self._vram.access(chunk) if self._vram is not None else 0.0
        render_time = self._render_times[chunk.size, job.composite_group_size]
        jitter = self._cost.render_jitter
        if jitter and self._rng is not None:
            # Actual frame cost varies with the view; the head node's
            # estimates use the mean (prediction error is corrected at
            # completion, §V-B).
            pos = self._jitter_pos
            buf = self._jitter_buf
            if pos >= len(buf):
                buf = self._jitter_buf = self._rng.uniform(
                    -1.0, 1.0, 256
                ).tolist()
                pos = 0
            self._jitter_pos = pos + 1
            render_time *= 1.0 + jitter * buf[pos]
        if self.render_factor != 1.0:
            # Straggler degradation (fault injection).
            render_time *= self.render_factor

        task_io = waited + io_time
        if task_io:
            # A hit keeps the store's shared 0.0.
            job.task_state[index * TASK_WIDTH + S_IO] = task_io
            self.io_seconds += task_io
        exec_time = io_time + upload_time + render_time
        if self._tracer is not None:
            self._trace_execution(
                row,
                now,
                job.task_state[index * TASK_WIDTH + S_HIT],
                io_time,
                upload_time,
                render_time,
            )
        finish = now + exec_time
        if not (now <= finish < _INF):
            raise self._events._bad_time(finish)
        _heappush(
            self._heap,
            (finish, PRIORITY_COMPLETION, next(self._seq), self._finish, (row,)),
        )

    def _trace_execution(
        self,
        row: Row,
        now: float,
        hit: bool,
        io_time: float,
        upload_time: float,
        render_time: float,
    ) -> None:
        """Record the task's start: one tracer row for its cache instant,
        I/O span (on a miss), render span, and flow step.

        Spans are recorded at task start — the discrete-event model
        fixes every duration then, so both spans are fully known.  With
        multiple executors each pipeline gets its own lanes (slots are
        reused in LIFO order), keeping per-lane timestamps monotonic.
        """
        if self.executors == 1:
            lanes = self._slot_lanes[0]
        else:
            slot = self._free_slots.pop() if self._free_slots else len(self._slot_of)
            self._slot_of[row] = slot
            if slot == len(self._slot_lanes):
                self._slot_lanes.append(self._lane_refs(f" {slot}"))
            lanes = self._slot_lanes[slot]
        job, index = row
        self._tracer.record_task(
            lanes,
            now,
            hit,
            job.chunks[index],
            job.job_id,
            index,
            io_time,
            upload_time,
            render_time,
            self._flows,
        )

    def _finish(self, row: Row) -> None:
        """Completion event: record times, notify, start the next task."""
        running = self._running
        if not self._alive or row not in running:
            # The node crashed while this task was in flight; the stale
            # completion event is void (the task was re-dispatched).
            # The membership test catches stale events that outlive a
            # planned revival — the node is alive again, but the voided
            # task finished elsewhere long ago.
            return
        job, index = row
        state = job.task_state
        base = index * TASK_WIDTH
        now = self._events._now
        state[base + S_FINISH] = now
        self.last_finish_time = now
        self.busy_time += now - state[base + S_START]
        self.tasks_executed += 1
        loading = self._loading
        if loading and row in loading:
            loading.discard(row)
            self._storage.end_load(job.chunks[index].size)
        running.remove(row)
        if self._slot_of:
            slot = self._slot_of.pop(row, None)
            if slot is not None:
                self._free_slots.append(slot)
        if self._on_task_finish is not None:
            self._on_task_finish(self, row)
        queue = self.queue
        executors = self.executors
        while queue and len(running) < executors and self._alive:
            self._begin_next()

    def rows(self) -> List[Row]:
        """The ``(job, index)`` rows placed here: running, then queued."""
        return self._running + self._queued_rows()

    def fail(self) -> List["RenderTask"]:
        """Crash the node (paper §VI-D fault-tolerance discussion).

        The node stops accepting and executing work and its memory
        contents are lost.  Returns the orphaned tasks — the one in
        flight plus the queued backlog — as handles, with their per-run
        state reset so the head node can re-dispatch them to surviving
        nodes.
        """
        if not self._alive:
            return []
        self._alive = False
        if self._tracer is not None:
            self._tracer.instant(
                self._pid,
                "cache",
                "node failed",
                self._events.now,
                category="service",
            )
            self._slot_of.clear()
            self._free_slots.clear()
        for job, index in self._running:
            if (job, index) in self._loading:
                # Balance the in-flight load's storage accounting (a
                # task backing off between timed-out attempts holds no
                # stream and needs no balancing).
                self._storage.end_load(job.chunks[index].size)
        orphans = self.rows()
        self._running = []
        self._loading.clear()
        self.queue.clear()
        for job, index in orphans:
            # ``est`` stays stale: re-placement overwrites it.
            state = job.task_state
            base = index * TASK_WIDTH
            state[base + S_NODE] = None
            state[base + S_START] = None
            state[base + S_FINISH] = None
            state[base + S_IO] = 0.0
            state[base + S_HIT] = None
        self.cache.clear()
        if self._vram is not None:
            # VRAM contents die with the node: a revived node uploads
            # every chunk again on its first access.
            self._vram.clear()
        return [job.task(index) for job, index in orphans]

    def revive(self) -> None:
        """Bring a crashed node back (planned revival, fault injection).

        The process restarts empty: :meth:`fail` already cleared the
        queue, the running set, and the cache, so rejoining is just the
        liveness flip.  No-op when the node never crashed.
        """
        if self._alive:
            return
        self._alive = True
        if self._tracer is not None:
            self._tracer.instant(
                self._pid,
                "cache",
                "node revived",
                self._events.now,
                category="service",
            )

    def steal_backlog(self) -> List["RenderTask"]:
        """Remove and return the queued (unstarted) tasks, as handles.

        Speculative re-execution: tasks already running stay — they
        finish (slowly) where they are, so no task completes twice.
        Stolen tasks have their node slot reset for re-dispatch; their
        other per-run state was never touched (they had not started).
        """
        stolen = self.queued_tasks()
        self.queue.clear()
        for job, index, _ in stolen:
            job.task_state[index * TASK_WIDTH + S_NODE] = None
        return stolen

    def drain_check(self) -> None:
        """Assert the node is quiescent (test helper)."""
        if self._running or self.queue:
            raise AssertionError(
                f"node {self.node_id} not drained: "
                f"running={len(self._running)}, backlog={self.backlog}"
            )


__all__ = [
    "RenderNode",
    "Row",
    "RowFinishCallback",
    "TaskFinishCallback",
    "S_NODE",
    "S_EST",
    "S_START",
    "S_FINISH",
    "S_IO",
    "S_HIT",
    "TASK_WIDTH",
]
