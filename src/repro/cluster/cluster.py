"""The cluster: one head node's worth of state plus ``p`` rendering nodes.

This class wires the substrate together (event queue, shared storage,
rendering nodes) and exposes the aggregate statistics the evaluation
reports (cache hit rates, utilization).  Compositing is priced by the
cost model (:attr:`CostParameters.composite_times`) alone; the cluster
takes no link and builds no network model.  The head-node *logic*
(job queue, dispatch, scheduling) lives in
:class:`repro.sim.service.VisualizationService`; the cluster is the
machine it runs on.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Union

from repro.cluster.costs import CostParameters
from repro.cluster.event_queue import EventQueue
from repro.cluster.gpu import GpuSpec
from repro.cluster.node import (
    RenderNode,
    Row,
    RowFinishCallback,
    TaskFinishCallback,
)
from repro.cluster.storage import StorageModel, StorageSpec
from repro.util.rng import spawn_rngs
from repro.util.validation import check_positive

if TYPE_CHECKING:  # pragma: no cover - typing only (keeps cluster<-core one-way)
    from repro.core.job import RenderTask


class Cluster:
    """A simulated GPU cluster.

    Args:
        node_count: Number of rendering nodes ``p``.
        memory_quota: Per-node main-memory byte budget for chunk caching.
        cost: Rendering/compositing cost constants.
        storage_spec: I/O model parameters (shared by all nodes).
        gpu: Per-node GPU description (bounds ``Chkmax``; used by the
            explicit VRAM model when ``model_vram`` is set).
        model_vram: Enable the explicit video-memory model (paper future
            work; off by default to match the paper's cost model).
        executors_per_node: Concurrent rendering pipelines (GPUs) per
            node; the calibrated presets use 1.
        events: Optionally share an existing event queue.
        storage_seed: Seed for I/O jitter (only relevant when the storage
            spec enables jitter).
    """

    def __init__(
        self,
        node_count: int,
        memory_quota: int,
        cost: CostParameters,
        *,
        storage_spec: Optional[StorageSpec] = None,
        gpu: Optional[GpuSpec] = None,
        model_vram: bool = False,
        events: Optional[EventQueue] = None,
        storage_seed: int = 0,
        executors_per_node: int = 1,
    ) -> None:
        check_positive("node_count", node_count)
        check_positive("memory_quota", memory_quota)
        self.cost = cost
        self.events = events if events is not None else EventQueue()
        self.storage = StorageModel(
            storage_spec if storage_spec is not None else StorageSpec(),
            seed=storage_seed,
        )
        self.gpu = gpu
        self._task_finish_listeners: List[RowFinishCallback] = []
        node_rngs = spawn_rngs(storage_seed + 1, node_count)
        self.nodes: List[RenderNode] = [
            RenderNode(
                k,
                memory_quota,
                cost,
                self.storage,
                self.events,
                gpu=gpu,
                model_vram=model_vram,
                on_task_finish=self._notify_task_finish,
                rng=node_rngs[k],
                executors=executors_per_node,
            )
            for k in range(node_count)
        ]

    # -- wiring ------------------------------------------------------------

    def add_task_finish_listener(
        self,
        callback: Union[TaskFinishCallback, RowFinishCallback],
        *,
        prepend: bool = False,
        rows: bool = False,
    ) -> None:
        """Register a callback fired on every task completion.

        ``callback(node, task)`` receives a
        :class:`~repro.core.job.RenderTask` handle, built for the call;
        with ``rows=True`` it receives the task's ``(job, index)`` row
        instead and builds nothing (the service and the fault monitor
        listen this way, reading the job's task store directly).  With
        exactly one listener (the common case: the service), nodes call
        it directly; the fan-out wrapper is wired in only once a second
        listener appears.  ``prepend`` puts the callback ahead of the
        existing listeners — the fault outlier detector uses this to
        read pending-estimate state before the service consumes it.
        """
        if not rows:
            callback = _with_handle(callback)
        listeners = self._task_finish_listeners
        if prepend:
            listeners.insert(0, callback)
        else:
            listeners.append(callback)
        target = callback if len(listeners) == 1 else self._notify_task_finish
        for node in self.nodes:
            node._on_task_finish = target

    def _notify_task_finish(self, node: RenderNode, row: Row) -> None:
        for callback in self._task_finish_listeners:
            callback(node, row)

    # -- convenience -------------------------------------------------------

    @property
    def node_count(self) -> int:
        """Number of rendering nodes ``p``."""
        return len(self.nodes)

    @property
    def now(self) -> float:
        """Current simulation time."""
        return self.events.now

    def dispatch(self, task: "RenderTask", node_id: int) -> None:
        """Hand a task to rendering node ``node_id``'s FIFO queue."""
        self.nodes[node_id].enqueue(task)

    # -- aggregate statistics ----------------------------------------------

    def total_tasks_executed(self) -> int:
        """Tasks completed across all nodes."""
        return sum(n.tasks_executed for n in self.nodes)

    def cache_hit_rate(self) -> float:
        """Data-reuse hit rate across all executed tasks (Table III)."""
        hits = sum(n.cache_hits for n in self.nodes)
        misses = sum(n.cache_misses for n in self.nodes)
        total = hits + misses
        return hits / total if total else 0.0

    def mean_utilization(self, elapsed: float) -> float:
        """Mean render-thread utilization over ``elapsed`` seconds."""
        if not self.nodes:
            return 0.0
        return sum(n.utilization(elapsed) for n in self.nodes) / len(self.nodes)

    def total_backlog(self) -> int:
        """Tasks queued (not started) across all nodes."""
        return sum(n.backlog for n in self.nodes)

    def idle_nodes(self) -> List[int]:
        """Ids of nodes with an idle render thread and empty queue."""
        return [n.node_id for n in self.nodes if not n.busy and not n.queue]


def _with_handle(callback: TaskFinishCallback) -> RowFinishCallback:
    """Adapt a ``(node, task)`` listener to the nodes' ``(node, row)`` call."""

    def on_row(node: RenderNode, row: Row) -> None:
        job, index = row
        callback(node, job.task(index))

    return on_row


__all__ = ["Cluster"]
