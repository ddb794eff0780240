"""Discrete-event GPU-cluster substrate.

Everything the scheduler runs *on*: the simulation clock and event queue,
per-node LRU memory caches, the disk/file-server I/O model, the GPU and
optional explicit video-memory model, rendering nodes with FIFO render
threads, the cost constants, and the :class:`Cluster` aggregate.  The
link model (:mod:`repro.cluster.interconnect`) serves only the
functional compositing path (:mod:`repro.comm`, :mod:`repro.render`).
A simulation run prices compositing with the cost constants alone:
neither :class:`Cluster` nor a system configuration takes a link.
"""

from repro.cluster.cluster import Cluster
from repro.cluster.costs import CostParameters, cost_preset_anl, cost_preset_linux8
from repro.cluster.event_queue import (
    EventQueue,
    SimulationError,
    PRIORITY_ARRIVAL,
    PRIORITY_COMPLETION,
    PRIORITY_CYCLE,
)
from repro.cluster.gpu import GpuMemoryModel, GpuSpec
from repro.cluster.interconnect import Interconnect, LinkSpec, swap_stage_count
from repro.cluster.memory import ChunkTooLargeError, LRUChunkCache
from repro.cluster.node import RenderNode
from repro.cluster.storage import StorageModel, StorageSpec

__all__ = [
    "Cluster",
    "CostParameters",
    "cost_preset_anl",
    "cost_preset_linux8",
    "EventQueue",
    "SimulationError",
    "PRIORITY_ARRIVAL",
    "PRIORITY_COMPLETION",
    "PRIORITY_CYCLE",
    "GpuMemoryModel",
    "GpuSpec",
    "Interconnect",
    "LinkSpec",
    "swap_stage_count",
    "ChunkTooLargeError",
    "LRUChunkCache",
    "RenderNode",
    "StorageModel",
    "StorageSpec",
]
