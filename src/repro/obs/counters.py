"""Built-in counter tracks sampled from a running simulation.

Spans show individual work items; counters show *pressure*: how deep
the head node's queue is, how many nodes are busy, how full each node's
chunk cache sits, how many bytes of I/O are in flight.  These are the
curves behind the paper's narrative — FCFS drowning the file server,
OURS keeping caches warm and queues short.

:class:`CounterSampler` is a :class:`~repro.obs.probe.Probe` sink: it
turns each tick's snapshot into one counter sample per track in a
:class:`~repro.obs.tracer.Tracer`.  Standard track names are module
constants so tests and consumers don't hard-code strings.
"""

from __future__ import annotations

from repro.obs.probe import Sink, Snapshot
from repro.obs.tracer import PID_HEAD, Tracer, pid_for_node

#: Head-node track: jobs waiting for a scheduling trigger plus tasks the
#: scheduler has deferred internally.
TRACK_QUEUE = "queue depth"
#: Head-node track: rendering nodes with at least one busy pipeline.
TRACK_BUSY_NODES = "busy nodes"
#: Head-node track: storage-subsystem loads/bytes currently in flight.
TRACK_IO_INFLIGHT = "io in-flight"
#: Per-node track: bytes resident in the node's chunk cache.
TRACK_CACHE = "cache bytes"

#: The standard *head-node* counter tracks.  These live on ``PID_HEAD``
#: because they describe cluster-wide pressure the head node observes
#: (its queue, the busy-node count, the storage subsystem); per-node
#: tracks are listed separately in :data:`PER_NODE_TRACKS`.
STANDARD_TRACKS = (TRACK_QUEUE, TRACK_BUSY_NODES, TRACK_IO_INFLIGHT)

#: Counter tracks emitted once per rendering node (on the node's own
#: ``pid``, see :func:`~repro.obs.tracer.pid_for_node`).  Consumers
#: iterating a trace's cache occupancy should use this constant rather
#: than hard-coding the track string.
PER_NODE_TRACKS = (TRACK_CACHE,)


class CounterSampler(Sink):
    """Samples service/cluster pressure counters into a tracer.

    Args:
        tracer: Destination for counter events.
        interval: Simulated seconds between samples.
        per_node_cache: Emit one ``cache bytes`` track per rendering
            node (on the node's own pid).  Disable for very large
            clusters where p tracks per tick would dominate the trace.
    """

    def __init__(
        self,
        tracer: Tracer,
        interval: float,
        *,
        per_node_cache: bool = True,
    ) -> None:
        self.tracer = tracer
        self.interval = interval
        self.per_node_cache = per_node_cache

    def _tick(self, snap: Snapshot) -> None:
        counter = self.tracer.counter
        now = snap.time
        counter(
            PID_HEAD,
            TRACK_QUEUE,
            now,
            {
                "queued jobs": float(snap.queued),
                "deferred tasks": float(snap.deferred),
                "node backlog": float(snap.backlog),
            },
        )
        counter(PID_HEAD, TRACK_BUSY_NODES, now, {"busy": float(snap.busy)})
        counter(
            PID_HEAD,
            TRACK_IO_INFLIGHT,
            now,
            {
                "loads": float(snap.io_loads),
                "MiB": snap.io_inflight_bytes / 2**20,
            },
        )
        if self.per_node_cache:
            for node_id, used in enumerate(snap.cache_used):
                counter(pid_for_node(node_id), TRACK_CACHE, now, {"used": float(used)})


def default_counter_interval(horizon: float, *, samples: int = 256) -> float:
    """A sampling interval giving ~``samples`` ticks over ``horizon``.

    Clamped below so degenerate horizons can't produce a zero interval.
    """
    return max(horizon / max(samples, 1), 1e-4)


__all__ = [
    "TRACK_QUEUE",
    "TRACK_BUSY_NODES",
    "TRACK_IO_INFLIGHT",
    "TRACK_CACHE",
    "STANDARD_TRACKS",
    "PER_NODE_TRACKS",
    "CounterSampler",
    "default_counter_interval",
]
