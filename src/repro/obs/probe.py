"""One sampling clock and one store for every periodic observer.

Metrics windows, tracer counter tracks and the telemetry stream all
watch the same service state at fixed intervals.  A :class:`Probe` is
the only code that puts those sampling ticks on the event queue, and
the only store of what each tick read: a grid asked for its
:meth:`~Probe.series` keeps its :class:`Snapshot` list, which metric
windows and ``result.metrics.snapshots`` are read from after the run.
:class:`Sink` subclasses act on each snapshot at tick time instead.
Nothing here writes to the service, so an observed run is
bit-identical to an unobserved one.

* **Grid.**  Sinks and series that share an interval share one grid:
  one event per tick, tick ``k`` at exactly ``start + k * interval``
  (computed from the tick index, so ticks accumulate no float drift).
  Window state is kept per grid.
* **Quiescence.**  Every periodic clock (each grid, and the frontend's
  degradation controller) keeps one rule, :func:`_keeps_ticking`: it
  stops after the tick that reaches the horizon, or after a tick that
  finds the service without work and nothing queued but periodic
  ticks.  No clock counts another's ticks as pending work, so no
  observer's output depends on which other clocks are running.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.core.cost_model import percentile
from repro.core.job import JobType
from repro.util.validation import check_positive


@dataclass(frozen=True)
class MetricWindow:
    """Aggregates over one sampling interval of simulated time."""

    start: float
    end: float
    jobs_completed: int
    interactive_completed: int
    batch_completed: int
    fps: float
    latency_p50: float
    latency_p95: float
    latency_p99: float
    cache_hits: int
    cache_misses: int
    hit_rate: float
    io_bytes: int

    @property
    def duration(self) -> float:
        """Window length in simulated seconds."""
        return self.end - self.start

    def to_event(self) -> Dict[str, Any]:
        """JSONL event payload for this window."""
        return {"type": "window", **asdict(self)}


@dataclass(frozen=True)
class Snapshot:
    """Service and cluster state at one grid tick.

    ``events`` counts events processed so far and ``d_events`` those
    since the grid's previous tick.  ``queued`` is the head-node queue,
    ``deferred`` the tasks the scheduler holds back, ``backlog`` the
    tasks queued on nodes, ``busy`` the nodes with a busy pipeline,
    ``hits``/``misses`` the run's cache hits and misses so far, and
    ``cache_used`` each node's resident cache bytes in node order.
    ``window`` covers the span since the grid's previous tick; it is
    ``None`` on a grid's first tick.
    """

    time: float
    events: int
    d_events: int
    queued: int
    deferred: int
    backlog: int
    busy: int
    outstanding: int
    inflight: int
    submitted: int
    completed: int
    hits: int
    misses: int
    io_loads: int
    io_inflight_bytes: float
    cache_used: Tuple[int, ...]
    window: Optional[MetricWindow]


def _keeps_ticking(service, horizon: Optional[float]) -> bool:
    """Whether a periodic clock queues its next tick (asked in each tick).

    The asking tick is off the queue but still counted in the queue's
    ``_periodic``, so ``len(events) >= _periodic`` means something other
    than periodic ticks is queued.  A clock that stops leaves the count.
    """
    events = service.cluster.events
    if (horizon is None or events.now < horizon) and (
        service.has_work() or len(events) >= events._periodic
    ):
        return True
    events._periodic -= 1
    return False


class Sink:
    """Base of the probe's sinks (:meth:`Probe.add`): an ``interval``
    and a ``_tick(snapshot)``, defined in the subclass's own body
    (``benchmarks/e2e/layertrace.py`` times them by replacing it there).
    """

    interval: float


class _Grid:
    """One interval's sinks, kept series, tick count, and window baselines."""

    __slots__ = (
        "interval", "sinks", "series", "ticks", "time", "events", "records",
        "hits", "misses", "io_total",
    )

    def __init__(self, interval: float) -> None:
        check_positive("interval", interval)
        self.interval = interval
        self.sinks: List = []
        self.series: Optional[List[Snapshot]] = None
        self.ticks = self.events = self.records = 0
        self.hits = self.misses = self.io_total = 0
        self.time = 0.0


class Probe:
    """Samples one service on one clock and feeds every sink.

    Args:
        service: The :class:`~repro.sim.service.VisualizationService`
            to observe.
        horizon: Stop time for every grid; ``None`` ticks until
            quiescence (drained runs).
    """

    def __init__(self, service, *, horizon: Optional[float] = None) -> None:
        # Imported here: ``repro.reporting`` imports this module's sinks.
        from repro.reporting.collectors import JobRecords

        self.service = service
        self.horizon = horizon
        self._columns = JobRecords.of
        self._grids: Dict[float, _Grid] = {}
        self._start: Optional[float] = None

    def _grid(self, interval: float) -> _Grid:
        grid = self._grids.get(interval)
        if grid is None:
            grid = self._grids[interval] = _Grid(interval)
        return grid

    def add(self, sink) -> "Probe":
        """Register ``sink`` on the grid for ``sink.interval`` (before start)."""
        self._grid(sink.interval).sinks.append(sink)
        return self

    def series(self, interval: float) -> List[Snapshot]:
        """The ``interval`` grid's snapshots, one per tick, as they come.

        Only a grid whose series was asked for before :meth:`start`
        keeps its snapshots; asking for another one later is an error.
        """
        grid = self._grid(interval)
        if grid.series is None:
            if self._start is not None:
                raise ValueError(f"series({interval!r}) asked after start")
            grid.series = []
        return grid.series

    def start(self) -> "Probe":
        """Anchor every grid at the current time and queue its first tick."""
        events = self.service.cluster.events
        self._start = events.now
        for grid in self._grids.values():
            grid.time = self._start
            events.schedule(self._start, self._tick, grid)
        events._periodic += len(self._grids)
        return self

    def close(self) -> None:
        """Drop the service reference; ticks still queued become no-ops."""
        self.service = None

    def _tick(self, grid: _Grid) -> None:
        service = self.service
        if service is None:
            return
        snapshot = self._snapshot(grid)
        if grid.series is not None:
            grid.series.append(snapshot)
        for sink in grid.sinks:
            sink._tick(snapshot)  # looked up per call; see Sink
        if _keeps_ticking(service, self.horizon):
            grid.ticks += 1
            service.cluster.events.schedule(
                self._start + grid.ticks * grid.interval, self._tick, grid
            )

    def _snapshot(self, grid: _Grid) -> Snapshot:
        service = self.service
        cluster = service.cluster
        storage = cluster.storage
        now = cluster.events.now
        processed = cluster.events.processed
        hits = misses = busy = 0
        cache_used = []
        for node in cluster.nodes:
            hits += node.cache_hits
            misses += node.cache_misses
            busy += node.busy
            cache_used.append(node.cache.used_bytes)
        records = self._columns(service.collector.records)
        io_total = storage.total_bytes
        window = None
        if now > grid.time:
            latencies = sorted(records.latencies(grid.records))
            interactive = records.count_of(JobType.INTERACTIVE, grid.records)
            d_hits = hits - grid.hits
            d_misses = misses - grid.misses
            window = MetricWindow(
                start=grid.time,
                end=now,
                jobs_completed=len(latencies),
                interactive_completed=interactive,
                batch_completed=len(latencies) - interactive,
                fps=interactive / (now - grid.time),
                latency_p50=percentile(latencies, 50),
                latency_p95=percentile(latencies, 95),
                latency_p99=percentile(latencies, 99),
                cache_hits=d_hits,
                cache_misses=d_misses,
                hit_rate=d_hits / (d_hits + d_misses) if d_hits + d_misses else 0.0,
                io_bytes=io_total - grid.io_total,
            )
        snapshot = Snapshot(
            time=now,
            events=processed,
            d_events=processed - grid.events,
            queued=service.queue_depth,
            deferred=service.scheduler.pending_task_count(),
            backlog=cluster.total_backlog(),
            busy=busy,
            outstanding=service.outstanding_jobs,
            inflight=service.tasks_inflight,
            submitted=service.jobs_submitted,
            completed=service.jobs_completed,
            hits=hits,
            misses=misses,
            io_loads=storage.active_loads,
            io_inflight_bytes=storage.active_bytes,
            cache_used=tuple(cache_used),
            window=window,
        )
        grid.time, grid.events, grid.records = now, processed, len(records)
        grid.hits, grid.misses, grid.io_total = hits, misses, io_total
        return snapshot


__all__ = ["MetricWindow", "Probe", "Sink", "Snapshot"]
