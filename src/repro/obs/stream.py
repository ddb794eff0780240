"""Live telemetry streaming — the *while it runs* observability lens.

Every other layer of :mod:`repro.obs` is post-hoc: nothing is visible
until :class:`~repro.sim.simulator.SimulationResult` materializes.  This
module adds a bounded-overhead telemetry bus that emits schema-versioned
NDJSON records *during* the run, so an operator (or ``repro watch``) can
see progress, stalls, and emerging anomalies while a fleet-scale
simulation is still executing:

* :class:`StreamConfig` — where to stream and at what cadence;
* :class:`TelemetryStream` — a :class:`~repro.obs.probe.Probe` sink
  writing one ``snapshot`` record per tick from the probe's window
  deltas — the same snapshot the run's metric windows are read from,
  so streamed counters equal the post-hoc series whenever the two
  share a grid — plus wall-clock ``wall`` checkpoint records
  (events/s, ETA extrapolation);
* :class:`StallWatchdog` — a daemon thread that notices when *wall*
  time passes without any event draining and dumps queue-head/in-flight
  diagnostics (a ``stall`` record) so a hung run explains itself;
* :class:`StreamReport` — the picklable bundle attached to
  ``SimulationResult.stream``;
* :func:`iter_jsonl` — the partial-line-tolerant NDJSON reader every
  consumer (``repro watch``, tests, offline analysis) uses: a crash or
  an in-progress write leaves at most one torn trailing line, which the
  reader skips instead of raising.

Record vocabulary (``type`` field), all carrying ``"schema": 1``
in the run header:

* ``run`` — stream header: schema version, scenario, scheduler,
  horizon, grid interval, target fps, shard namespace;
* ``fault`` — one planned injection (known at arm time; markers for
  ``repro watch``, never consumed by the anomaly detectors);
* ``snapshot`` — one grid window of simulated time.  Deterministic
  fields (everything the anomaly detectors consume) are pure virtual-
  time quantities; ``wall_s`` is the only machine-dependent field;
* ``wall`` — a wall-clock checkpoint: events/s and the ETA
  extrapolation ``wall_so_far * remaining_sim / elapsed_sim``;
* ``anomaly`` — an online detector verdict
  (:mod:`repro.obs.anomaly`);
* ``stall`` — the watchdog's diagnostic dump;
* ``summary`` — the closing record (its presence marks a finished
  stream; ``repro watch`` exits when it appears).

Writes are flushed per record, so a reader tailing the file (or the
post-crash forensics) always sees every completed record.  The off
path costs nothing: ``RunConfig(stream=None)`` constructs nothing, and
a streamed run is bit-identical to an unstreamed one — snapshot ticks
are pure observers on the event queue, pinned by the golden-trace
hashes.
"""

from __future__ import annotations

import json
import math
import threading
import time as _time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Union

from repro.obs.metrics import default_window_interval
from repro.obs.probe import MetricWindow, Sink, Snapshot
from repro.util.validation import check_positive

#: NDJSON schema version stamped in every stream's ``run`` header.
STREAM_SCHEMA = 1


#: The default snapshot interval is the metrics window interval itself,
#: so a default-cadence stream and metrics sampler share one probe grid.
default_stream_interval = default_window_interval


@dataclass(frozen=True)
class StreamConfig:
    """How one run streams live telemetry.

    Attributes:
        path: NDJSON output file (created/truncated at run start; parent
            directories are created).
        interval: Snapshot grid interval in simulated seconds; ``None``
            derives ~64 snapshots from the horizon (the metrics-sampler
            default, so the two grids coincide).
        wall_interval: Wall-clock seconds between ``wall`` checkpoint
            records (progress/ETA for a human tailing the file).
            Checkpoints piggyback on grid ticks — they never add events.
        stall_timeout: Wall-clock seconds without a single event
            draining before the watchdog dumps a ``stall`` diagnostic
            record; ``None`` disables the watchdog thread entirely.
        anomalies: Run the online anomaly detectors
            (:mod:`repro.obs.anomaly`) over the snapshot series and
            emit ``anomaly`` records.
        anomaly_config: Optional
            :class:`~repro.obs.anomaly.AnomalyConfig` overriding the
            detector thresholds.
    """

    path: Union[str, Path]
    interval: Optional[float] = None
    wall_interval: float = 1.0
    stall_timeout: Optional[float] = None
    anomalies: bool = True
    anomaly_config: Optional[object] = None

    def __post_init__(self) -> None:
        if self.interval is not None:
            check_positive("interval", self.interval)
        check_positive("wall_interval", self.wall_interval)
        if self.stall_timeout is not None:
            check_positive("stall_timeout", self.stall_timeout)

    def for_shard(self, shard: int) -> "StreamConfig":
        """A copy streaming to a shard-suffixed sibling file.

        ``telemetry.ndjson`` → ``telemetry.shard3.ndjson``; federated
        runs give every shard its own stream file so worker processes
        never share a write handle.
        """
        path = Path(self.path)
        suffix = path.suffix or ".ndjson"
        return StreamConfig(
            path=path.with_name(f"{path.stem}.shard{shard}{suffix}"),
            interval=self.interval,
            wall_interval=self.wall_interval,
            stall_timeout=self.stall_timeout,
            anomalies=self.anomalies,
            anomaly_config=self.anomaly_config,
        )


def iter_jsonl(path: Union[str, Path]) -> Iterator[Dict[str, Any]]:
    """Yield parsed records from an NDJSON file, tolerating a torn tail.

    A crash (or a reader racing the writer) leaves at most one partial
    trailing line; every complete line before it parses cleanly.  A
    torn *final* line is silently skipped — a corrupt line followed by
    further complete records still raises, because that is corruption,
    not an in-progress write.
    """
    with Path(path).open("r") as fh:
        pending_error: Optional[json.JSONDecodeError] = None
        for line in fh:
            if pending_error is not None:
                raise pending_error
            stripped = line.strip()
            if not stripped:
                continue
            try:
                record = json.loads(stripped)
            except json.JSONDecodeError as exc:
                # Maybe the torn tail; only an error on a *later* line
                # (or a complete line that still fails) proves rot.
                if line.endswith("\n"):
                    pending_error = json.JSONDecodeError(
                        f"corrupt NDJSON line in {path}: {exc.msg}",
                        exc.doc,
                        exc.pos,
                    )
                continue
            yield record


def read_stream(path: Union[str, Path]) -> List[Dict[str, Any]]:
    """All complete records of a stream file (see :func:`iter_jsonl`)."""
    return list(iter_jsonl(path))


def follow_stream(
    path: Union[str, Path],
    *,
    poll: float = 0.25,
    idle_timeout: Optional[float] = 30.0,
) -> Iterator[Dict[str, Any]]:
    """Tail a (possibly still-growing) stream file, yielding records.

    The live counterpart of :func:`iter_jsonl`, built for ``repro
    watch``: records are yielded as their lines complete, a partial
    trailing line is buffered until the writer finishes it, and the
    generator returns as soon as the ``summary`` record appears (the
    stream's end-of-run marker).  If the file does not exist yet the
    tail waits for it.  ``idle_timeout`` bounds how long to wait, in
    wall seconds, without a single new complete record (``None`` waits
    forever — only sensible when a summary is guaranteed).
    """
    check_positive("poll", poll)
    if idle_timeout is not None:
        check_positive("idle_timeout", idle_timeout)
    target = Path(path)
    deadline = (
        None if idle_timeout is None else _time.monotonic() + idle_timeout
    )
    while not target.exists():
        if deadline is not None and _time.monotonic() > deadline:
            return
        _time.sleep(poll)
    with target.open("r") as fh:
        buffer = ""
        while True:
            chunk = fh.read()
            if not chunk:
                if deadline is not None and _time.monotonic() > deadline:
                    return
                _time.sleep(poll)
                continue
            buffer += chunk
            lines = buffer.split("\n")
            buffer = lines.pop()  # torn tail (or "" after a full line)
            progressed = False
            for line in lines:
                stripped = line.strip()
                if not stripped:
                    continue
                try:
                    record = json.loads(stripped)
                except json.JSONDecodeError:
                    # A complete-but-corrupt line; skip it and keep
                    # tailing (the batch reader raises here instead).
                    continue
                progressed = True
                yield record
                if record.get("type") == "summary":
                    return
            if progressed and idle_timeout is not None:
                deadline = _time.monotonic() + idle_timeout


class _StreamWriter:
    """Locked, per-record-flushed NDJSON writer.

    The lock exists for the watchdog thread: grid ticks write from the
    simulation thread, stall diagnostics from the watchdog, and a torn
    interleaving would corrupt the file for every reader.
    """

    def __init__(self, path: Path) -> None:
        if path.parent != Path("."):
            path.parent.mkdir(parents=True, exist_ok=True)
        self._fh = path.open("w")
        self._lock = threading.Lock()
        self.records_written = 0

    def write(self, record: Dict[str, Any]) -> None:
        line = json.dumps(record) + "\n"
        with self._lock:
            self._fh.write(line)
            # Flush per record: a mid-run crash loses at most the line
            # being written, never a buffered batch.
            self._fh.flush()
            self.records_written += 1

    def close(self) -> None:
        with self._lock:
            self._fh.close()


class StallWatchdog:
    """Wall-clock stall detector for a running simulation.

    A daemon thread samples the event queue's ``processed`` counter;
    when it stops advancing for ``timeout`` wall seconds while events
    remain pending, the watchdog writes one ``stall`` record with the
    queue-head/in-flight diagnostics an operator needs to localize the
    hang (and keeps re-arming, so a 3-minute stall logs more than
    once).  Purely an observer: it touches nothing the simulation
    reads, so streamed runs stay bit-identical.
    """

    def __init__(
        self,
        events,
        service,
        writer: _StreamWriter,
        timeout: float,
        *,
        poll: Optional[float] = None,
    ) -> None:
        check_positive("timeout", timeout)
        self.events = events
        self.service = service
        self.writer = writer
        self.timeout = timeout
        self.poll = poll if poll is not None else max(timeout / 4.0, 0.01)
        self.stalls_reported = 0
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    def start(self) -> None:
        """Arm the watchdog on a daemon thread (idempotent per run)."""
        self._thread = threading.Thread(
            target=self._loop, name="repro-stall-watchdog", daemon=True
        )
        self._thread.start()

    def stop(self) -> None:
        """Disarm the watchdog and join its thread."""
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=self.timeout + 1.0)
            self._thread = None

    def _loop(self) -> None:
        last_processed = self.events.processed
        last_progress = _time.monotonic()
        while not self._stop.wait(self.poll):
            processed = self.events.processed
            now = _time.monotonic()
            if processed != last_processed:
                last_processed = processed
                last_progress = now
                continue
            if now - last_progress >= self.timeout:
                self._dump(processed, now - last_progress)
                last_progress = now  # re-arm; repeat dumps for long stalls

    def _dump(self, processed: int, stalled_for: float) -> None:
        events = self.events
        service = self.service
        record = {
            "type": "stall",
            "stalled_wall_s": stalled_for,
            "sim_time": events.now,
            "events": processed,
            "queue_len": len(events),
            "next_event_time": events.peek_time(),
            "outstanding": service.outstanding_jobs,
            "inflight": service.tasks_inflight,
            "queue_depth": service.queue_depth,
        }
        self.writer.write(record)
        self.stalls_reported += 1


@dataclass
class StreamReport:
    """Picklable summary of one run's telemetry stream.

    Attached to :class:`~repro.sim.simulator.SimulationResult` as
    ``.stream`` after the writer closes, so results survive process-pool
    boundaries (federated shards) with their stream accounting intact.
    """

    path: Path
    snapshots: int = 0
    records_written: int = 0
    stalls: int = 0
    #: Online anomaly verdicts, in emission (grid) order — a
    #: deterministic function of the virtual-time snapshot series.
    anomalies: List = field(default_factory=list)

    def anomaly_kinds(self) -> Dict[str, int]:
        """Anomaly counts per closed-vocabulary kind."""
        counts: Dict[str, int] = {}
        for record in self.anomalies:
            counts[record.kind] = counts.get(record.kind, 0) + 1
        return counts


class TelemetryStream(Sink):
    """Streams one run's telemetry as NDJSON while the run executes.

    A :class:`~repro.obs.probe.Probe` sink: each tick that closes a
    window writes one ``snapshot`` record, built from the same
    :class:`~repro.obs.probe.Snapshot` the metric windows on the grid
    are read from, so the streamed counters are exactly the post-hoc
    window series when the two share an interval.  Each tick also
    checks the wall clock and, when ``wall_interval`` has passed,
    appends a ``wall`` checkpoint with events/s and the ETA
    extrapolation.

    Deterministic snapshot fields (everything under simulated time) are
    separated from wall-clock fields by construction: the anomaly
    detectors consume only the former, so anomaly records are
    bit-reproducible across machines.
    """

    def __init__(
        self,
        config: StreamConfig,
        *,
        scenario: str = "",
        scheduler: str = "",
        horizon: Optional[float] = None,
        target_framerate: float = 0.0,
        job_namespace: int = 0,
    ) -> None:
        self.config = config
        self.path = Path(config.path)
        self.horizon = horizon
        self.target_framerate = target_framerate
        interval = config.interval
        if interval is None:
            interval = default_stream_interval(
                horizon if horizon is not None else 60.0
            )
        self.interval = interval
        self._writer = _StreamWriter(self.path)
        self._writer.write(
            {
                "type": "run",
                "schema": STREAM_SCHEMA,
                "scenario": scenario,
                "scheduler": scheduler,
                "horizon": horizon,
                "interval": interval,
                "target_fps": target_framerate,
                "shard": job_namespace,
            }
        )
        self.detector = None
        if config.anomalies:
            from repro.obs.anomaly import AnomalyConfig, OnlineAnomalyDetector

            cfg = config.anomaly_config
            self.detector = OnlineAnomalyDetector(
                cfg if cfg is not None else AnomalyConfig(),
                target_framerate=target_framerate,
            )
        self.watchdog: Optional[StallWatchdog] = None
        self.snapshots = 0
        self.anomalies: List = []
        self._service = None
        self._start = 0.0
        self._wall_start = 0.0
        self._next_wall = 0.0
        self._closed = False

    # -- lifecycle ---------------------------------------------------------

    def note_injections(self, injections) -> None:
        """Record the fault plan's ground-truth markers (arm time).

        Written up front so ``repro watch`` can show planned faults
        before they strike; the anomaly detectors never read them.
        """
        for injection in injections:
            self._writer.write(
                {
                    "type": "fault",
                    "kind": injection.kind,
                    "node": injection.node,
                    "time": injection.time,
                    "until": injection.until,
                }
            )

    def attach(self, service, probe) -> "TelemetryStream":
        """Start the wall clock and stall watchdog; sample on ``probe``."""
        self._service = service
        events = service.cluster.events
        self._start = events.now
        self._wall_start = _time.perf_counter()
        self._next_wall = self.config.wall_interval
        if self.config.stall_timeout is not None:
            self.watchdog = StallWatchdog(
                events, service, self._writer, self.config.stall_timeout
            )
            self.watchdog.start()
        probe.add(self)
        return self

    def close(self) -> "StreamReport":
        """Stop the watchdog, write the summary record, close the file."""
        if self._closed:
            return self.report()
        self._closed = True
        if self.watchdog is not None:
            self.watchdog.stop()
        service = self._service
        wall = _time.perf_counter() - self._wall_start
        events = service.cluster.events if service is not None else None
        self._writer.write(
            {
                "type": "summary",
                "snapshots": self.snapshots,
                "anomalies": len(self.anomalies),
                "stalls": (
                    self.watchdog.stalls_reported
                    if self.watchdog is not None
                    else 0
                ),
                "sim_time": events.now if events is not None else 0.0,
                "events": events.processed if events is not None else 0,
                "wall_s": wall,
            }
        )
        self._writer.close()
        # Break the reference cycle through the service/cluster so the
        # result stays picklable across the run_many process pool.
        self._service = None
        return self.report()

    def report(self) -> StreamReport:
        """The picklable per-run stream summary."""
        return StreamReport(
            path=self.path,
            snapshots=self.snapshots,
            records_written=self._writer.records_written,
            stalls=(
                self.watchdog.stalls_reported
                if self.watchdog is not None
                else 0
            ),
            anomalies=list(self.anomalies),
        )

    # -- sampling ----------------------------------------------------------

    def _tick(self, snap: Snapshot) -> None:
        window = snap.window
        if window is not None:
            snapshot = {
                "type": "snapshot",
                "t": snap.time,
                "start": window.start,
                "events": snap.events,
                "d_events": snap.d_events,
                "queue": snap.queued,
                "outstanding": snap.outstanding,
                "inflight": snap.inflight,
                "submitted": snap.submitted,
                "completed": snap.completed,
                "jobs_completed": window.jobs_completed,
                "interactive_completed": window.interactive_completed,
                "fps": window.fps,
                "latency_p50": window.latency_p50,
                "latency_p95": window.latency_p95,
                "latency_p99": window.latency_p99,
                "cache_hits": window.cache_hits,
                "cache_misses": window.cache_misses,
                "hit_rate": window.hit_rate,
                "io_bytes": window.io_bytes,
                "burn": self._burn(window),
                "wall_s": _time.perf_counter() - self._wall_start,
            }
            self._writer.write(snapshot)
            self.snapshots += 1
            if self.detector is not None:
                for anomaly in self.detector.observe(snapshot):
                    self.anomalies.append(anomaly)
                    self._writer.write(anomaly.to_dict())

        wall = _time.perf_counter() - self._wall_start
        if wall >= self._next_wall:
            self._wall_checkpoint(snap.time, snap.events, wall)
            # Skip any checkpoints the run blew past (a slow stretch
            # should not trigger a burst of catch-up records).
            self._next_wall = (
                math.floor(wall / self.config.wall_interval) + 1
            ) * self.config.wall_interval

    def _burn(self, window: MetricWindow) -> float:
        """The stream's ``burn``: target fps ÷ the window's delivered fps.

        1.0 is on target and 2.0 is half the target framerate; 0.0 means
        no target is set.  The delivered fps is floored at one frame per
        window (``1 / duration``), so a window that delivers nothing
        reads the same as a one-frame window, never less.  This is not
        the SLO burn (:func:`repro.obs.slo.fps_burn_rate`, the shortfall
        ``(target - fps) / target`` clamped to ``[0, 1]``).
        """
        target = self.target_framerate
        if target <= 0.0:
            return 0.0
        return target / max(window.fps, 1.0 / window.duration)

    def _wall_checkpoint(self, now: float, processed: int, wall: float) -> None:
        elapsed_sim = now - self._start
        eta = None
        if (
            self.horizon is not None
            and elapsed_sim > 0.0
            and now < self.horizon
        ):
            eta = wall * (self.horizon - now) / elapsed_sim
        self._writer.write(
            {
                "type": "wall",
                "wall_s": wall,
                "sim_time": now,
                "events": processed,
                "events_per_sec": processed / wall if wall > 0 else 0.0,
                "eta_s": eta,
            }
        )


__all__ = [
    "STREAM_SCHEMA",
    "StreamConfig",
    "StreamReport",
    "TelemetryStream",
    "StallWatchdog",
    "default_stream_interval",
    "follow_stream",
    "iter_jsonl",
    "read_stream",
]
