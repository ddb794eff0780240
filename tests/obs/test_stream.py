"""Live telemetry stream: grid equality, bit-identity, crash safety.

The stream's contract has three load-bearing halves:

* **observer purity** — a streamed run is bit-identical to an
  unstreamed one (golden assignment-trace hashes), because snapshot
  ticks only read simulator state;
* **grid equality** — the streamed counter snapshots are exactly the
  post-hoc ``result.metrics.windows`` series at identical grid points
  (same absolute ``start + k * interval`` discipline, same window
  arithmetic);
* **crash safety** — every record is flushed as written, and the
  readers tolerate the one torn trailing line a mid-run crash (or a
  tail racing the writer) can leave.
"""

import json
import pickle
import threading
import time

import pytest

from repro.obs.probe import MetricWindow, Snapshot
from repro.obs.stream import (
    STREAM_SCHEMA,
    StallWatchdog,
    StreamConfig,
    TelemetryStream,
    _StreamWriter,
    follow_stream,
    iter_jsonl,
    read_stream,
)
from repro.sim.run_config import RunConfig
from repro.sim.simulator import run_simulation
from repro.workload.scenarios import make_scenario

#: Scenario 1 completes no tasks below this scale (see golden traces).
SMOKE_SCALE = 0.1


def _run(tmp_path, *, stream=True, metrics=False, drain=False, **kwargs):
    scenario = make_scenario(1, scale=SMOKE_SCALE)
    stream_cfg = None
    if stream:
        stream_cfg = StreamConfig(path=tmp_path / "run.ndjson", **kwargs)
    return run_simulation(
        scenario,
        "OURS",
        config=RunConfig(
            drain=drain,
            metrics=metrics,
            stream=stream_cfg,
            record_assignments=True,
        ),
    )


class TestStreamConfig:
    def test_validation(self, tmp_path):
        with pytest.raises(ValueError, match="interval"):
            StreamConfig(path=tmp_path / "s.ndjson", interval=0.0)
        with pytest.raises(ValueError, match="wall_interval"):
            StreamConfig(path=tmp_path / "s.ndjson", wall_interval=-1.0)
        with pytest.raises(ValueError, match="stall_timeout"):
            StreamConfig(path=tmp_path / "s.ndjson", stall_timeout=0.0)

    def test_for_shard_inserts_suffix(self, tmp_path):
        with pytest.warns(DeprecationWarning, match="StreamConfig.interval"):
            config = StreamConfig(path=tmp_path / "tele.ndjson", interval=0.5)
        shard = config.for_shard(3)
        assert shard.path.name == "tele.shard3.ndjson"
        assert shard.interval == 0.5

    def test_for_shard_defaults_extension(self, tmp_path):
        config = StreamConfig(path=tmp_path / "tele")
        assert config.for_shard(0).path.name == "tele.shard0.ndjson"

    def test_default_interval_matches_metrics_grid(self):
        from repro.obs.metrics import default_window_interval

        with pytest.warns(DeprecationWarning, match="default_stream_interval"):
            from repro.obs.stream import default_stream_interval

        for horizon in (0.5, 6.0, 600.0):
            assert default_stream_interval(horizon) == pytest.approx(
                default_window_interval(horizon)
            )


class TestStreamedRun:
    def test_stream_file_structure(self, tmp_path):
        result = _run(tmp_path)
        records = read_stream(tmp_path / "run.ndjson")
        header = records[0]
        assert header["type"] == "run"
        assert header["schema"] == STREAM_SCHEMA
        assert header["scenario"] == "scenario1"
        assert records[-1]["type"] == "summary"
        snapshots = [r for r in records if r["type"] == "snapshot"]
        assert len(snapshots) == result.stream.snapshots
        # ~64 snapshots from the default grid over the horizon.
        assert 32 <= len(snapshots) <= 80
        assert records[-1]["snapshots"] == len(snapshots)
        assert result.stream.records_written == len(records)

    def test_snapshot_counters_are_live(self, tmp_path):
        """Event counts advance mid-run: ``processed`` is always exact."""
        result = _run(tmp_path)
        events = [
            r["events"] for r in read_stream(tmp_path / "run.ndjson")
            if r["type"] == "snapshot"
        ]
        assert events == sorted(events)
        assert events[0] > 0, "first window must see a live counter"
        assert events[-1] <= result.events_processed

    def test_streamed_run_is_bit_identical(self, tmp_path):
        streamed = _run(tmp_path)
        unstreamed = _run(tmp_path, stream=False)
        assert streamed.assignment_trace, "trace must not be empty"
        assert (
            streamed.assignment_trace_hash()
            == unstreamed.assignment_trace_hash()
        )

    def test_grid_equality_with_metrics_sampler(self, tmp_path):
        """Streamed snapshots == post-hoc window series, field by field."""
        result = _run(tmp_path, metrics=True)
        windows = result.metrics.windows
        snapshots = [
            r for r in read_stream(tmp_path / "run.ndjson")
            if r["type"] == "snapshot"
        ]
        # The default stream interval matches the metrics sampler's, so
        # the two absolute grids coincide tick for tick.
        assert len(snapshots) == len(windows)
        for snapshot, window in zip(snapshots, windows):
            assert snapshot["t"] == window.end
            assert snapshot["start"] == window.start
            assert snapshot["jobs_completed"] == window.jobs_completed
            assert (
                snapshot["interactive_completed"]
                == window.interactive_completed
            )
            assert snapshot["fps"] == window.fps
            assert snapshot["latency_p50"] == window.latency_p50
            assert snapshot["latency_p95"] == window.latency_p95
            assert snapshot["latency_p99"] == window.latency_p99
            assert snapshot["cache_hits"] == window.cache_hits
            assert snapshot["cache_misses"] == window.cache_misses
            assert snapshot["hit_rate"] == window.hit_rate
            assert snapshot["io_bytes"] == window.io_bytes

    def test_drain_run_streams_past_horizon(self, tmp_path):
        result = _run(tmp_path, drain=True)
        records = read_stream(tmp_path / "run.ndjson")
        assert records[0]["horizon"] is None
        assert records[-1]["type"] == "summary"
        assert result.stream.snapshots > 0

    def test_throughput_accounting(self, tmp_path):
        result = _run(tmp_path, stream=False)
        assert result.events_processed > 0
        assert result.wall_seconds > 0.0
        assert result.events_per_sec == pytest.approx(
            result.events_processed / result.wall_seconds
        )

    def test_result_with_stream_is_picklable(self, tmp_path):
        result = _run(tmp_path)
        clone = pickle.loads(pickle.dumps(result))
        assert clone.stream.snapshots == result.stream.snapshots
        assert clone.stream.path == result.stream.path

    def test_stream_report_anomaly_kinds(self, tmp_path):
        report = _run(tmp_path).stream
        # Fault-free scenario 1 must stay silent (no false alarms).
        assert report.anomalies == []
        assert report.anomaly_kinds() == {}


def _snapshot(start, end, frames):
    """A grid tick at ``end`` whose window delivered ``frames`` frames."""
    window = MetricWindow(
        start=start, end=end, jobs_completed=frames,
        interactive_completed=frames, batch_completed=0,
        fps=frames / (end - start), latency_p50=0.0, latency_p95=0.0,
        latency_p99=0.0, cache_hits=0, cache_misses=0, hit_rate=0.0,
        io_bytes=0,
    )
    counts = dict.fromkeys(
        ("events", "d_events", "queued", "deferred", "backlog", "busy",
         "outstanding", "inflight", "submitted", "completed", "hits",
         "misses", "io_loads"),
        0,
    )
    return Snapshot(
        time=end, io_inflight_bytes=0.0, cache_used=(), window=window, **counts
    )


class TestBurn:
    """``burn`` = target ÷ delivered fps, floored at one frame per window."""

    def _burns(self, tmp_path, windows, target=30.0):
        path = tmp_path / "s.ndjson"
        with pytest.warns(DeprecationWarning, match="StreamConfig.anomalies"):
            config = StreamConfig(path, anomalies=False)
        stream = TelemetryStream(config, target_framerate=target)
        for frames in windows:
            stream._tick(_snapshot(1.0, 1.5, frames))
        stream.close()
        return [r["burn"] for r in read_stream(path) if r["type"] == "snapshot"]

    def test_a_stall_burns_as_hard_as_a_one_frame_window(self, tmp_path):
        stalled, one_frame, two_frames = self._burns(tmp_path, (0, 1, 2))
        assert stalled == one_frame == 15.0
        assert two_frames == 7.5

    def test_on_target_and_no_target(self, tmp_path):
        assert self._burns(tmp_path, (15,)) == [1.0]
        assert self._burns(tmp_path, (0, 15), target=0.0) == [0.0, 0.0]


class TestTornTailReaders:
    def _write(self, path, lines, torn=None):
        with path.open("w") as fh:
            for line in lines:
                fh.write(json.dumps(line) + "\n")
            if torn is not None:
                fh.write(torn)

    def test_iter_jsonl_tolerates_torn_tail(self, tmp_path):
        path = tmp_path / "torn.ndjson"
        self._write(path, [{"a": 1}, {"b": 2}], torn='{"c": 3, "tru')
        assert list(iter_jsonl(path)) == [{"a": 1}, {"b": 2}]

    def test_iter_jsonl_raises_on_mid_file_corruption(self, tmp_path):
        path = tmp_path / "rot.ndjson"
        path.write_text('{"a": 1}\n{"bad\n{"b": 2}\n')
        with pytest.raises(json.JSONDecodeError, match="corrupt"):
            list(iter_jsonl(path))

    def test_stream_survives_simulated_crash(self, tmp_path):
        """Truncating the file mid-line models a crash; reads stay clean."""
        _run(tmp_path)
        path = tmp_path / "run.ndjson"
        data = path.read_bytes()
        cut = data[: int(len(data) * 0.6)]
        assert not cut.endswith(b"\n"), "cut must land mid-line"
        crashed = tmp_path / "crashed.ndjson"
        crashed.write_bytes(cut)
        records = read_stream(crashed)
        assert records, "complete records before the tear must survive"
        assert all(isinstance(r, dict) for r in records)

    def test_audit_jsonl_reader_tolerates_torn_tail(self, tmp_path):
        from repro.obs import AuditConfig, read_audit_jsonl

        scenario = make_scenario(1, scale=SMOKE_SCALE)
        audit_path = tmp_path / "audit.jsonl"
        run_simulation(
            scenario,
            "OURS",
            config=RunConfig(audit=AuditConfig(jsonl_path=audit_path)),
        )
        data = audit_path.read_bytes()
        torn = tmp_path / "audit-torn.jsonl"
        torn.write_bytes(data + b'{"type": "decision", "half')
        whole = list(read_audit_jsonl(audit_path))
        assert whole, "audit stream must contain records"
        assert list(read_audit_jsonl(torn)) == whole


class TestFollowStream:
    def test_follow_reads_completed_stream(self, tmp_path):
        _run(tmp_path)
        path = tmp_path / "run.ndjson"
        followed = list(follow_stream(path, poll=0.01, idle_timeout=2.0))
        assert followed == read_stream(path)
        assert followed[-1]["type"] == "summary"

    def test_follow_tails_a_growing_file(self, tmp_path):
        path = tmp_path / "live.ndjson"
        head = [{"type": "run", "schema": 1}, {"type": "snapshot", "t": 1.0}]
        tail = [{"type": "snapshot", "t": 2.0}, {"type": "summary"}]

        def writer():
            with path.open("w") as fh:
                for record in head:
                    fh.write(json.dumps(record) + "\n")
                    fh.flush()
                time.sleep(0.1)
                # Torn write: half a line now, the rest later.
                line = json.dumps(tail[0]) + "\n"
                fh.write(line[:7])
                fh.flush()
                time.sleep(0.1)
                fh.write(line[7:])
                fh.write(json.dumps(tail[1]) + "\n")
                fh.flush()

        thread = threading.Thread(target=writer)
        thread.start()
        try:
            records = list(
                follow_stream(path, poll=0.02, idle_timeout=5.0)
            )
        finally:
            thread.join()
        assert records == head + tail

    def test_follow_gives_up_without_summary(self, tmp_path):
        path = tmp_path / "dead.ndjson"
        path.write_text('{"type": "run", "schema": 1}\n')
        start = time.monotonic()
        records = list(follow_stream(path, poll=0.02, idle_timeout=0.2))
        assert records == [{"type": "run", "schema": 1}]
        assert time.monotonic() - start < 5.0

    def test_follow_validation(self, tmp_path):
        with pytest.raises(ValueError, match="poll"):
            list(follow_stream(tmp_path / "x", poll=0.0))


class TestStallWatchdog:
    class _FrozenService:
        outstanding_jobs = 7
        tasks_inflight = 2
        queue_depth = 5

    def test_watchdog_dumps_and_rearms(self, tmp_path):
        from repro.cluster.event_queue import EventQueue

        events = EventQueue()
        events.schedule(10.0, lambda: None)
        writer = _StreamWriter(tmp_path / "stall.ndjson")
        watchdog = StallWatchdog(
            events, self._FrozenService(), writer, timeout=0.05
        )
        watchdog.start()
        try:
            deadline = time.monotonic() + 5.0
            while (
                watchdog.stalls_reported < 2
                and time.monotonic() < deadline
            ):
                time.sleep(0.01)
        finally:
            watchdog.stop()
            writer.close()
        assert watchdog.stalls_reported >= 2, "watchdog must re-arm"
        stalls = [
            r for r in read_stream(tmp_path / "stall.ndjson")
            if r["type"] == "stall"
        ]
        assert stalls
        first = stalls[0]
        assert first["queue_len"] == 1
        assert first["next_event_time"] == 10.0
        assert first["outstanding"] == 7
        assert first["inflight"] == 2
        assert first["queue_depth"] == 5

    def test_dump_counts_pending_arrivals(self, tmp_path):
        """Preloaded arrivals sit beside the heap; the stall record's
        queue length and next event time must cover both."""
        from repro.cluster.event_queue import PRIORITY_ARRIVAL, EventQueue

        events = EventQueue()
        events.schedule(3.0, lambda: None)
        events.schedule_many(
            [(2.5, lambda: None, ()), (4.0, lambda: None, ())],
            priority=PRIORITY_ARRIVAL,
        )
        writer = _StreamWriter(tmp_path / "stall.ndjson")
        watchdog = StallWatchdog(
            events, self._FrozenService(), writer, timeout=60.0
        )
        watchdog._dump(events.processed, 61.0)
        writer.close()
        (record,) = read_stream(tmp_path / "stall.ndjson")
        assert record["type"] == "stall"
        assert record["queue_len"] == 3
        assert record["next_event_time"] == 2.5

    def test_watchdog_quiet_while_progressing(self, tmp_path):
        """A run that keeps draining events never trips the watchdog."""
        result = _run(tmp_path, stall_timeout=30.0)
        assert result.stream.stalls == 0


class TestFederatedStreams:
    def test_shard_stream_files_and_merge(self, tmp_path):
        from repro.federation import FederationConfig, run_federation

        scenario = make_scenario(4, scale=0.02, users=2)
        config = FederationConfig(
            shards=2,
            run=RunConfig(
                stream=StreamConfig(path=tmp_path / "tele.ndjson")
            ),
        )
        result = run_federation(scenario, "OURS", config)
        reports = result.stream_reports()
        assert len(reports) == 2
        for shard, report in enumerate(reports):
            assert report.path.name == f"tele.shard{shard}.ndjson"
            assert report.path.exists()
            assert read_stream(report.path)[-1]["type"] == "summary"
        merged = result.merged_anomalies()
        assert merged == sorted(merged, key=lambda a: a.time)
