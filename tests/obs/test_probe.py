"""One sampling clock: observers must not depend on each other.

Every periodic observer (metrics windows, tracer counter tracks, the
telemetry stream, timeline samples) is a sink or a series on one
:class:`~repro.obs.probe.Probe`.  The probe's quiescence rule ignores
its own pending ticks, so attaching a second observer can never keep
the first one ticking past the point where it would stop alone.

The early-quiet case is the discriminating one: a 2 s horizon whose
requests all arrive before 0.5 s.  When every sampler tested
quiescence as "the service has work or *any* event is queued", the
samplers kept each other alive, and a metrics-only run closed 16
windows while metrics plus a timeline closed 64.  The frontend's
degradation controller did the same with the probe until both clocks
shared one rule.
"""

import dataclasses
import hashlib
import itertools
import json

import pytest

from repro.cluster.event_queue import PRIORITY_ARRIVAL, EventQueue
from repro.core.registry import make_scheduler
from repro.faults.plan import FaultPlan
from repro.frontend.config import FrontendConfig
from repro.obs.counters import TRACK_QUEUE, CounterSampler
from repro.obs.metrics import (
    MetricsRegistry,
    MetricsSampler,
    default_window_interval,
)
from repro.obs.probe import Probe, Sink
from repro.obs.stream import (
    StreamConfig,
    TelemetryStream,
    default_stream_interval,
    read_stream,
)
from repro.obs.tracer import Tracer
from repro.reporting.timeline import TimelineSampler
from repro.sim.run_config import RunConfig
from repro.sim.service import VisualizationService
from repro.sim.simulator import run_simulation
from repro.workload.scenarios import scenario_1, scenario_2
from tests.sim.test_simulator import tiny_scenario

OBSERVERS = ("metrics", "counters", "stream", "timeline")
SUBSETS = [
    combo
    for size in range(1, len(OBSERVERS) + 1)
    for combo in itertools.combinations(OBSERVERS, size)
]

#: Stream fields that legitimately vary: event counts (grids that share
#: an interval share one event per tick) and wall-clock time.
UNSTABLE_STREAM_FIELDS = ("events", "d_events", "wall_s")


def early_quiet():
    """2 s horizon, every request before 0.5 s: the service idles early."""
    scenario = tiny_scenario()
    trace = scenario.trace
    kept = [r for r in trace.requests if r.time < 0.5]
    return dataclasses.replace(
        scenario, trace=dataclasses.replace(trace, requests=kept)
    )


SCENARIOS = {
    "early-quiet": early_quiet,
    "s1-ours-0.1": lambda: scenario_1(scale=0.1),
}


def _outputs(scenario, observers, tmp_path, **extra):
    """Each observer's output, keyed by observer name."""
    path = tmp_path / ("-".join(observers) + ".ndjson")
    config = RunConfig(
        metrics="metrics" in observers,
        tracer=Tracer() if "counters" in observers else None,
        stream=StreamConfig(path) if "stream" in observers else None,
        timeline_interval=(
            scenario.trace.duration / 64 if "timeline" in observers else None
        ),
        **extra,
    )
    result = run_simulation(scenario, "OURS", config=config)
    out = {}
    if "metrics" in observers:
        out["metrics"] = [w.to_event() for w in result.metrics.windows]
    if "counters" in observers:
        out["counters"] = [
            [e.pid, e.tid, e.name, e.ts, e.args]
            for e in result.tracer.events
            if e.phase == "C"
        ]
    if "stream" in observers:
        out["stream"] = [
            {k: v for k, v in r.items() if k not in UNSTABLE_STREAM_FIELDS}
            for r in read_stream(path)
            if r["type"] in ("snapshot", "anomaly", "fault")
        ]
    if "timeline" in observers:
        out["timeline"] = [
            dataclasses.astuple(s) for s in result.timeline_samples.samples
        ]
    return result, out


@pytest.fixture(scope="module")
def solo(tmp_path_factory):
    """``solo(name, observer)``: the observer's output when run alone."""
    cache = {}

    def get(name, observer):
        if (name, observer) not in cache:
            tmp = tmp_path_factory.mktemp("solo")
            _, out = _outputs(SCENARIOS[name](), (observer,), tmp)
            cache[name, observer] = out[observer]
        return cache[name, observer]

    return get


@pytest.mark.parametrize("name", sorted(SCENARIOS))
@pytest.mark.parametrize("observers", SUBSETS, ids="+".join)
def test_each_observer_matches_its_solo_run(name, observers, solo, tmp_path):
    _, outputs = _outputs(SCENARIOS[name](), observers, tmp_path)
    for observer in observers:
        assert outputs[observer] == solo(name, observer), observer


def test_early_quiet_stops_when_the_service_does(tmp_path):
    _check_early_quiet(tmp_path)


def test_early_quiet_stops_behind_a_frontend_too(tmp_path):
    """The frontend's degradation controller ticks on its own clock but
    by the same quiescence rule, so it and the probe no longer keep each
    other alive to the horizon (that closed 64 windows here)."""
    _check_early_quiet(tmp_path, frontend=FrontendConfig.protective())


def _check_early_quiet(tmp_path, **extra):
    result, outputs = _outputs(
        early_quiet(), OBSERVERS, tmp_path, record_assignments=True, **extra
    )
    assert len(outputs["metrics"]) == 16
    assert outputs["metrics"][-1]["end"] < 0.6
    queue_depth = [c for c in outputs["counters"] if c[2] == "queue depth"]
    assert len(queue_depth) == 65
    # The schedule itself never depended on the observers.
    assert result.jobs_completed == 32
    assert result.assignment_trace_hash() == (
        "1a87efa36627ed949b54d6234a72ac340ae2a602e62ce2a375c7b5783dd5cecc"
    )


# ---------------------------------------------------------------------------
# Parity with the per-sampler clocks the probe replaced
# ---------------------------------------------------------------------------


def _digest(rows):
    return hashlib.sha256(json.dumps(rows, sort_keys=True).encode()).hexdigest()


def _all_observers(scenario, tmp_path, **extra):
    config = dict(audit=True, **extra)
    _, outputs = _outputs(scenario, OBSERVERS, tmp_path, **config)
    return {k: (len(v), _digest(v)) for k, v in outputs.items()}


def _storm_scenario():
    return scenario_2(scale=0.1, load=2.5)


#: Recorded with the four self-scheduling samplers, all observers on.
#: The timeline here samples every ``duration / 64`` (the metrics and
#: stream grid), so three sinks share one grid and counters run alone.
PARITY = {
    "s1-ours-0.25": {
        "metrics": (
            64,
            "3407d4a4d6437ca00ad7744c4e863d87cc8f9bb8c0b756439f8e52ddba7841c2",
        ),
        "counters": (
            2827,
            "fb1fb02d21db582c852995d3d020399bee198ddadf5776ffc10d5e2188c8072f",
        ),
        "stream": (
            64,
            "7d35f9fe538da81fc6ed6804c790af9596774cba66ef8d55cd2147a1fb6c3619",
        ),
        "timeline": (
            65,
            "30edd34d0667053cb4ab300b451e026595d3c8501d76ac8ae5288997d1883888",
        ),
    },
    "observed-storm": {
        "metrics": (
            64,
            "8a96544dcb06e6e802a107815dd3e269b3e8b2537eabb50611c4dc828035b4f1",
        ),
        "counters": (
            2827,
            "fd449fa380f2a609c915770f5c50743208b094fea417e63a0f31238f7ac2cc8e",
        ),
        # Re-recorded when the stream's burn floored the delivered fps
        # at one frame per window: only stalled windows' burn moved.
        "stream": (
            79,
            "89246b30cfe4e68789975a8769b29b6e3098d04d3886cb8e142c1a1fd3f6eace",
        ),
        "timeline": (
            65,
            "ec2d19c07f126e62480c300863bf033f9ff3f1a2ef92af732d9bc789d1e94e25",
        ),
    },
}


@pytest.mark.parametrize("case", ["s1-ours-0.25", "observed-storm"])
def test_observer_outputs_match_recorded_digests(case, tmp_path):
    if case == "s1-ours-0.25":
        got = _all_observers(scenario_1(scale=0.25), tmp_path)
    else:
        scenario = _storm_scenario()
        got = _all_observers(
            scenario,
            tmp_path,
            frontend=FrontendConfig.protective(max_sessions=8, queue_limit=32),
            faults=FaultPlan.storm(
                7,
                node_count=scenario.system.node_count,
                duration=scenario.trace.duration,
            ),
        )
    assert got == PARITY[case]


# ---------------------------------------------------------------------------
# The probe itself
# ---------------------------------------------------------------------------


def test_stream_and_metrics_share_one_default_interval():
    assert default_stream_interval is default_window_interval


class _Sink:
    def __init__(self, interval):
        self.interval = interval
        self.times = []

    def _tick(self, snapshot):
        self.times.append(snapshot.time)


class _BusyService:
    """Minimal always-busy service exposing what a snapshot reads."""

    class _Storage:
        total_bytes = 0
        active_loads = 0
        active_bytes = 0.0

    class _Cluster:
        def __init__(self):
            self.events = EventQueue()
            self.nodes = []

        def total_backlog(self):
            return 0

    class _Scheduler:
        @staticmethod
        def pending_task_count():
            return 0

    class _Collector:
        records = []

    def __init__(self):
        self.cluster = self._Cluster()
        self.cluster.storage = self._Storage()
        self.scheduler = self._Scheduler()
        self.collector = self._Collector()
        self._pending = []
        self.queue_depth = 0
        self.outstanding_jobs = 0
        self.tasks_inflight = 0
        self.jobs_submitted = 0
        self.jobs_completed = 0

    def has_work(self):
        return True


class TestProbe:
    def test_sinks_sharing_an_interval_share_one_event_per_tick(self):
        service = _BusyService()
        probe = Probe(service, horizon=1.0)
        a, b, c = _Sink(0.25), _Sink(0.25), _Sink(0.5)
        for sink in (a, b, c):
            probe.add(sink)
        probe.start()
        events = service.cluster.events
        events.run()
        assert a.times == b.times == [0.0, 0.25, 0.5, 0.75, 1.0]
        assert c.times == [0.0, 0.5, 1.0]
        assert events.processed == 5 + 3

    def test_close_drops_the_service(self):
        service = _BusyService()
        probe = Probe(service, horizon=None)
        probe.add(_Sink(0.1))
        probe.start()
        probe.close()
        assert probe.service is None
        # A tick still queued after close is a no-op.
        service.cluster.events.run(max_events=3)

    def test_each_sampler_attaches_on_a_probe_of_its_own(self, tmp_path):
        service = _BusyService()
        service.queue_depth = 3
        registry = MetricsRegistry()
        tracer = Tracer()
        metrics = Probe(service, horizon=1.0)
        metrics.add(MetricsSampler(registry, 0.25))
        windows = metrics.series(0.25)
        Probe(service, horizon=1.0).add(CounterSampler(tracer, 0.25)).start()
        timeline = Probe(service, horizon=1.0)
        samples = timeline.series(0.25)
        stream_probe = Probe(service, horizon=1.0)
        stream = TelemetryStream(
            StreamConfig(tmp_path / "s.ndjson", interval=0.25), horizon=1.0
        ).attach(service, stream_probe)
        for probe in (metrics, timeline, stream_probe):
            probe.start()
        events = service.cluster.events
        events.run()
        report = stream.close()
        # One probe each, so four events per grid point.
        assert events.processed == 4 * 5
        assert [s.window.end for s in windows[1:]] == [0.25, 0.5, 0.75, 1.0]
        assert registry.value("repro_queue_depth") == 3.0
        queue = [e.ts for e in tracer.events if e.name == TRACK_QUEUE]
        assert queue == [0.0, 0.25, 0.5, 0.75, 1.0]
        assert [s.time for s in TimelineSampler(samples).samples] == [
            0.0, 0.25, 0.5, 0.75, 1.0
        ]
        assert report.snapshots == 4
        snapshots = [
            r for r in read_stream(tmp_path / "s.ndjson") if r["type"] == "snapshot"
        ]
        assert [r["t"] for r in snapshots] == [0.25, 0.5, 0.75, 1.0]


class _CountSink(Sink):
    """Records each snapshot's event counts beside the queue's own."""

    def __init__(self, interval, events):
        self.interval = interval
        self.events = events
        self.rows = []

    def _tick(self, snapshot):
        self.rows.append((snapshot.events, snapshot.d_events, self.events.processed))


def test_hand_driven_run_reports_exact_event_counts(tmp_path):
    """A service driven by a plain ``events.run(until=...)``, not by
    ``run_simulation``, still gives its observers exact event counts:
    the queue counts ``processed`` before every callback on every run."""
    scenario = scenario_1(scale=0.05)
    events = EventQueue()
    cluster = scenario.system.build_cluster(events=events)
    service = VisualizationService(
        cluster, make_scheduler("OURS"), scenario.system.chunk_max
    )
    datasets = {d.name: d for d in scenario.trace.datasets}
    events.schedule_many(
        (
            (r.time, service.submit_request, (r, datasets[r.dataset]))
            for r in scenario.trace.requests
        ),
        priority=PRIORITY_ARRIVAL,
    )
    horizon = scenario.trace.duration
    sink = _CountSink(horizon / 16, events)
    Probe(service, horizon=horizon).add(sink).start()
    stream_probe = Probe(service, horizon=horizon)
    stream = TelemetryStream(
        StreamConfig(tmp_path / "s.ndjson", interval=horizon / 16), horizon=horizon
    ).attach(service, stream_probe)
    stream_probe.start()
    service.start()
    try:
        events.run(until=horizon)
    finally:
        stream.close()
    assert len(sink.rows) == 17
    for seen, _, processed in sink.rows:
        assert seen == processed
    assert sum(d for _, d, _ in sink.rows) == sink.rows[-1][0] > 0
    assert sink.rows[-1][0] <= events.processed
    counts = [
        r["events"]
        for r in read_stream(tmp_path / "s.ndjson")
        if r["type"] == "snapshot"
    ]
    assert counts and counts[0] > 0 and counts == sorted(counts)
