"""The probe's series must tick on the exact ``start + k*interval`` grid.

Regression tests for tick drift: rescheduling each tick with
``schedule_after(interval)`` accumulates float rounding error, so after
thousands of ticks samples land off-grid (and two observers with the
same interval disagree about window boundaries).  The probe computes
the k-th tick time from the tick index; these tests pin that with exact
float equality over 10k ticks, on the series the probe keeps (a run's
``result.metrics.snapshots``) and on the window and counter views of
it.
"""

import pytest

from repro.cluster.event_queue import EventQueue
from repro.obs.counters import TRACK_QUEUE, CounterSampler
from repro.obs.probe import Probe


class FakeStorage:
    total_bytes = 0
    active_loads = 0
    active_bytes = 0.0


class FakeCluster:
    def __init__(self):
        self.events = EventQueue()
        self.nodes = []
        self.storage = FakeStorage()

    def total_backlog(self):
        return 0


class FakeCollector:
    def __init__(self):
        self.records = []


class FakeScheduler:
    @staticmethod
    def pending_task_count():
        return 0


class FakeService:
    """Always-busy service: ticking continues until the event budget."""

    def __init__(self):
        self.cluster = FakeCluster()
        self.collector = FakeCollector()
        self.scheduler = FakeScheduler()
        self._pending = []
        self.queue_depth = 0
        self.outstanding_jobs = 0
        self.tasks_inflight = 0
        self.jobs_submitted = 0
        self.jobs_completed = 0

    def has_work(self):
        return True


class RecordingTracer:
    def __init__(self):
        self.times = []

    def counter(self, pid, track, time, values):
        if track == TRACK_QUEUE:
            self.times.append(time)


TICKS = 10_000
INTERVAL = 0.25


def _series(service, interval):
    """The ``interval`` grid's series on a probe started now."""
    probe = Probe(service)
    series = probe.series(interval)
    probe.start()
    return series


class TestProbeSeries:
    def test_unrequested_grid_keeps_no_snapshots(self):
        service = FakeService()
        probe = Probe(service, horizon=1.0)
        probe.add(CounterSampler(RecordingTracer(), INTERVAL))
        kept = probe.series(0.5)
        probe.start()
        service.cluster.events.run()
        assert [snap.time for snap in kept] == [0.0, 0.5, 1.0]
        assert probe._grids[INTERVAL].series is None
        with pytest.raises(ValueError, match="asked after start"):
            probe.series(INTERVAL)

    def test_interval_must_be_positive(self):
        with pytest.raises(ValueError):
            Probe(FakeService()).series(0.0)


class TestTimelineSamplerGrid:
    """The probe's series as a run's timeline, one snapshot per tick."""

    def test_10k_ticks_land_exactly_on_grid(self):
        service = FakeService()
        series = _series(service, INTERVAL)
        service.cluster.events.run(max_events=TICKS + 1)
        assert len(series) == TICKS + 1
        for k, snap in enumerate(series):
            assert snap.time == k * INTERVAL

    def test_non_representable_interval_does_not_drift(self):
        # 0.1 has no exact binary representation: repeated addition
        # drifts off the multiplicative grid within a few hundred ticks,
        # so this is the discriminating case.
        service = FakeService()
        series = _series(service, 0.1)
        service.cluster.events.run(max_events=TICKS + 1)
        assert len(series) == TICKS + 1
        for k, snap in enumerate(series):
            assert snap.time == k * 0.1

    def test_grid_is_anchored_at_attach_time(self):
        service = FakeService()
        events = service.cluster.events
        events.schedule(1.0, lambda: None)
        events.run()
        assert events.now == 1.0
        series = _series(service, INTERVAL)
        events.run(max_events=100)
        assert len(series) == 100
        for k, snap in enumerate(series):
            assert snap.time == 1.0 + k * INTERVAL


class TestMetricsSamplerGrid:
    def test_window_boundaries_on_grid(self):
        service = FakeService()
        series = _series(service, INTERVAL)
        service.cluster.events.run(max_events=TICKS + 1)
        # The t=0 tick closes no window; every later tick closes one.
        assert series[0].window is None
        windows = [snap.window for snap in series[1:]]
        assert len(windows) == TICKS
        for k, window in enumerate(windows):
            assert window.start == k * INTERVAL
            assert window.end == (k + 1) * INTERVAL


class TestCounterSamplerGrid:
    def test_counter_ticks_on_grid(self):
        service = FakeService()
        tracer = RecordingTracer()
        Probe(service).add(CounterSampler(tracer, INTERVAL)).start()
        service.cluster.events.run(max_events=TICKS + 1)
        assert len(tracer.times) == TICKS + 1
        for k, time in enumerate(tracer.times):
            assert time == k * INTERVAL
