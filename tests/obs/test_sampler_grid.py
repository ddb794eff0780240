"""Samplers must tick on the exact ``start + k*interval`` grid.

Regression tests for tick drift: rescheduling each tick with
``schedule_after(interval)`` accumulates float rounding error, so after
thousands of ticks samples land off-grid (and two samplers with the same
interval disagree about window boundaries).  The samplers now compute
the k-th tick time from the tick index; these tests pin that with exact
float equality over 10k ticks.
"""

from repro.cluster.event_queue import EventQueue
from repro.obs.counters import TRACK_QUEUE, CounterSampler
from repro.obs.metrics import MetricsRegistry, MetricsSampler
from repro.reporting.timeline import TimelineSampler


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


class TestTimelineSamplerGrid:
    def test_10k_ticks_land_exactly_on_grid(self):
        service = FakeService()
        sampler = TimelineSampler(INTERVAL).attach(service)
        service.cluster.events.run(max_events=TICKS + 1)
        assert len(sampler.samples) == TICKS + 1
        for k, sample in enumerate(sampler.samples):
            assert sample.time == k * INTERVAL

    def test_non_representable_interval_does_not_drift(self):
        # 0.1 has no exact binary representation: repeated addition
        # drifts off the multiplicative grid within a few hundred ticks,
        # so this is the discriminating case.
        service = FakeService()
        sampler = TimelineSampler(0.1).attach(service)
        service.cluster.events.run(max_events=TICKS + 1)
        for k, sample in enumerate(sampler.samples):
            assert sample.time == k * 0.1

    def test_grid_is_anchored_at_attach_time(self):
        service = FakeService()
        events = service.cluster.events
        events.schedule(1.0, lambda: None)
        events.run()
        assert events.now == 1.0
        sampler = TimelineSampler(INTERVAL).attach(service)
        events.run(max_events=100)
        for k, sample in enumerate(sampler.samples):
            assert sample.time == 1.0 + k * INTERVAL


class TestMetricsSamplerGrid:
    def test_window_boundaries_on_grid(self):
        service = FakeService()
        registry = MetricsRegistry()
        sampler = MetricsSampler(registry, INTERVAL).attach(service)
        service.cluster.events.run(max_events=TICKS + 1)
        # The t=0 tick closes no window; every later tick closes one.
        assert len(sampler.windows) == TICKS
        for k, window in enumerate(sampler.windows):
            assert window.start == k * INTERVAL
            assert window.end == (k + 1) * INTERVAL


class TestCounterSamplerGrid:
    def test_counter_ticks_on_grid(self):
        service = FakeService()
        tracer = RecordingTracer()
        sampler = CounterSampler(tracer, INTERVAL).attach(service)
        service.cluster.events.run(max_events=TICKS + 1)
        assert sampler.samples_taken == TICKS + 1
        assert len(tracer.times) == TICKS + 1
        for k, time in enumerate(tracer.times):
            assert time == k * INTERVAL
