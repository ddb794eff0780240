"""Drain parity: the drain phase stops exactly where it always stopped.

A drained run keeps executing events after the horizon until no work is
left, then stops right after the event that finished the last piece of
work.  The drain loop tests "is any work left?" only where in-flight
work can reach zero (see ``EventQueue.run(stop=...)``), so these tests
pin, for drained configurations with different ways of ending, the
simulated end time, the number of events processed, and the assignment
trace digest.  The constants were recorded with a loop that tested
after every event.  A stop that is missed runs past the last completion
into leftover events (sampler ticks, frontend controller ticks, events
beyond the drain limit) and changes ``events_processed`` and
``simulated_time``.
"""

import dataclasses

import pytest

from repro.cluster.event_queue import EventQueue
from repro.core.scheduler_base import Scheduler, Trigger
from repro.faults.plan import FaultPlan
from repro.frontend.config import FrontendConfig
from repro.sim.run_config import RunConfig
from repro.sim.simulator import run_simulation
from repro.workload.scenarios import make_scenario


def _fcfsu(**extra):
    return make_scenario(3, scale=0.01), "FCFSU", RunConfig(
        drain=True, record_assignments=True, **extra
    )


def _ours(**extra):
    return make_scenario(2, scale=0.05), "OURS", RunConfig(
        drain=True, record_assignments=True, **extra
    )


def _sampled_fcfsu():
    with pytest.warns(DeprecationWarning, match="timeline_interval"):
        return _fcfsu(timeline_interval=0.5)


def _storm():
    scenario, scheduler, config = _ours()
    storm = FaultPlan.storm(
        5,
        node_count=scenario.system.node_count,
        duration=scenario.trace.duration,
    )
    return scenario, scheduler, dataclasses.replace(config, faults=storm)


#: ``name: (build, simulated_time hex, events_processed, drained, trace)``.
CASES = {
    "fcfsu": (
        _fcfsu,
        "0x1.a4b0dc74888e2p+1",
        26260,
        True,
        "f839f881ba48a362234449b63dd2ec4920c143b75d50c108401dc4ca39a90e8e",
    ),
    # Same run with a timeline sampler: one tick is still queued when
    # the drain stops, so a missed stop would process it.
    "fcfsu-sampled": (
        _sampled_fcfsu,
        "0x1.a4b0dc74888e2p+1",
        26267,
        True,
        "f839f881ba48a362234449b63dd2ec4920c143b75d50c108401dc4ca39a90e8e",
    ),
    "ours-healed-storm": (
        _storm,
        "0x1.a9bbbdacaa700p+5",
        7106,
        True,
        "bdeaf943a3af08a676d1a438d0f39241ed7fc4cd2a8651ecd5f32ad4b7b0bb23",
    ),
    "ours-frontend": (
        lambda: _ours(
            frontend=FrontendConfig.protective(max_sessions=4, queue_limit=8)
        ),
        "0x1.86273c86bcbe9p+2",
        2450,
        True,
        "8e1636ce7a0bca24254ba703aac03170f901f87d00f67987ec5c4caec5849e47",
    ),
    "ours-max-drain-time": (
        lambda: _ours(max_drain_time=0.05),
        "0x1.83297abb79c8bp+2",
        3842,
        False,
        "e21e9c632f073195379e6c0e81da6492c147082c9c58be40803cb4bad11d148f",
    ),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_drain_stops_where_it_always_stopped(name):
    build, time_hex, events, drained, trace = CASES[name]
    scenario, scheduler, config = build()
    result = run_simulation(scenario, scheduler, config)
    assert result.simulated_time.hex() == time_hex
    assert result.events_processed == events
    assert result.drained is drained
    assert result.assignment_trace_hash() == trace


class _DroppingScheduler(Scheduler):
    """A cycle policy that places nothing: its cycles empty the queue."""

    name = "DROP"
    trigger = Trigger.CYCLE
    cycle = 0.25

    def schedule(self, jobs, ctx):
        pass


def test_drain_stops_when_a_cycle_leaves_nothing_in_flight():
    """The last work leaves through a dispatch, not a completion."""
    with pytest.warns(DeprecationWarning, match="timeline_interval"):
        config = RunConfig(drain=True, timeline_interval=0.1)
    result = run_simulation(
        make_scenario(2, scale=0.05), _DroppingScheduler(), config
    )
    assert result.jobs_completed == 0
    assert result.simulated_time.hex() == "0x1.89a3888763bf5p+2"
    assert result.events_processed == 1017
    assert result.drained


class TestStopPredicate:
    """``EventQueue.run(stop=...)`` semantics the drain phase relies on."""

    def _queue(self, log, requests, fed=False):
        q = EventQueue()
        events = [
            (float(t), self._event, (q, log, t, t in requests))
            for t in range(1, 7)
        ]
        if fed:
            # The lazy arrival path: events pop from the feed, not the heap.
            q.feed(iter(events), len(events))
        else:
            for time, callback, args in events:
                q.schedule(time, callback, *args)
        return q

    @staticmethod
    def _event(q, log, t, request):
        log.append(t)
        if request:
            q.request_stop_check()

    @pytest.mark.parametrize("fed", [False, True])
    def test_stop_tested_only_after_requesting_events(self, fed):
        log, tested = [], []

        def stop():
            tested.append(log[-1])
            return log[-1] >= 2

        q = self._queue(log, requests={1, 4}, fed=fed)
        executed = q.run(stop=stop)
        # Event 2 satisfies the predicate but did not ask for a test;
        # event 4 did, so the run ends right after it.
        assert tested == [1, 4]
        assert log == [1, 2, 3, 4]
        assert executed == 4 and q.processed == 4
        assert q.now == 4.0 and len(q) == 2

    def test_until_is_a_cutoff_only(self):
        log = []
        q = self._queue(log, requests=set())
        q.run(until=3.5, stop=lambda: False)
        assert log == [1, 2, 3]
        # No clock advance to the cutoff: the run ends at its last event.
        assert q.now == 3.0

    def test_requests_without_a_predicate_are_ignored(self):
        log = []
        q = self._queue(log, requests={1, 2, 3})
        assert q.run(until=4.5) == 4
        assert q.now == 4.5
        assert q.run(max_events=1) == 1 and log == [1, 2, 3, 4, 5]
