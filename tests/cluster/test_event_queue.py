"""Tests for the discrete-event core."""

import heapq
import itertools
from collections import deque
from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import event_queue
from repro.cluster.event_queue import (
    FEED_CHUNK,
    PRIORITY_ARRIVAL,
    PRIORITY_COMPLETION,
    PRIORITY_CYCLE,
    PRIORITY_DEFAULT,
    EventQueue,
    SimulationError,
)


class TestScheduling:
    def test_events_fire_in_time_order(self):
        q = EventQueue()
        fired = []
        q.schedule(2.0, fired.append, "b")
        q.schedule(1.0, fired.append, "a")
        q.schedule(3.0, fired.append, "c")
        q.run()
        assert fired == ["a", "b", "c"]

    def test_clock_advances_to_event_time(self):
        q = EventQueue()
        seen = []
        q.schedule(1.5, lambda: seen.append(q.now))
        q.run()
        assert seen == [1.5]
        assert q.now == 1.5

    def test_same_time_fifo(self):
        q = EventQueue()
        fired = []
        for name in "abc":
            q.schedule(1.0, fired.append, name)
        q.run()
        assert fired == ["a", "b", "c"]

    def test_priority_orders_same_time(self):
        q = EventQueue()
        fired = []
        q.schedule(1.0, fired.append, "cycle", priority=PRIORITY_CYCLE)
        q.schedule(1.0, fired.append, "arrival", priority=PRIORITY_ARRIVAL)
        q.schedule(1.0, fired.append, "completion", priority=PRIORITY_COMPLETION)
        q.run()
        assert fired == ["completion", "arrival", "cycle"]

    def test_schedule_in_past_raises(self):
        q = EventQueue()
        q.schedule(1.0, lambda: None)
        q.run()
        with pytest.raises(SimulationError):
            q.schedule(0.5, lambda: None)

    def test_schedule_after(self):
        q = EventQueue()
        seen = []
        q.schedule(1.0, lambda: q.schedule_after(0.5, lambda: seen.append(q.now)))
        q.run()
        assert seen == [1.5]

    def test_negative_delay_raises(self):
        q = EventQueue()
        with pytest.raises(SimulationError):
            q.schedule_after(-0.1, lambda: None)


class TestRun:
    def test_run_until_leaves_future_events(self):
        q = EventQueue()
        fired = []
        q.schedule(1.0, fired.append, 1)
        q.schedule(5.0, fired.append, 5)
        executed = q.run(until=2.0)
        assert executed == 1
        assert fired == [1]
        assert q.now == 2.0
        assert len(q) == 1

    def test_run_until_then_resume(self):
        q = EventQueue()
        fired = []
        q.schedule(1.0, fired.append, 1)
        q.schedule(5.0, fired.append, 5)
        q.run(until=2.0)
        q.run()
        assert fired == [1, 5]

    def test_event_at_exact_until_runs(self):
        q = EventQueue()
        fired = []
        q.schedule(2.0, fired.append, "x")
        q.run(until=2.0)
        assert fired == ["x"]

    def test_max_events_budget(self):
        q = EventQueue()
        for i in range(10):
            q.schedule(float(i), lambda: None)
        assert q.run(max_events=3) == 3
        assert len(q) == 7

    def test_step_empty_returns_false(self):
        assert EventQueue().step() is False

    def test_negative_max_events_rejected(self):
        q = EventQueue()
        q.schedule(1.0, lambda: None)
        with pytest.raises(ValueError, match="max_events must be >= 0, got -1"):
            q.run(max_events=-1)
        assert len(q) == 1 and q.processed == 0
        assert q.run(max_events=0) == 0 and len(q) == 1

    def test_live_count_is_gone(self):
        q = EventQueue()
        q.schedule(1.0, lambda: None)
        with pytest.raises(TypeError, match="live_count"):
            q.run(live_count=True)
        assert len(q) == 1 and q.processed == 0

    def test_processed_counter(self):
        q = EventQueue()
        for i in range(4):
            q.schedule(float(i), lambda: None)
        q.run()
        assert q.processed == 4

    def test_events_scheduled_during_run_execute(self):
        q = EventQueue()
        fired = []

        def chain(n):
            fired.append(n)
            if n < 3:
                q.schedule_after(1.0, chain, n + 1)

        q.schedule(0.0, chain, 0)
        q.run()
        assert fired == [0, 1, 2, 3]
        assert q.now == 3.0

    def test_peek_time(self):
        q = EventQueue()
        assert q.peek_time() is None
        q.schedule(4.2, lambda: None)
        assert q.peek_time() == 4.2


class TestBudgetedRunClock:
    """Regression tests: a ``max_events`` stop must not advance the clock
    past events that are still pending before ``until`` (the rollback bug:
    the next ``step``/``run`` would then pop an event with ``time < now``
    and move simulated time backwards)."""

    def test_budget_stop_leaves_clock_at_last_executed_event(self):
        q = EventQueue()
        for t in (1.0, 2.0, 3.0):
            q.schedule(t, lambda: None)
        q.run(until=10.0, max_events=2)
        assert q.now == 2.0  # not 10.0: the t=3 event is still pending

    def test_step_after_budgeted_run_never_moves_clock_backwards(self):
        q = EventQueue()
        times = []
        for t in (1.0, 2.0, 3.0):
            q.schedule(t, lambda: times.append(q.now))
        q.run(until=10.0, max_events=2)
        before = q.now
        assert q.step() is True
        assert q.now >= before
        assert times == [1.0, 2.0, 3.0]

    def test_resumed_run_after_budget_stop(self):
        q = EventQueue()
        fired = []
        for t in (1.0, 2.0, 3.0, 4.0):
            q.schedule(t, fired.append, t)
        q.run(until=10.0, max_events=1)
        assert q.now == 1.0
        # Resuming must execute the remaining events in order and only
        # then advance the clock to the horizon.
        q.run(until=10.0)
        assert fired == [1.0, 2.0, 3.0, 4.0]
        assert q.now == 10.0

    def test_scheduling_after_budget_stop_is_not_rejected(self):
        q = EventQueue()
        for t in (1.0, 2.0, 5.0):
            q.schedule(t, lambda: None)
        q.run(until=10.0, max_events=2)
        # With the clock correctly at t=2, an event at t=3 is legal; the
        # rollback bug put the clock at 10 and made this raise.
        q.schedule(3.0, lambda: None)

    def test_drained_run_still_advances_to_until(self):
        q = EventQueue()
        q.schedule(1.0, lambda: None)
        q.run(until=10.0, max_events=5)
        assert q.now == 10.0  # queue drained: horizon advance is correct


class TestNonFiniteRejection:
    """Regression tests: non-finite times must be rejected at schedule
    time.  NaN is the dangerous one — ``time < self._now`` is False for
    NaN, so a NaN timestamp sailed past the old past-time guard and then
    poisoned the heap (every comparison against NaN is False, breaking
    the heap invariant silently)."""

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_schedule_rejects_non_finite_time(self, bad):
        q = EventQueue()
        with pytest.raises(SimulationError):
            q.schedule(bad, lambda: None)
        assert len(q) == 0

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_schedule_after_rejects_non_finite_delay(self, bad):
        q = EventQueue()
        with pytest.raises(SimulationError):
            q.schedule_after(bad, lambda: None)
        assert len(q) == 0

    def test_schedule_many_rejects_non_finite_and_is_atomic(self):
        q = EventQueue()
        q.schedule(0.5, lambda: None)
        with pytest.raises(SimulationError):
            q.schedule_many(
                [(1.0, lambda: None, ()), (float("nan"), lambda: None, ())]
            )
        # Validation happens before any insertion: the good event of the
        # bad batch must not have landed.
        assert len(q) == 1

    def test_schedule_many_rejects_past_time(self):
        q = EventQueue()
        q.schedule(1.0, lambda: None)
        q.run()
        with pytest.raises(SimulationError):
            q.schedule_many([(0.5, lambda: None, ())])

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_run_rejects_non_finite_until(self, bad):
        # NaN would run every queued event (it compares false); inf
        # would leave ``now == inf`` and make every later schedule fail.
        q = EventQueue()
        q.schedule(1.0, lambda: None)
        with pytest.raises(SimulationError, match=f"non-finite time {bad!r}"):
            q.run(until=bad)
        assert (q.processed, q.now, len(q)) == (0, 0.0, 1)
        q.schedule_after(1.0, lambda: None)

    def test_past_time_message_unchanged(self):
        q = EventQueue()
        q.schedule(1.0, lambda: None)
        q.run()
        with pytest.raises(SimulationError, match="before now"):
            q.schedule(0.5, lambda: None)


class TestScheduleMany:
    def test_batch_matches_sequential_schedule(self):
        a, b = EventQueue(), EventQueue()
        events = [(2.0, "x"), (1.0, "y"), (2.0, "z"), (3.0, "w")]
        fired_a, fired_b = [], []
        for t, name in events:
            a.schedule(t, fired_a.append, name, priority=PRIORITY_ARRIVAL)
        b.schedule_many(
            ((t, fired_b.append, (name,)) for t, name in events),
            priority=PRIORITY_ARRIVAL,
        )
        a.run()
        b.run()
        assert fired_a == fired_b == ["y", "x", "z", "w"]

    def test_returns_count(self):
        q = EventQueue()
        assert q.schedule_many((float(i), lambda: None, ()) for i in range(5)) == 5
        assert len(q) == 5

    def test_empty_batch(self):
        q = EventQueue()
        assert q.schedule_many([]) == 0
        assert len(q) == 0

    def test_batch_interleaves_with_existing_events(self):
        q = EventQueue()
        fired = []
        q.schedule(1.5, fired.append, "old")
        q.schedule_many([(1.0, fired.append, ("new-a",)), (2.0, fired.append, ("new-b",))])
        q.run()
        assert fired == ["new-a", "old", "new-b"]

    @given(
        times=st.lists(
            st.floats(0.0, 1000.0, allow_nan=False, allow_infinity=False),
            max_size=80,
        ),
        split=st.integers(0, 80),
    )
    @settings(max_examples=200, deadline=None)
    def test_property_ordering_equivalence(self, times, split):
        """A bulk batch and per-event schedules fire identically.

        Events are totally ordered by ``(time, priority, seq)`` with a
        unique seq, so which container holds an event never affects pop
        order — ``schedule_many`` (merge into the sorted run) must be
        execution-order-equivalent to a loop of ``schedule`` calls,
        including FIFO ties, regardless of how the batch splits against
        pre-existing events.
        """
        split = min(split, len(times))
        sequential, batched = EventQueue(), EventQueue()
        fired_seq, fired_bat = [], []
        for i, t in enumerate(times):
            sequential.schedule(t, fired_seq.append, (t, i))
        for i, t in enumerate(times[:split]):
            batched.schedule(t, fired_bat.append, (t, i))
        batched.schedule_many(
            (t, fired_bat.append, ((t, split + i),))
            for i, t in enumerate(times[split:])
        )
        sequential.run()
        batched.run()
        assert fired_seq == fired_bat
        assert sequential.now == batched.now
        assert sequential.processed == batched.processed

    @given(
        times=st.lists(
            st.sampled_from([0.0, 1.0, 1.5, 2.0]), min_size=1, max_size=40
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_property_fifo_ties_preserved(self, times):
        """Heavy tie load: same-time events keep submission order."""
        sequential, batched = EventQueue(), EventQueue()
        fired_seq, fired_bat = [], []
        for i, t in enumerate(times):
            sequential.schedule(t, fired_seq.append, i)
        batched.schedule_many(
            (t, fired_bat.append, (i,)) for i, t in enumerate(times)
        )
        sequential.run()
        batched.run()
        assert fired_seq == fired_bat


class TestDrainToTimestamp:
    def test_until_drain_executes_in_order(self):
        q = EventQueue()
        fired = []
        q.schedule_many((float(i), fired.append, (i,)) for i in range(6))
        executed = q.run(until=3.5)
        assert executed == 4
        assert fired == [0, 1, 2, 3]
        assert q.now == 3.5
        assert len(q) == 2

    def test_until_drain_honors_events_scheduled_mid_drain(self):
        q = EventQueue()
        fired = []

        def spawn():
            fired.append("spawn")
            q.schedule_after(0.25, fired.append, "child")

        q.schedule(1.0, spawn)
        q.schedule(2.0, fired.append, "late")
        q.run(until=1.5)
        assert fired == ["spawn", "child"]
        assert q.now == 1.5


class TestTwoContainers:
    """``len`` and ``peek_time`` over the heap and the sorted arrival run.

    The stall watchdog reads both from its own thread while the run loop
    pops, so they must never raise, whichever container holds what.
    """

    def test_empty(self):
        q = EventQueue()
        assert len(q) == 0
        assert q.peek_time() is None

    def test_run_only(self):
        q = EventQueue()
        q.feed([(2.0, lambda: None, ()), (3.0, lambda: None, ())], 2)
        assert len(q._heap) == 0
        assert len(q._ahead) == 2
        assert len(q) == 2
        assert q.peek_time() == 2.0

    def test_heap_only(self):
        q = EventQueue()
        q.schedule(4.0, lambda: None)
        q.schedule(1.5, lambda: None)
        assert len(q._ahead) == 0
        assert len(q) == 2
        assert q.peek_time() == 1.5

    @pytest.mark.parametrize("heap_time, run_time", [(1.0, 2.0), (2.0, 1.0)])
    def test_both(self, heap_time, run_time):
        q = EventQueue()
        q.schedule(heap_time, lambda: None)
        q.feed([(run_time, lambda: None, ())], 1)
        assert (len(q._heap), len(q._ahead)) == (1, 1)
        assert len(q) == 2
        assert q.peek_time() == min(heap_time, run_time)

    def test_both_equal_time_ties_fire_by_priority_then_seq(self):
        q = EventQueue()
        fired = []
        q.feed(
            [(1.0, fired.append, ("arrival-a",)), (1.0, fired.append, ("arrival-b",))],
            2,
        )
        assert len(q._ahead) == 2
        q.schedule(1.0, fired.append, "cycle", priority=PRIORITY_CYCLE)
        q.schedule(1.0, fired.append, "completion", priority=PRIORITY_COMPLETION)
        q.schedule(1.0, fired.append, "default", priority=PRIORITY_DEFAULT)
        assert len(q) == 5
        assert q.peek_time() == 1.0
        q.run()
        # ARRIVAL == DEFAULT, so those three fall to scheduling order.
        assert fired == ["completion", "arrival-a", "arrival-b", "default", "cycle"]
        assert len(q) == 0
        assert q.peek_time() is None

    def test_peek_survives_a_run_emptied_under_it(self):
        """A container that empties between its truth test and its read
        (another thread popped it) counts as empty instead of raising."""

        class _Vanishing(deque):
            def __bool__(self):
                return True

        q = EventQueue()
        q.schedule(5.0, lambda: None)
        q._ahead = _Vanishing()
        assert q.peek_time() == 5.0
        assert len(q) == 1
        q._heap.clear()
        assert q.peek_time() is None

    def test_schedule_many_goes_onto_the_heap(self):
        """Only a feed writes the sorted run: an unsorted batch beside
        one lands on the heap and still fires in time order."""
        q = EventQueue()
        fired = []
        q.feed([(1.0, fired.append, (1,)), (4.0, fired.append, (4,))], 2)
        q.schedule_many(
            [(3.0, fired.append, (3,)), (0.5, fired.append, (0.5,)), (4.0, fired.append, ("4b",))]
        )
        assert (len(q._heap), len(q._ahead)) == (3, 2)
        q.run()
        assert fired == [0.5, 1, 3, 4, "4b"]


def _arrivals(times, follow):
    """``(time, callback, args)`` arrivals; arrival ``i`` schedules a
    follow-up ``follow[i % len(follow)]`` seconds later (``None``: none)."""
    return [
        (t, "arrival", (("a", i), follow[i % len(follow)] if follow else None))
        for i, t in enumerate(times)
    ]


def _fire_all(arrivals, heap_events, *, feed, chunk):
    """Run ``arrivals`` fed (or preloaded) beside ``heap_events``.

    Returns each fired label with the ``processed``, ``len`` and
    ``peek_time`` its callback saw, and the largest sorted run seen.
    """
    queue = EventQueue()
    log = []
    widest = [0]

    def fire(label, delay):
        log.append((label, queue.processed, len(queue), queue.peek_time()))
        widest[0] = max(widest[0], len(queue._ahead))
        if delay is not None:
            # PRIORITY_DEFAULT == PRIORITY_ARRIVAL: ties with later
            # arrivals fall to seq, which the feed reserved up front.
            queue.schedule(queue.now + delay, fire, label + ("f",), None)

    for k, (time, priority) in enumerate(heap_events):
        queue.schedule(time, fire, ("h", k), None, priority=priority)
    events = ((t, fire, args) for t, _, args in arrivals)
    with patch.object(event_queue, "FEED_CHUNK", chunk):
        if feed:
            queue.feed(events, len(arrivals))
        else:
            queue.schedule_many(events, priority=PRIORITY_ARRIVAL)
        log.append(("start", len(queue), queue.peek_time()))
        widest[0] = max(widest[0], len(queue._ahead))
        queue.run()
    return log, queue.now, queue.processed, len(queue), widest[0]


class TestFeed:
    """:meth:`EventQueue.feed` pops exactly like a full preload."""

    _TIMES = st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.0])

    @given(
        times=st.lists(_TIMES, max_size=30).map(sorted),
        heap_events=st.lists(
            st.tuples(
                _TIMES,
                st.sampled_from(
                    [PRIORITY_COMPLETION, PRIORITY_DEFAULT, PRIORITY_CYCLE]
                ),
            ),
            max_size=6,
        ),
        follow=st.lists(
            st.one_of(st.none(), st.sampled_from([0.0, 0.5, 1.0])), max_size=4
        ),
        chunk=st.integers(1, 4),
    )
    @settings(max_examples=300, deadline=None)
    def test_pop_order_equals_a_full_preload(self, times, heap_events, follow, chunk):
        """Same firing order, ``processed``, ``len`` and ``peek_time`` at
        every callback, with equal-``(time, priority)`` ties between
        arrivals and heap events scheduled before and during the run;
        the fed run never holds more than ``chunk`` built arrivals."""
        arrivals = _arrivals(times, follow)
        fed = _fire_all(arrivals, heap_events, feed=True, chunk=chunk)
        preloaded = _fire_all(arrivals, heap_events, feed=False, chunk=chunk)
        assert fed[:4] == preloaded[:4]
        assert fed[4] <= chunk
        assert fed[2] == len(times) + len(heap_events) + sum(
            1 for _, _, (_, delay) in arrivals if delay is not None
        )

    def test_empty_source(self):
        q = EventQueue()
        q.feed(iter(()), 0)
        assert len(q) == 0 and q.peek_time() is None
        assert q.run() == 0
        q.schedule(1.0, lambda: None)
        q.feed([], 0)  # an empty feed needs no empty run
        assert q.run() == 1

    def test_len_counts_unbuilt_events(self):
        q = EventQueue()
        q.feed(((float(i), lambda: None, ()) for i in range(2 * FEED_CHUNK + 1)),
               2 * FEED_CHUNK + 1)
        assert len(q._ahead) == FEED_CHUNK
        assert len(q) == 2 * FEED_CHUNK + 1
        assert q.peek_time() == 0.0
        q.run(max_events=FEED_CHUNK)
        assert len(q._ahead) == FEED_CHUNK  # refilled by the emptying pop
        assert len(q) == FEED_CHUNK + 1
        assert q.peek_time() == float(FEED_CHUNK)
        assert q.run() == FEED_CHUNK + 1
        assert len(q) == 0 and q._feed is None

    def test_seq_block_is_reserved_up_front(self):
        q = EventQueue()
        fired = []
        q.feed([(1.0, fired.append, ("a1",)), (1.0, fired.append, ("a2",))], 2)
        # Scheduled after the feed: orders after both arrivals at t=1.
        q.schedule(1.0, fired.append, "h")
        with patch.object(event_queue, "FEED_CHUNK", 1):
            q.run()
        assert fired == ["a1", "a2", "h"]

    def test_schedule_many_leaves_a_pending_feed_alone(self):
        q = EventQueue()
        fired = []
        with patch.object(event_queue, "FEED_CHUNK", 1):
            q.feed([(t, fired.append, (t,)) for t in (1.0, 2.0, 3.0)], 3)
            q.schedule_many([(2.5, fired.append, ("b",))])
            assert q._feed is not None and len(q._ahead) == 1
            assert len(q._heap) == 1 and len(q) == 4
            q.run()
        assert fired == [1.0, 2.0, "b", 3.0]

    def test_out_of_order_source_raises_at_its_chunk(self):
        q = EventQueue()
        with patch.object(event_queue, "FEED_CHUNK", 2):
            q.feed([(t, lambda: None, ()) for t in (1.0, 2.0, 0.5)], 3)
            with pytest.raises(SimulationError, match="never decrease"):
                q.run()

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_time_raises(self, bad):
        with pytest.raises(SimulationError):
            EventQueue().feed([(bad, lambda: None, ())], 1)

    def test_short_source_raises(self):
        with pytest.raises(SimulationError, match="1 events short"):
            EventQueue().feed([(1.0, lambda: None, ())], 2)

    def test_one_feed_at_a_time(self):
        q = EventQueue()
        fired = []
        q.schedule_many([(1.0, fired.append, ("h",))])
        q.feed([(1.0, fired.append, ("a1",)), (2.0, fired.append, ("a2",))], 2)
        with pytest.raises(SimulationError, match="one feed at a time"):
            q.feed([(2.0, lambda: None, ())], 1)
        q.run(max_events=2)
        # Every event built, one still pending: the feed is not over.
        assert q._feed is None and len(q._ahead) == 1
        with pytest.raises(SimulationError, match="one feed at a time"):
            q.feed([(2.0, lambda: None, ())], 1)
        q.run()
        q.feed([(3.0, fired.append, ("b",))], 1)
        q.run()
        assert fired == ["h", "a1", "a2", "b"]
        with pytest.raises(ValueError):
            EventQueue().feed([], -1)


class TestFeedChunkBoundary:
    """A refill checks and builds a whole chunk at once; its edges must
    behave as the event-by-event build did."""

    _BAD = [
        (float("nan"), "nan"),
        (float("inf"), "inf"),
        (0.5, "0.5"),  # decreasing
    ]

    @staticmethod
    def _message(bad_repr, last_repr):
        return (
            f"fed event at t={bad_repr} after t={last_repr}: a feed must "
            f"be finite and never decrease"
        )

    @pytest.mark.parametrize("bad,bad_repr", _BAD)
    def test_bad_time_last_in_the_first_chunk(self, bad, bad_repr):
        q = EventQueue()
        fired = []
        with patch.object(event_queue, "FEED_CHUNK", 3):
            with pytest.raises(SimulationError) as raised:
                q.feed([(t, fired.append, (t,)) for t in (1.0, 2.0, bad, 3.0)], 4)
        assert str(raised.value) == self._message(bad_repr, "2.0")
        assert fired == []

    @pytest.mark.parametrize("bad,bad_repr", _BAD)
    def test_bad_time_first_in_the_second_chunk(self, bad, bad_repr):
        q = EventQueue()
        fired = []
        times = (1.0, 2.0, 2.0, bad, 3.0)
        with patch.object(event_queue, "FEED_CHUNK", 3):
            q.feed([(t, fired.append, (t,)) for t in times], len(times))
            with pytest.raises(SimulationError) as raised:
                q.run()
        # Raised by the pop that empties the first chunk, before its
        # event runs: the last good time is the chunk's last.
        assert str(raised.value) == self._message(bad_repr, "2.0")
        assert fired == [1.0, 2.0]

    @staticmethod
    def _queued(q):
        return [event[0] for event in q._ahead]

    def test_short_feed_raises_at_its_last_chunk(self):
        q = EventQueue()
        fired = []
        with patch.object(event_queue, "FEED_CHUNK", 2):
            q.feed([(t, fired.append, (t,)) for t in (1.0, 2.0, 3.0)], 6)
            assert len(q) == 6
            with pytest.raises(SimulationError, match=r"^feed ended 3 events short$"):
                q.run()
        assert fired == [1.0]
        assert q._feed is None and q._unfed == 0
        # The event whose pop asked for the refill stays queued, in
        # front of the one the refill built.
        assert self._queued(q) == [2.0, 3.0] and len(q) == 2
        assert q.run() == 2
        assert fired == [1.0, 2.0, 3.0] and len(q) == 0

    @pytest.mark.parametrize("bad,bad_repr", _BAD)
    def test_bad_time_keeps_what_was_built(self, bad, bad_repr):
        q = EventQueue()
        fired = []
        times = (1.0, 2.0, 3.0, bad, 4.0, 5.0)
        with patch.object(event_queue, "FEED_CHUNK", 2):
            q.feed([(t, fired.append, (t,)) for t in times], len(times))
            with pytest.raises(SimulationError) as raised:
                q.run()
        assert str(raised.value) == self._message(bad_repr, "3.0")
        assert fired == [1.0]
        assert q._feed is None and q._unfed == 0
        assert self._queued(q) == [2.0, 3.0] and len(q) == 2
        assert q.run() == 2
        assert fired == [1.0, 2.0, 3.0] and len(q) == 0

    @pytest.mark.parametrize("chunk", [1, 2, 3])
    def test_equal_times_across_a_boundary_stay_fifo(self, chunk):
        """Ties at one ``(time, priority)`` fall to ``seq``: the arrivals
        in feed order, then heap events scheduled after the feed, however
        the arrivals split into chunks."""
        q = EventQueue()
        fired = []
        q.schedule(1.0, fired.append, "before", priority=PRIORITY_ARRIVAL)
        q.schedule(1.0, fired.append, "cycle", priority=PRIORITY_CYCLE)
        with patch.object(event_queue, "FEED_CHUNK", chunk):
            q.feed([(1.0, fired.append, (f"a{i}",)) for i in range(4)], 4)
            q.schedule(1.0, fired.append, "after", priority=PRIORITY_ARRIVAL)
            q.schedule(1.0, fired.append, "done", priority=PRIORITY_COMPLETION)
            q.run()
        assert fired == ["done", "before", "a0", "a1", "a2", "a3", "after", "cycle"]


class _HeapModel:
    """Reference queue: every event on one ``heapq`` heap.

    The documented semantics of :class:`EventQueue` written as plainly
    as possible; the two-container queue must match it call for call.
    """

    def __init__(self):
        self._heap = []
        self._seq = itertools.count()
        self.now = 0.0
        self.processed = 0
        self._stop_check = False

    def __len__(self):
        return len(self._heap)

    def peek_time(self):
        return self._heap[0][0] if self._heap else None

    def schedule(self, time, callback, *args, priority=PRIORITY_DEFAULT):
        assert self.now <= time
        heapq.heappush(self._heap, (time, priority, next(self._seq), callback, args))

    def schedule_many(self, events, *, priority=PRIORITY_DEFAULT):
        count = 0
        for time, callback, args in events:
            self.schedule(time, callback, *args, priority=priority)
            count += 1
        return count

    def feed(self, events, count):
        assert self.schedule_many(events, priority=PRIORITY_ARRIVAL) == count

    def request_stop_check(self):
        self._stop_check = True

    def step(self):
        if not self._heap:
            return False
        time, _prio, _seq, callback, args = heapq.heappop(self._heap)
        self.now = time
        self.processed += 1
        callback(*args)
        return True

    def run(self, until=None, *, max_events=None, stop=None):
        until_t = float("inf") if until is None else until
        budget = float("inf") if max_events is None else max_events
        executed = 0
        self._stop_check = False
        while self._heap and executed < budget and self._heap[0][0] <= until_t:
            self.step()
            executed += 1
            if self._stop_check:
                self._stop_check = False
                if stop is not None and stop():
                    break
        if (
            until is not None
            and stop is None
            and self.now < until
            and (not self._heap or self._heap[0][0] > until)
        ):
            self.now = until
        return executed


_DELAYS = st.sampled_from([0.0, 0.25, 0.5, 1.0, 2.0])
_PRIORITIES = st.sampled_from(
    [PRIORITY_COMPLETION, PRIORITY_ARRIVAL, PRIORITY_DEFAULT, PRIORITY_CYCLE]
)
#: What a fired event does besides logging itself.
_ACTIONS = st.one_of(
    st.none(),
    st.tuples(st.just("schedule"), _DELAYS, _PRIORITIES),
    st.tuples(st.just("many"), st.lists(_DELAYS, max_size=4), _PRIORITIES),
    st.tuples(st.just("push"), _DELAYS),
    st.just(("stop",)),
)
_SCHEDULE_OPS = st.one_of(
    st.tuples(st.just("schedule"), _DELAYS, _PRIORITIES, _ACTIONS),
    st.tuples(
        st.just("many"),
        st.lists(st.tuples(_DELAYS, _ACTIONS), max_size=8),
        _PRIORITIES,
        st.booleans(),  # sort the batch by time first
    ),
)
_RUN_OPS = st.one_of(
    st.just(("step",)),
    st.tuples(
        st.just("run"),
        st.one_of(st.none(), st.sampled_from([0.0, 0.5, 1.0, 3.0])),  # until - now
        st.one_of(st.none(), st.integers(0, 6)),  # max_events
        st.one_of(st.none(), st.integers(1, 5)),  # stop after this many more
    ),
)
_PROGRAMS = st.lists(st.one_of(_SCHEDULE_OPS, _RUN_OPS), max_size=16)
#: The one feed a program starts with: arrivals in time order.
_FEED_OPS = st.tuples(
    st.just("feed"),
    st.lists(
        st.tuples(st.sampled_from([0.0, 0.25, 0.5, 1.0, 1.5, 3.0]), _ACTIONS),
        max_size=10,
    ).map(lambda entries: sorted(entries, key=lambda entry: entry[0])),
)


def _execute(queue, program):
    """Apply ``program`` to ``queue``; return what was observable after
    each operation.  Every fired event logs its label with the
    ``processed`` count it sees, so the counter must be exact mid-run."""
    log = []

    def note(label):
        log.append((label, queue.processed))

    def make(label, action):
        def fire():
            note(label)
            if action is None:
                return
            kind, now = action[0], queue.now
            if kind == "schedule":
                queue.schedule(
                    now + action[1], note, label + ("s",), priority=action[2]
                )
            elif kind == "many":
                queue.schedule_many(
                    (
                        (now + delay, note, (label + ("m", k),))
                        for k, delay in enumerate(action[1])
                    ),
                    priority=action[2],
                )
            elif kind == "push":
                # The render nodes' direct completion push.
                heapq.heappush(
                    queue._heap,
                    (
                        now + action[1],
                        PRIORITY_COMPLETION,
                        next(queue._seq),
                        note,
                        (label + ("p",),),
                    ),
                )
            else:
                queue.request_stop_check()

        return fire

    observed = []
    for i, op in enumerate(program):
        kind, now = op[0], queue.now
        if kind == "schedule":
            _, delay, priority, action = op
            result = queue.schedule(now + delay, make((i,), action), priority=priority)
        elif kind == "many":
            _, entries, priority, in_order = op
            if in_order:
                entries = sorted(entries, key=lambda entry: entry[0])
            result = queue.schedule_many(
                (
                    (now + delay, make((i, k), action), ())
                    for k, (delay, action) in enumerate(entries)
                ),
                priority=priority,
            )
        elif kind == "feed":
            entries = op[1]
            arrivals = [
                (now + delay, make((i, k), action), ())
                for k, (delay, action) in enumerate(entries)
            ]
            result = queue.feed(iter(arrivals), len(arrivals))
        elif kind == "step":
            result = queue.step()
        else:
            _, until_offset, max_events, stop_after = op
            stop = None
            if stop_after is not None:
                target = len(log) + stop_after
                stop = lambda target=target: len(log) >= target  # noqa: E731
            result = queue.run(
                None if until_offset is None else now + until_offset,
                max_events=max_events,
                stop=stop,
            )
        observed.append(
            (i, result, list(log), queue.processed, queue.now, len(queue), queue.peek_time())
        )
    return observed


class TestDifferentialAgainstHeapModel:
    @given(feed=_FEED_OPS, program=_PROGRAMS, chunk=st.integers(1, 3))
    # 400 examples in tier-1; the ``deep`` profile (tests/conftest.py)
    # raises the count.
    @settings(max_examples=max(400, settings().max_examples), deadline=None)
    def test_matches_single_heap_reference(self, feed, program, chunk):
        """Firing order, the ``processed`` count each callback sees,
        counters, clock, ``len`` and ``peek_time`` agree with the
        one-heap reference after every call, for ``run`` with every
        argument combination and ``step``, with batches (sorted or
        not), equal-time ties across priorities, callbacks that
        schedule, add a batch or push onto the heap mid-run, and a
        feed at program start whose arrivals, built ``chunk`` at a
        time, interleave with every other operation."""
        program = [feed] + program + [("run", None, None, None)]  # drain
        with patch.object(event_queue, "FEED_CHUNK", chunk):
            fed = _execute(EventQueue(), program)
        assert fed == _execute(_HeapModel(), program)
