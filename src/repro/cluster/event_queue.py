"""Discrete-event simulation core: clock + two-container event queue.

The whole cluster simulation is driven by one :class:`EventQueue`.  Events
are ``(time, priority, seq, callback, args)`` tuples; ``seq`` is a
monotonically increasing tie-breaker so that events scheduled at the same
instant fire in scheduling order (stable FIFO within a timestamp), which
keeps simulations deterministic.

Pending events live in two containers:

* ``_heap``, a binary heap of the work the simulation schedules for
  itself while it runs (task completions, scheduling cycles, sampler
  ticks, fault events) -- O(nodes) entries, fed by :meth:`schedule`,
  :meth:`schedule_many` and the render nodes' direct completion pushes;
* ``_ahead``, a deque of fed arrivals in sorted order, written only by
  :meth:`feed`, through which the simulator streams the arrival trace
  in chunks of :data:`FEED_CHUNK`.

One loop, :meth:`EventQueue.run`, executes events (:meth:`step` is a
one-event run).  It takes the smaller of the two heads by full tuple
comparison.  Events are totally ordered by ``(time, priority, seq)`` and
``seq`` is unique, so the comparison never reaches the callback and the
pop order is exactly the order one heap holding everything would give.
Keeping the trace out of the heap is what keeps each completion's push
and pop at O(log nodes) rather than O(log requests).  Measured against
one heap holding everything, on a 2-core VM: pushing each arrival onto
the heap took the pinned event loop of the ``observed-storm`` e2e
workload from 0.80 s to 0.91 s and ``paper-s2`` from 1.23 s to 1.28 s
(min of 6 runs), and pushing them in 2,048-event chunks cost 19% and
15% ``run_s`` on ``observed-storm`` and ``backlog-s4``.  The loop counts
:attr:`~EventQueue.processed` before each callback, so the counter is
exact for anything that reads it mid-run (probe ticks, the stall
watchdog's thread).  The queue stores plain tuples rather than event
objects, and one simulated task costs exactly one event.

A feed holds at most :data:`FEED_CHUNK` built events at a time, so the
queue of a long trace does not grow with it.  It reserves its whole
block of ``seq`` values when it starts, so each event it builds later
is the tuple :meth:`schedule` would have built for it then; the pop
order is the order a full preload gives, ties with heap events
included.  The loop refills ``_ahead`` when the pop that empties it
takes a fed event, without an event of its own, and ``len()`` counts
the events not yet built.  A refill is one Python loop over its chunk,
and stays one because C passes measured slower: reading the chunk into
a list, transposing it with ``zip(*chunk)``, checking it with
``all(map(le, ...))`` and extending ``_ahead`` with a ``zip`` took
1.45-1.51x the loop's time per event on a synthetic feed and 1.06x on
the ``observed-storm`` trace's own source, whose rows are built as it
is read (same-process interleaved repeats, 2-core VM).  The loop
unpacks each ``(time, callback, args)`` triple as it goes, so the
source's ``zip`` reuses one triple; a list of the chunk has to keep
every triple, and the transpose has to build an iterator per triple.

Event times must be finite: ``NaN`` compares false against everything,
so a NaN time would slip past a naive ``time < now`` guard and corrupt
the ordering (every comparison involving it is false), silently
reordering the run.  Both scheduling entry points reject non-finite
times/delays, and :meth:`~EventQueue.run` a non-finite ``until``, with
:class:`SimulationError`.
"""

from __future__ import annotations

import heapq
import itertools
from collections import deque
from typing import Any, Callable, Deque, Iterable, Iterator, List, Optional, Tuple

EventCallback = Callable[..., None]
Event = Tuple[float, int, int, EventCallback, tuple]

_INF = float("inf")

#: Priority constants: lower fires first among events at the same time.
PRIORITY_COMPLETION = 0  # task/IO completions observed before new decisions
PRIORITY_ARRIVAL = 1  # job arrivals
PRIORITY_CYCLE = 2  # scheduling cycles run after arrivals at the same tick
PRIORITY_DEFAULT = 1

#: Most events a :meth:`EventQueue.feed` holds built at one time.
FEED_CHUNK = 2048


class SimulationError(RuntimeError):
    """Raised for inconsistencies detected during a simulation run."""


class EventQueue:
    """A time-ordered event queue with a simulation clock.

    The clock only moves forward; scheduling an event in the past raises
    :class:`SimulationError` (a symptom of a broken component, better
    caught loudly than silently reordered).
    """

    __slots__ = (
        "_heap", "_ahead", "_seq", "_now", "_processed", "_stop_check",
        "_periodic", "_feed", "_unfed", "_feed_seq", "_feed_time",
    )

    def __init__(self, start_time: float = 0.0) -> None:
        self._heap: List[Event] = []
        self._ahead: Deque[Event] = deque()
        self._seq = itertools.count()
        self._now = float(start_time)
        self._processed = 0
        self._stop_check = False
        #: Periodic ticks on the queue (probe grids, the frontend's
        #: degradation controller); see :mod:`repro.obs.probe`.
        self._periodic = 0
        #: The pending :meth:`feed`: its source, the events not yet
        #: built, the next reserved ``seq`` and the last time built.
        self._feed: Optional[Iterator[Tuple[float, EventCallback, tuple]]] = None
        self._unfed = 0
        self._feed_seq = 0
        self._feed_time = 0.0

    # -- clock -------------------------------------------------------------

    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self._now

    @property
    def processed(self) -> int:
        """Number of events executed so far."""
        return self._processed

    def __len__(self) -> int:
        # Safe to call from another thread mid-run (the stall watchdog):
        # each ``len`` is atomic, so the sum may be one event stale but
        # never raises.
        return len(self._heap) + len(self._ahead) + self._unfed

    # -- scheduling ----------------------------------------------------------

    def _bad_time(self, time: float) -> SimulationError:
        """Diagnose why ``time`` failed the scheduling guard."""
        if not (time == time):  # NaN
            return SimulationError("cannot schedule event at NaN time")
        if time == _INF or time == -_INF:
            return SimulationError(f"cannot schedule event at infinite time {time!r}")
        return SimulationError(
            f"cannot schedule event at t={time:.9f} before now={self._now:.9f}"
        )

    def schedule(
        self,
        time: float,
        callback: EventCallback,
        *args: Any,
        priority: int = PRIORITY_DEFAULT,
    ) -> None:
        """Schedule ``callback(*args)`` to run at simulation ``time``.

        Events at equal ``time`` order by ``priority`` then by insertion.
        ``time`` must be finite and not in the past; the chained
        comparison is one guard for all three hazards (NaN fails both
        sides, +inf fails the right, past times fail the left).
        """
        if not (self._now <= time < _INF):
            raise self._bad_time(time)
        heapq.heappush(self._heap, (time, priority, next(self._seq), callback, args))

    def schedule_after(
        self,
        delay: float,
        callback: EventCallback,
        *args: Any,
        priority: int = PRIORITY_DEFAULT,
    ) -> None:
        """Schedule ``callback(*args)`` to run ``delay`` seconds from now."""
        if not (0.0 <= delay < _INF):
            raise SimulationError(
                f"delay must be finite and non-negative, got {delay!r}"
            )
        self.schedule(self._now + delay, callback, *args, priority=priority)

    def schedule_many(
        self,
        events: Iterable[Tuple[float, EventCallback, tuple]],
        *,
        priority: int = PRIORITY_DEFAULT,
    ) -> int:
        """Schedule a batch of ``(time, callback, args)`` events at once.

        Execution-order-equivalent to calling :meth:`schedule` once per
        triple in iteration order (same validation, same FIFO
        tie-breaking); every event goes onto the heap.  The batch is
        atomic: if any time is non-finite or in the past, nothing is
        scheduled.

        Returns:
            The number of events scheduled.
        """
        now = self._now
        batch = list(events)
        for time, _, _ in batch:
            if not (now <= time < _INF):
                raise self._bad_time(time)
        heap = self._heap
        seq = self._seq
        for time, callback, args in batch:
            heapq.heappush(heap, (time, priority, next(seq), callback, args))
        return len(batch)

    def feed(
        self,
        events: Iterable[Tuple[float, EventCallback, tuple]],
        count: int,
    ) -> None:
        """Schedule ``count`` ``(time, callback, args)`` arrivals lazily.

        Pop-order-equivalent to ``schedule_many(events,
        priority=PRIORITY_ARRIVAL)``, but the events go onto the sorted
        run ``_ahead`` instead of the heap, at most :data:`FEED_CHUNK`
        at a time: the first chunk now, each next one when the run loop
        pops the last built event.  The whole block of ``count``
        sequence numbers is reserved now, so events scheduled later
        order after these at equal ``(time, priority)``, as they would
        after a full preload.

        ``events`` must yield exactly ``count`` events with finite
        times that never decrease, the first not before now.  It is
        read while the run goes on, so a fault is found at the chunk
        that holds it and raises :class:`SimulationError` there.  The
        fault closes the feed: every event built before it stays queued
        in order (the one whose pop asked for the refill included), so
        ``len()`` is exact and a resumed :meth:`run` fires them.  One
        feed at a time: a feed is pending until its last event pops.
        """
        if count < 0:
            raise ValueError(f"count must be >= 0, got {count!r}")
        if not count:
            return
        if self._unfed or self._ahead:
            raise SimulationError("one feed at a time: a feed is pending")
        seq = self._seq
        self._feed_seq = next(seq)
        # Advance the shared counter past the block (C-level; the render
        # nodes hold the same counter object).
        deque(itertools.islice(seq, count - 1), maxlen=0)
        self._feed = iter(events)
        self._unfed = count
        self._feed_time = self._now
        self._refill()

    def _refill(self) -> None:
        """Build up to :data:`FEED_CHUNK` more fed events onto ``_ahead``."""
        wanted = min(FEED_CHUNK, self._unfed)
        seq = self._feed_seq
        last = self._feed_time
        append = self._ahead.append
        for time, callback, args in itertools.islice(self._feed, wanted):
            if not (last <= time < _INF):
                # Close the feed: what it built stays queued, and
                # ``len()`` counts exactly that.
                self._feed = None
                self._unfed = 0
                raise SimulationError(
                    f"fed event at t={time!r} after t={last!r}: a feed must "
                    f"be finite and never decrease"
                )
            last = time
            append((time, PRIORITY_ARRIVAL, seq, callback, args))
            seq += 1
        built = seq - self._feed_seq
        self._unfed -= built
        self._feed_seq = seq
        self._feed_time = last
        if built < wanted:
            missing = self._unfed
            self._feed = None
            self._unfed = 0
            raise SimulationError(f"feed ended {missing} events short")
        if not self._unfed:
            self._feed = None

    # -- execution ---------------------------------------------------------

    def step(self) -> bool:
        """Execute the next event.  Returns False if the queue is empty."""
        return self.run(max_events=1) == 1

    def request_stop_check(self) -> None:
        """Have a ``run(stop=...)`` loop test its predicate after this event.

        Components call this where the run's stop condition can have
        become true (the service: where in-flight work reaches zero).
        Without a stop predicate the request is ignored.
        """
        self._stop_check = True

    def run(
        self,
        until: Optional[float] = None,
        *,
        max_events: Optional[int] = None,
        stop: Optional[Callable[[], bool]] = None,
    ) -> int:
        """Run events until the queue drains, ``until`` passes, or a budget hits.

        Args:
            until: If given, stop before executing any event strictly after
                this time; must be finite.  The clock advances to ``until``
                only once every event at or before ``until`` has executed;
                a ``max_events`` stop with earlier events still pending
                leaves the clock at the last executed event, so a resumed
                ``run`` (or ``step``) can never move time backwards.
            max_events: Optional budget on the number of events (>= 0).
            stop: Optional predicate ending the run early.  It is tested
                only after events that called :meth:`request_stop_check`
                (each event pays one flag read), and the run returns
                right after the first event for which it holds.  With
                ``stop``, ``until`` is a cutoff only: the clock stays at
                the last executed event (the drain phase of a simulation
                ends at its last completion, not at the cutoff).

        Returns:
            The number of events executed by this call.  A NaN or
            infinite ``until`` raises :class:`SimulationError`, a
            negative ``max_events`` :class:`ValueError`.
        """
        if until is not None and not -_INF < until < _INF:
            raise SimulationError(f"cannot run until non-finite time {until!r}")
        if max_events is not None and not max_events >= 0:
            raise ValueError(f"max_events must be >= 0, got {max_events!r}")
        until_t = _INF if until is None else until
        budget = _INF if max_events is None else max_events
        # Each iteration takes the smaller of the two heads (see the
        # module docstring).  Callbacks may push onto the heap, and the
        # loop itself refills ``ahead``; both containers keep their
        # identity, so the locals below stay valid.
        heap = self._heap
        ahead = self._ahead
        pop = heapq.heappop
        popleft = ahead.popleft
        executed = 0
        self._stop_check = False
        while executed < budget:
            if ahead and (not heap or ahead[0] < heap[0]):
                item = ahead[0]
                if item[0] > until_t:
                    break
                popleft()
                if not ahead and self._unfed:
                    try:
                        self._refill()
                    except SimulationError:
                        # A bad feed: the event stays queued before
                        # the ones the refill built.
                        ahead.appendleft(item)
                        raise
            elif heap:
                item = heap[0]
                if item[0] > until_t:
                    break
                pop(heap)
            else:
                break
            self._now = item[0]
            executed += 1
            self._processed += 1
            item[3](*item[4])
            if self._stop_check:
                self._stop_check = False
                if stop is not None and stop():
                    break
        # Advance the clock to ``until`` once nothing at or before it is left.
        if until is not None and stop is None and self._now < until:
            next_time = self.peek_time()
            if next_time is None or next_time > until:
                self._now = until
        return executed

    def peek_time(self) -> Optional[float]:
        """Time of the next pending event, or None when empty.

        Safe to call from another thread while a run loop pops (the
        stall watchdog does): each container's head is read once, and a
        container that empties between the check and the read counts
        as empty instead of raising.
        """
        next_time = None
        for container in (self._heap, self._ahead):
            try:
                head_time = container[0][0]
            except IndexError:
                continue
            if next_time is None or head_time < next_time:
                next_time = head_time
        return next_time


__all__ = [
    "EventQueue",
    "EventCallback",
    "FEED_CHUNK",
    "SimulationError",
    "PRIORITY_COMPLETION",
    "PRIORITY_ARRIVAL",
    "PRIORITY_CYCLE",
    "PRIORITY_DEFAULT",
]
