"""Virtual-time structured tracer: spans, instants, counter samples.

The simulator's aggregate metrics (framerate, hit rate, latency) say
*what* happened; the tracer records *where virtual time went* — one
span per I/O load, render execution, compositing pass, and scheduler
invocation, plus instant events (cache hits/misses/evictions) and
counter samples (queue depth, busy nodes, cache occupancy, in-flight
I/O).  The recorded timeline exports to Chrome trace-event JSON via
:mod:`repro.obs.chrome` and aggregates into per-node profiles via
:mod:`repro.obs.profile`.

Addressing follows the Chrome trace model: every event belongs to a
*track* (``pid`` — the head node or one rendering node) and a *lane*
within it (``tid`` — named lanes such as ``"render"``, ``"io"``,
``"composite"``).  Lane names are interned to small integer ``tid``
values at first use; the export emits the name as thread metadata.

Per-lane timestamps are enforced to be non-decreasing at record time
(virtual time only moves forward on one lane), so exported traces are
monotonic per lane by construction.

The trace is stored as rows, not objects: one plain tuple per record
call.  The simulator's three hot occurrences (a task starting on a
node, a job's submission, a job's completion) each record one row of
values it already holds, with no name formatting or args dict; the
:class:`TraceEvent` objects are built when :attr:`Tracer.events` is
read.

Disabled runs pay nothing: instrumentation sites hold ``None`` instead
of a tracer and guard with one identity check; :class:`NullTracer`
additionally provides the full API as no-ops for call sites that prefer
an always-valid object.
"""

from __future__ import annotations

from itertools import islice
from typing import Any, Dict, Iterator, List, Mapping, Optional, Tuple

#: Track (``pid``) of the head node — the service, scheduler, and
#: cluster-wide counters live here.  Rendering node ``k`` is track
#: ``PID_HEAD + 1 + k`` (see :func:`pid_for_node`).
PID_HEAD = 0

#: Standard event categories (Chrome trace ``cat`` field).
CAT_IO = "io"
CAT_RENDER = "render"
CAT_COMPOSITE = "composite"
CAT_SCHED = "sched"
CAT_CACHE = "cache"
CAT_SERVICE = "service"
CAT_COMM = "comm"


def pid_for_node(node_id: int) -> int:
    """Track id (``pid``) of rendering node ``node_id``."""
    return PID_HEAD + 1 + node_id


class TraceError(RuntimeError):
    """Tracer protocol misuse: bad nesting or time running backwards."""


class TraceEvent:
    """One recorded trace event.

    Attributes mirror the Chrome trace-event fields: ``phase`` is the
    event type (``"X"`` complete span, ``"B"``/``"E"`` nested span
    begin/end, ``"i"`` instant, ``"C"`` counter, ``"s"``/``"t"``/``"f"``
    flow start/step/end), ``ts`` is the virtual start time in seconds,
    ``dur`` the duration in seconds (complete spans only), ``pid``/
    ``tid`` the track and lane, ``args`` an arbitrary payload mapping,
    ``flow_id`` the causal-chain id (flow phases only).
    """

    __slots__ = (
        "phase", "name", "category", "ts", "dur", "pid", "tid", "args",
        "flow_id",
    )

    def __init__(
        self,
        phase: str,
        name: str,
        category: Optional[str],
        ts: float,
        dur: Optional[float],
        pid: int,
        tid: int,
        args: Optional[Mapping[str, Any]],
        flow_id: Optional[int] = None,
    ) -> None:
        self.phase = phase
        self.name = name
        self.category = category
        self.ts = ts
        self.dur = dur
        self.pid = pid
        self.tid = tid
        self.args = args
        self.flow_id = flow_id

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"TraceEvent({self.phase!r}, {self.name!r}, ts={self.ts:.6f}, "
            f"pid={self.pid}, tid={self.tid})"
        )


class _Lane:
    """One interned lane: its ``tid`` and the last timestamp recorded on it."""

    __slots__ = ("tid", "last")

    def __init__(self, tid: int) -> None:
        self.tid = tid
        self.last = float("-inf")


class LaneRef:
    """A call site's handle on lane ``name`` of track ``pid``.

    Hot call sites (a node's pipeline, the service's job lanes) take
    their refs once and pass them to the row methods, which then reach
    the lane's ``tid`` and clock with no dict lookup.  ``lane`` stays
    ``None`` until the lane is first recorded on, so taking a ref never
    interns a lane early: ``tid`` values keep the order of first use.
    """

    __slots__ = ("pid", "name", "lane")

    def __init__(self, pid: int, name: str) -> None:
        self.pid = pid
        self.name = name
        self.lane: Optional[_Lane] = None


# A row method's row is ``(expand, *values)``: ``expand(row)`` yields
# the row's events, in record order, as ``(phase, lane ref, name,
# category, ts, dur, args, flow_id)``.  Generic rows are the plain
# ``TraceEvent`` fields, phase first.


def _task_events(row: tuple) -> Iterator[tuple]:
    """Task start: cache instant, io span (miss), render span, flow step."""
    _, lanes, now, hit, chunk, job_id, index, io_time, upload, dur, flow = row
    cache, io, render = lanes
    key = (chunk.dataset, chunk.index)
    yield (
        "i", cache, "hit" if hit else "miss", CAT_CACHE, now, None,
        {"chunk": key, "job": job_id}, None,
    )
    if not hit:
        yield (
            "X", io, f"load {key}", CAT_IO, now, io_time,
            {"bytes": chunk.size, "job": job_id}, None,
        )
    at = now + io_time
    yield (
        "X", render, f"render {key}", CAT_RENDER, at, dur,
        {"job": job_id, "task": index, "hit": hit, "upload_s": upload}, None,
    )
    if flow:
        yield "t", render, f"job {job_id}", "flow", at, None, None, job_id


def _submit_events(row: tuple) -> Iterator[tuple]:
    """Job submission: submit instant, flow start."""
    _, jobs, now, job_type, job_id, user, action, flow = row
    yield (
        "i", jobs, f"submit {job_type.value}", CAT_SERVICE, now, None,
        {"job": job_id, "user": user, "action": action}, None,
    )
    if flow:
        yield "s", jobs, f"job {job_id}", "flow", now, None, None, job_id


def _completion_events(row: tuple) -> Iterator[tuple]:
    """Job completion: composite span, flow step, instant, flow end."""
    _, lane, jobs, now, composite, group, job_id, job_type, arrival, flow = row
    yield (
        "X", lane, f"composite job {job_id}", CAT_COMPOSITE, now, composite,
        {"job": job_id, "group": group}, None,
    )
    if flow:
        yield "t", lane, f"job {job_id}", "flow", now, None, None, job_id
    yield (
        "i", jobs, f"complete {job_type.value}", CAT_SERVICE, now, None,
        {"job": job_id, "latency": (now + composite) - arrival}, None,
    )
    if flow:
        yield "f", jobs, f"job {job_id}", "flow", now, None, None, job_id


class Tracer:
    """Records spans, instant events, and counter samples in virtual time.

    All methods take an explicit timestamp ``ts`` (virtual seconds) —
    discrete-event simulations begin and end work at event times, not on
    the Python call stack, so the familiar context-manager tracing style
    does not apply.  Three span styles are supported:

    * :meth:`complete` — a span whose duration is already known when it
      is recorded (the simulator schedules completions ahead of time, so
      this is the common case; it is also the cheapest: one event).
    * :meth:`begin` / :meth:`end` — properly nested open/close pairs on
      one lane, checked for LIFO nesting and forward time.
    * :meth:`instant` — a zero-duration marker.

    Counter samples (:meth:`counter`) carry a mapping of series name to
    value and render as stacked counter tracks in Perfetto.

    The trace is stored as rows, one plain tuple per record call.  The
    row methods (:meth:`record_task`, :meth:`record_submit`,
    :meth:`record_completion`) store a whole traced occurrence as one
    row of values the simulator already holds; :attr:`events` expands
    the rows into :class:`TraceEvent` objects when it is read.  Lanes
    and the forward-time check are resolved at record time, so
    :class:`TraceError` is raised by the call that makes the bad event.
    """

    enabled = True

    def __init__(self) -> None:
        self.process_names: Dict[int, str] = {}
        self._rows: List[tuple] = []
        # Events beyond one per row (a row method's row holds several).
        self._extra = 0
        self._lanes: Dict[Tuple[int, str], _Lane] = {}
        self._lane_names: Dict[Tuple[int, int], str] = {}
        self._next_tid: Dict[int, int] = {}
        self._open: Dict[Tuple[int, int], List[Tuple[str, float]]] = {}
        # The ``events`` cache: the events of the first ``_viewed`` rows.
        self._view: Tuple[TraceEvent, ...] = ()
        self._viewed = 0

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        state["_view"] = ()
        state["_viewed"] = 0
        return state

    # -- naming ------------------------------------------------------------

    def name_process(self, pid: int, name: str) -> None:
        """Give track ``pid`` a display name (e.g. ``"node 3"``)."""
        self.process_names[pid] = name

    def lane(self, pid: int, lane: str) -> int:
        """Intern lane name ``lane`` on track ``pid``; returns its ``tid``."""
        return self._intern(pid, lane).tid

    def _intern(self, pid: int, lane: str) -> _Lane:
        key = (pid, lane)
        state = self._lanes.get(key)
        if state is None:
            tid = self._next_tid.get(pid, 0)
            self._next_tid[pid] = tid + 1
            state = self._lanes[key] = _Lane(tid)
            self._lane_names[(pid, tid)] = lane
        return state

    def lane_name(self, pid: int, tid: int) -> str:
        """Display name of lane ``tid`` on track ``pid``."""
        return self._lane_names.get((pid, tid), f"lane {tid}")

    def lanes(self) -> Iterator[Tuple[int, int, str]]:
        """Every interned lane as ``(pid, tid, name)``, in interning order."""
        for (pid, tid), name in self._lane_names.items():
            yield pid, tid, name

    # -- recording ---------------------------------------------------------

    def _lane_at(self, pid: int, lane: str, ts: float) -> _Lane:
        """Intern ``lane`` if new; raise if ``ts`` runs its clock backwards."""
        state = self._intern(pid, lane)
        if ts < state.last:
            raise TraceError(
                f"event at ts={ts:.9f} before ts={state.last:.9f} on "
                f"pid={pid} lane={lane!r}"
            )
        return state

    def complete(
        self,
        pid: int,
        lane: str,
        name: str,
        ts: float,
        dur: float,
        *,
        category: Optional[str] = None,
        args: Optional[Mapping[str, Any]] = None,
    ) -> None:
        """Record a span of known duration ``dur`` starting at ``ts``."""
        if dur < 0:
            raise TraceError(f"negative span duration {dur!r} for {name!r}")
        state = self._lanes.get((pid, lane))
        if state is None or ts < state.last:
            state = self._lane_at(pid, lane, ts)
        state.last = ts
        self._rows.append(("X", name, category, ts, dur, pid, state.tid, args))

    def begin(
        self,
        pid: int,
        lane: str,
        name: str,
        ts: float,
        *,
        category: Optional[str] = None,
        args: Optional[Mapping[str, Any]] = None,
    ) -> None:
        """Open a nested span on ``(pid, lane)``; close with :meth:`end`."""
        state = self._lanes.get((pid, lane))
        if state is None or ts < state.last:
            state = self._lane_at(pid, lane, ts)
        state.last = ts
        self._open.setdefault((pid, state.tid), []).append((name, ts))
        self._rows.append(("B", name, category, ts, None, pid, state.tid, args))

    def end(
        self,
        pid: int,
        lane: str,
        ts: float,
        *,
        args: Optional[Mapping[str, Any]] = None,
    ) -> None:
        """Close the innermost open span on ``(pid, lane)``."""
        tid = self.lane(pid, lane)
        stack = self._open.get((pid, tid))
        if not stack:
            raise TraceError(
                f"end without begin on pid={pid} lane={lane!r} at ts={ts:.9f}"
            )
        name, _begin_ts = stack.pop()
        self._lane_at(pid, lane, ts).last = ts
        self._rows.append(("E", name, None, ts, None, pid, tid, args))

    def instant(
        self,
        pid: int,
        lane: str,
        name: str,
        ts: float,
        *,
        category: Optional[str] = None,
        args: Optional[Mapping[str, Any]] = None,
    ) -> None:
        """Record a zero-duration marker event."""
        state = self._lanes.get((pid, lane))
        if state is None or ts < state.last:
            state = self._lane_at(pid, lane, ts)
        state.last = ts
        self._rows.append(("i", name, category, ts, None, pid, state.tid, args))

    def counter(
        self,
        pid: int,
        track: str,
        ts: float,
        values: Mapping[str, float],
    ) -> None:
        """Record a counter sample: series name → value on track ``track``."""
        state = self._lanes.get((pid, track))
        if state is None or ts < state.last:
            state = self._lane_at(pid, track, ts)
        state.last = ts
        self._rows.append(
            ("C", track, None, ts, None, pid, state.tid, dict(values))
        )

    # -- flow events (causal edges) ----------------------------------------

    def _flow(
        self,
        phase: str,
        pid: int,
        lane: str,
        name: str,
        ts: float,
        flow_id: int,
        category: Optional[str],
    ) -> None:
        state = self._lanes.get((pid, lane))
        if state is None or ts < state.last:
            state = self._lane_at(pid, lane, ts)
        state.last = ts
        self._rows.append(
            (phase, name, category, ts, None, pid, state.tid, None, flow_id)
        )

    def flow_start(
        self,
        pid: int,
        lane: str,
        name: str,
        ts: float,
        flow_id: int,
        *,
        category: Optional[str] = "flow",
    ) -> None:
        """Open causal chain ``flow_id`` at ``(pid, lane, ts)``.

        Chrome flow events (``s``/``t``/``f``) draw arrows between the
        spans they land on, connecting one job's submit → render →
        composite → deliver chain across tracks.  Events sharing a
        ``(name, flow_id)`` pair form one chain.
        """
        self._flow("s", pid, lane, name, ts, flow_id, category)

    def flow_step(
        self,
        pid: int,
        lane: str,
        name: str,
        ts: float,
        flow_id: int,
        *,
        category: Optional[str] = "flow",
    ) -> None:
        """Add an intermediate hop to causal chain ``flow_id``."""
        self._flow("t", pid, lane, name, ts, flow_id, category)

    def flow_end(
        self,
        pid: int,
        lane: str,
        name: str,
        ts: float,
        flow_id: int,
        *,
        category: Optional[str] = "flow",
    ) -> None:
        """Terminate causal chain ``flow_id``."""
        self._flow("f", pid, lane, name, ts, flow_id, category)

    # -- row methods: one row per traced occurrence -------------------------

    def record_task(
        self,
        lanes: Tuple[LaneRef, LaneRef, LaneRef],
        now: float,
        hit: bool,
        chunk: Any,
        job_id: int,
        index: int,
        io_time: float,
        upload_time: float,
        render_time: float,
        flow: bool,
    ) -> None:
        """Record task ``index`` of job ``job_id`` starting on a pipeline.

        ``lanes`` are the pipeline's ``cache``, ``io`` and ``render``
        refs.  Reads back as a ``hit``/``miss`` instant at ``now``, a
        ``load`` span of ``io_time`` on a miss, a ``render`` span of
        ``upload_time + render_time`` from ``now + io_time``, and (with
        ``flow``) the job's flow step on that span.
        """
        cache, io, render = lanes
        dur = upload_time + render_time
        row = (
            _task_events, lanes, now, hit, chunk, job_id, index, io_time,
            upload_time, dur, flow,
        )
        c = cache.lane
        r = render.lane
        at = now + io_time
        if (
            c is None
            or now < c.last
            or r is None
            or at < r.last
            or dur < 0
        ):
            self._record_slow(row)
            return
        if not hit:
            i = io.lane
            if i is None or now < i.last or io_time < 0:
                self._record_slow(row)
                return
            i.last = now
        c.last = now
        r.last = at
        self._rows.append(row)
        self._extra += 1 + (not hit) + flow

    def record_submit(
        self,
        jobs: LaneRef,
        now: float,
        job_type: Any,
        job_id: int,
        user: Any,
        action: Any,
        flow: bool,
    ) -> None:
        """Record job ``job_id`` entering the queue, on lane ``jobs``.

        Reads back as a ``submit <type>`` instant and (with ``flow``)
        the start of the job's flow chain.
        """
        row = (_submit_events, jobs, now, job_type, job_id, user, action, flow)
        j = jobs.lane
        if j is None or now < j.last:
            self._record_slow(row)
            return
        j.last = now
        self._rows.append(row)
        self._extra += flow

    def record_completion(
        self,
        lane: LaneRef,
        jobs: LaneRef,
        now: float,
        composite: float,
        group: int,
        job_id: int,
        job_type: Any,
        arrival: float,
        flow: bool,
    ) -> None:
        """Record job ``job_id``'s last render finishing at ``now``.

        Reads back as the ``composite`` span on ``lane``, then the
        ``complete <type>`` instant on ``jobs``; with ``flow``, each is
        followed by its hop of the job's flow chain (step, end).
        """
        row = (
            _completion_events, lane, jobs, now, composite, group, job_id,
            job_type, arrival, flow,
        )
        c = lane.lane
        j = jobs.lane
        if c is None or now < c.last or composite < 0 or j is None or now < j.last:
            self._record_slow(row)
            return
        c.last = now
        j.last = now
        self._rows.append(row)
        self._extra += 1 + 2 * flow

    def _record_slow(self, row: tuple) -> None:
        """Record a row method's events one generic row at a time.

        Taken when one of the row's lanes is first used or a check
        fails: each event interns its lane, is checked and is stored in
        record order, as separate calls would, so a bad event raises
        with the earlier events of the row already recorded.
        """
        rows = self._rows
        for phase, ref, name, category, ts, dur, args, flow_id in row[0](row):
            if dur is not None and dur < 0:
                raise TraceError(f"negative span duration {dur!r} for {name!r}")
            state = ref.lane = self._lane_at(ref.pid, ref.name, ts)
            state.last = ts
            rows.append(
                (phase, name, category, ts, dur, ref.pid, state.tid, args, flow_id)
            )

    # -- inspection --------------------------------------------------------

    @property
    def events(self) -> Tuple[TraceEvent, ...]:
        """Every recorded event, in record order (read-only).

        Built from the rows on first read and cached; a later read
        expands only the rows recorded since.
        """
        rows = self._rows
        if self._viewed < len(rows):
            out: List[TraceEvent] = []
            add = out.append
            for row in islice(rows, self._viewed, None):
                head = row[0]
                if head.__class__ is str:
                    add(TraceEvent(*row))
                    continue
                for phase, ref, name, category, ts, dur, args, flow_id in head(row):
                    add(
                        TraceEvent(
                            phase, name, category, ts, dur, ref.pid,
                            ref.lane.tid, args, flow_id,
                        )
                    )
            self._view += tuple(out)
            self._viewed = len(rows)
        return self._view

    def __len__(self) -> int:
        return len(self._rows) + self._extra

    @property
    def span_count(self) -> int:
        """Number of recorded spans (complete + begin/end pairs opened)."""
        return sum(1 for e in self.events if e.phase in ("X", "B"))

    def counter_tracks(self) -> List[Tuple[int, str]]:
        """Distinct counter tracks recorded, as ``(pid, track-name)``."""
        seen: List[Tuple[int, str]] = []
        for e in self.events:
            if e.phase == "C":
                key = (e.pid, e.name)
                if key not in seen:
                    seen.append(key)
        return seen

    def open_spans(self) -> List[Tuple[int, int, str, float]]:
        """Begun-but-unclosed spans as ``(pid, tid, name, begin_ts)``."""
        out: List[Tuple[int, int, str, float]] = []
        for (pid, tid), stack in self._open.items():
            for name, ts in stack:
                out.append((pid, tid, name, ts))
        return out

    def events_for(self, pid: int, lane: Optional[str] = None) -> List[TraceEvent]:
        """Events on track ``pid`` (optionally restricted to one lane)."""
        if lane is None:
            return [e for e in self.events if e.pid == pid]
        state = self._lanes.get((pid, lane))
        if state is None:
            return []
        return [e for e in self.events if e.pid == pid and e.tid == state.tid]


class NullTracer:
    """A tracer that records nothing — the disabled-observability object.

    Exposes the same API as :class:`Tracer` so call sites holding a
    tracer unconditionally still work; the simulator's hot paths instead
    hold ``None`` and skip the call entirely, which is cheaper still.
    """

    enabled = False
    process_names: Dict[int, str] = {}

    def name_process(self, pid: int, name: str) -> None:
        """Does nothing (tracing disabled)."""

    def lane(self, pid: int, lane: str) -> int:
        """Does nothing; returns a dummy ``tid``."""
        return 0

    def lane_name(self, pid: int, tid: int) -> str:
        """Does nothing; returns a placeholder name."""
        return "null"

    def lanes(self) -> Iterator[Tuple[int, int, str]]:
        """Always empty."""
        return iter(())


    def complete(self, pid, lane, name, ts, dur, *, category=None, args=None) -> None:
        """Does nothing (tracing disabled)."""

    def begin(self, pid, lane, name, ts, *, category=None, args=None) -> None:
        """Does nothing (tracing disabled)."""

    def end(self, pid, lane, ts, *, args=None) -> None:
        """Does nothing (tracing disabled)."""

    def instant(self, pid, lane, name, ts, *, category=None, args=None) -> None:
        """Does nothing (tracing disabled)."""

    def counter(self, pid, track, ts, values) -> None:
        """Does nothing (tracing disabled)."""

    def flow_start(self, pid, lane, name, ts, flow_id, *, category="flow") -> None:
        """Does nothing (tracing disabled)."""

    def flow_step(self, pid, lane, name, ts, flow_id, *, category="flow") -> None:
        """Does nothing (tracing disabled)."""

    def flow_end(self, pid, lane, name, ts, flow_id, *, category="flow") -> None:
        """Does nothing (tracing disabled)."""

    def record_task(
        self, lanes, now, hit, chunk, job_id, index, io_time, upload_time,
        render_time, flow,
    ) -> None:
        """Does nothing (tracing disabled)."""

    def record_submit(self, jobs, now, job_type, job_id, user, action, flow) -> None:
        """Does nothing (tracing disabled)."""

    def record_completion(
        self, lane, jobs, now, composite, group, job_id, job_type, arrival, flow
    ) -> None:
        """Does nothing (tracing disabled)."""

    @property
    def events(self) -> Tuple[TraceEvent, ...]:
        """Always empty."""
        return ()

    def __len__(self) -> int:
        return 0

    @property
    def span_count(self) -> int:
        """Always 0."""
        return 0

    def counter_tracks(self) -> List[Tuple[int, str]]:
        """Always empty."""
        return []

    def open_spans(self) -> List[Tuple[int, int, str, float]]:
        """Always empty."""
        return []

    def events_for(self, pid: int, lane: Optional[str] = None) -> List[TraceEvent]:
        """Always empty."""
        return []


def active_tracer(tracer: Optional[object]) -> Optional[Tracer]:
    """Normalize a tracer argument for hot-path use.

    Returns the tracer itself when it is enabled, else ``None`` — so
    instrumentation sites can guard with a single ``is not None`` check
    whether the caller passed ``None``, a :class:`NullTracer`, or a real
    :class:`Tracer`.
    """
    if tracer is None or not getattr(tracer, "enabled", False):
        return None
    return tracer  # type: ignore[return-value]


__all__ = [
    "PID_HEAD",
    "CAT_IO",
    "CAT_RENDER",
    "CAT_COMPOSITE",
    "CAT_SCHED",
    "CAT_CACHE",
    "CAT_SERVICE",
    "CAT_COMM",
    "pid_for_node",
    "TraceError",
    "TraceEvent",
    "LaneRef",
    "Tracer",
    "NullTracer",
    "active_tracer",
]
