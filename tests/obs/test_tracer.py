"""Tests for the virtual-time tracer: spans, nesting, ordering, counters."""

import inspect
import sys

import pytest

from repro.obs import tracer as tracer_module
from repro.obs.tracer import (
    PID_HEAD,
    LaneRef,
    NullTracer,
    TraceError,
    Tracer,
    active_tracer,
    pid_for_node,
)
from repro.sim.run_config import RunConfig
from repro.sim.simulator import run_simulation
from repro.workload.scenarios import scenario_1


class TestLanes:
    def test_lane_interning_is_stable(self):
        tr = Tracer()
        a = tr.lane(0, "render")
        b = tr.lane(0, "io")
        assert a != b
        assert tr.lane(0, "render") == a
        assert tr.lane_name(0, a) == "render"

    def test_lanes_are_per_track(self):
        tr = Tracer()
        assert tr.lane(0, "render") == tr.lane(1, "render") == 0
        assert tr.lane(0, "io") == 1

    def test_pid_for_node(self):
        assert pid_for_node(0) == PID_HEAD + 1
        assert pid_for_node(7) == PID_HEAD + 8


class TestSpans:
    def test_complete_span_recorded(self):
        tr = Tracer()
        tr.complete(1, "io", "load c0", 2.0, 0.5, category="io", args={"bytes": 4})
        (e,) = tr.events
        assert (e.phase, e.name, e.ts, e.dur) == ("X", "load c0", 2.0, 0.5)
        assert e.args == {"bytes": 4}
        assert tr.span_count == 1

    def test_negative_duration_rejected(self):
        tr = Tracer()
        with pytest.raises(TraceError):
            tr.complete(0, "x", "bad", 1.0, -0.1)

    def test_nesting_in_virtual_time(self):
        tr = Tracer()
        tr.begin(0, "sched", "outer", 1.0)
        tr.begin(0, "sched", "inner", 1.2)
        tr.end(0, "sched", 1.5)
        tr.end(0, "sched", 2.0)
        phases = [(e.phase, e.name, e.ts) for e in tr.events]
        assert phases == [
            ("B", "outer", 1.0),
            ("B", "inner", 1.2),
            ("E", "inner", 1.5),
            ("E", "outer", 2.0),
        ]
        assert tr.open_spans() == []

    def test_unclosed_spans_reported(self):
        tr = Tracer()
        tr.begin(0, "sched", "outer", 1.0)
        assert tr.open_spans() == [(0, tr.lane(0, "sched"), "outer", 1.0)]

    def test_end_without_begin_raises(self):
        tr = Tracer()
        with pytest.raises(TraceError):
            tr.end(0, "sched", 1.0)

    def test_time_running_backwards_raises(self):
        tr = Tracer()
        tr.instant(0, "jobs", "a", 5.0)
        with pytest.raises(TraceError):
            tr.instant(0, "jobs", "b", 4.0)

    def test_equal_timestamps_allowed(self):
        tr = Tracer()
        tr.instant(0, "jobs", "a", 5.0)
        tr.instant(0, "jobs", "b", 5.0)
        assert len(tr) == 2

    def test_lanes_are_independent_clocks(self):
        tr = Tracer()
        tr.instant(0, "a", "x", 5.0)
        tr.instant(0, "b", "y", 1.0)  # different lane: fine
        tr.instant(1, "a", "z", 0.5)  # different track: fine
        assert len(tr) == 3


class TestCounters:
    def test_counter_tracks_collected(self):
        tr = Tracer()
        tr.counter(0, "queue", 0.0, {"jobs": 1.0})
        tr.counter(0, "queue", 1.0, {"jobs": 2.0})
        tr.counter(2, "cache", 0.5, {"used": 7.0})
        assert tr.counter_tracks() == [(0, "queue"), (2, "cache")]

    def test_counter_values_are_copied(self):
        tr = Tracer()
        values = {"jobs": 1.0}
        tr.counter(0, "queue", 0.0, values)
        values["jobs"] = 99.0
        assert tr.events[0].args == {"jobs": 1.0}


class TestEventsFor:
    def test_filter_by_track_and_lane(self):
        tr = Tracer()
        tr.instant(0, "jobs", "a", 0.0)
        tr.instant(1, "render", "b", 0.0)
        tr.instant(1, "io", "c", 0.0)
        assert [e.name for e in tr.events_for(1)] == ["b", "c"]
        assert [e.name for e in tr.events_for(1, "io")] == ["c"]
        assert tr.events_for(1, "unknown-lane") == []


class TestFlows:
    def test_flow_chain_recorded_with_ids(self):
        tr = Tracer()
        tr.flow_start(0, "jobs", "job 7", 0.0, 7)
        tr.flow_step(1, "render", "job 7", 0.5, 7)
        tr.flow_end(0, "jobs", "job 7", 1.0, 7)
        rows = [(e.phase, e.pid, e.flow_id) for e in tr.events]
        assert rows == [("s", 0, 7), ("t", 1, 7), ("f", 0, 7)]
        assert all(e.category == "flow" for e in tr.events)

    def test_flows_respect_lane_monotonicity(self):
        tr = Tracer()
        tr.instant(0, "jobs", "a", 5.0)
        with pytest.raises(TraceError):
            tr.flow_start(0, "jobs", "job 1", 4.0, 1)

    def test_flows_are_not_spans(self):
        tr = Tracer()
        tr.flow_start(0, "jobs", "job 1", 0.0, 1)
        tr.flow_end(0, "jobs", "job 1", 1.0, 1)
        assert tr.span_count == 0
        assert len(tr) == 2

    def test_non_flow_events_have_no_flow_id(self):
        tr = Tracer()
        tr.instant(0, "jobs", "a", 0.0)
        assert tr.events[0].flow_id is None


def _param_shape(func):
    """Signature shape without annotations: (name, kind, default)."""
    return [
        (p.name, p.kind, p.default)
        for p in inspect.signature(func).parameters.values()
    ]


class TestNullTracer:
    def test_protocol_conformance_with_tracer(self):
        """NullTracer must mirror Tracer's full public API.

        Compared by parameter shape rather than raw signature equality:
        Tracer carries type annotations the no-op stubs drop, but names,
        kinds, and defaults must match so either object is drop-in at
        every call site.
        """
        public = [
            name
            for name, member in vars(Tracer).items()
            if not name.startswith("_") and inspect.isfunction(member)
        ]
        assert "flow_start" in public  # sanity: the reflection is live
        for name in public:
            null_member = inspect.getattr_static(NullTracer, name, None)
            assert null_member is not None, f"NullTracer missing {name}"
            assert _param_shape(getattr(Tracer, name)) == _param_shape(
                getattr(NullTracer, name)
            ), name
        tracer_props = {
            name
            for name, member in vars(Tracer).items()
            if isinstance(member, property)
        }
        null_props = {
            name
            for name, member in vars(NullTracer).items()
            if isinstance(member, property)
        }
        assert tracer_props <= null_props

    def test_disabled_and_empty(self):
        null = NullTracer()
        assert null.enabled is False
        null.complete(0, "io", "x", 0.0, 1.0)
        null.begin(0, "io", "x", 0.0)
        null.end(0, "io", 1.0)
        null.instant(0, "io", "x", 0.0)
        null.counter(0, "c", 0.0, {"v": 1.0})
        null.name_process(0, "head")
        null.flow_start(0, "jobs", "x", 0.0, 1)
        null.flow_step(0, "jobs", "x", 0.5, 1)
        null.flow_end(0, "jobs", "x", 1.0, 1)
        assert len(null) == 0
        assert null.span_count == 0
        assert null.counter_tracks() == []
        assert null.open_spans() == []
        assert null.events_for(0) == []

    def test_every_public_method_exists_on_null_tracer(self):
        public = {
            name
            for name in dir(Tracer)
            if not name.startswith("_") and callable(getattr(Tracer, name))
        }
        assert {"lanes", "record_task", "record_submit", "record_completion"} <= public
        missing = sorted(n for n in public if not hasattr(NullTracer, n))
        assert missing == []

    def test_row_methods_record_nothing(self):
        null = NullTracer()
        lanes = tuple(LaneRef(1, name) for name in ("cache", "io", "render"))
        null.record_task(lanes, 0.0, False, None, 1, 0, 0.1, 0.0, 0.2, True)
        null.record_submit(LaneRef(0, "jobs"), 0.0, None, 1, 0, 0, True)
        null.record_completion(lanes[2], lanes[0], 1.0, 0.1, 2, 1, None, 0.0, True)
        assert len(null) == 0
        assert null.events == ()
        assert list(null.lanes()) == []

    def test_active_tracer_normalization(self):
        tr = Tracer()
        assert active_tracer(None) is None
        assert active_tracer(NullTracer()) is None
        assert active_tracer(tr) is tr


class TestLaneAccessor:
    def test_lanes_yield_pid_tid_name_in_interning_order(self):
        tr = Tracer()
        tr.instant(1, "cache", "hit", 0.0)
        tr.complete(0, "scheduler", "schedule[OURS]", 0.0, 0.1)
        tr.complete(1, "render", "render c0", 0.0, 0.1)
        assert list(tr.lanes()) == [(1, 0, "cache"), (0, 0, "scheduler"), (1, 1, "render")]

    def test_lane_refs_keep_first_use_order(self):
        tr = Tracer()
        lanes = _task_lanes()
        tr.instant(1, "render", "warm-up", 0.0)
        tr.record_task(lanes, 1.0, False, _chunk(), 1, 0, 0.5, 0.0, 1.0, False)
        assert list(tr.lanes()) == [(1, 0, "render"), (1, 1, "cache"), (1, 2, "io")]


class _Kind:
    value = "interactive"


def _chunk():
    from repro.core.chunks import Chunk

    return Chunk("ds", 3, 64)


def _task_lanes():
    return (LaneRef(1, "cache"), LaneRef(1, "io"), LaneRef(1, "render"))


def _fields(tracer):
    return [
        (e.phase, e.name, e.category, e.ts, e.dur, e.pid, e.tid, e.args, e.flow_id)
        for e in tracer.events
    ]


class TestRowMethods:
    """A row method's row reads back as the events separate calls make."""

    def test_task_row_expands_like_separate_calls(self):
        for hit in (False, True):
            rows = Tracer()
            lanes = _task_lanes()
            for now in (1.0, 2.0):  # the first row resolves the lanes
                rows.record_task(lanes, now, hit, _chunk(), 7, 3, 0.25, 0.5, 1.0, True)
            calls = Tracer()
            for now in (1.0, 2.0):
                key = ("ds", 3)
                calls.instant(1, "cache", "hit" if hit else "miss", now,
                              category="cache", args={"chunk": key, "job": 7})
                if not hit:
                    calls.complete(1, "io", f"load {key}", now, 0.25,
                                   category="io", args={"bytes": 64, "job": 7})
                calls.complete(1, "render", f"render {key}", now + 0.25, 1.5,
                               category="render",
                               args={"job": 7, "task": 3, "hit": hit, "upload_s": 0.5})
                calls.flow_step(1, "render", "job 7", now + 0.25, 7)
            assert _fields(rows) == _fields(calls)
            assert len(rows) == len(calls) == len(rows.events)
            assert list(rows.lanes()) == list(calls.lanes())

    def test_job_rows_expand_like_separate_calls(self):
        rows = Tracer()
        jobs = LaneRef(PID_HEAD, "jobs")
        comp = LaneRef(pid_for_node(2), "composite")
        for job_id, now in ((1, 0.5), (2, 0.75)):
            rows.record_submit(jobs, now, _Kind, job_id, 4, 9, True)
        for job_id, now in ((1, 0.5), (2, 0.75)):
            rows.record_completion(comp, jobs, now + 1, 0.125, 3, job_id, _Kind, now, True)
        calls = Tracer()
        for job_id, now in ((1, 0.5), (2, 0.75)):
            calls.instant(PID_HEAD, "jobs", "submit interactive", now, category="service",
                          args={"job": job_id, "user": 4, "action": 9})
            calls.flow_start(PID_HEAD, "jobs", f"job {job_id}", now, job_id)
        for job_id, now in ((1, 0.5), (2, 0.75)):
            calls.complete(pid_for_node(2), "composite", f"composite job {job_id}",
                           now + 1, 0.125, category="composite",
                           args={"job": job_id, "group": 3})
            calls.flow_step(pid_for_node(2), "composite", f"job {job_id}", now + 1, job_id)
            calls.instant(PID_HEAD, "jobs", "complete interactive", now + 1,
                          category="service",
                          args={"job": job_id, "latency": (now + 1 + 0.125) - now})
            calls.flow_end(PID_HEAD, "jobs", f"job {job_id}", now + 1, job_id)
        assert _fields(rows) == _fields(calls)
        assert len(rows) == len(calls)

    def test_events_are_read_only_and_cached_until_next_record(self):
        tr = Tracer()
        tr.instant(0, "jobs", "a", 0.0)
        first = tr.events
        assert tr.events is first
        assert not hasattr(first, "append")
        tr.instant(0, "jobs", "b", 1.0)
        assert [e.name for e in tr.events] == ["a", "b"]
        assert tr.events[0] is first[0]

    def test_backwards_row_raises_with_the_call_message(self):
        tr = Tracer()
        lanes = _task_lanes()
        tr.record_task(lanes, 2.0, True, _chunk(), 1, 0, 0.0, 0.0, 1.0, False)
        with pytest.raises(TraceError) as rows_error:
            tr.record_task(lanes, 1.0, True, _chunk(), 1, 1, 0.0, 0.0, 1.0, False)
        calls = Tracer()
        calls.instant(1, "cache", "hit", 2.0)
        with pytest.raises(TraceError) as calls_error:
            calls.instant(1, "cache", "hit", 1.0)
        assert str(rows_error.value) == str(calls_error.value)
        assert len(tr) == 2  # the failed row recorded nothing

    def test_negative_render_duration_raises_at_record_time(self):
        tr = Tracer()
        lanes = _task_lanes()
        tr.record_task(lanes, 0.0, True, _chunk(), 1, 0, 0.0, 0.0, 1.0, False)
        with pytest.raises(TraceError, match="negative span duration -1.0 for \"render"):
            tr.record_task(lanes, 1.0, True, _chunk(), 1, 1, 0.0, 0.0, -1.0, False)

    def test_negative_composite_raises_at_record_time(self):
        tr = Tracer()
        jobs = LaneRef(PID_HEAD, "jobs")
        comp = LaneRef(1, "composite")
        with pytest.raises(TraceError, match="negative span duration"):
            tr.record_completion(comp, jobs, 1.0, -0.5, 1, 1, _Kind, 0.0, False)


def test_traced_run_costs_at_most_one_and_a_half_tracer_calls_per_event():
    """Counted, not timed: Python calls into ``obs/tracer.py`` per event.

    The hot occurrences record one row each and expand on read, so a
    traced run pays well under one tracer frame per recorded event.
    """
    namespace = vars(tracer_module)
    calls = 0

    def profiler(frame, event, arg):
        nonlocal calls
        if event == "call" and frame.f_globals is namespace:
            calls += 1

    tracer = Tracer()
    sys.setprofile(profiler)
    try:
        run_simulation(scenario_1(scale=0.05), "OURS", config=RunConfig(tracer=tracer))
    finally:
        sys.setprofile(None)
    assert len(tracer) > 0
    assert calls <= 1.5 * len(tracer), (calls, len(tracer))
