"""The arrival gate: its frame budget and its equivalence to the old gate.

:meth:`ServiceFrontend.submit_request` is the overload frontend's hot
path (on a storm most arrivals are refused or thinned).  Two checks:

* a frame budget, counted under ``sys.setprofile`` in a small
  over-subscribed Scenario 2 run: a refused or thinned arrival makes at
  most three Python calls below the entry point with audit on (the
  audit's ``record_shed`` included) and two with audit off, plus the
  session sweep once per session opened;
* a differential property: admission fused into one
  :meth:`AdmissionController.decide` frame, and the frame gate called
  only below full frame rate, decide exactly as the two-step gate did
  (``_Reference`` below keeps that gate verbatim).
"""

from __future__ import annotations

import sys
from types import SimpleNamespace
from typing import Dict, List, Set

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.event_queue import EventQueue
from repro.core.job import JobType
from repro.frontend.admission import (
    AdmissionController,
    AdmissionRecord,
    Decision,
    TokenBucket,
)
from repro.frontend.config import (
    AdmissionConfig,
    DegradeConfig,
    FrontendConfig,
    QualityLevel,
)
from repro.frontend.degradation import DegradationController
from repro.frontend.frontend import ServiceFrontend
from repro.sim.run_config import RunConfig
from repro.sim.simulator import run_simulation
from repro.workload.scenarios import make_scenario
from repro.workload.trace import Request

# ---------------------------------------------------------------------------
# Frame budget
# ---------------------------------------------------------------------------


def _arrival_calls(*, audit: bool) -> List[List[str]]:
    """Per arrival, the names of the Python calls below ``submit_request``.

    Scenario 2 at 2.5x load behind ``FrontendConfig.protective``: the
    session cap refuses, the quality ladder thins, the queue sheds.
    """
    scenario = make_scenario(2, scale=0.05, load=2.5)
    config = RunConfig(
        frontend=FrontendConfig.protective(max_sessions=8, queue_limit=32),
        audit=audit,
    )
    entry = ServiceFrontend.submit_request.__code__
    arrivals: List[List[str]] = []
    depth = 0

    def profiler(frame, event, arg):
        nonlocal depth
        if depth:
            if event == "call":
                depth += 1
                arrivals[-1].append(frame.f_code.co_name)
            elif event == "return":
                depth -= 1
        elif event == "call" and frame.f_code is entry:
            depth = 1
            arrivals.append([])

    sys.setprofile(profiler)
    try:
        result = run_simulation(scenario, "OURS", config)
    finally:
        sys.setprofile(None)
    assert len(arrivals) == result.frontend.requests_seen
    return arrivals


def _gate_frames(calls: List[str]) -> int:
    """Calls an arrival makes, less the one session sweep.

    :meth:`AdmissionController.active_sessions` forgets expired sessions
    once per session the gate opens (an action it has not seen, with a
    cap set): a session's first frame, admitted and then thinned, pays
    it on top of the gate's own frames.
    """
    assert calls.count("active_sessions") <= 1
    return len(calls) - calls.count("active_sessions")


class TestFrameBudget:
    """A refused or thinned arrival costs at most one gate's frames."""

    def test_audited_shed_arrival_makes_at_most_three_calls(self):
        arrivals = _arrival_calls(audit=True)
        refused = [c for c in arrivals if "record_shed" in c and "keep_frame" not in c]
        thinned = [c for c in arrivals if "record_shed" in c and "keep_frame" in c]
        assert refused and thinned  # the run exercises both refusals
        assert max(map(len, refused)) <= 3
        assert max(map(_gate_frames, thinned)) <= 3
        # The calls are the gate's own: the decision, the frame gate
        # while degraded, the session sweep and the audit record.
        assert {name for c in refused + thinned for name in c} == {
            "decide",
            "active_sessions",
            "keep_frame",
            "record_shed",
        }

    def test_unaudited_shed_arrival_makes_at_most_two_calls(self):
        # With a bounded queue, every arrival that passes both gates is
        # offered to it; the others were refused or thinned.
        shed = [c for c in _arrival_calls(audit=False) if "offer" not in c]
        assert shed and any("keep_frame" in c for c in shed)
        assert max(map(_gate_frames, shed)) <= 2


# ---------------------------------------------------------------------------
# Differential property: the fused gate against the two-step gate
# ---------------------------------------------------------------------------


class _Reference:
    """The admission and frame gates as they were before the fusion.

    ``_classify``, ``decide`` and ``keep_frame`` are kept verbatim (the
    degradation controller's rung is ``level_index`` here), and
    :meth:`submit` is the gate part of the old ``submit_request``.
    """

    MAX_RECORDS = AdmissionController.MAX_RECORDS

    def __init__(self, config: AdmissionConfig, degrade: DegradeConfig) -> None:
        self.config = config
        self.ladder = degrade.ladder
        self.level_index = 0
        self.frames_dropped = 0
        self._buckets: Dict[int, TokenBucket] = {}
        self._session_last_seen: Dict[int, float] = {}
        self._rejected_actions: Set[int] = set()
        self.admitted = 0
        self.rejected_rate = 0
        self.rejected_sessions = 0
        self.records: List[AdmissionRecord] = []
        self.shed: List[tuple] = []
        self.forwarded: List[Request] = []

    def active_sessions(self, now: float) -> int:
        ttl = self.config.session_ttl
        stale = [
            action
            for action, last in self._session_last_seen.items()
            if now - last > ttl
        ]
        for action in stale:
            del self._session_last_seen[action]
        return len(self._session_last_seen)

    def decide(self, request: Request, now: float) -> Decision:
        decision = self._classify(request, now)
        if decision is Decision.ADMIT:
            self.admitted += 1
            return decision
        if decision is Decision.REJECT_RATE:
            self.rejected_rate += 1
        else:
            self.rejected_sessions += 1
        if len(self.records) < self.MAX_RECORDS:
            self.records.append(
                AdmissionRecord(now, request.user, request.action, decision)
            )
        return decision

    def _classify(self, request: Request, now: float) -> Decision:
        cfg = self.config
        interactive = request.job_type is JobType.INTERACTIVE
        if interactive:
            if request.action in self._rejected_actions:
                return Decision.REJECT_SESSIONS
            if (
                request.action not in self._session_last_seen
                and cfg.max_sessions is not None
                and self.active_sessions(now) >= cfg.max_sessions
            ):
                self._rejected_actions.add(request.action)
                return Decision.REJECT_SESSIONS
        if cfg.rate is not None:
            bucket = self._buckets.get(request.user)
            if bucket is None:
                bucket = TokenBucket(cfg.rate, cfg.bucket_capacity, now)
                self._buckets[request.user] = bucket
            if not bucket.try_take(now):
                return Decision.REJECT_RATE
        if interactive:
            self._session_last_seen[request.action] = now
        return Decision.ADMIT

    def keep_frame(self, sequence: int) -> bool:
        f = self.ladder[self.level_index].fps_factor
        if f >= 1.0:
            return True
        keep = int((sequence + 1) * f) > int(sequence * f)
        if not keep:
            self.frames_dropped += 1
        return keep

    def submit(self, request: Request, now: float) -> Decision:
        decision = self.decide(request, now)
        if decision is not Decision.ADMIT or (
            request.job_type is JobType.INTERACTIVE
            and not self.keep_frame(request.sequence)
        ):
            self.shed.append((now, request))
        else:
            self.forwarded.append(request)
        return decision


class _Audit:
    """The one audit method the gate calls."""

    def __init__(self) -> None:
        self.shed: List[tuple] = []

    def record_shed(self, now: float, request: Request) -> None:
        self.shed.append((now, request))


class _Service:
    """Clock plus a forward sink: all the gate reaches of a service."""

    def __init__(self) -> None:
        self.cluster = SimpleNamespace(events=EventQueue())
        self.submitted: List[object] = []

    def build_job(self, request, dataset, arrival):
        return SimpleNamespace(request=request, chunk_fraction=1.0)

    def submit(self, job) -> None:
        self.submitted.append(job.request)


def _request(time: float, interactive: bool, user: int, action: int, seq: int):
    job_type = JobType.INTERACTIVE if interactive else JobType.BATCH
    return Request(time, job_type, "ds", user, action, seq)


_LADDERS = st.sampled_from(
    [
        (
            QualityLevel("full"),
            QualityLevel("half", 0.5),
            QualityLevel("third", 1 / 3, 0.5),
            QualityLevel("full-rate/low-res", 1.0, 0.25),
        ),
        (QualityLevel("three-quarter", 0.75), QualityLevel("fifth", 0.2)),
    ]
)

#: One step of a stream: an arrival or a ladder move.
_ARRIVAL = st.tuples(
    st.just("arrive"),
    st.sampled_from([0.0, 0.0, 0.05, 0.3, 1.5]),  # time step
    st.booleans(),  # interactive
    st.integers(0, 3),  # user
    st.one_of(st.integers(0, 5), st.just(-1)),  # action; -1: a fresh one
    st.integers(0, 12),  # sequence
)
_MOVE = st.tuples(st.just("move"), st.sampled_from([-1, 1]))


@given(
    rate=st.sampled_from([None, 0.5, 4.0, 20.0]),
    burst=st.sampled_from([None, 1.0, 3.0]),
    max_sessions=st.sampled_from([None, 1, 2, 3]),
    session_ttl=st.sampled_from([0.1, 0.5, 2.0]),
    ladder=_LADDERS,
    max_records=st.sampled_from([2, 1024]),
    steps=st.lists(st.one_of(_ARRIVAL, _ARRIVAL, _ARRIVAL, _MOVE), max_size=60),
)
@settings(max_examples=300, deadline=None)
def test_fused_gate_decides_like_the_two_step_gate(
    rate, burst, max_sessions, session_ttl, ladder, max_records, steps
):
    admission = AdmissionConfig(
        rate=rate,
        burst=burst if rate is not None else None,
        max_sessions=max_sessions,
        session_ttl=session_ttl,
    )
    degrade = DegradeConfig(ladder=ladder)
    service = _Service()
    audit = _Audit()
    frontend = ServiceFrontend(
        FrontendConfig(admission=admission, degrade=degrade),
        service,
        target_framerate=10.0,
        audit=audit,
    )
    gate, ctrl = frontend.admission, frontend.degradation
    gate.MAX_RECORDS = max_records
    model = _Reference(admission, degrade)
    model.MAX_RECORDS = max_records
    decisions, expected = [], []
    decide = gate.decide

    def logged_decide(request, now):
        decisions.append(decide(request, now))
        return decisions[-1]

    gate.decide = logged_decide
    events = service.cluster.events
    now = 0.0
    fresh = 100
    for step in steps:
        if step[0] == "move":
            ctrl._move(step[1], now, "test", 0.0)
            model.level_index = ctrl.level_index
            continue
        _, dt, interactive, user, action, seq = step
        now += dt
        if action < 0:
            action, fresh = fresh, fresh + 1
        request = _request(now, interactive, user, action, seq)
        events._now = now
        frontend.submit_request(request, None)
        expected.append(model.submit(request, now))
    assert decisions == expected
    assert gate.summary() == (
        model.admitted,
        model.rejected_rate,
        model.rejected_sessions,
    )
    assert gate.records == model.records
    assert gate._rejected_actions == model._rejected_actions
    assert ctrl.frames_dropped == model.frames_dropped
    assert audit.shed == model.shed
    assert service.submitted == model.forwarded


@pytest.mark.parametrize("index", [0, 1, 2, 3])
def test_fps_factor_follows_the_rung(index):
    """``fps_factor`` is the active rung's, however the rung was set."""
    config = DegradeConfig()
    ctrl = DegradationController(config, 10.0)
    ctrl.level_index = index
    assert ctrl.fps_factor == config.ladder[index].fps_factor == ctrl.level.fps_factor
