"""Outside-in per-layer tracing: wrap layer entry points, time self time.

The benchmark attributes a run's host time to the simulator's layers
without touching the program: before ``run_simulation`` builds its
objects, :meth:`LayerTrace.install` replaces each listed entry point
(a function in a class or module ``__dict__``) with a timing wrapper,
and :meth:`LayerTrace.restore` puts every original back by identity.
Installing first matters: objects built afterwards pre-bind the
wrappers (``ctx._tables_record``, event callbacks), so every call into a
layer passes through one.

A span opens around each wrapped call on one stack.  A span's *self*
time is its duration minus the durations of the wrapped calls nested in
it, so self times over all spans add up exactly to the durations of the
outermost spans (``run_simulation`` and ``SimulationResult.summary``).
Aggregates (calls, self ns per entry point) are kept on the fly; the
first :data:`SPAN_CAP` spans are also kept in memory with name, layer,
start, end, parent and request id, and can be written out as a Chrome
trace when the run is over.

Layers are named after the modules that hold the entry points.
"""

from __future__ import annotations

import importlib
import itertools
import json
import time
import types
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.core.job import RenderJob, RenderTask
from repro.workload.trace import Request

#: Spans kept in memory (and written to the Chrome trace) per run.
SPAN_CAP = 200_000

#: Layer order used in every table.
LAYERS: Tuple[str, ...] = (
    "simulator",
    "event_queue",
    "service",
    "scheduler",
    "tables",
    "node",
    "collectors",
    "analysis",
    "frontend",
    "faults",
    "obs",
)

#: ``(layer, module, owner, attributes)``: the wrapped entry points.
#: ``owner`` is a class in ``module`` or ``None`` for module functions.
#: The scheduling policy's own ``schedule``/``reschedule`` are added per
#: run by :meth:`LayerTrace.install`, since the policy class varies.
ENTRY_POINTS: Tuple[Tuple[str, str, Optional[str], Tuple[str, ...]], ...] = (
    ("simulator", "repro.sim.simulator", None, ("run_simulation",)),
    (
        "event_queue",
        "repro.cluster.event_queue",
        "EventQueue",
        ("run", "step", "schedule", "schedule_after", "schedule_many"),
    ),
    (
        "service",
        "repro.sim.service",
        "VisualizationService",
        (
            "submit_request",
            "submit",
            "_on_cycle",
            "_on_window_timeout",
            "_on_task_finish",
            "prewarm",
            "requeue_tasks",
        ),
    ),
    (
        "scheduler",
        "repro.core.scheduler_base",
        "SchedulerContext",
        ("assign", "assign_all", "take_assignments"),
    ),
    (
        "tables",
        "repro.core.tables",
        "SchedulerTables",
        (
            "record_assignment",
            "correct_completion",
            "estimate",
            "io_estimate",
            "exec_estimate",
            "min_available_node",
            "predicted_available",
            "warm",
            "drop_cached",
        ),
    ),
    (
        "tables",
        "repro.core.tables",
        "ReplicaBucketIndex",
        ("add", "discard", "peek", "begin_pass", "count_changed"),
    ),
    ("node", "repro.cluster.cluster", "Cluster", ("dispatch",)),
    (
        "node",
        "repro.cluster.node",
        "RenderNode",
        ("enqueue", "_finish", "_attempt_load", "fail", "revive"),
    ),
    ("node", "repro.cluster.memory", "LRUChunkCache", ("insert", "evict")),
    ("node", "repro.cluster.storage", "StorageModel", ("begin_load", "end_load")),
    (
        "collectors",
        "repro.reporting.collectors",
        "SimulationCollector",
        ("on_submit", "on_job_complete"),
    ),
    ("collectors", "repro.reporting.collectors", "SchedulingCostStats", ("record",)),
    ("analysis", "repro.sim.simulator", "SimulationResult", ("summary",)),
    (
        "frontend",
        "repro.frontend.frontend",
        "ServiceFrontend",
        ("submit_request", "_forward", "_on_completion"),
    ),
    ("frontend", "repro.frontend.admission", "AdmissionController", ("decide",)),
    ("frontend", "repro.frontend.backpressure", "BoundedQueue", ("offer", "drain")),
    ("frontend", "repro.frontend.degradation", "DegradationController", ("_tick",)),
    (
        "faults",
        "repro.faults.injector",
        "FaultRuntime",
        (
            "_inject_crash",
            "_absorb_dead_placement",
            "_heartbeat",
            "_revive",
            "_inject_straggler",
            "_clear_straggler",
            "_inject_wipe",
            "_inject_storage",
            "_restore_storage",
            "_on_task_finish",
        ),
    ),
    ("faults", "repro.faults.detect", "HealthMonitor", ("beat", "observe_task")),
    (
        "faults",
        "repro.faults.recovery",
        "RecoveryEngine",
        ("requeue_crash", "quarantine", "speculative", "rewarm", "_finish_rewarm"),
    ),
    (
        "obs",
        "repro.obs.tracer",
        "Tracer",
        ("complete", "instant", "counter", "flow_start", "flow_step", "flow_end"),
    ),
    ("obs", "repro.obs.audit", "AuditLog", ("record_assignment",)),
    ("obs", "repro.obs.causal", "CausalCollector", ("note_assign", "analysis")),
    ("obs", "repro.obs.metrics", "MetricsSampler", ("_tick",)),
    ("obs", "repro.obs.counters", "CounterSampler", ("_tick",)),
    ("obs", "repro.obs.stream", "TelemetryStream", ("_tick",)),
)


def _defining_class(cls: type, attr: str) -> type:
    """The class in ``cls``'s MRO whose ``__dict__`` holds ``attr``."""
    for klass in cls.__mro__:
        if attr in klass.__dict__:
            return klass
    raise AttributeError(f"{cls.__name__} has no attribute {attr!r}")


def _request_id(args: tuple) -> Optional[Tuple[int, int, int]]:
    """``(user, action, sequence)`` of the first request-carrying arg."""
    for arg in args:
        kind = type(arg)
        if kind is RenderTask:
            job = arg.job
            return (job.user, job.action, job.sequence)
        if kind is RenderJob or kind is Request:
            return (arg.user, arg.action, arg.sequence)
    return None


class LayerTrace:
    """Wraps layer entry points and aggregates per-layer self time."""

    def __init__(self, span_cap: int = SPAN_CAP) -> None:
        #: Per entry point: (layer, qualified name).
        self.entries: List[Tuple[str, str]] = []
        self.calls: List[int] = []
        self.self_ns: List[int] = []
        #: Inclusive ns of every call of the policy's ``schedule``.
        self.schedule_ns: List[int] = []
        #: ``(span id, entry, start ns, end ns, parent span id, request)``.
        self.spans: List[tuple] = []
        self.span_cap = span_cap
        self.origin_ns = time.perf_counter_ns()
        self._stack: List[list] = []
        self._ids = itertools.count()
        #: ``(owner, attr, original)`` for every installed wrapper.
        self._patched: List[Tuple[object, str, object]] = []

    # -- wrapping ----------------------------------------------------------

    def wrap(self, fn, layer: str, name: str, samples: Optional[List[int]] = None):
        """A timing wrapper around ``fn`` counted under ``layer``.

        When ``samples`` is given, every call's inclusive ns is appended.
        """
        idx = len(self.entries)
        self.entries.append((layer, name))
        self.calls.append(0)
        self.self_ns.append(0)
        calls = self.calls
        self_ns = self.self_ns
        stack = self._stack
        spans = self.spans
        cap = self.span_cap
        ids = self._ids
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            sid = next(ids)
            frame = [0, sid]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                calls[idx] += 1
                self_ns[idx] += dur - frame[0]
                if stack:
                    parent = stack[-1]
                    parent[0] += dur
                    parent_id = parent[1]
                else:
                    parent_id = -1
                if samples is not None:
                    samples.append(dur)
                if sid < cap:
                    spans.append((sid, idx, t0, t1, parent_id, _request_id(args)))

        return wrapper

    def _patch(self, owner, attr: str, layer: str, samples=None) -> None:
        name = f"{owner.__name__}.{attr}"
        original = owner.__dict__[attr]
        if not isinstance(original, types.FunctionType):
            raise TypeError(f"{name} is not a plain function")
        setattr(owner, attr, self.wrap(original, layer, name, samples))
        self._patched.append((owner, attr, original))

    def install(self, policy_cls: type) -> None:
        """Wrap every entry point, plus ``policy_cls``'s schedule paths.

        The policy's methods are wrapped where its MRO defines them
        (``reschedule`` usually lives on the ``Scheduler`` base).
        """
        for layer, module_name, owner_name, attrs in ENTRY_POINTS:
            module = importlib.import_module(module_name)
            owner = module if owner_name is None else getattr(module, owner_name)
            for attr in attrs:
                self._patch(owner, attr, layer)
        self._patch(
            _defining_class(policy_cls, "schedule"),
            "schedule",
            "scheduler",
            self.schedule_ns,
        )
        self._patch(
            _defining_class(policy_cls, "reschedule"), "reschedule", "scheduler"
        )

    def restore(self) -> None:
        """Put every original back (reverse order, by identity)."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    @property
    def installed(self) -> List[Tuple[object, str, object]]:
        """The live ``(owner, attr, original)`` patches."""
        return list(self._patched)

    # -- results -----------------------------------------------------------

    def entry_calls(self, name: str) -> int:
        """Calls made to the entry point ``Owner.attr``."""
        return sum(c for (_, n), c in zip(self.entries, self.calls) if n == name)

    def layer_table(self) -> Dict[str, Dict[str, int]]:
        """``{layer: {"calls": n, "self_ns": ns}}`` for every layer."""
        table = {layer: {"calls": 0, "self_ns": 0} for layer in LAYERS}
        for (layer, _), calls, self_ns in zip(self.entries, self.calls, self.self_ns):
            table[layer]["calls"] += calls
            table[layer]["self_ns"] += self_ns
        return table

    def entry_table(self) -> List[Dict[str, object]]:
        """Per entry point: layer, name, calls and self ns (called only)."""
        return [
            {"layer": layer, "name": name, "calls": calls, "self_ns": self_ns}
            for (layer, name), calls, self_ns in zip(
                self.entries, self.calls, self.self_ns
            )
            if calls
        ]

    def write_chrome(self, path: Path) -> int:
        """Write the kept spans as Chrome trace JSON; returns the count."""
        path.parent.mkdir(parents=True, exist_ok=True)
        events = []
        for sid, idx, t0, t1, parent, rid in self.spans:
            layer, name = self.entries[idx]
            args: Dict[str, object] = {"id": sid, "parent": parent}
            if rid is not None:
                args["request"] = "%d/%d/%d" % rid
            events.append(
                {
                    "name": name,
                    "cat": layer,
                    "ph": "X",
                    "ts": (t0 - self.origin_ns) / 1e3,
                    "dur": (t1 - t0) / 1e3,
                    "pid": 1,
                    "tid": 1,
                    "args": args,
                }
            )
        with path.open("w") as fh:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)
        return len(events)


def wrapper_cost_ns(calls: int = 100_000) -> float:
    """Measured cost of one empty wrapped call over a bare call, in ns."""

    def empty(*_args):
        return None

    trace = LayerTrace(span_cap=calls)
    wrapped = trace.wrap(empty, "simulator", "empty")
    args = (1, 2)
    t0 = time.perf_counter_ns()
    for _ in range(calls):
        empty(*args)
    bare = time.perf_counter_ns() - t0
    t0 = time.perf_counter_ns()
    for _ in range(calls):
        wrapped(*args)
    traced = time.perf_counter_ns() - t0
    return (traced - bare) / calls
