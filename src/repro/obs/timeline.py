"""Unified run timeline: one model extracted from every recorder.

The repo records a run through four independent lenses — tracer spans
(:mod:`repro.obs.tracer`), decision audits (:mod:`repro.obs.audit`),
causal critical paths (:mod:`repro.obs.causal`), and fault reports
(:mod:`repro.faults`).  Each is precise and none is *readable*: a human
reconstructing "what did node 3 do between t=4 and t=6" has to join
four JSONL streams by hand.  This module performs that join once,
producing a :class:`TimelineModel` — the single comprehension layer the
HTML/SVG report renderer (:mod:`repro.obs.report`) draws:

* per-node **Gantt lanes** of io / render / composite segments (idle is
  the gap between them), with crash-orphaned segments clipped at the
  moment their node died;
* **pressure tracks** — queue depth, busy-node count, in-flight I/O —
  lifted from the counter samples;
* a **cache-residency map**: for every ``(dataset, node)`` pair, the
  intervals during which each chunk was memory-resident, reconstructed
  from the insert/evict instants (prewarm included) and collapsible
  into a time-binned heatmap;
* **markers and windows** — fault injections, detections, recovery
  actions, SLO-violation windows, storage-degradation windows;
* the run's **worst critical paths** (p99-latency jobs), each with the
  phase boundaries needed to draw the path onto the Gantt;
* the deterministic **summary scalars** (jobs, fps, hit rate, reason
  mix, phase totals) the report's tiles and tables show.

Everything in the model is *virtual-time derived* and therefore
bit-deterministic for a fixed scenario seed — wall-clock quantities
(scheduling cost, events/s) are deliberately excluded so two extractions
of the same run are equal and the rendered report is byte-identical
across reruns.

Build it with :meth:`SimulationResult.timeline()
<repro.sim.simulator.SimulationResult.timeline>` (requires the run to
have carried a tracer) or :func:`extract_timeline` directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import (
    Any,
    Dict,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

from repro.obs.counters import (
    TRACK_BUSY_NODES,
    TRACK_IO_INFLIGHT,
    TRACK_QUEUE,
)
from repro.obs.causal import PHASES, CriticalPath
from repro.obs.tracer import PID_HEAD

#: Gantt lane kinds, in drawing order within one node row.
LANE_KINDS = ("io", "render", "composite")

#: Marker kinds the model emits (fault lifecycle + A/B divergence).
MARKER_KINDS = ("onset", "detection", "recovery", "divergence")


class TimelineError(RuntimeError):
    """Timeline extraction was asked for data the run never recorded."""


class Segment(NamedTuple):
    """One Gantt bar: a span of work on one node's lane."""

    node: int
    #: ``"io"``, ``"render"``, or ``"composite"`` (multi-executor slot
    #: lanes fold into their base kind; the ``lane`` field keeps the
    #: original lane name for stacking).
    kind: str
    #: Full lane name as traced (``"render"``, ``"render 1"``, ...).
    lane: str
    start: float
    end: float
    label: str
    #: True when the segment was cut short by the run ending or the
    #: node crashing with the task still in flight (orphaned span).
    truncated: bool


class Series(NamedTuple):
    """One sampled counter series (times and values, same length)."""

    name: str
    times: Tuple[float, ...]
    values: Tuple[float, ...]


class ResidencySpan(NamedTuple):
    """One chunk's stay in one node's memory cache."""

    dataset: str
    chunk_index: int
    node: int
    start: float
    end: float
    size: int


class Marker(NamedTuple):
    """A point event drawn as a vertical marker on the timeline."""

    time: float
    #: One of :data:`MARKER_KINDS`.
    kind: str
    #: Node the marker concerns (``-1`` for cluster-wide events).
    node: int
    label: str


class Window(NamedTuple):
    """An interval overlay (SLO violation, storage degradation)."""

    start: float
    end: float
    #: ``"slo-violation"`` or ``"storage-degrade"``.
    kind: str
    label: str


class PathOverlay(NamedTuple):
    """One critical path with the boundary times needed to draw it."""

    user: int
    action: int
    sequence: int
    job_type: str
    node: int
    latency: float
    #: Phase boundaries: arrival -> assign -> start -> io_done ->
    #: render_done (bounding-task finish) -> finish (composite done).
    arrival: float
    assign: float
    start: float
    io_done: float
    render_done: float
    finish: float
    cache_hit: bool

    def phase_values(self) -> Dict[str, float]:
        """The five phase durations, in :data:`~repro.obs.causal.PHASES` order."""
        return {
            "scheduling": self.assign - self.arrival,
            "queueing": self.start - self.assign,
            "io": self.io_done - self.start,
            "render": self.render_done - self.io_done,
            "composite": self.finish - self.render_done,
        }


def _overlay_from_path(path: CriticalPath) -> PathOverlay:
    """Convert a :class:`CriticalPath` into drawable boundary times."""
    assign = path.arrival + path.scheduling
    start = assign + path.queueing
    io_done = start + path.io
    render_done = io_done + path.render
    return PathOverlay(
        path.user,
        path.action,
        path.sequence,
        path.job_type,
        path.bounding_node,
        path.latency,
        path.arrival,
        assign,
        start,
        io_done,
        render_done,
        path.finish,
        path.cache_hit,
    )


@dataclass
class TimelineModel:
    """Everything the run report draws, joined and virtual-time only."""

    scenario: str
    scheduler: str
    horizon: float
    #: Last meaningful instant (>= horizon on drained runs); all
    #: segments and spans are clipped to it.
    end: float
    node_count: int
    target_framerate: float
    segments: List[Segment] = field(default_factory=list)
    counters: Dict[str, Series] = field(default_factory=dict)
    residency: List[ResidencySpan] = field(default_factory=list)
    #: Dataset name -> total observed bytes (heatmap denominator).
    dataset_bytes: Dict[str, int] = field(default_factory=dict)
    markers: List[Marker] = field(default_factory=list)
    windows: List[Window] = field(default_factory=list)
    paths: List[PathOverlay] = field(default_factory=list)
    reason_counts: Dict[str, int] = field(default_factory=dict)
    phase_totals: Dict[str, float] = field(default_factory=dict)
    summary: Dict[str, Any] = field(default_factory=dict)

    # -- derived views ------------------------------------------------------

    @property
    def datasets(self) -> Tuple[str, ...]:
        """Dataset names with any observed residency, sorted."""
        return tuple(sorted(self.dataset_bytes))

    def lanes_for(self, node: int) -> List[Tuple[str, str]]:
        """Distinct ``(kind, lane)`` pairs of one node, in drawing order."""
        seen: Dict[Tuple[str, str], None] = {}
        for seg in self.segments:
            if seg.node == node:
                seen.setdefault((seg.kind, seg.lane))
        return sorted(seen, key=lambda kl: (LANE_KINDS.index(kl[0]), kl[1]))

    def phase_shares(self) -> Dict[str, float]:
        """Critical-path phase shares (empty phases -> all zeros)."""
        denom = sum(self.phase_totals.values())
        if denom <= 0:
            return {name: 0.0 for name in PHASES}
        return {
            name: self.phase_totals.get(name, 0.0) / denom for name in PHASES
        }

    def busy_fraction(self) -> Series:
        """Busy-node counter normalized to a 0..1 utilization series."""
        busy = self.counters.get("busy")
        if busy is None or self.node_count == 0:
            return Series("utilization", (), ())
        scale = 1.0 / self.node_count
        return Series(
            "utilization", busy.times, tuple(v * scale for v in busy.values)
        )

    def heatmap(self, bins: int = 60) -> Dict[str, Dict[int, List[float]]]:
        """Time-binned residency fractions: dataset -> node -> bin values.

        Each value is the fraction of the dataset's observed bytes
        resident on that node, integrated over the bin — 1.0 means the
        whole dataset sat in the node's cache for the whole bin.
        """
        if bins < 1:
            raise ValueError(f"bins must be >= 1, got {bins}")
        span = max(self.end, 1e-9)
        width = span / bins
        out: Dict[str, Dict[int, List[float]]] = {}
        for res in self.residency:
            total = self.dataset_bytes.get(res.dataset, 0)
            if total <= 0:
                continue
            rows = out.setdefault(res.dataset, {})
            row = rows.get(res.node)
            if row is None:
                row = rows[res.node] = [0.0] * bins
            first = min(bins - 1, max(0, int(res.start / width)))
            last = min(bins - 1, max(0, int(math.ceil(res.end / width)) - 1))
            weight = res.size / total
            for b in range(first, last + 1):
                lo = b * width
                hi = lo + width
                overlap = min(res.end, hi) - max(res.start, lo)
                if overlap > 0:
                    row[b] += weight * overlap / width
        for rows in out.values():
            for row in rows.values():
                for b, v in enumerate(row):
                    if v > 1.0:
                        row[b] = 1.0
        return out


def _marker_label(kind: str, what: str, node: int) -> str:
    where = "cluster" if node < 0 else f"node {node}"
    return f"{what} ({where})"


def _extract_segments(tracer, node_count: int, end: float) -> List[Segment]:
    """Gantt segments per node, crash-orphans clipped at the crash.

    Spans are recorded with their full duration when the task starts
    (the discrete-event model schedules completion up front), so a span
    in flight when its node crashes extends past the node's death in
    the raw trace.  Such an orphan is clipped at the first crash instant
    falling inside it and marked ``truncated`` — the work after the cut
    never happened.  Spans emitted after a revival start after the
    crash, so the rule never clips live work.
    """
    crashes: Dict[int, List[float]] = {}
    for e in tracer.events:
        if e.phase == "i" and e.name == "node failed":
            node = e.pid - PID_HEAD - 1
            if 0 <= node < node_count:
                crashes.setdefault(node, []).append(e.ts)
    segments: List[Segment] = []
    for e in tracer.events:
        if e.phase != "X" or e.category not in LANE_KINDS:
            continue
        node = e.pid - PID_HEAD - 1
        if not 0 <= node < node_count:
            continue
        start = e.ts
        stop = start + (e.dur or 0.0)
        cut = end
        for crash_ts in crashes.get(node, ()):
            if start <= crash_ts < cut:
                cut = crash_ts
        truncated = stop > cut
        if truncated:
            stop = cut
        if stop <= start and truncated:
            continue
        lane = tracer.lane_name(e.pid, e.tid)
        segments.append(
            Segment(node, e.category, lane, start, max(stop, start), e.name, truncated)
        )
    segments.sort(key=lambda s: (s.node, LANE_KINDS.index(s.kind), s.lane, s.start))
    return segments


def _extract_counters(tracer) -> Dict[str, Series]:
    """Head-node pressure series keyed by short series name."""
    wanted = {
        (TRACK_QUEUE, "queued jobs"): "queued jobs",
        (TRACK_QUEUE, "deferred tasks"): "deferred tasks",
        (TRACK_QUEUE, "node backlog"): "node backlog",
        (TRACK_BUSY_NODES, "busy"): "busy",
        (TRACK_IO_INFLIGHT, "MiB"): "io MiB",
    }
    acc: Dict[str, Tuple[List[float], List[float]]] = {}
    for e in tracer.events:
        if e.phase != "C" or e.pid != PID_HEAD or not e.args:
            continue
        for series, value in e.args.items():
            name = wanted.get((e.name, series))
            if name is None:
                continue
            times, values = acc.setdefault(name, ([], []))
            times.append(e.ts)
            values.append(float(value))
    return {
        name: Series(name, tuple(times), tuple(values))
        for name, (times, values) in acc.items()
    }


def _extract_residency(
    tracer, node_count: int, end: float
) -> Tuple[List[ResidencySpan], Dict[str, int]]:
    """Chunk residency intervals from the insert/evict instant stream."""
    open_spans: Dict[Tuple[int, str, int], Tuple[float, int]] = {}
    spans: List[ResidencySpan] = []
    chunk_bytes: Dict[Tuple[str, int], int] = {}
    for e in tracer.events:
        if e.phase != "i" or e.category != "cache" or not e.args:
            continue
        args = e.args
        dataset = args.get("dataset")
        if dataset is None:
            continue
        node = e.pid - PID_HEAD - 1
        if not 0 <= node < node_count:
            continue
        index = args.get("index", -1)
        size = int(args.get("bytes", 0))
        key = (node, dataset, index)
        if e.name.startswith("insert"):
            open_spans.setdefault(key, (e.ts, size))
            chunk_bytes[(dataset, index)] = size
        elif e.name.startswith("evict"):
            opened = open_spans.pop(key, None)
            if opened is not None and e.ts > opened[0]:
                spans.append(
                    ResidencySpan(dataset, index, node, opened[0], e.ts, opened[1])
                )
    for (node, dataset, index), (start, size) in open_spans.items():
        if end > start:
            spans.append(ResidencySpan(dataset, index, node, start, end, size))
    spans.sort()
    dataset_bytes: Dict[str, int] = {}
    for (dataset, _index), size in sorted(chunk_bytes.items()):
        dataset_bytes[dataset] = dataset_bytes.get(dataset, 0) + size
    return spans, dataset_bytes


def _extract_fault_overlays(
    fault_report,
) -> Tuple[List[Marker], List[Window]]:
    """Markers + windows from the fault report's exported events."""
    markers: List[Marker] = []
    windows: List[Window] = []
    if fault_report is None:
        return markers, windows
    for inj in fault_report.injections:
        if inj.kind == "storage" and inj.until is not None:
            windows.append(
                Window(
                    inj.time,
                    inj.until,
                    "storage-degrade",
                    "storage degraded",
                )
            )
        else:
            markers.append(
                Marker(
                    inj.time,
                    "onset",
                    inj.node,
                    _marker_label("onset", f"{inj.kind} injected", inj.node),
                )
            )
    for det in fault_report.detections:
        markers.append(
            Marker(
                det.time,
                "detection",
                det.node,
                _marker_label("detection", f"{det.kind} detected", det.node),
            )
        )
    for action in fault_report.actions:
        markers.append(
            Marker(
                action.time,
                "recovery",
                action.node,
                _marker_label("recovery", action.kind, action.node),
            )
        )
    markers.sort()
    return markers, windows


def _worst_paths(analysis, top: int) -> List[PathOverlay]:
    """The p99-latency critical paths (at least one, at most ``top``)."""
    paths = analysis.paths if analysis is not None else []
    if not paths:
        return []
    latencies = sorted(p.latency for p in paths)
    p99 = latencies[min(len(latencies) - 1, int(0.99 * (len(latencies) - 1)))]
    worst = sorted(
        (p for p in paths if p.latency >= p99),
        key=lambda p: (-p.latency, p.user, p.action, p.sequence),
    )
    if not worst:
        worst = [max(paths, key=lambda p: p.latency)]
    return [_overlay_from_path(p) for p in worst[:top]]


def extract_timeline(
    result,
    *,
    slo_reports: Sequence = (),
    top_paths: int = 3,
) -> TimelineModel:
    """Join a run's recorders into one :class:`TimelineModel`.

    Args:
        result: A :class:`~repro.sim.simulator.SimulationResult` whose
            run carried a tracer (``RunConfig(tracer=Tracer())``).  The
            audit log, critical paths, and fault report are folded in
            when present and simply absent from the model otherwise.
        slo_reports: :class:`~repro.obs.slo.SLOReport` objects to
            overlay as violation windows.
        top_paths: How many worst-latency critical paths to keep.

    Raises:
        TimelineError: When the run recorded no trace — the timeline is
            built *from* the trace, so there is nothing to extract.
    """
    tracer = result.tracer
    if tracer is None or not getattr(tracer, "enabled", False):
        raise TimelineError(
            "run recorded no trace; re-run with "
            "RunConfig(tracer=Tracer()) (CLI: repro report, or "
            "repro simulate --trace) to build a timeline"
        )
    node_count = len(result.profile.nodes) if result.profile is not None else 0
    end = max(result.simulated_time, result.horizon, 1e-9)
    segments = _extract_segments(tracer, node_count, end)
    residency, dataset_bytes = _extract_residency(tracer, node_count, end)
    markers, windows = _extract_fault_overlays(result.fault_report)
    for report in slo_reports:
        for violation in report.violations:
            windows.append(
                Window(
                    violation.start,
                    min(violation.end, end),
                    "slo-violation",
                    (
                        f"{report.objective.describe()}: user "
                        f"{violation.user} action {violation.action}"
                    ),
                )
            )
    windows.sort()
    audit = result.audit
    analysis = result.critical_paths
    interactive = result.interactive_latency
    summary: Dict[str, Any] = {
        "jobs_submitted": result.jobs_submitted,
        "jobs_completed": result.jobs_completed,
        "tasks_executed": result.tasks_executed,
        "hit_rate": result.hit_rate,
        "interactive_fps": result.interactive_fps,
        "mean_latency": interactive.mean,
        "p99_latency": interactive.p99,
        "mean_node_utilization": result.mean_node_utilization,
        "drained": result.drained,
    }
    return TimelineModel(
        scenario=result.scenario_name,
        scheduler=result.scheduler_name,
        horizon=result.horizon,
        end=end,
        node_count=node_count,
        target_framerate=result.target_framerate,
        segments=segments,
        counters=_extract_counters(tracer),
        residency=residency,
        dataset_bytes=dataset_bytes,
        markers=markers,
        windows=windows,
        paths=_worst_paths(analysis, top_paths),
        reason_counts=dict(audit.reason_counts()) if audit is not None else {},
        phase_totals=(
            dict(analysis.phase_totals()) if analysis is not None else {}
        ),
        summary=summary,
    )


__all__ = [
    "LANE_KINDS",
    "MARKER_KINDS",
    "TimelineError",
    "Segment",
    "Series",
    "ResidencySpan",
    "Marker",
    "Window",
    "PathOverlay",
    "TimelineModel",
    "extract_timeline",
]
