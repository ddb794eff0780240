"""repro.obs — structured tracing, metrics, SLOs & decision audit.

The subsystem has thirteen pieces:

* :mod:`repro.obs.tracer` — a lightweight virtual-time tracer (nested
  spans, instant events, counter samples) plus a zero-cost
  :class:`NullTracer` for disabled runs;
* :mod:`repro.obs.chrome` — export to Chrome trace-event JSON, viewable
  in Perfetto / ``chrome://tracing``;
* :mod:`repro.obs.probe` — the one sampling clock and the one store of
  sampled state: metric windows and ``result.metrics.snapshots`` are
  read off its series, and the live observers (counters, gauges,
  stream) are its sinks;
* :mod:`repro.obs.counters` — built-in pressure counters (queue depth,
  busy nodes, cache occupancy, in-flight I/O) sampled by the probe;
* :mod:`repro.obs.profile` — aggregated per-node time breakdown
  (io / render / composite / idle fractions);
* :mod:`repro.obs.metrics` — a virtual-time metrics registry (counters,
  gauges, log-bucketed histograms), windowed time-series aggregation,
  Prometheus text exposition and JSONL export;
* :mod:`repro.obs.slo` — service-level-objective monitors evaluating
  framerate/latency targets (Definitions 3-4) over sliding windows;
* :mod:`repro.obs.audit` — the decision audit log: per-placement reason
  codes and candidate-node snapshots in a bounded ring buffer with an
  optional streaming-JSONL flight recorder;
* :mod:`repro.obs.causal` — the causal task graph: per-job critical
  paths with latency attributed to scheduling / queueing / io / render /
  composite phases, plus the two-run divergence diff behind the
  ``repro explain`` CLI verb;
* :mod:`repro.obs.stream` — the live telemetry bus: schema-versioned
  NDJSON snapshots on the probe's absolute grid *while the run
  executes*, wall-clock progress/ETA checkpoints, and a stall watchdog
  (the ``--stream`` flag and the ``repro watch`` verb);
* :mod:`repro.obs.anomaly` — online anomaly detection over the
  streamed snapshots (EWMA z-scores, CUSUM rate-of-change) with a
  closed alarm vocabulary, scored against injected fault ground truth;
* :mod:`repro.obs.timeline` — one drawable timeline model joining a
  traced run's recorders: node lanes, cache residency, counter series,
  audit, critical-path and fault markers;
* :mod:`repro.obs.report` — the self-contained HTML run report (and
  its federated variant) with the timeline drawn as inline SVG, behind
  ``repro report``.

Typical use::

    from repro import RunConfig, run_simulation, scenario_1
    from repro.obs import SLObjective, SLOMonitor, Tracer, write_chrome_trace

    tracer = Tracer()
    result = run_simulation(
        scenario_1(scale=0.2),
        "OURS",
        config=RunConfig(tracer=tracer, metrics=True),
    )
    write_chrome_trace("out.json", tracer)
    print(result.profile.table())
    print(result.metrics.to_prometheus())
    report = SLOMonitor([SLObjective("fps", 33.3)]).evaluate(result)[0]
    print(f"violation time: {report.total_violation_time:.2f}s")
"""

from repro.obs.anomaly import (
    ANOMALY_KINDS,
    FAULT_SIGNATURES,
    AnomalyRecord,
    CusumDetector,
    EwmaDetector,
    OnlineAnomalyDetector,
    detect_from_snapshots,
    merge_anomalies,
    score_anomalies,
)
from repro.obs.audit import (
    REASON_CACHE_HIT,
    REASON_CODES,
    REASON_FALLBACK,
    REASON_MIN_ESTIMATE,
    REASON_ONLY_AVAILABLE,
    REASON_SHED,
    AuditConfig,
    AuditLog,
    CandidateState,
    DecisionRecord,
    read_audit_jsonl,
    snapshot_candidates,
)
from repro.obs.causal import (
    PHASES,
    CausalCollector,
    CriticalPath,
    CriticalPathAnalysis,
    Divergence,
    first_divergence,
    phase_delta_table,
)
from repro.obs.chrome import chrome_trace_events, to_chrome_trace, write_chrome_trace
from repro.obs.counters import (
    PER_NODE_TRACKS,
    STANDARD_TRACKS,
    TRACK_BUSY_NODES,
    TRACK_CACHE,
    TRACK_IO_INFLIGHT,
    TRACK_QUEUE,
    CounterSampler,
    default_counter_interval,
)
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    MetricsSampler,
    MetricWindow,
    RunMetrics,
    default_window_interval,
    log_buckets,
)
from repro.obs.profile import ClusterProfile, NodeProfile
from repro.obs.report import (
    render_federation_html,
    render_report_html,
    render_timeline_svg,
    write_report,
)
from repro.obs.slo import (
    SLObjective,
    SLOMonitor,
    SLOReport,
    ViolationWindow,
    slo_table,
)
from repro.obs.stream import (
    STREAM_SCHEMA,
    StallWatchdog,
    StreamConfig,
    StreamReport,
    TelemetryStream,
    follow_stream,
    iter_jsonl,
    read_stream,
)
from repro.obs.tracer import (
    CAT_CACHE,
    CAT_COMM,
    CAT_COMPOSITE,
    CAT_IO,
    CAT_RENDER,
    CAT_SCHED,
    CAT_SERVICE,
    PID_HEAD,
    NullTracer,
    TraceError,
    TraceEvent,
    Tracer,
    active_tracer,
    pid_for_node,
)
from repro.obs.timeline import (
    Marker,
    PathOverlay,
    ResidencySpan,
    Segment,
    Series,
    TimelineError,
    TimelineModel,
    Window,
    extract_timeline,
)

__all__ = [
    "Tracer",
    "NullTracer",
    "TraceEvent",
    "TraceError",
    "active_tracer",
    "pid_for_node",
    "PID_HEAD",
    "CAT_IO",
    "CAT_RENDER",
    "CAT_COMPOSITE",
    "CAT_SCHED",
    "CAT_CACHE",
    "CAT_SERVICE",
    "CAT_COMM",
    "chrome_trace_events",
    "to_chrome_trace",
    "write_chrome_trace",
    "CounterSampler",
    "default_counter_interval",
    "STANDARD_TRACKS",
    "PER_NODE_TRACKS",
    "TRACK_QUEUE",
    "TRACK_BUSY_NODES",
    "TRACK_IO_INFLIGHT",
    "TRACK_CACHE",
    "ClusterProfile",
    "NodeProfile",
    "Counter",
    "Gauge",
    "Histogram",
    "log_buckets",
    "MetricsRegistry",
    "MetricsSampler",
    "MetricWindow",
    "RunMetrics",
    "default_window_interval",
    "SLObjective",
    "SLOMonitor",
    "SLOReport",
    "ViolationWindow",
    "slo_table",
    "AuditConfig",
    "AuditLog",
    "CandidateState",
    "DecisionRecord",
    "read_audit_jsonl",
    "snapshot_candidates",
    "REASON_CACHE_HIT",
    "REASON_MIN_ESTIMATE",
    "REASON_ONLY_AVAILABLE",
    "REASON_FALLBACK",
    "REASON_SHED",
    "REASON_CODES",
    "PHASES",
    "CausalCollector",
    "CriticalPath",
    "CriticalPathAnalysis",
    "Divergence",
    "first_divergence",
    "phase_delta_table",
    "TimelineError",
    "TimelineModel",
    "Segment",
    "Series",
    "ResidencySpan",
    "Marker",
    "Window",
    "PathOverlay",
    "extract_timeline",
    "STREAM_SCHEMA",
    "StreamConfig",
    "StreamReport",
    "TelemetryStream",
    "StallWatchdog",
    "follow_stream",
    "iter_jsonl",
    "read_stream",
    "ANOMALY_KINDS",
    "FAULT_SIGNATURES",
    "AnomalyRecord",
    "EwmaDetector",
    "CusumDetector",
    "OnlineAnomalyDetector",
    "detect_from_snapshots",
    "merge_anomalies",
    "score_anomalies",
    "render_timeline_svg",
    "render_report_html",
    "render_federation_html",
    "write_report",
]

