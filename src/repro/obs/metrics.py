"""Virtual-time metrics registry: counters, gauges, histograms, windows.

The tracer (:mod:`repro.obs.tracer`) answers *where did virtual time
go*; this module answers *is the service meeting its targets* — the
continuously-measured quantities behind the paper's evaluation
(Definitions 1-4) in a form that exports to monitoring tooling:

* :class:`Counter` — a monotonically increasing total (jobs completed,
  cache hits, bytes read);
* :class:`Gauge` — a point-in-time level (queue depth, busy nodes,
  resident cache bytes);
* :class:`Histogram` — a log-bucketed distribution with p50/p95/p99
  extraction (job latency, scheduler invocation cost);
* :class:`MetricsRegistry` — the namespace all of the above live in,
  with Prometheus-style text exposition and structured JSONL export;
* :class:`MetricsSampler` — a :class:`~repro.obs.probe.Probe` sink
  that keeps the registry's pressure gauges at each tick's levels;
* :class:`RunMetrics` — the bundle attached to
  :class:`~repro.sim.simulator.SimulationResult` as ``.metrics``: the
  registry plus the :class:`MetricWindow` rows (delivered fps, latency
  quantiles, cache hit rate, I/O bytes per interval) read off the
  probe's series for the window grid.

Counters and gauges read, histograms observe: the built-in counters
and gauges register readers (:meth:`Counter.read_from`) of the counts
the nodes, storage, collector and frontend already keep, so the hot
paths make no registry calls; only job latency and scheduler cost are
observed where they are measured.  A closing run freezes the readers
(:meth:`MetricsRegistry.close`), so results pickle without the cluster.

Typical use::

    from repro import RunConfig, run_simulation, scenario_2

    result = run_simulation(
        scenario_2(scale=0.2), "OURS", config=RunConfig(metrics=True)
    )
    print(result.metrics.registry.to_prometheus())
    result.metrics.write_jsonl("metrics.jsonl")
"""

from __future__ import annotations

import json
import math
from bisect import bisect_left
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

from repro.obs.probe import MetricWindow, Sink, Snapshot
from repro.util.validation import check_positive

#: Label sets are stored canonically as sorted ``(key, value)`` tuples.
LabelKey = Tuple[Tuple[str, str], ...]


def _label_key(labels: Optional[Mapping[str, str]]) -> LabelKey:
    if not labels:
        return ()
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _escape_label_value(value: str) -> str:
    """Escape a label value per the Prometheus text exposition format.

    Backslash, double quote, and newline are the three characters the
    format requires escaping inside quoted label values.
    """
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def _label_suffix(labels: LabelKey) -> str:
    """Prometheus-style ``{k="v",...}`` rendering (empty for no labels)."""
    if not labels:
        return ""
    inner = ",".join(f'{k}="{_escape_label_value(v)}"' for k, v in labels)
    return "{" + inner + "}"


class _ReadThrough:
    """A scalar metric: a stored number plus the sum of live readers.

    Several producers (one per node) can read into one series.
    """

    __slots__ = ("name", "labels", "_value", "_readers")

    def __init__(self, name: str, labels: LabelKey = ()) -> None:
        self.name = name
        self.labels = labels
        self._value = 0.0
        self._readers: List[Callable[[], float]] = []

    @property
    def value(self) -> float:
        """The current value (the stored number plus every reader)."""
        if not self._readers:
            return self._value
        return self._value + sum(read() for read in self._readers)

    def read_from(self, reader: Callable[[], float]) -> None:
        """Add ``reader()`` to :attr:`value` until the metric is frozen."""
        self._readers.append(reader)

    def freeze(self) -> None:
        """Store the current value and drop the readers."""
        self._value = self.value
        self._readers = []


class Counter(_ReadThrough):
    """A monotonic total.  Negative increments are a protocol error."""

    kind = "counter"
    __slots__ = ()

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (>= 0) to the total."""
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease ({amount})")
        self._value += amount


class Gauge(_ReadThrough):
    """A level that can move in both directions."""

    kind = "gauge"
    __slots__ = ()

    def read_from(self, reader: Callable[[], float]) -> None:
        """Read the level from ``reader()``; a stored level restarts at 0."""
        if not self._readers:
            self._value = 0.0
        self._readers.append(reader)

    def set(self, value: float) -> None:
        """Set the current level."""
        self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        """Move the level up by ``amount``."""
        self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        """Move the level down by ``amount``."""
        self._value -= amount


def log_buckets(
    lowest: float = 1e-4, highest: float = 1e3, per_decade: int = 4
) -> List[float]:
    """Geometric bucket upper bounds spanning ``[lowest, highest]``.

    ``per_decade`` bounds per factor of ten; the implicit final bucket
    is ``+inf``.  The defaults cover 100 µs .. ~17 min in 29 buckets —
    wide enough for every latency/cost quantity the simulator records.
    """
    check_positive("lowest", lowest)
    if highest <= lowest:
        raise ValueError(f"highest ({highest}) must exceed lowest ({lowest})")
    if per_decade < 1:
        raise ValueError(f"per_decade must be >= 1, got {per_decade}")
    ratio = 10.0 ** (1.0 / per_decade)
    bounds = [lowest]
    while bounds[-1] < highest * (1 - 1e-12):
        bounds.append(bounds[-1] * ratio)
    return bounds


class Histogram:
    """A log-bucketed distribution with quantile extraction.

    Observations land in geometric buckets (``le`` upper bounds plus an
    implicit ``+inf`` overflow bucket).  Quantiles are estimated by
    linear interpolation inside the covering bucket, clamped to the
    observed min/max so single-value and extreme quantiles stay exact.
    """

    kind = "histogram"
    __slots__ = (
        "name",
        "labels",
        "bounds",
        "bucket_counts",
        "count",
        "sum",
        "minimum",
        "maximum",
    )

    def __init__(
        self,
        name: str,
        labels: LabelKey = (),
        *,
        bounds: Optional[Sequence[float]] = None,
    ) -> None:
        self.name = name
        self.labels = labels
        self.bounds: List[float] = list(bounds) if bounds is not None else log_buckets()
        if any(b <= a for a, b in zip(self.bounds, self.bounds[1:])):
            raise ValueError(f"histogram {name!r} bounds must be increasing")
        self.bucket_counts = [0] * (len(self.bounds) + 1)  # + overflow
        self.count = 0
        self.sum = 0.0
        self.minimum = math.inf
        self.maximum = -math.inf

    def observe(self, value: float) -> None:
        """Record one observation."""
        self.bucket_counts[bisect_left(self.bounds, value)] += 1
        self.count += 1
        self.sum += value
        if value < self.minimum:
            self.minimum = value
        if value > self.maximum:
            self.maximum = value

    @property
    def mean(self) -> float:
        """Arithmetic mean of all observations (0.0 when empty)."""
        return self.sum / self.count if self.count else 0.0

    def percentile(self, q: float) -> float:
        """Estimated percentile ``q`` in [0, 100] (0.0 when empty)."""
        if not 0.0 <= q <= 100.0:
            raise ValueError(f"q must be in [0, 100], got {q}")
        if self.count == 0:
            return 0.0
        rank = q / 100.0 * self.count
        cumulative = 0
        for i, n in enumerate(self.bucket_counts):
            if n == 0:
                continue
            if cumulative + n >= rank:
                lo = 0.0 if i == 0 else self.bounds[i - 1]
                hi = self.bounds[i] if i < len(self.bounds) else self.maximum
                frac = (rank - cumulative) / n
                value = lo + (hi - lo) * max(0.0, min(1.0, frac))
                return max(self.minimum, min(self.maximum, value))
            cumulative += n
        return self.maximum

    @property
    def p50(self) -> float:
        """Estimated median."""
        return self.percentile(50)

    @property
    def p95(self) -> float:
        """Estimated 95th percentile."""
        return self.percentile(95)

    @property
    def p99(self) -> float:
        """Estimated 99th percentile."""
        return self.percentile(99)


Metric = Union[Counter, Gauge, Histogram]


class MetricsRegistry:
    """Namespace of metrics, keyed by ``(name, labels)``.

    ``counter`` / ``gauge`` / ``histogram`` are get-or-create: the first
    call defines the metric (and, for histograms, its buckets), later
    calls return the same object — so every node can register its
    reader on the one cluster-wide series.  Registering the same name
    as two different kinds is an error.
    """

    def __init__(self) -> None:
        self._metrics: Dict[Tuple[str, LabelKey], Metric] = {}
        self._kinds: Dict[str, str] = {}
        self._help: Dict[str, str] = {}

    # -- registration ------------------------------------------------------

    def _get(self, cls, name: str, help: str, labels, **kwargs) -> Metric:
        key = (name, _label_key(labels))
        metric = self._metrics.get(key)
        if metric is not None:
            if metric.kind != cls.kind:
                raise ValueError(
                    f"metric {name!r} is a {metric.kind}, not a {cls.kind}"
                )
            return metric
        known = self._kinds.get(name)
        if known is not None and known != cls.kind:
            raise ValueError(f"metric {name!r} is a {known}, not a {cls.kind}")
        metric = cls(name, key[1], **kwargs)
        self._metrics[key] = metric
        self._kinds[name] = cls.kind
        if help and name not in self._help:
            self._help[name] = help
        return metric

    def counter(
        self, name: str, help: str = "", labels: Optional[Mapping[str, str]] = None
    ) -> Counter:
        """Get or create a :class:`Counter`."""
        return self._get(Counter, name, help, labels)  # type: ignore[return-value]

    def gauge(
        self, name: str, help: str = "", labels: Optional[Mapping[str, str]] = None
    ) -> Gauge:
        """Get or create a :class:`Gauge`."""
        return self._get(Gauge, name, help, labels)  # type: ignore[return-value]

    def histogram(
        self,
        name: str,
        help: str = "",
        labels: Optional[Mapping[str, str]] = None,
        *,
        bounds: Optional[Sequence[float]] = None,
    ) -> Histogram:
        """Get or create a :class:`Histogram`."""
        return self._get(  # type: ignore[return-value]
            Histogram, name, help, labels, bounds=bounds
        )

    def close(self) -> None:
        """Freeze every counter and gauge (readers dropped; reusable)."""
        for metric in self._metrics.values():
            if not isinstance(metric, Histogram):
                metric.freeze()

    # -- inspection --------------------------------------------------------

    def __len__(self) -> int:
        return len(self._metrics)

    def __iter__(self) -> Iterable[Metric]:
        return iter(self._metrics.values())

    def get(
        self, name: str, labels: Optional[Mapping[str, str]] = None
    ) -> Optional[Metric]:
        """Look up a metric without creating it."""
        return self._metrics.get((name, _label_key(labels)))

    def value(self, name: str, labels: Optional[Mapping[str, str]] = None) -> float:
        """Current value of a counter/gauge (0.0 when absent)."""
        metric = self.get(name, labels)
        if metric is None:
            return 0.0
        if isinstance(metric, Histogram):
            raise TypeError(f"metric {name!r} is a histogram; use .get()")
        return metric.value

    # -- export ------------------------------------------------------------

    def to_prometheus(self) -> str:
        """Prometheus text exposition (OpenMetrics-compatible subset).

        Counters get a ``_total`` suffix; histograms expose cumulative
        ``_bucket{le=...}`` series plus ``_sum`` and ``_count``.
        """
        by_name: Dict[str, List[Metric]] = {}
        for metric in self._metrics.values():
            by_name.setdefault(metric.name, []).append(metric)
        lines: List[str] = []
        for name, metrics in by_name.items():
            kind = metrics[0].kind
            exposed = f"{name}_total" if kind == "counter" else name
            help_text = self._help.get(name)
            if help_text:
                # HELP text escapes backslash and newline (not quotes).
                escaped = help_text.replace("\\", "\\\\").replace("\n", "\\n")
                lines.append(f"# HELP {exposed} {escaped}")
            lines.append(f"# TYPE {exposed} {kind}")
            for m in metrics:
                suffix = _label_suffix(m.labels)
                if isinstance(m, Histogram):
                    cumulative = 0
                    for bound, n in zip(m.bounds, m.bucket_counts):
                        cumulative += n
                        le = _label_suffix(m.labels + (("le", f"{bound:g}"),))
                        lines.append(f"{name}_bucket{le} {cumulative}")
                    le = _label_suffix(m.labels + (("le", "+Inf"),))
                    lines.append(f"{name}_bucket{le} {m.count}")
                    lines.append(f"{name}_sum{suffix} {m.sum:g}")
                    lines.append(f"{name}_count{suffix} {m.count}")
                else:
                    lines.append(f"{exposed}{suffix} {m.value:g}")
        return "\n".join(lines) + "\n"

    def write_prometheus(self, path) -> Path:
        """Write :meth:`to_prometheus` to ``path``."""
        path = Path(path)
        path.write_text(self.to_prometheus())
        return path

    def snapshot(self) -> List[Dict[str, Any]]:
        """One JSON-ready dict per metric (histograms include quantiles)."""
        out: List[Dict[str, Any]] = []
        for m in self._metrics.values():
            row: Dict[str, Any] = {
                "name": m.name,
                "kind": m.kind,
                "labels": dict(m.labels),
            }
            if isinstance(m, Histogram):
                row.update(
                    count=m.count,
                    sum=m.sum,
                    mean=m.mean,
                    p50=m.p50,
                    p95=m.p95,
                    p99=m.p99,
                )
            else:
                row["value"] = m.value
            out.append(row)
        return out


# ---------------------------------------------------------------------------
# Windowed time-series aggregation
# ---------------------------------------------------------------------------


def default_window_interval(horizon: float, *, windows: int = 64) -> float:
    """A window length giving ~``windows`` intervals over ``horizon``."""
    return max(horizon / max(windows, 1), 1e-3)


class MetricsSampler(Sink):
    """Keeps the registry's pressure gauges at the probe's levels.

    A :class:`~repro.obs.probe.Probe` sink: each tick sets the queue
    depth, busy-node and resident-cache gauges from the snapshot.  The
    per-window rows are not kept here; the run reads them off the
    probe's series for the same grid (:meth:`Probe.series`).
    """

    def __init__(self, registry: MetricsRegistry, interval: float) -> None:
        self.interval = interval
        self._g_queue = registry.gauge(
            "repro_queue_depth", "jobs queued at the head node"
        )
        self._g_busy = registry.gauge(
            "repro_busy_nodes", "rendering nodes with a busy pipeline"
        )
        self._g_cache = registry.gauge(
            "repro_cache_used_bytes", "bytes resident across node chunk caches"
        )

    def _tick(self, snap: Snapshot) -> None:
        self._g_queue.set(float(snap.queued))
        self._g_busy.set(float(snap.busy))
        self._g_cache.set(float(sum(snap.cache_used)))


# ---------------------------------------------------------------------------
# Per-run bundle
# ---------------------------------------------------------------------------


@dataclass
class RunMetrics:
    """Registry + windowed series of one simulation run.

    Attached to :class:`~repro.sim.simulator.SimulationResult` as
    ``.metrics`` when the run was started with ``metrics=True`` (or an
    explicit registry).
    """

    registry: MetricsRegistry
    windows: List[MetricWindow] = field(default_factory=list)
    scenario: str = ""
    scheduler: str = ""

    def window_series(self, name: str) -> List[float]:
        """Extract one :class:`MetricWindow` field across the run."""
        return [float(getattr(w, name)) for w in self.windows]

    def to_prometheus(self) -> str:
        """Prometheus text exposition of the final registry state."""
        return self.registry.to_prometheus()

    def write_prometheus(self, path) -> Path:
        """Write the Prometheus exposition to ``path``."""
        return self.registry.write_prometheus(path)

    def jsonl_events(
        self, slo_reports: Optional[Sequence] = None
    ) -> List[Dict[str, Any]]:
        """All JSONL events: run header, windows, violations, summary."""
        events: List[Dict[str, Any]] = [
            {
                "type": "run",
                "scenario": self.scenario,
                "scheduler": self.scheduler,
                "windows": len(self.windows),
            }
        ]
        events.extend(w.to_event() for w in self.windows)
        if slo_reports:
            for report in slo_reports:
                events.extend(report.jsonl_events())
        events.append({"type": "summary", "metrics": self.registry.snapshot()})
        return events

    def write_jsonl(self, path, *, slo_reports: Optional[Sequence] = None) -> Path:
        """Write one JSON object per line: samples, violations, summary."""
        path = Path(path)
        with path.open("w") as fh:
            for event in self.jsonl_events(slo_reports):
                fh.write(json.dumps(event) + "\n")
        return path


__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "log_buckets",
    "MetricsRegistry",
    "MetricWindow",
    "MetricsSampler",
    "default_window_interval",
    "RunMetrics",
]
