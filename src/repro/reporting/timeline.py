"""Time-series sampling of cluster state during a simulation.

The evaluation's aggregate numbers (mean framerate, mean latency) hide
the *dynamics* — warm-up transients, batch-induced stalls, backlog
growth under overload.  :func:`sparkline` makes a series readable in a
terminal report; ``result.metrics.snapshots`` (from
``RunConfig(metrics=True)``) holds one probe snapshot per tick of node
backlog, busy nodes, jobs completed and cache hit counts.

``TimelineSampler`` and ``TimelineSample``, the row view that
``RunConfig(timeline_interval=...)`` builds over one grid's series of
the sampling :class:`~repro.obs.probe.Probe`, are deprecated since 1.9
and removed in 1.10: reading either name warns.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from repro.obs.probe import Snapshot
from repro.util.deprecation import deprecated

_SPARK_CHARS = " .:-=+*#%@"


@dataclass(frozen=True)
class _TimelineSample:
    """One snapshot of cluster/service state."""

    time: float
    backlog_tasks: int
    busy_nodes: int
    jobs_completed: int
    tasks_hit: int
    tasks_missed: int
    scheduler_pending: int

    @property
    def total_tasks(self) -> int:
        """Tasks started up to this sample."""
        return self.tasks_hit + self.tasks_missed


class _TimelineSampler:
    """Per-tick rows of a run's cluster dynamics.

    Built from a :class:`~repro.obs.probe.Probe` grid's series, one
    ``TimelineSample`` per :class:`~repro.obs.probe.Snapshot`.  The
    probe stops at the horizon or at quiescence, so sampling never
    keeps a finished simulation alive.
    """

    def __init__(self, series: Sequence[Snapshot]) -> None:
        self.samples: List[_TimelineSample] = [
            _TimelineSample(
                time=snap.time,
                backlog_tasks=snap.backlog,
                busy_nodes=snap.busy,
                jobs_completed=snap.completed,
                tasks_hit=snap.hits,
                tasks_missed=snap.misses,
                scheduler_pending=snap.deferred,
            )
            for snap in series
        ]

    # -- series accessors -----------------------------------------------------

    def series(self, name: str) -> List[float]:
        """Extract one attribute as a list (e.g. ``"backlog_tasks"``)."""
        return [float(getattr(s, name)) for s in self.samples]

    def completion_rate(self) -> List[float]:
        """Jobs completed per second between consecutive samples."""
        out: List[float] = []
        for a, b in zip(self.samples, self.samples[1:]):
            dt = b.time - a.time
            out.append((b.jobs_completed - a.jobs_completed) / dt if dt > 0 else 0.0)
        return out


def sparkline(values: Sequence[float], *, width: int = 60) -> str:
    """Render a numeric series as a one-line text sparkline.

    Values are bucketed to ``width`` columns (mean per bucket) and
    mapped onto a 10-level character ramp; the line is annotated with
    the series min/max.
    """
    if not values:
        return "(empty)"
    values = list(values)
    n = len(values)
    columns = min(width, n)
    buckets: List[float] = []
    for c in range(columns):
        lo = c * n // columns
        hi = max(lo + 1, (c + 1) * n // columns)
        chunk = values[lo:hi]
        buckets.append(sum(chunk) / len(chunk))
    vmin, vmax = min(buckets), max(buckets)
    span = vmax - vmin
    chars = []
    for v in buckets:
        level = 0 if span == 0 else int((v - vmin) / span * (len(_SPARK_CHARS) - 1))
        chars.append(_SPARK_CHARS[level])
    return f"[{''.join(chars)}] min={vmin:g} max={vmax:g}"


def __getattr__(name: str):
    if name == "TimelineSampler":
        deprecated(
            "TimelineSampler",
            "use RunConfig(metrics=True) and result.metrics.snapshots",
        )
        return _TimelineSampler
    if name == "TimelineSample":
        deprecated(
            "TimelineSample",
            "use the probe snapshots in result.metrics.snapshots",
        )
        return _TimelineSample
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = ["sparkline"]
