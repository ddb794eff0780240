"""Measurement collection, analysis, and report rendering."""

import sys

from repro.reporting.analysis import (
    LatencyStats,
    SchedulerSummary,
    batch_working_time,
    framerates_by_action,
    latency_stats,
    mean_interactive_framerate,
    summarize,
)
from repro.reporting.collectors import (
    JobRecord,
    SchedulingCostStats,
    SimulationCollector,
)
from repro.reporting.timeline import sparkline
from repro.reporting.report import (
    comparison_table,
    hit_rate_table,
    pipeline_breakdown,
    sweep_table,
)

__all__ = [
    "LatencyStats",
    "SchedulerSummary",
    "batch_working_time",
    "framerates_by_action",
    "latency_stats",
    "mean_interactive_framerate",
    "summarize",
    "JobRecord",
    "SchedulingCostStats",
    "SimulationCollector",
    "sparkline",
    "comparison_table",
    "hit_rate_table",
    "pipeline_breakdown",
    "sweep_table",
]


def __getattr__(name: str):
    # ``TimelineSample`` and ``TimelineSampler`` are deprecated: reading
    # either goes through ``repro.reporting.timeline``, which warns.
    # ``from repro.reporting import X`` probes a package with
    # ``hasattr`` before it reads ``X``; only the read warns.
    if name in ("TimelineSample", "TimelineSampler"):
        timeline = sys.modules["repro.reporting.timeline"]
        if sys._getframe(1).f_globals.get("__name__") == "importlib._bootstrap":
            return getattr(timeline, "_" + name)
        return getattr(timeline, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
