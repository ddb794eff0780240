"""Evaluation analytics over job records.

Implements the quantities plotted in the paper's evaluation:

* per-action and mean interactive framerates (Definition 4),
* interactive/batch latency statistics (Definition 3),
* batch mean working time (``JExec``, Definition 2),
* per-scheduler summary rows for the Fig. 4-7 style reports.

Every function reads the record columns of
:class:`~repro.reporting.collectors.JobRecords`; a plain sequence of
:class:`~repro.reporting.collectors.JobRecord` rows is turned into
columns once, at the function boundary.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence

from repro.core.cost_model import framerate, mean, percentile
from repro.core.job import JobType
from repro.reporting.collectors import JobRecord, JobRecords


def framerates_by_action(records: Sequence[JobRecord]) -> Dict[int, float]:
    """Definition-4 framerate of each interactive action.

    Jobs are taken in completion order per action; actions with fewer
    than two completed jobs score 0 fps (no frame interval was ever
    delivered to that user).
    """
    finishes: Dict[int, List[float]] = defaultdict(list)
    for action, finish in JobRecords.of(records).where(
        JobType.INTERACTIVE, "action", "finish"
    ):
        finishes[action].append(finish)
    return {
        action: framerate(sorted(times)) for action, times in finishes.items()
    }


def mean_interactive_framerate(records: Sequence[JobRecord]) -> float:
    """Mean per-action Definition-4 framerate."""
    rates = framerates_by_action(records)
    return mean(list(rates.values()))


def delivered_framerates_by_action(
    records: Sequence[JobRecord],
    action_issues: Mapping[int, Sequence[float]],
    frame_interval: float,
) -> Dict[int, float]:
    """Frames *delivered* per second of user interaction, per action.

    ``completed_frames / (issue span + one interval)``.  Under steady
    completion this converges to Definition 4; under backlog it reflects
    what the user actually received.  Definition 4's completion-spacing
    form rewards burst delivery (a scheduler that completes five
    adjacent frames milliseconds apart after seconds of silence would
    score hundreds of fps), so comparison reports use this form.

    Args:
        records: Completed-job records.
        action_issues: ``action -> (issued count, first issue, last
            issue)`` from the collector.
        frame_interval: The request interval (1 / target framerate).
    """
    completed: Dict[int, int] = defaultdict(int)
    for (action,) in JobRecords.of(records).where(JobType.INTERACTIVE, "action"):
        completed[action] += 1
    out: Dict[int, float] = {}
    for action, (_issued, first, last) in action_issues.items():
        span = (last - first) + frame_interval
        out[action] = completed.get(action, 0) / span if span > 0 else 0.0
    return out


def mean_delivered_framerate(
    records: Sequence[JobRecord],
    action_issues: Mapping[int, Sequence[float]],
    frame_interval: float,
) -> float:
    """Mean per-action delivered framerate (the Fig. 4-7 bar heights)."""
    rates = delivered_framerates_by_action(records, action_issues, frame_interval)
    return mean(list(rates.values()))


@dataclass(frozen=True)
class LatencyStats:
    """Latency distribution summary of a job class."""

    count: int
    mean: float
    p50: float
    p95: float
    maximum: float
    p99: float = 0.0

    @classmethod
    def of(cls, latencies: Sequence[float]) -> "LatencyStats":
        """Summarize a latency sample (zeros for an empty sample)."""
        if not latencies:
            return cls(count=0, mean=0.0, p50=0.0, p95=0.0, maximum=0.0)
        return cls(
            count=len(latencies),
            mean=mean(latencies),
            p50=percentile(latencies, 50),
            p95=percentile(latencies, 95),
            maximum=max(latencies),
            p99=percentile(latencies, 99),
        )


def _latencies(records: JobRecords, job_type: JobType) -> List[float]:
    """Definition-3 latencies of ``job_type``'s rows, in row order."""
    return [f - a for f, a in records.where(job_type, "finish", "arrival")]


def latency_stats(
    records: Sequence[JobRecord], job_type: JobType
) -> LatencyStats:
    """Latency summary for one job class."""
    return LatencyStats.of(_latencies(JobRecords.of(records), job_type))


def batch_working_time(records: Sequence[JobRecord]) -> float:
    """Mean ``JExec`` of completed batch jobs (Figs. 5-7 right bars).

    Shorter working time indicates higher batch throughput.
    """
    rows = JobRecords.of(records).where(JobType.BATCH, "finish", "start")
    return mean([f - s for f, s in rows])


@dataclass(frozen=True)
class SchedulerSummary:
    """One scheduler's row in a Fig. 4-7 style comparison.

    All times in seconds, framerates in fps.
    """

    scheduler: str
    interactive_fps: float
    interactive_latency: float
    batch_latency: float
    batch_working_time: float
    interactive_completed: int
    batch_completed: int
    hit_rate: float
    sched_cost_us: float
    #: p99 interactive latency; defaulted so positional construction
    #: from before the field existed keeps working.
    interactive_p99: float = 0.0

    def row(self) -> str:
        """Fixed-width text row for report tables."""
        return (
            f"{self.scheduler:<7} {self.interactive_fps:>8.2f} "
            f"{self.interactive_latency:>12.3f} {self.interactive_p99:>12.3f} "
            f"{self.batch_latency:>12.3f} "
            f"{self.batch_working_time:>12.3f} {self.hit_rate * 100:>8.2f}% "
            f"{self.sched_cost_us:>10.1f}"
        )


def summarize(
    scheduler: str,
    records: Sequence[JobRecord],
    *,
    hit_rate: float,
    sched_cost_us: float,
    action_issues: Optional[Mapping[int, Sequence[float]]] = None,
    frame_interval: float = 0.03,
) -> SchedulerSummary:
    """Build a :class:`SchedulerSummary` from a run's job records.

    With ``action_issues`` (from the collector) the framerate is the
    delivered form; without it, Definition 4 over completions.
    """
    records = JobRecords.of(records)
    if action_issues is not None:
        fps = mean_delivered_framerate(records, action_issues, frame_interval)
    else:
        fps = mean_interactive_framerate(records)
    interactive_latencies = _latencies(records, JobType.INTERACTIVE)
    batch_latencies = _latencies(records, JobType.BATCH)
    return SchedulerSummary(
        scheduler=scheduler,
        interactive_fps=fps,
        interactive_latency=mean(interactive_latencies),
        batch_latency=mean(batch_latencies),
        batch_working_time=batch_working_time(records),
        interactive_completed=len(interactive_latencies),
        batch_completed=len(batch_latencies),
        hit_rate=hit_rate,
        sched_cost_us=sched_cost_us,
        interactive_p99=percentile(interactive_latencies, 99),
    )


__all__ = [
    "framerates_by_action",
    "mean_interactive_framerate",
    "delivered_framerates_by_action",
    "mean_delivered_framerate",
    "LatencyStats",
    "latency_stats",
    "batch_working_time",
    "SchedulerSummary",
    "summarize",
]
