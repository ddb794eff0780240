"""Measurement collection during a simulation run.

The collector converts completed :class:`~repro.core.job.RenderJob`
objects into compact :class:`JobRecord` rows and accumulates the
counters behind Table III: data-reuse hit rate and the wall-clock cost
of the scheduling procedure itself.  It keeps no reference to the job,
so once the service releases the job's task back-references at
completion the job and its tasks are freed by refcount; a run's live
heap then tracks its in-flight work, not the trace.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Tuple

from repro.core.job import JobType, RenderJob


class JobRecord(NamedTuple):
    """Compact record of one completed rendering job.

    Times follow the paper's definitions: ``arrival`` is ``JI``,
    ``start`` is ``JS``, ``finish`` is ``JF`` (compositing included).
    A named tuple: rows are immutable and cheap — one is allocated per
    completed job, simulation-runs deep in the hot path.
    """

    job_id: int
    job_type: JobType
    dataset: str
    user: int
    action: int
    sequence: int
    arrival: float
    start: float
    finish: float
    task_count: int
    cache_hits: int
    io_seconds: float
    group_size: int

    @property
    def latency(self) -> float:
        """Definition 3: ``JF - JI``."""
        return self.finish - self.arrival

    @property
    def execution(self) -> float:
        """Definition 2: ``JExec = JF - JS`` (the "working time")."""
        return self.finish - self.start

    @property
    def cache_misses(self) -> int:
        """Tasks that paid I/O."""
        return self.task_count - self.cache_hits


#: Direct tuple allocation for JobRecord rows: the generated namedtuple
#: ``__new__`` is a Python-level frame per call, and one row is built per
#: completed job.  ``tuple.__new__(JobRecord, ...)`` builds the identical
#: object C-level (fields passed positionally, in declaration order).
_job_record_new = tuple.__new__


@dataclass
class SchedulingCostStats:
    """Wall-clock accounting of the scheduling procedure (Table III)."""

    invocations: int = 0
    total_seconds: float = 0.0
    jobs_scheduled: int = 0
    tasks_assigned: int = 0

    def record(self, seconds: float, jobs: int, tasks: int) -> None:
        """Add one scheduler invocation's measurements."""
        self.invocations += 1
        self.total_seconds += seconds
        self.jobs_scheduled += jobs
        self.tasks_assigned += tasks

    @property
    def mean_cost_per_job(self) -> float:
        """Average scheduling time per job, in seconds."""
        if self.jobs_scheduled == 0:
            return 0.0
        return self.total_seconds / self.jobs_scheduled

    @property
    def mean_cost_per_job_us(self) -> float:
        """Average scheduling time per job, in microseconds (Table III)."""
        return self.mean_cost_per_job * 1e6

    @property
    def mean_cost_per_invocation(self) -> float:
        """Average time of one scheduler invocation, in seconds."""
        if self.invocations == 0:
            return 0.0
        return self.total_seconds / self.invocations


class SimulationCollector:
    """Accumulates job records and run-level counters."""

    def __init__(self) -> None:
        self.records: List[JobRecord] = []
        self.scheduling = SchedulingCostStats()
        #: Jobs that entered the head node's queue, per job type.
        self.submitted_by_type: Dict[JobType, int] = dict.fromkeys(JobType, 0)
        self.tasks_hit = 0
        self.tasks_missed = 0
        #: Per interactive action: [issued count, first issue, last issue].
        #: Needed for delivered-framerate analysis (frames delivered over
        #: the span the user was actually interacting).
        self.action_issues: Dict[int, List[float]] = {}

    # -- event hooks ---------------------------------------------------------

    def on_submit(self, job: RenderJob) -> None:
        """Record a job entering the head node's queue."""
        self.submitted_by_type[job.job_type] += 1
        if job.job_type is JobType.INTERACTIVE:
            entry = self.action_issues.get(job.action)
            if entry is None:
                self.action_issues[job.action] = [
                    1.0,
                    job.arrival_time,
                    job.arrival_time,
                ]
            else:
                entry[0] += 1.0
                if job.arrival_time < entry[1]:
                    entry[1] = job.arrival_time
                if job.arrival_time > entry[2]:
                    entry[2] = job.arrival_time

    def on_job_complete(
        self, job: RenderJob, summary: Tuple[List[int], float, int, float]
    ) -> None:
        """Convert a completed job into a :class:`JobRecord`.

        ``summary`` is the job's
        :meth:`~repro.core.job.RenderJob.completion_summary`, computed
        once per job and shared with compositing.
        """
        group_nodes, start, hits, io_total = summary
        task_count = len(job.tasks)
        self.tasks_hit += hits
        self.tasks_missed += task_count - hits
        self.records.append(
            _job_record_new(
                JobRecord,
                (
                    job.job_id,
                    job.job_type,
                    job.dataset.name,
                    job.user,
                    job.action,
                    job.sequence,
                    job.arrival_time,
                    start,
                    job.finish_time,
                    task_count,
                    hits,
                    io_total,
                    len(group_nodes),
                ),
            )
        )

    # -- derived -------------------------------------------------------------

    @property
    def jobs_submitted(self) -> int:
        """Jobs that entered the head node's queue."""
        return sum(self.submitted_by_type.values())

    @property
    def jobs_completed(self) -> int:
        """Jobs with a recorded completion."""
        return len(self.records)

    @property
    def hit_rate(self) -> float:
        """Data-reuse hit rate over executed tasks (Table III)."""
        total = self.tasks_hit + self.tasks_missed
        return self.tasks_hit / total if total else 0.0

    def interactive_records(self) -> List[JobRecord]:
        """Completed interactive jobs."""
        return [r for r in self.records if r.job_type is JobType.INTERACTIVE]

    def batch_records(self) -> List[JobRecord]:
        """Completed batch jobs."""
        return [r for r in self.records if r.job_type is JobType.BATCH]


__all__ = ["JobRecord", "SchedulingCostStats", "SimulationCollector"]
