"""Measurement collection during a simulation run.

The collector appends each completed :class:`~repro.core.job.RenderJob`
to :class:`JobRecords`, one typed :mod:`array` per :class:`JobRecord`
field, and accumulates the counters behind Table III: data-reuse hit
rate and the wall-clock cost of the scheduling procedure itself.  It
keeps no reference to the job, so once the service releases the job's
task back-references at completion the job and its tasks are freed by
refcount.  A completed job costs one row of machine numbers (about 90
bytes) instead of a 13-field tuple and its boxed floats, so the records
of a long trace stay small; readers that only need a column (the
analysis functions, the probe's windows) never build a row.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from functools import partial
from typing import Dict, Iterable, Iterator, List, NamedTuple, Tuple

from repro.core.columns import ColumnTable
from repro.core.job import JOB_TYPES, JobType, RenderJob

#: Bound once: ``on_submit`` reads it per submitted job.
_INTERACTIVE = JobType.INTERACTIVE


class JobRecord(NamedTuple):
    """Compact record of one completed rendering job.

    Times follow the paper's definitions: ``arrival`` is ``JI``,
    ``start`` is ``JS``, ``finish`` is ``JF`` (compositing included).
    A run stores its rows column-wise in :class:`JobRecords`, which
    builds each row on access.
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


#: Builds a :class:`JobRecord` from a tuple of its fields C-level; the
#: generated namedtuple ``__new__`` is a Python frame per row.
_make_row = partial(tuple.__new__, JobRecord)


class JobRecords(ColumnTable):
    """Completed-job records, stored column-wise.

    A read-only :class:`~repro.core.columns.ColumnTable` of
    :class:`JobRecord` rows.  Readers that need only some fields read
    the columns directly or use :meth:`count_of`, :meth:`latencies` and
    :meth:`where`.  Only the collector appends, and :meth:`joined`
    merges whole record sets.
    """

    _COLUMNS = (
        ("job_id", "q"),
        ("type_code", "B"),
        ("dataset_code", "i"),
        ("user", "q"),
        ("action", "q"),
        ("sequence", "q"),
        ("arrival", "d"),
        ("start", "d"),
        ("finish", "d"),
        ("task_count", "i"),
        ("cache_hits", "i"),
        ("io_seconds", "d"),
        ("group_size", "i"),
    )

    __slots__ = tuple(name for name, _ in _COLUMNS) + ("_dataset_codes",)

    def __init__(self, dataset_names: Iterable[str] = (), *columns: array) -> None:
        super().__init__(dataset_names, *columns)
        self._dataset_codes: Dict[str, int] = {
            name: code for code, name in enumerate(self.dataset_names)
        }

    @classmethod
    def of(cls, records: Iterable[JobRecord]) -> "JobRecords":
        """``records`` as columns: itself if it already is, else a copy.

        The analysis functions and the in-run readers call this at
        their boundary, so a plain ``list`` of rows (tests, merged
        federation results) takes the same column path as a run's own
        records.
        """
        if isinstance(records, cls):
            return records
        out = cls()
        for r in records:
            out._append(r[0], JOB_TYPES.index(r[1]), *r[2:])
        return out

    def _append(
        self,
        job_id: int,
        type_code: int,
        dataset: str,
        user: int,
        action: int,
        sequence: int,
        arrival: float,
        start: float,
        finish: float,
        task_count: int,
        cache_hits: int,
        io_seconds: float,
        group_size: int,
    ) -> None:
        """Append one row, its job type as a code (the collector's write path)."""
        code = self._dataset_codes.get(dataset)
        if code is None:
            code = self._dataset_codes[dataset] = len(self.dataset_names)
            self.dataset_names.append(dataset)
        self.job_id.append(job_id)
        self.type_code.append(type_code)
        self.dataset_code.append(code)
        self.user.append(user)
        self.action.append(action)
        self.sequence.append(sequence)
        self.arrival.append(arrival)
        self.start.append(start)
        self.finish.append(finish)
        self.task_count.append(task_count)
        self.cache_hits.append(cache_hits)
        self.io_seconds.append(io_seconds)
        self.group_size.append(group_size)

    def latencies(self, first: int = 0) -> List[float]:
        """Definition-3 latency (:attr:`JobRecord.latency`) per row from
        row ``first`` on, in row order."""
        finish, arrival = self.finish, self.arrival
        if first:
            finish, arrival = finish[first:], arrival[first:]
        return [f - a for f, a in zip(finish, arrival)]

    def _rows(self, start: int, stop: int) -> Iterator[JobRecord]:
        return map(_make_row, zip(*self._fields(start, stop)))


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
        self.records = JobRecords()
        self.scheduling = SchedulingCostStats()
        #: Jobs that entered the head node's queue, by job-type code
        #: (an index into :data:`~repro.core.job.JOB_TYPES`).
        self.submitted_by_code: List[int] = [0] * len(JOB_TYPES)
        #: Jobs with a recorded completion, by job-type code.
        self.completed_by_code: List[int] = [0] * len(JOB_TYPES)
        self.tasks_hit = 0
        self.tasks_missed = 0
        #: Per interactive action: [issued count, first issue, last issue].
        #: Needed for delivered-framerate analysis (frames delivered over
        #: the span the user was actually interacting).
        self.action_issues: Dict[int, List[float]] = {}

    # -- event hooks ---------------------------------------------------------

    def on_submit(self, job: RenderJob) -> None:
        """Record a job entering the head node's queue."""
        self.submitted_by_code[JOB_TYPES.index(job.job_type)] += 1
        if job.job_type is _INTERACTIVE:
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
        """Append a completed job's :class:`JobRecord` row to the columns.

        ``summary`` is the job's
        :meth:`~repro.core.job.RenderJob.completion_summary`, computed
        once per job and shared with compositing.
        """
        group_nodes, start, hits, io_total = summary
        task_count = len(job.chunks)
        self.tasks_hit += hits
        self.tasks_missed += task_count - hits
        code = JOB_TYPES.index(job.job_type)
        self.completed_by_code[code] += 1
        self.records._append(
            job.job_id,
            code,
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
        )

    # -- derived -------------------------------------------------------------

    @property
    def submitted_by_type(self) -> Dict[JobType, int]:
        """Jobs that entered the head node's queue, per job type (a copy)."""
        return dict(zip(JOB_TYPES, self.submitted_by_code))

    @property
    def completed_by_type(self) -> Dict[JobType, int]:
        """Jobs with a recorded completion, per job type (a copy)."""
        return dict(zip(JOB_TYPES, self.completed_by_code))

    @property
    def jobs_submitted(self) -> int:
        """Jobs that entered the head node's queue."""
        return sum(self.submitted_by_code)

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


__all__ = [
    "JobRecord",
    "JobRecords",
    "SchedulingCostStats",
    "SimulationCollector",
]
