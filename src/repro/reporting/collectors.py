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
from collections.abc import Sequence as _SequenceABC
from dataclasses import dataclass
from functools import partial
from itertools import compress
from typing import (
    Dict,
    Iterable,
    Iterator,
    List,
    NamedTuple,
    Tuple,
    Union,
)

from repro.core.job import JOB_TYPES, JobType, RenderJob


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

#: ``(column, array typecode)`` in :class:`JobRecord` field order.  The
#: categorical fields are stored as codes: ``type_code`` indexes
#: :data:`~repro.core.job.JOB_TYPES`, ``dataset_code`` the
#: records' ``dataset_names``.  Doubles and 64-bit integers round-trip
#: exactly, so a row built from the columns equals the row appended.
_COLUMNS: Tuple[Tuple[str, str], ...] = (
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


class JobRecords(_SequenceABC):
    """Completed-job records, stored column-wise.

    A read-only sequence of :class:`JobRecord`: ``len``, indexing
    (negative too), slicing (a ``list`` of rows) and iteration build
    identical rows on access, and it compares equal to any sequence of
    the same rows, a ``list`` included.  Readers that need only some
    fields read the columns directly — the typed arrays named in
    ``_COLUMNS`` — or use :meth:`count_of`, :meth:`latencies` and
    :meth:`where`.  Only the collector appends, and
    :meth:`extend` merges whole record sets.
    """

    __slots__ = tuple(name for name, _ in _COLUMNS) + (
        "dataset_names",
        "_dataset_codes",
    )

    def __init__(self) -> None:
        for name, typecode in _COLUMNS:
            setattr(self, name, array(typecode))
        #: Dataset names by their code in ``dataset_code``.
        self.dataset_names: List[str] = []
        self._dataset_codes: Dict[str, int] = {}

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

    @classmethod
    def joined(cls, parts: Iterable["JobRecords"]) -> "JobRecords":
        """The rows of ``parts`` in order, merged column by column.

        Each part's dataset codes are remapped onto the merged
        ``dataset_names``; no row is built.
        """
        out = cls()
        names, codes = out.dataset_names, out._dataset_codes
        for part in parts:
            remap = []
            for name in part.dataset_names:
                code = codes.setdefault(name, len(names))
                if code == len(names):
                    names.append(name)
                remap.append(code)
            for name, _ in _COLUMNS:
                column = getattr(part, name)
                if name == "dataset_code" and remap != list(range(len(remap))):
                    column = map(remap.__getitem__, column)
                getattr(out, name).extend(column)
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

    # -- column readers ------------------------------------------------------

    def count_of(self, job_type: JobType, first: int = 0) -> int:
        """Rows of ``job_type`` from row ``first`` on."""
        codes = self.type_code[first:] if first else self.type_code
        return codes.count(JOB_TYPES.index(job_type))

    def latencies(self, first: int = 0) -> List[float]:
        """Definition-3 latency (:attr:`JobRecord.latency`) per row from
        row ``first`` on, in row order."""
        finish, arrival = self.finish, self.arrival
        if first:
            finish, arrival = finish[first:], arrival[first:]
        return [f - a for f, a in zip(finish, arrival)]

    def where(self, job_type: JobType, *columns: str) -> Iterator[tuple]:
        """The named columns' values of each ``job_type`` row, in row order."""
        code = JOB_TYPES.index(job_type)
        return compress(
            zip(*(getattr(self, name) for name in columns)),
            [c == code for c in self.type_code],
        )

    # -- the sequence --------------------------------------------------------

    def __len__(self) -> int:
        return len(self.job_id)

    def _row(self, i: int) -> JobRecord:
        return _make_row(
            (
                self.job_id[i],
                JOB_TYPES[self.type_code[i]],
                self.dataset_names[self.dataset_code[i]],
                self.user[i],
                self.action[i],
                self.sequence[i],
                self.arrival[i],
                self.start[i],
                self.finish[i],
                self.task_count[i],
                self.cache_hits[i],
                self.io_seconds[i],
                self.group_size[i],
            )
        )

    def __getitem__(
        self, index: Union[int, slice]
    ) -> Union[JobRecord, List[JobRecord]]:
        if isinstance(index, slice):
            return [self._row(i) for i in range(len(self))[index]]
        return self._row(range(len(self))[index])

    def __iter__(self) -> Iterator[JobRecord]:
        return map(
            _make_row,
            zip(
                self.job_id,
                map(JOB_TYPES.__getitem__, self.type_code),
                map(self.dataset_names.__getitem__, self.dataset_code),
                self.user,
                self.action,
                self.sequence,
                self.arrival,
                self.start,
                self.finish,
                self.task_count,
                self.cache_hits,
                self.io_seconds,
                self.group_size,
            ),
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, _SequenceABC) or isinstance(other, (str, bytes)):
            return NotImplemented
        return len(self) == len(other) and all(
            a == b for a, b in zip(self, other)
        )

    __hash__ = None  # type: ignore[assignment]  # equal to a list: unhashable

    def __repr__(self) -> str:
        return f"<JobRecords: {len(self)} rows>"


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
        """Append a completed job's :class:`JobRecord` row to the columns.

        ``summary`` is the job's
        :meth:`~repro.core.job.RenderJob.completion_summary`, computed
        once per job and shared with compositing.
        """
        group_nodes, start, hits, io_total = summary
        task_count = len(job.tasks)
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
