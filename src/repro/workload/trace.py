"""Flat request traces: the input to a simulation run.

A :class:`WorkloadTrace` is a time-sorted sequence of rendering
:class:`Request` records plus the dataset suite they reference.  Traces
are plain data — generated by :mod:`repro.workload.actions` /
:mod:`repro.workload.batch`, merged, persisted, replayed — so the same
workload can be run against every scheduler (the comparisons in
Figs. 4-7 are only meaningful on identical traces).

The trace holds its requests column-wise in :class:`RequestColumns`,
a :class:`~repro.core.columns.ColumnTable` with one typed :mod:`array`
per :class:`Request` field (37 bytes per request), from generation to
the simulator's arrival feed, which builds the :class:`Request` rows of
a chunk of arrivals only when it feeds that chunk.
"""

from __future__ import annotations

import json
import operator
from array import array
from collections import deque
from dataclasses import dataclass
from itertools import repeat
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.chunks import Dataset
from repro.core.columns import ColumnTable, column_view, typed_array
from repro.core.job import JOB_TYPES, JobType
from repro.util.validation import check_positive


@dataclass(frozen=True)
class Request:
    """One rendering request as received by the head node's listener.

    Attributes:
        time: Arrival time at the head node (the job initial time
            ``JI``).
        job_type: Interactive or batch.
        dataset: Name of the dataset to render.
        user: Submitting user id.
        action: User-action or batch-submission id; interactive
            framerates (Definition 4) are evaluated per action.
        sequence: Frame index within the action/submission.

    The simulator builds one request per arrival as it feeds the trace
    (see :meth:`RequestColumns._rows`), so the class has explicit
    ``__slots__`` and no per-instance ``__dict__``.  A frozen dataclass
    cannot take its pickled state through ``setattr``;
    :meth:`__setstate__` sets the slots through their descriptors.
    """

    __slots__ = ("time", "job_type", "dataset", "user", "action", "sequence")

    time: float
    job_type: JobType
    dataset: str
    user: int
    action: int
    sequence: int

    def __getstate__(self) -> tuple:
        return (
            self.time,
            self.job_type,
            self.dataset,
            self.user,
            self.action,
            self.sequence,
        )

    def __setstate__(self, state: tuple) -> None:
        for setter, value in zip(_SETTERS, state):
            setter(self, value)


#: The slot descriptors' ``__set__``, in ``Request.__slots__`` order.
_SETTERS = tuple(getattr(Request, name).__set__ for name in Request.__slots__)
_new_object = object.__new__


def _first_rejected(typecode: str, values: Sequence) -> int:
    """Index of the first value a ``typecode`` array does not take."""
    for i, value in enumerate(values):
        try:
            array(typecode, (value,))
        except (TypeError, OverflowError):
            return i
    raise AssertionError("every value converts")  # pragma: no cover


def _in_trace_order(
    time: np.ndarray, action: np.ndarray, sequence: np.ndarray
) -> bool:
    """Whether rows with these keys are in trace order: ``(time, action,
    sequence)``.

    Strictly rising times settle it without looking further; equal
    times (a batch submission's frames) need the ids of those pairs.
    """
    earlier, later = time[:-1], time[1:]
    rising = earlier < later
    if rising.all():
        return True
    tied = earlier == later
    if not (tied | rising).all():
        return False
    a0, a1 = action[:-1][tied], action[1:][tied]
    s0, s1 = sequence[:-1][tied], sequence[1:][tied]
    return bool(((a0 < a1) | ((a0 == a1) & (s0 <= s1))).all())


def _trace_order(
    time: np.ndarray, action: np.ndarray, sequence: np.ndarray
) -> Optional[np.ndarray]:
    """The permutation that puts rows with these keys in trace order, or
    ``None`` when they already are.

    A stream generated action by action, ids rising and frames in
    sequence, is already in (action, sequence) order, so one stable sort
    on time alone puts it in trace order.  Other input falls through to
    a stable keyed sort of the input.  Equal keys mean equal times, so
    the time sort kept their input order and the result equals one
    stable keyed sort of the input.
    """
    if _in_trace_order(time, action, sequence):
        return None
    order = np.argsort(time, kind="stable")
    if _in_trace_order(time[order], action[order], sequence[order]):
        return order
    return np.lexsort((sequence, action, time))


class RequestColumns(ColumnTable):
    """A trace's requests, stored column-wise.

    A read-only :class:`~repro.core.columns.ColumnTable` of
    :class:`Request` rows.  Values come out as Python
    ``float``/``int``/``str`` and :class:`JobType` members.  There is no
    ``append`` and no in-place sort: a :class:`WorkloadTrace` orders its
    columns once, at construction.
    """

    _COLUMNS = (
        ("time", "d"),
        ("type_code", "B"),
        ("dataset_code", "i"),
        ("user", "q"),
        ("action", "q"),
        ("sequence", "q"),
    )

    __slots__ = tuple(name for name, _ in _COLUMNS)

    # -- construction ---------------------------------------------------------

    @classmethod
    def of(
        cls, requests: Iterable[Request], dataset_names: Sequence[str]
    ) -> "RequestColumns":
        """Convert rows to columns, datasets coded by ``dataset_names``.

        Raises ``ValueError`` naming the first request that references
        a dataset not in ``dataset_names``, whose ``job_type`` is not a
        :class:`JobType`, whose ``user``/``action``/``sequence`` is not
        a 64-bit int, or whose time is not a number.
        """
        rows = requests if isinstance(requests, list) else list(requests)
        fields = (
            list(map(operator.attrgetter(name), rows)) for name in Request.__slots__
        )
        return cls._of_fields(dataset_names, rows, *fields)

    @classmethod
    def _of_fields(
        cls,
        dataset_names: Sequence[str],
        rows: Sequence,
        times: Sequence,
        job_types: Sequence,
        datasets: Sequence,
        users: Sequence,
        actions: Sequence,
        sequences: Sequence,
    ) -> "RequestColumns":
        """Columns of per-field value lists; ``rows[i]`` names row ``i``
        in an error message."""
        index = {name: code for code, name in enumerate(dataset_names)}
        try:
            dataset_code = array("i", map(index.__getitem__, datasets))
        except KeyError:
            unknown = next(ds for ds in datasets if ds not in index)
            raise ValueError(
                f"request references unknown dataset {unknown!r}"
            ) from None
        # Each field converts in one C pass; a field that fails is
        # scanned for its first bad value, and the earliest row named.
        problems: List[Tuple[int, str]] = []
        try:
            type_code = array("B", map(JOB_TYPES.index, job_types))
        except ValueError:
            i = next(
                i for i, jt in enumerate(job_types) if not isinstance(jt, JobType)
            )
            problems.append((i, f"job_type must be a JobType, got {job_types[i]!r}"))
        ids = []
        for label, values in (
            ("user", users),
            ("action", actions),
            ("sequence", sequences),
        ):
            try:
                ids.append(array("q", values))
            except (TypeError, OverflowError):
                i = _first_rejected("q", values)
                problems.append((i, f"{label} must be a 64-bit int, got {values[i]!r}"))
        try:
            time = array("d", times)
        except (TypeError, OverflowError):
            i = _first_rejected("d", times)
            problems.append(
                (i, f"time must be finite and >= 0, got {times[i]!r}")
            )
        if problems:
            i, problem = min(problems)
            raise ValueError(f"request {problem} in {rows[i]!r}")
        return cls(dataset_names, time, type_code, dataset_code, *ids)

    @classmethod
    def stacked(
        cls,
        dataset_names: Sequence[str],
        job_type: JobType,
        times: List[np.ndarray],
        datasets: List[Union[int, np.ndarray]],
        users: List[int],
        actions: List[int],
    ) -> "RequestColumns":
        """Whole actions or submissions of one job type, end to end.

        Block ``k`` holds ``len(times[k])`` frames arriving at
        ``times[k]`` in frame order, over dataset code ``datasets[k]``
        (one code, or one per frame), from user ``users[k]`` with id
        ``actions[k]``; its frame sequences count from 0.  The blocks go
        in as numpy arrays, so no per-request object is built.
        """
        counts = np.array([len(t) for t in times], dtype=np.int64)
        total = int(counts.sum())
        starts = np.cumsum(counts) - counts
        return cls(
            dataset_names,
            typed_array("d", np.concatenate(times) if times else ()),
            typed_array("B", np.full(total, JOB_TYPES.index(job_type))),
            typed_array(
                "i",
                np.concatenate(
                    [np.broadcast_to(c, (n,)) for c, n in zip(datasets, counts)]
                )
                if times
                else (),
            ),
            typed_array("q", np.repeat(np.asarray(users, dtype=np.int64), counts)),
            typed_array("q", np.repeat(np.asarray(actions, dtype=np.int64), counts)),
            typed_array("q", np.arange(total) - np.repeat(starts, counts)),
        )

    def _rows(self, start: int, stop: int) -> List[Request]:
        """Rows ``start`` up to ``stop``: allocated, then their slots set
        field by field, all by C iterators with no Python frame per row."""
        fields = self._fields(start, stop)
        rows = list(map(_new_object, repeat(Request, len(fields[0]))))
        for setter, values in zip(_SETTERS, fields):
            deque(map(setter, rows, values), maxlen=0)
        return rows


@dataclass
class WorkloadTrace:
    """A complete, time-sorted workload for one simulation run.

    ``requests`` is given as :class:`RequestColumns` (the generators
    and federation's shard split do) or as a list of :class:`Request`
    rows (only tests and user code build those); construction recodes
    the columns, or converts the list once, so datasets are coded by
    their index in ``datasets``, and the attribute holds the columns
    from then on.
    Construction rejects request times that are not finite and ``>= 0``,
    unknown datasets, a ``job_type`` that is not a :class:`JobType`,
    ids that are not ints, a negative duration and a non-positive
    target framerate, then puts the requests in ``(time, action,
    sequence)`` order (one stable sort) unless they already are.
    """

    requests: Sequence[Request]
    datasets: List[Dataset]
    duration: float
    target_framerate: float = 33.33
    name: str = "custom"

    def __post_init__(self) -> None:
        if not self.duration >= 0:
            raise ValueError(f"duration must be >= 0, got {self.duration!r}")
        check_positive("target_framerate", self.target_framerate)
        names = tuple(ds.name for ds in self.datasets)
        seen = set()
        for name in names:
            if name in seen:
                raise ValueError(f"duplicate dataset name {name!r}")
            seen.add(name)
        requests = self.requests
        if isinstance(requests, RequestColumns):
            requests = requests.recoded(names)
        else:
            requests = RequestColumns.of(requests, names)
        # Whole-trace checks run as column passes; the row is only built
        # to name the first offending request.
        t = column_view(requests.time)
        bad = ~(np.isfinite(t) & (t >= 0))
        if bad.any():
            row = requests[int(np.flatnonzero(bad)[0])]
            raise ValueError(
                f"request time must be finite and >= 0, got {row.time!r} "
                f"in {row!r}"
            )
        order = _trace_order(
            t, column_view(requests.action), column_view(requests.sequence)
        )
        if order is not None:
            requests = requests.take(order)
        self.requests = requests

    # -- summary -------------------------------------------------------------

    @property
    def interactive_count(self) -> int:
        """Number of interactive requests."""
        return self.requests.count_of(JobType.INTERACTIVE)

    @property
    def batch_count(self) -> int:
        """Number of batch requests."""
        return self.requests.count_of(JobType.BATCH)

    @property
    def action_count(self) -> int:
        """Number of distinct interactive actions."""
        return len(set(self.requests.where(JobType.INTERACTIVE, "action")))

    def dataset_by_name(self, name: str) -> Dataset:
        """Look up a dataset of this trace by name."""
        for ds in self.datasets:
            if ds.name == name:
                return ds
        raise KeyError(name)

    def summary(self) -> str:
        """One-line description in the style of Table II."""
        total = sum(d.size for d in self.datasets)
        return (
            f"{self.name}: {self.duration:.0f}s, {len(self.datasets)} datasets "
            f"({total / 2**30:.0f} GiB), {self.batch_count} batch jobs, "
            f"{self.interactive_count} interactive jobs, "
            f"target {self.target_framerate:.2f} fps"
        )

    # -- persistence ----------------------------------------------------------

    def to_json(self) -> str:
        """Serialize to a JSON string (record/replay support)."""
        columns = self.requests
        values = [jt.value for jt in JOB_TYPES]
        return json.dumps(
            {
                "name": self.name,
                "duration": self.duration,
                "target_framerate": self.target_framerate,
                "datasets": [
                    {"name": d.name, "size": d.size} for d in self.datasets
                ],
                "requests": list(
                    zip(
                        columns.time,
                        map(values.__getitem__, columns.type_code),
                        map(columns.dataset_names.__getitem__, columns.dataset_code),
                        columns.user,
                        columns.action,
                        columns.sequence,
                    )
                ),
            }
        )

    @classmethod
    def from_json(cls, text: str) -> "WorkloadTrace":
        """Reconstruct a trace serialized by :meth:`to_json`.

        Raises ``ValueError`` naming the first request row that is not a
        list of six fields.
        """
        data = json.loads(text)
        datasets = [Dataset(d["name"], d["size"]) for d in data["datasets"]]
        rows = data["requests"]
        for i, row in enumerate(rows):
            if not isinstance(row, list) or len(row) != 6:
                raise ValueError(
                    f"request row {i} must have 6 fields (time, job_type, "
                    f"dataset, user, action, sequence), got {row!r}"
                )
        fields = [list(column) for column in zip(*rows)] or [[]] * 6
        fields[1] = list(map(JobType, fields[1]))
        requests = RequestColumns._of_fields([d.name for d in datasets], rows, *fields)
        return cls(
            requests=requests,
            datasets=datasets,
            duration=data["duration"],
            target_framerate=data["target_framerate"],
            name=data["name"],
        )


def merge_traces(
    traces: Sequence[WorkloadTrace],
    *,
    name: str = "merged",
) -> WorkloadTrace:
    """Merge traces over a shared timeline into one.

    Dataset lists are united by name (sizes must agree); the duration is
    the maximum of the parts.  The parts' columns are concatenated with
    their dataset codes remapped, and the merged trace sorts them once.
    """
    if not traces:
        raise ValueError("no traces to merge")
    datasets: Dict[str, Dataset] = {}
    target = traces[0].target_framerate
    for tr in traces:
        for ds in tr.datasets:
            existing = datasets.get(ds.name)
            if existing is not None and existing.size != ds.size:
                raise ValueError(f"conflicting sizes for dataset {ds.name!r}")
            datasets[ds.name] = ds
    return WorkloadTrace(
        requests=RequestColumns.joined(tr.requests for tr in traces),
        datasets=list(datasets.values()),
        duration=max(tr.duration for tr in traces),
        target_framerate=target,
        name=name,
    )


__all__ = ["Request", "RequestColumns", "WorkloadTrace", "merge_traces"]
