"""Row tables stored as typed columns.

The two row series that grow with a run, the request trace going in
(:class:`~repro.workload.trace.RequestColumns`) and the job records
coming out (:class:`~repro.reporting.collectors.JobRecords`), are both
:class:`ColumnTable` subclasses: one typed :mod:`array` per row field,
the job type stored as its :data:`~repro.core.job.JOB_TYPES` code and
the dataset as a code into the table's ``dataset_names``.  Doubles and
64-bit integers round-trip exactly, so a row built from the columns
equals the row stored.  Readers that need only some fields read the
arrays directly, or use :meth:`ColumnTable.count_of` and
:meth:`ColumnTable.where`, and never build a row.
"""

from __future__ import annotations

import operator
from array import array
from collections.abc import Sequence as _SequenceABC
from itertools import chain, compress, repeat
from typing import (
    Any,
    Callable,
    ClassVar,
    Dict,
    Iterable,
    Iterator,
    List,
    Tuple,
    Type,
    TypeVar,
    Union,
)

import numpy as np

from repro.cluster.event_queue import FEED_CHUNK
from repro.core.job import JOB_TYPES, JobType

_T = TypeVar("_T", bound="ColumnTable")


def typed_array(typecode: str, values: Any) -> array:
    """A typed array holding ``values``, copied as machine numbers."""
    out = array(typecode)
    out.frombytes(
        memoryview(np.ascontiguousarray(values, dtype=typecode)).cast("B")
    )
    return out


def column_view(column: array) -> np.ndarray:
    """A read-only numpy view of ``column`` (no copy)."""
    return np.frombuffer(column, dtype=column.typecode)


class ColumnTable(_SequenceABC):
    """A read-only sequence of rows, stored column-wise.

    ``len``, indexing (negative too) and iteration build identical rows
    on access, a slice is a table of the same class, and a table
    compares equal to any sequence of the same rows, a ``list`` or a
    ``tuple`` included (so it is unhashable).  A subclass names its
    columns in ``_COLUMNS`` and its ``__slots__`` (``type_code`` and
    ``dataset_code`` among them) and builds its rows from
    :meth:`_fields` in ``_rows``, which indexing and iteration share.
    """

    #: ``(column, array typecode)`` in row field order.
    _COLUMNS: ClassVar[Tuple[Tuple[str, str], ...]] = ()

    __slots__ = ("dataset_names",)

    type_code: array
    dataset_code: array
    #: The subclass's one row builder: rows ``start`` up to ``stop``.
    _rows: Callable[[int, int], Iterable[Any]]

    def __init__(self, dataset_names: Iterable[str] = (), *columns: array) -> None:
        """Columns in ``_COLUMNS`` order, or empty ones when none are given."""
        #: Dataset names by their code in ``dataset_code``.
        self.dataset_names: List[str] = list(dataset_names)
        if not columns:
            columns = tuple(array(typecode) for _, typecode in self._COLUMNS)
        for (name, _), column in zip(self._COLUMNS, columns):
            setattr(self, name, column)

    # -- merging ---------------------------------------------------------------

    @classmethod
    def joined(cls: Type[_T], parts: Iterable[_T]) -> _T:
        """The rows of ``parts`` in order, in one table.

        Its ``dataset_names`` are the parts' names in first-seen order;
        each part's dataset codes are remapped onto them.  No row is
        built.
        """
        parts = list(parts)
        names: Dict[str, None] = {}
        for part in parts:
            names.update(dict.fromkeys(part.dataset_names))
        out = cls(names)
        for part in parts:
            part = part.recoded(out.dataset_names)
            for name, _ in cls._COLUMNS:
                getattr(out, name).extend(getattr(part, name))
        return out

    def recoded(self: _T, dataset_names: Iterable[str]) -> _T:
        """These rows with dataset codes into ``dataset_names``.

        Raises ``ValueError`` for a row whose dataset is not in
        ``dataset_names`` (the first one, in row order).
        """
        dataset_names = list(dataset_names)
        if dataset_names == self.dataset_names:
            return self
        index = {name: code for code, name in enumerate(dataset_names)}
        remap = np.array(
            [index.get(name, -1) for name in self.dataset_names], dtype=np.int64
        )
        codes = remap[column_view(self.dataset_code)]
        missing = np.flatnonzero(codes < 0)
        if missing.size:
            row = int(missing[0])
            unknown = self.dataset_names[self.dataset_code[row]]
            raise ValueError(f"row {row} references unknown dataset {unknown!r}")
        return type(self)(
            dataset_names,
            *(
                typed_array(typecode, codes)
                if name == "dataset_code"
                else getattr(self, name)
                for name, typecode in self._COLUMNS
            ),
        )

    def take(self: _T, indices: np.ndarray) -> _T:
        """The rows at ``indices``, in that order."""
        return type(self)(
            self.dataset_names,
            *(
                typed_array(typecode, column_view(getattr(self, name))[indices])
                for name, typecode in self._COLUMNS
            ),
        )

    # -- column passes ---------------------------------------------------------

    def count_of(self, job_type: JobType, first: int = 0) -> int:
        """Rows of ``job_type`` from row ``first`` on."""
        codes = self.type_code[first:] if first else self.type_code
        return codes.count(JOB_TYPES.index(job_type))

    def where(self, job_type: JobType, *columns: str) -> Iterator[tuple]:
        """The named columns' values of each ``job_type`` row, in row order."""
        code = JOB_TYPES.index(job_type)
        return compress(
            zip(*(getattr(self, name) for name in columns)),
            map(code.__eq__, self.type_code),
        )

    # -- the sequence ----------------------------------------------------------

    def _fields(self, start: int, stop: int) -> List[Iterable]:
        """Each field's values for rows ``start`` up to ``stop``, in row
        field order, the job type and the dataset decoded."""
        decoded = {"type_code": JOB_TYPES, "dataset_code": self.dataset_names}
        fields: List[Iterable] = []
        for name, _ in self._COLUMNS:
            column = getattr(self, name)[start:stop]
            codes = decoded.get(name)
            if codes is not None:
                column = map(operator.getitem, repeat(codes), column)
            fields.append(column)
        return fields

    def __len__(self) -> int:
        return len(self.type_code)

    def __getitem__(self: _T, index: Union[int, slice]) -> Any:
        if isinstance(index, slice):
            return type(self)(
                self.dataset_names,
                *(getattr(self, name)[index] for name, _ in self._COLUMNS),
            )
        i = range(len(self))[index]
        return next(iter(self._rows(i, i + 1)))

    def __iter__(self) -> Iterator[Any]:
        """The rows in order, built :data:`FEED_CHUNK` at a time.

        The simulator's arrival feed reads this iterator one chunk per
        refill, so it holds at most one chunk of built rows.
        """
        n = len(self)
        return chain.from_iterable(
            map(
                self._rows,
                range(0, n, FEED_CHUNK),
                range(FEED_CHUNK, n + FEED_CHUNK, FEED_CHUNK),
            )
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, _SequenceABC) or isinstance(other, (str, bytes)):
            return NotImplemented
        return len(self) == len(other) and all(map(operator.eq, self, other))

    __hash__ = None  # type: ignore[assignment]  # equal to a list: unhashable

    def __reduce__(self) -> tuple:
        return (
            type(self),
            (self.dataset_names,)
            + tuple(getattr(self, name) for name, _ in self._COLUMNS),
        )

    def __repr__(self) -> str:
        return f"<{type(self).__name__}: {len(self)} rows>"


__all__ = ["ColumnTable", "column_view", "typed_array"]
