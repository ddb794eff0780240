"""The column-table contract, checked on every :class:`ColumnTable`.

Both tables that grow with a run, the trace's :class:`RequestColumns`
and the run's :class:`JobRecords`, must behave exactly like the list of
rows they were built from: indexing, slicing, equality, pickling,
merging and the column passes.  Each property runs on both classes.

The example count comes from the Hypothesis profile, so
``--hypothesis-profile=deep`` runs this suite far past tier-1's count.
"""

import pickle
from dataclasses import dataclass
from typing import Callable

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.columns import ColumnTable
from repro.core.job import JobType
from repro.reporting.collectors import JobRecord, JobRecords
from repro.workload.trace import Request, RequestColumns

NAMES = ["a", "b", "c", "d"]

int64 = st.integers(-(2**63), 2**63 - 1)
int32 = st.integers(-(2**31), 2**31 - 1)
double = st.floats(allow_nan=False)
job_types = st.sampled_from(list(JobType))
datasets = st.sampled_from(NAMES)


@dataclass(frozen=True)
class Kind:
    """One table class, its rows and how a list of rows becomes a table."""

    table: type
    row: type
    rows: st.SearchStrategy
    of: Callable  # (rows, dataset names) -> table
    fields: Callable  # row -> tuple of its field values


KINDS = [
    Kind(
        JobRecords,
        JobRecord,
        st.builds(
            JobRecord,
            int64, job_types, datasets, int64, int64, int64,
            double, double, double, int32, int32, double, int32,
        ),
        lambda rows, names: JobRecords.of(rows).recoded(names),
        tuple,
    ),
    Kind(
        RequestColumns,
        Request,
        st.builds(Request, double, job_types, datasets, int64, int64, int64),
        RequestColumns.of,
        lambda r: tuple(getattr(r, name) for name in Request.__slots__),
    ),
]

kinds = pytest.mark.parametrize("kind", KINDS, ids=lambda k: k.table.__name__)

#: The example count is the profile's; only the deadline is lifted.
PROPERTY = settings(deadline=None)

name_orders = st.permutations(NAMES)
slices = st.tuples(
    st.none() | st.integers(-12, 12),
    st.none() | st.integers(-12, 12),
    st.none() | st.integers(-3, 3).filter(bool),
).map(lambda bounds: slice(*bounds))


def row_lists(kind):
    return st.lists(kind.rows, max_size=10)


@kinds
@PROPERTY
@given(data=st.data())
def test_indexing_builds_the_rows(kind, data):
    rows = data.draw(row_lists(kind))
    table = kind.of(rows, data.draw(name_orders))
    assert isinstance(table, ColumnTable)
    assert len(table) == len(rows)
    for i in range(-len(rows), len(rows)):
        got = table[i]
        assert type(got) is kind.row
        assert got == rows[i]
        assert [type(v) for v in kind.fields(got)] == [
            type(v) for v in kind.fields(rows[i])
        ]
    assert list(table) == rows
    for i in (len(rows), -len(rows) - 1):
        with pytest.raises(IndexError):
            table[i]


@kinds
@PROPERTY
@given(data=st.data(), outer=slices, inner=slices)
def test_slices_and_slices_of_slices_keep_the_class(kind, data, outer, inner):
    rows = data.draw(row_lists(kind))
    table = kind.of(rows, data.draw(name_orders))
    part = table[outer]
    assert type(part) is kind.table
    assert part == rows[outer]
    nested = part[inner]
    assert type(nested) is kind.table
    assert nested == rows[outer][inner]


@kinds
@PROPERTY
@given(data=st.data())
def test_equal_to_a_list_and_a_tuple_both_ways(kind, data):
    rows = data.draw(row_lists(kind))
    table = kind.of(rows, data.draw(name_orders))
    assert table == rows and rows == table
    assert table == tuple(rows) and tuple(rows) == table
    assert not table != rows
    if rows:
        assert table != rows[:-1] and rows[:-1] != table
        if rows[::-1] != rows:
            assert table != rows[::-1] and rows[::-1] != table
    assert table != "not a table"
    assert kind.table() == [] and [] == kind.table()


@kinds
@PROPERTY
@given(data=st.data())
def test_read_only_and_unhashable(kind, data):
    table = kind.of(data.draw(row_lists(kind)), NAMES)
    assert not hasattr(table, "append")
    with pytest.raises(TypeError):
        hash(table)
    with pytest.raises(TypeError):
        {table}
    if len(table):
        with pytest.raises(TypeError):
            table[0] = table[-1]


@kinds
@PROPERTY
@given(data=st.data())
def test_pickles_on_every_protocol(kind, data):
    rows = data.draw(row_lists(kind))
    table = kind.of(rows, data.draw(name_orders))
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        clone = pickle.loads(pickle.dumps(table, protocol=protocol))
        assert type(clone) is kind.table
        assert clone == rows
        assert clone.dataset_names == table.dataset_names


@kinds
@PROPERTY
@given(data=st.data())
def test_joined_remaps_dataset_codes(kind, data):
    first, second = data.draw(row_lists(kind)), data.draw(row_lists(kind))
    # The parts code their datasets in different orders, so the merge
    # must remap the second part's codes.
    a = kind.of(first, data.draw(name_orders))
    b = kind.of(second, data.draw(name_orders))
    merged = kind.table.joined([a, kind.table(), b])
    assert type(merged) is kind.table
    assert merged == first + second
    assert merged.dataset_names == list(
        dict.fromkeys(a.dataset_names + b.dataset_names)
    )
    assert kind.table.joined(iter([b, a])) == second + first
    assert kind.table.joined([]) == []


@kinds
@PROPERTY
@given(data=st.data())
def test_column_passes_match_the_rows(kind, data):
    rows = data.draw(row_lists(kind))
    table = kind.of(rows, data.draw(name_orders))
    for job_type in JobType:
        for first in range(len(rows) + 2):
            assert table.count_of(job_type, first) == sum(
                r.job_type is job_type for r in rows[first:]
            )
        assert list(table.where(job_type, "user", "sequence")) == [
            (r.user, r.sequence) for r in rows if r.job_type is job_type
        ]
    order = data.draw(st.permutations(range(len(rows))))
    assert table.take(list(order)) == [rows[i] for i in order]


@kinds
@PROPERTY
@given(data=st.data())
def test_recoded_rejects_a_missing_dataset(kind, data):
    rows = data.draw(row_lists(kind).filter(bool))
    table = kind.of(rows, NAMES)
    used = rows[0].dataset
    missing = f"row 0 references unknown dataset {used!r}"
    with pytest.raises(ValueError, match=missing):
        table.recoded([name for name in NAMES if name != used])
