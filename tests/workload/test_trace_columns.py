"""The column trace against the list of rows it was built from.

A :class:`WorkloadTrace` holds its requests as :class:`RequestColumns`.
Every test here builds the rows first, then checks that the columns give
exactly what a stable keyed sort of those rows gives: through indexing,
merging, JSON, pickling and the federation split.
"""

import json
import pickle
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.chunks import Dataset
from repro.core.job import JobType
from repro.federation import FederationConfig, build_shards
from repro.sim.config import system_linux8
from repro.util.units import GiB
from repro.workload.scenarios import custom_scenario
from repro.workload.trace import (
    Request,
    RequestColumns,
    WorkloadTrace,
    merge_traces,
)

DATASETS = [Dataset(name, GiB) for name in ("a", "b", "c", "d")]

#: Few distinct times, so equal-time ties (a batch submission's frames)
#: are common.
requests = st.builds(
    Request,
    time=st.integers(0, 6).map(lambda k: k / 4),
    job_type=st.sampled_from(list(JobType)),
    dataset=st.sampled_from([d.name for d in DATASETS]),
    user=st.integers(0, 4),
    action=st.integers(0, 3),
    sequence=st.integers(0, 3),
)
row_lists = st.lists(requests, max_size=40)

BOUNDED = settings(max_examples=60, deadline=None)


def trace_of(rows, datasets=DATASETS, **kw):
    return WorkloadTrace(
        requests=list(rows), datasets=list(datasets), duration=2.0, **kw
    )


def oracle(rows):
    """The trace order: one stable sort on ``(time, action, sequence)``."""
    return sorted(rows, key=lambda r: (r.time, r.action, r.sequence))


@st.composite
def batch_ties(draw):
    """Whole batch submissions (equal times) and actions, shuffled."""
    rows = []
    for sid in range(draw(st.integers(1, 5))):
        time = draw(st.integers(0, 3)) / 2
        rows += [
            Request(time, JobType.BATCH, "b", 100 + sid, 100 + sid, i)
            for i in range(draw(st.integers(1, 4)))
        ]
    rows += draw(row_lists)
    random.Random(draw(st.integers(0, 2**16))).shuffle(rows)
    return rows


@BOUNDED
@given(rows=batch_ties())
def test_shuffled_ties_equal_the_stable_sort(rows):
    columns = trace_of(rows).requests
    assert isinstance(columns, RequestColumns)
    assert columns == oracle(rows)
    assert list(columns) == oracle(rows)
    assert len(columns) == len(rows)


@BOUNDED
@given(rows=row_lists, data=st.data())
def test_indexing_matches_the_rows(rows, data):
    columns = trace_of(rows).requests
    expected = oracle(rows)
    if expected:
        i = data.draw(st.integers(-len(expected), len(expected) - 1))
        assert columns[i] == expected[i]
    for r in columns:
        assert type(r) is Request
        assert type(r.time) is float and isinstance(r.job_type, JobType)
        assert type(r.user) is type(r.action) is type(r.sequence) is int


@BOUNDED
@given(a=row_lists, b=row_lists)
def test_merge_equals_one_sort_of_the_parts(a, b):
    a = [r for r in a if r.dataset != "d"]
    ta = trace_of(a, datasets=DATASETS[:3])
    # The second part lists its datasets in another order, so its codes
    # differ and the merge must remap them.
    tb = trace_of(b, datasets=DATASETS[::-1])
    merged = merge_traces([ta, tb])
    assert merged.requests == oracle(oracle(a) + oracle(b))
    assert [d.name for d in merged.datasets] == ["a", "b", "c", "d"]


def reference_json(trace, rows):
    """``to_json`` as it was written for a list of rows."""
    return json.dumps(
        {
            "name": trace.name,
            "duration": trace.duration,
            "target_framerate": trace.target_framerate,
            "datasets": [{"name": d.name, "size": d.size} for d in trace.datasets],
            "requests": [
                [r.time, r.job_type.value, r.dataset, r.user, r.action, r.sequence]
                for r in rows
            ],
        }
    )


@BOUNDED
@given(rows=row_lists)
def test_json_text_and_round_trip(rows):
    trace = trace_of(rows, name="j")
    text = trace.to_json()
    assert text == reference_json(trace, oracle(rows))
    restored = WorkloadTrace.from_json(text)
    assert restored.requests == oracle(rows)
    assert restored.to_json() == text


@BOUNDED
@given(rows=row_lists)
def test_pickle_round_trip(rows):
    trace = trace_of(rows)
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        clone = pickle.loads(pickle.dumps(trace.requests, protocol=protocol))
        assert isinstance(clone, RequestColumns)
        assert clone == oracle(rows)
        assert pickle.loads(pickle.dumps(trace, protocol=protocol)) == trace


@settings(max_examples=25, deadline=None)
@given(
    rows=row_lists,
    shards=st.integers(1, 3),
    router=st.sampled_from(["hash", "locality"]),
)
def test_federation_split_equals_the_row_split(rows, shards, router):
    scenario = custom_scenario(system_linux8(), trace_of(rows))
    _, routing, pairs = build_shards(
        scenario, FederationConfig(shards=shards, router=router)
    )
    shard_of = dict(routing.assignments)
    for k, (shard, _) in enumerate(pairs):
        expected = [r for r in oracle(rows) if shard_of[r.user] == k]
        assert shard.trace.requests == expected
        assert {r.dataset for r in expected} <= {
            d.name for d in shard.trace.datasets
        }
