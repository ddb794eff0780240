"""Property-based tests for workload traces."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.chunks import Dataset
from repro.core.job import JobType
from repro.util.units import MiB
from repro.workload.trace import Request, WorkloadTrace, merge_traces

DATASETS = [Dataset("a", 256 * MiB), Dataset("b", 512 * MiB)]

request_strategy = st.builds(
    Request,
    time=st.floats(0.0, 100.0, allow_nan=False),
    job_type=st.sampled_from(list(JobType)),
    dataset=st.sampled_from(["a", "b"]),
    user=st.integers(0, 5),
    action=st.integers(0, 10),
    sequence=st.integers(0, 100),
)


@given(requests=st.lists(request_strategy, max_size=60))
@settings(max_examples=100, deadline=None)
def test_trace_always_sorted_and_counts_consistent(requests):
    trace = WorkloadTrace(
        requests=requests, datasets=list(DATASETS), duration=100.0
    )
    times = [r.time for r in trace.requests]
    assert times == sorted(times)
    assert trace.interactive_count + trace.batch_count == len(trace.requests)


@given(requests=st.lists(request_strategy, max_size=40))
@settings(max_examples=100, deadline=None)
def test_json_roundtrip_exact(requests):
    trace = WorkloadTrace(
        requests=requests, datasets=list(DATASETS), duration=100.0, name="p"
    )
    restored = WorkloadTrace.from_json(trace.to_json())
    assert restored.requests == trace.requests
    assert restored.datasets == trace.datasets
    assert restored.name == trace.name


@given(
    a=st.lists(request_strategy, max_size=30),
    b=st.lists(request_strategy, max_size=30),
)
@settings(max_examples=100, deadline=None)
def test_merge_preserves_every_request(a, b):
    ta = WorkloadTrace(requests=a, datasets=list(DATASETS), duration=50.0)
    tb = WorkloadTrace(requests=b, datasets=list(DATASETS), duration=100.0)
    merged = merge_traces([ta, tb])
    assert len(merged.requests) == len(ta.requests) + len(tb.requests)
    assert merged.duration == 100.0
    # Multiset preservation.
    assert sorted(
        merged.requests, key=lambda r: (r.time, r.action, r.sequence, r.user)
    ) == sorted(
        [*ta.requests, *tb.requests],
        key=lambda r: (r.time, r.action, r.sequence, r.user),
    )
