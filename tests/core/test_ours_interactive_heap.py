"""OURS phase 2 against the per-chunk minimum scan it replaced.

Phase 2 finds each interactive chunk's min-available node through one
``(Available[k], k)`` heap per cycle.  The reference below is the
previous implementation, kept only here: it scanned the whole
``Available`` list (``min`` + ``index``) once per chunk.  Both must place
every task on the same node with the same reason, in the same order,
and leave identical tables behind — including on ties, on values below
``now`` and on ``+inf`` (failed or quarantined) nodes.
"""

import hashlib
import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.chunks import ChunkedDecomposition, Dataset
from repro.core.job import JobType
from repro.core.ours import OursScheduler
from repro.core.scheduler_base import SchedulerContext
from repro.faults.plan import FaultPlan
from repro.obs.audit import REASON_CACHE_HIT, REASON_MIN_ESTIMATE, AuditConfig
from repro.sim.run_config import RunConfig
from repro.sim.simulator import run_simulation
from repro.util.units import GiB, MiB
from repro.workload.scenarios import make_scenario
from tests.conftest import MiniHarness

NOW = 1.0
CHUNK_MAX = 256 * MiB
DATASET_SIZES = [256 * MiB, 300 * MiB, 512 * MiB, 768 * MiB, 1 * GiB]


class ScanOurs(OursScheduler):
    """OURS with phase 2 as the per-chunk scan it used to be."""

    def _schedule_interactive(self, placements, ctx):
        for chunk, tasks, replicas in placements:
            self._place_chunk(chunk, tasks, ctx, ctx.tables, ctx.now, replicas)

    @staticmethod
    def _place_chunk(chunk, tasks, ctx, tables, now, replicas):
        group = tasks[0].job.composite_group_size
        render = tables.cost.render_times[chunk.size, group]
        available = tables.available
        best = available.index(min(available))
        t = available[best]
        if t < now:
            t = now
        if replicas is not None and best in replicas:
            best_score = t + render
        else:
            best_score = t + (tables.io_estimate(chunk) + render)
        if replicas:
            for k in replicas:
                if k == best:
                    continue
                t = available[k]
                score = (t if t > now else now) + render
                if score < best_score:
                    best_score = score
                    best = k
        reason = (
            REASON_CACHE_HIT
            if replicas is not None and best in replicas
            else REASON_MIN_ESTIMATE
        )
        ctx.assign_all(tasks, best, reason)


class RecordingContext(SchedulerContext):
    """A context that logs every ``(task, node, reason)`` placement."""

    def __init__(self, harness):
        super().__init__(harness.cluster, harness.tables, harness.decomposition)
        self.log = []

    def assign(self, task, node, reason=None):
        self.log.append((task.chunk.key, task.job.sequence, node, reason))
        super().assign(task, node, reason)

    def assign_all(self, tasks, node, reason=None):
        self.log.extend((t.chunk.key, t.job.sequence, node, reason) for t in tasks)
        super().assign_all(tasks, node, reason)


#: Available values around ``NOW``: below it, at it, above it, and
#: ``+inf``; drawn from a small set so that ties are common.
_available = st.one_of(
    st.sampled_from([0.0, 0.5, NOW, 1.25, 2.0, math.inf]),
    st.floats(min_value=0.0, max_value=3.0),
)


@st.composite
def cycles(draw):
    nodes = draw(st.integers(min_value=1, max_value=10))
    available = draw(st.lists(_available, min_size=nodes, max_size=nodes))
    sizes = draw(st.lists(st.sampled_from(DATASET_SIZES), min_size=1, max_size=4))
    datasets = [Dataset(f"ds{i}", size) for i, size in enumerate(sizes)]
    policy = ChunkedDecomposition(CHUNK_MAX)
    node_ids = st.integers(min_value=0, max_value=nodes - 1)
    chunks = [chunk for ds in datasets for chunk in policy.decompose(ds)]
    replicas = [draw(st.lists(node_ids, max_size=nodes, unique=True)) for _ in chunks]
    # Chunks whose I/O estimate is already memoized before the cycle.
    primed = [draw(st.booleans()) for _ in chunks]
    jobs = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=len(datasets) - 1),
                st.sampled_from([JobType.INTERACTIVE, JobType.BATCH]),
            ),
            min_size=1,
            max_size=8,
        )
    )
    return nodes, available, datasets, chunks, replicas, primed, jobs


def _run(scheduler, params):
    nodes, available, datasets, chunks, replicas, primed, jobs = params
    harness = MiniHarness(node_count=nodes, memory_quota=64 * GiB, chunk_max=CHUNK_MAX)
    harness.advance(NOW)
    tables = harness.tables
    for chunk, holders, prime in zip(chunks, replicas, primed):
        for k in holders:
            tables.warm(chunk, k)
        if prime:
            tables.io_estimate(chunk)
    tables.available[:] = available
    ctx = RecordingContext(harness)
    scheduler.schedule(
        [
            harness.job(datasets[i], job_type=job_type, sequence=n)
            for n, (i, job_type) in enumerate(jobs)
        ],
        ctx,
    )
    mirrors = [mirror.chunks() for mirror in tables.mirrors]
    return ctx.log, [t.hex() for t in tables.available], mirrors


@settings(max_examples=200, deadline=None)
@given(cycles())
def test_heap_places_like_the_per_chunk_scan(params):
    log, available, mirrors = _run(OursScheduler(), params)
    assert (log, available, mirrors) == _run(ScanOurs(), params)


def test_every_node_failed_goes_to_node_zero():
    """With every node at ``+inf`` both pick the smallest node id, even
    over a chunk's replica."""
    dataset = Dataset("ds0", 512 * MiB)
    chunks = ChunkedDecomposition(CHUNK_MAX).decompose(dataset)
    params = (
        3,
        [math.inf] * 3,
        [dataset],
        chunks,
        [[], [2]],
        [False, False],
        [(0, JobType.INTERACTIVE)],
    )
    log, _, _ = _run(OursScheduler(), params)
    assert log == _run(ScanOurs(), params)[0]
    assert [entry[2] for entry in log] == [0, 0]


def test_audited_scenario4_run_with_a_crash_and_a_quarantine(tmp_path):
    """The 64-node Scenario 4 OURS run under a crash and a healed
    straggler: both failed nodes sit at ``+inf`` in later cycles.  The
    schedule and every audit record are the ones recorded with the
    per-chunk scan."""
    path = tmp_path / "audit.jsonl"
    result = run_simulation(
        make_scenario(4, scale=0.01),
        "OURS",
        RunConfig(
            record_assignments=True,
            faults=FaultPlan.parse(
                "crash@0.2:node=3;straggler@0.1:node=5,render=8,io=4"
            ),
            audit=AuditConfig(capacity=64, jsonl_path=path),
        ),
    )
    assert result.assignment_trace_hash() == (
        "07fc111b301dc9a3ae5c764b5220d1ba0ee6e9be4ac709bc378619f5a2d53dc7"
    )
    assert (result.events_processed, result.tasks_executed) == (6781, 4770)
    assert dict(result.audit.reason_totals) == {
        "requeue-crash": 1,
        "cache-hit": 18205,
        "min-estimate": 67,
        "only-available": 47,
        "quarantine": 1,
        "speculative": 3,
    }
    assert hashlib.sha256(path.read_bytes()).hexdigest() == (
        "d6e412dc096ecafbc53a372a6efa05ec1e5c83fe853cbb14fd8ccc0d3fdb9ce4"
    )
