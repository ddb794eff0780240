"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import gc
import threading
from typing import List, Optional, Tuple

import pytest
from hypothesis import settings

from repro.cluster.cluster import Cluster
from repro.cluster.costs import CostParameters
from repro.cluster.storage import StorageSpec
from repro.core.chunks import ChunkedDecomposition, Dataset
from repro.core.job import JobType, RenderJob, reset_job_ids
from repro.core.scheduler_base import SchedulerContext
from repro.core.tables import SchedulerTables
from repro.util.units import GiB, MiB

#: ``--hypothesis-profile=deep`` raises the example count of the tests
#: that read it (the event-queue differential test) far past tier-1's.
settings.register_profile("deep", max_examples=10_000)


@pytest.fixture(autouse=True)
def _fresh_job_ids():
    """Keep job ids deterministic per test."""
    reset_job_ids()
    yield


@pytest.fixture(autouse=True)
def _process_hygiene():
    """Fail a test that leaves process-global run state behind.

    The simulator pauses the cyclic GC for a run and a streamed run
    starts a stall-watchdog thread; both must be undone however the run
    ends, or every later test silently runs with different memory
    behaviour or a stray thread polling a dead queue.
    """
    yield
    leaks = []
    if not gc.isenabled():
        gc.enable()
        leaks.append("the cyclic GC was left disabled")
    watchdogs = [
        t for t in threading.enumerate() if t.name == "repro-stall-watchdog"
    ]
    if watchdogs:
        leaks.append(f"{len(watchdogs)} repro-stall-watchdog thread(s) alive")
    if leaks:
        pytest.fail("; ".join(leaks))


# ---------------------------------------------------------------------------
# Small-cluster harness for direct scheduler testing
# ---------------------------------------------------------------------------


class MiniHarness:
    """A small cluster + tables + context for unit-testing schedulers.

    Defaults: 4 nodes, 1 GiB memory quota, 256 MiB chunks, deterministic
    cost model without render jitter (so predictions are exact).
    """

    def __init__(
        self,
        node_count: int = 4,
        memory_quota: int = 1 * GiB,
        chunk_max: int = 256 * MiB,
        cost: Optional[CostParameters] = None,
    ) -> None:
        self.cost = cost if cost is not None else CostParameters(render_jitter=0.0)
        self.cluster = Cluster(
            node_count,
            memory_quota,
            self.cost,
            storage_spec=StorageSpec(bandwidth=100 * MiB, latency=0.01),
        )
        self.chunk_max = chunk_max
        self.decomposition = ChunkedDecomposition(chunk_max)
        self.tables = SchedulerTables(
            node_count, memory_quota, self.cost, self.cluster.storage
        )
        self.ctx = SchedulerContext(self.cluster, self.tables, self.decomposition)

    def job(
        self,
        dataset: Dataset,
        *,
        job_type: JobType = JobType.INTERACTIVE,
        arrival: Optional[float] = None,
        user: int = 0,
        action: int = 0,
        sequence: int = 0,
    ) -> RenderJob:
        """Create a job arriving now (or at ``arrival``)."""
        t = self.cluster.now if arrival is None else arrival
        return RenderJob(
            job_type, dataset, t, user=user, action=action, sequence=sequence
        )

    def advance(self, dt: float) -> None:
        """Advance simulated time without events."""
        self.cluster.events.run(until=self.cluster.now + dt)


@pytest.fixture
def harness() -> MiniHarness:
    return MiniHarness()


@pytest.fixture
def dataset_1g() -> Dataset:
    """A 1 GiB dataset → 4 chunks of 256 MiB under the harness policy."""
    return Dataset("ds-a", 1 * GiB)


@pytest.fixture
def dataset_1g_b() -> Dataset:
    return Dataset("ds-b", 1 * GiB)


def assignments_by_chunk(assignments) -> dict:
    """Group a list of Assignments by chunk key."""
    by_chunk: dict = {}
    for a in assignments:
        by_chunk.setdefault(a.task.chunk.key, []).append(a.node)
    return by_chunk
