"""Tests for the head node's three scheduling tables (§V-A/V-B)."""

import pytest

from repro.core.chunks import Chunk, Dataset
from repro.core.job import JobType
from repro.util.units import MiB

from tests.conftest import MiniHarness


def chunk(i: int, size=256 * MiB, ds="ds") -> Chunk:
    return Chunk(ds, i, size)


class TestMinAvailableNode:
    def test_initial_tie_goes_to_node_zero(self, harness: MiniHarness):
        assert harness.tables.min_available_node() == 0

    def test_increase_moves_minimum(self, harness: MiniHarness):
        harness.tables.available[0] = 5.0
        assert harness.tables.min_available_node() == 1

    def test_decrease_moves_it_back(self, harness: MiniHarness):
        tables = harness.tables
        tables.available[:] = [5.0, 3.0, 4.0, 6.0]
        assert tables.min_available_node() == 1
        tables.available[0] = 1.0
        assert tables.min_available_node() == 0

    def test_failed_and_quarantined_nodes_never_chosen(
        self, harness: MiniHarness
    ):
        tables = harness.tables
        tables.available[:] = [1.0, 2.0, 3.0, 4.0]
        tables.mark_node_failed(0)
        tables.quarantine(1)
        assert tables.available[0] == tables.available[1] == float("inf")
        assert tables.min_available_node() == 2
        tables.mark_node_failed(2)
        assert tables.min_available_node() == 3


class TestEstimateTable:
    def test_initialized_from_storage(self, harness: MiniHarness):
        c = chunk(0)
        expected = harness.cluster.storage.estimate_load_time(c.size)
        assert harness.tables.io_estimate(c) == pytest.approx(expected)

    def test_estimate_includes_render(self, harness: MiniHarness):
        c = chunk(0)
        est = harness.tables.estimate(c, group_size=4)
        io = harness.tables.io_estimate(c)
        assert est == pytest.approx(io + harness.cost.render_time(c.size, 4))

    def test_exec_estimate_drops_io_when_cached(
        self, harness: MiniHarness, dataset_1g: Dataset
    ):
        job = harness.job(dataset_1g)
        tasks = harness.ctx.decompose(job)
        c = tasks[0].chunk
        cold = harness.tables.exec_estimate(c, 0, 4)
        harness.tables.warm(c, 0)
        warm = harness.tables.exec_estimate(c, 0, 4)
        assert warm == pytest.approx(harness.cost.render_time(c.size, 4))
        assert cold == pytest.approx(warm + harness.tables.io_estimate(c))


class TestCacheTable:
    def test_warm_updates_replicas(self, harness: MiniHarness):
        c = chunk(0)
        harness.tables.warm(c, 2)
        assert harness.tables.is_cached(c, 2)
        assert harness.tables.cached_nodes(c) == {2}
        assert harness.tables.replica_count(c) == 1
        harness.tables.check_invariants()

    def test_replicas_across_nodes(self, harness: MiniHarness):
        c = chunk(0)
        harness.tables.warm(c, 0)
        harness.tables.warm(c, 3)
        assert harness.tables.cached_nodes(c) == {0, 3}

    def test_mirror_eviction_updates_reverse_index(self):
        # Quota of exactly 2 chunks.
        h = MiniHarness(memory_quota=512 * MiB)
        a, b, c = chunk(0), chunk(1), chunk(2)
        h.tables.warm(a, 0)
        h.tables.warm(b, 0)
        h.tables.warm(c, 0)  # evicts a
        assert not h.tables.is_cached(a, 0)
        assert h.tables.replica_count(a) == 0
        assert h.tables.cached_nodes(c) == {0}
        h.tables.check_invariants()


class TestAssignmentAccounting:
    def test_assignment_updates_all_tables(
        self, harness: MiniHarness, dataset_1g: Dataset
    ):
        job = harness.job(dataset_1g)
        tasks = harness.ctx.decompose(job)
        est = harness.tables.record_assignment(tasks[0], 1, now=0.0)
        # Cold assignment: estimate includes I/O.
        assert est == pytest.approx(harness.tables.estimate(tasks[0].chunk, 4))
        assert harness.tables.available[1] == pytest.approx(est)
        assert harness.tables.is_cached(tasks[0].chunk, 1)
        assert harness.tables.last_interactive_assign[1] == 0.0

    def test_batch_assignment_does_not_touch_interactive_clock(
        self, harness: MiniHarness, dataset_1g: Dataset
    ):
        job = harness.job(dataset_1g, job_type=JobType.BATCH)
        tasks = harness.ctx.decompose(job)
        harness.tables.record_assignment(tasks[0], 1, now=5.0)
        assert harness.tables.last_interactive_assign[1] == -float("inf")

    def test_second_assignment_predicted_warm(
        self, harness: MiniHarness, dataset_1g: Dataset
    ):
        j1 = harness.job(dataset_1g)
        j2 = harness.job(dataset_1g)
        t1 = harness.ctx.decompose(j1)[0]
        t2 = harness.ctx.decompose(j2)[0]
        est1 = harness.tables.record_assignment(t1, 0, now=0.0)
        est2 = harness.tables.record_assignment(t2, 0, now=0.0)
        assert est2 < est1  # second is predicted a cache hit
        assert harness.tables.available[0] == pytest.approx(est1 + est2)

    def test_available_floors_at_now(
        self, harness: MiniHarness, dataset_1g: Dataset
    ):
        job = harness.job(dataset_1g)
        t = harness.ctx.decompose(job)[0]
        harness.tables.record_assignment(t, 0, now=100.0)
        assert harness.tables.available[0] >= 100.0


class TestCompletionCorrection:
    def test_idle_node_resets_to_now(
        self, harness: MiniHarness, dataset_1g: Dataset
    ):
        job = harness.job(dataset_1g)
        t = harness.ctx.decompose(job)[0]
        harness.tables.record_assignment(t, 0, now=0.0)
        t.start_time, t.finish_time = 0.0, 2.5
        t.cache_hit, t.io_time = False, 2.49
        harness.tables.correct_completion(t, 0, now=2.5)
        assert harness.tables.available[0] == pytest.approx(2.5)

    def test_estimate_learns_measured_io(
        self, harness: MiniHarness, dataset_1g: Dataset
    ):
        job = harness.job(dataset_1g)
        t = harness.ctx.decompose(job)[0]
        harness.tables.record_assignment(t, 0, now=0.0)
        t.start_time, t.finish_time = 0.0, 9.0
        t.cache_hit, t.io_time = False, 8.99
        harness.tables.correct_completion(t, 0, now=9.0)
        assert harness.tables.io_estimate(t.chunk) == pytest.approx(8.99)

    def test_hit_does_not_overwrite_estimate(
        self, harness: MiniHarness, dataset_1g: Dataset
    ):
        job = harness.job(dataset_1g)
        t = harness.ctx.decompose(job)[0]
        before = harness.tables.io_estimate(t.chunk)
        harness.tables.record_assignment(t, 0, now=0.0)
        t.start_time, t.finish_time = 0.0, 0.01
        t.cache_hit, t.io_time = True, 0.0
        harness.tables.correct_completion(t, 0, now=0.01)
        assert harness.tables.io_estimate(t.chunk) == before

    def test_prediction_error_absorbed(
        self, harness: MiniHarness, dataset_1g: Dataset
    ):
        """With two pending tasks, the first completion shifts Available
        by (actual - estimated) for that task."""
        j1, j2 = harness.job(dataset_1g), harness.job(dataset_1g)
        t1 = harness.ctx.decompose(j1)[0]
        t2 = harness.ctx.decompose(j2)[0]
        e1 = harness.tables.record_assignment(t1, 0, now=0.0)
        e2 = harness.tables.record_assignment(t2, 0, now=0.0)
        actual = e1 + 1.0  # ran a second longer than predicted
        t1.start_time, t1.finish_time = 0.0, actual
        t1.cache_hit, t1.io_time = False, actual - 0.01
        harness.tables.correct_completion(t1, 0, now=actual)
        assert harness.tables.available[0] == pytest.approx(e1 + e2 + 1.0)


class TestPredictionSlot:
    """Each placed task carries its own prediction (``RenderTask.est``)
    from placement until its completion correction, cancellation or
    crash; the tables keep no per-task state."""

    def test_slot_holds_record_assignment_result(
        self, harness: MiniHarness, dataset_1g: Dataset
    ):
        t = harness.ctx.decompose(harness.job(dataset_1g))[0]
        assert t.est is None
        est = harness.tables.record_assignment(t, 1, now=0.0)
        assert t.est == est

    def test_placing_again_overwrites_slot(
        self, harness: MiniHarness, dataset_1g: Dataset
    ):
        t = harness.ctx.decompose(harness.job(dataset_1g))[0]
        cold = harness.tables.record_assignment(t, 0, now=0.0)
        warm = harness.tables.record_assignment(t, 0, now=0.0)
        assert warm < cold
        assert t.est == warm

    def test_completion_reads_and_clears_slot(
        self, harness: MiniHarness, dataset_1g: Dataset
    ):
        """The correction uses the slot's value: with two tasks pending,
        Available moves by (actual - t.est) and the slot is emptied."""
        j1, j2 = harness.job(dataset_1g), harness.job(dataset_1g)
        t1 = harness.ctx.decompose(j1)[0]
        t2 = harness.ctx.decompose(j2)[0]
        e1 = harness.tables.record_assignment(t1, 0, now=0.0)
        e2 = harness.tables.record_assignment(t2, 0, now=0.0)
        t1.est = e1 - 0.5  # as if a rewarm had revised the prediction
        actual = e1 + 1.0
        t1.start_time, t1.finish_time = 0.0, actual
        t1.cache_hit, t1.io_time = False, actual - 0.01
        harness.tables.correct_completion(t1, 0, now=actual)
        assert t1.est is None
        assert t2.est == e2
        assert harness.tables.available[0] == pytest.approx(e1 + e2 + 1.5)

    def test_cancel_clears_slot(
        self, harness: MiniHarness, dataset_1g: Dataset
    ):
        t = harness.ctx.decompose(harness.job(dataset_1g))[0]
        harness.tables.record_assignment(t, 2, now=0.0)
        harness.tables.cancel_assignment(t, 2)
        assert t.est is None
        assert harness.tables._pending_per_node[2] == 0
