"""Tests for the scheduler interface and shared greedy helpers."""

import pytest

from repro.core.chunks import ChunkedDecomposition, Dataset
from repro.core.job import JobType
from repro.core.scheduler_base import (
    Scheduler,
    Trigger,
    greedy_locality_aware,
    greedy_min_available,
)
from repro.util.units import GiB, MiB

from tests.conftest import MiniHarness


class TestSchedulerContext:
    def test_decompose_uses_policy(self, harness, dataset_1g):
        job = harness.job(dataset_1g)
        tasks = harness.ctx.decompose(job)
        assert len(tasks) == 4
        assert isinstance(harness.ctx.decomposition, ChunkedDecomposition)

    def test_assign_bounds_checked(self, harness, dataset_1g):
        job = harness.job(dataset_1g)
        (task, *_rest) = harness.ctx.decompose(job)
        with pytest.raises(ValueError, match="out of range"):
            harness.ctx.assign(task, 99)

    def test_take_assignments_clears(self, harness, dataset_1g):
        job = harness.job(dataset_1g)
        tasks = harness.ctx.decompose(job)
        harness.ctx.assign(tasks[0], 0)
        first = harness.ctx.take_assignments()
        assert len(first) == 1
        assert harness.ctx.take_assignments() == []

    def test_context_properties(self, harness):
        assert harness.ctx.node_count == 4
        assert harness.ctx.now == 0.0
        assert harness.ctx.cost is harness.cost


class TestGreedyHelpers:
    def test_min_available_picks_least_loaded(self, harness, dataset_1g):
        harness.tables.available[0] = 5.0
        job = harness.job(dataset_1g)
        task = harness.ctx.decompose(job)[0]
        assert greedy_min_available(task, harness.ctx) != 0

    def test_locality_aware_prefers_cache(self, harness, dataset_1g):
        job = harness.job(dataset_1g)
        task = harness.ctx.decompose(job)[0]
        harness.tables.warm(task.chunk, 3)
        assert greedy_locality_aware(task, harness.ctx) == 3

    def test_locality_aware_falls_back_when_uncached(self, harness, dataset_1g):
        job = harness.job(dataset_1g)
        task = harness.ctx.decompose(job)[0]
        node = greedy_locality_aware(task, harness.ctx)
        assert node == harness.tables.min_available_node()


class TestDefaultReschedule:
    def test_reschedule_places_all_orphans_locality_first(
        self, harness, dataset_1g
    ):
        class Dummy(Scheduler):
            """Minimal policy for exercising the base reschedule."""

            name = "DUMMY"
            trigger = Trigger.IMMEDIATE

            def schedule(self, jobs, ctx):
                """Assign everything to node 0 (placement irrelevant)."""
                for job in jobs:
                    for task in ctx.decompose(job):
                        ctx.assign(task, 0)

        sched = Dummy()
        job = harness.job(dataset_1g)
        tasks = harness.ctx.decompose(job)
        harness.tables.warm(tasks[0].chunk, 2)
        sched.reschedule(tasks, harness.ctx)
        assignments = harness.ctx.take_assignments()
        assert len(assignments) == 4
        by_task = {a.task: a.node for a in assignments}
        assert by_task[tasks[0]] == 2  # surviving replica preferred

    def test_defaults(self):
        class Minimal(Scheduler):
            """Minimal concrete scheduler."""

            def schedule(self, jobs, ctx):
                """No-op placement."""

        sched = Minimal()
        assert sched.pending_task_count() == 0
        sched.reset()  # no-op, must not raise
        policy = sched.make_decomposition(4, 256 * MiB)
        assert isinstance(policy, ChunkedDecomposition)
