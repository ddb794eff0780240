"""Tests for interactive action stream generation."""

import numpy as np
import pytest

from repro.core.chunks import dataset_suite
from repro.core.job import JobType
from repro.util.units import GiB
from repro.workload.actions import (
    UserAction,
    expected_interactive_jobs,
    persistent_actions,
    poisson_action_stream,
)


class TestUserAction:
    def test_request_count_and_spacing(self):
        action = UserAction(0, 0, "ds", start=0.0, duration=3.0, interval=0.03)
        reqs = action.requests()
        assert len(reqs) == 101  # floor(3/0.03)+1 with endpoint excluded
        assert reqs[0].time == 0.0
        assert reqs[1].time == pytest.approx(0.03)
        assert all(r.job_type is JobType.INTERACTIVE for r in reqs)
        assert [r.sequence for r in reqs] == list(range(101))

    def test_duration_shorter_than_interval(self):
        action = UserAction(0, 0, "ds", start=1.0, duration=0.01, interval=0.03)
        reqs = action.requests()
        assert len(reqs) == 1
        assert reqs[0].time == 1.0

    def test_jitter_requires_rng(self):
        action = UserAction(0, 0, "ds", start=0.0, duration=1.0, interval=0.03)
        with pytest.raises(ValueError, match="rng"):
            action.requests(jitter=0.1)

    def test_jitter_bounds_validated(self):
        action = UserAction(0, 0, "ds", start=0.0, duration=1.0, interval=0.03)
        with pytest.raises(ValueError):
            action.requests(jitter=0.5, rng=np.random.default_rng(0))

    def test_jitter_preserves_count_and_order(self):
        action = UserAction(0, 0, "ds", start=0.0, duration=3.0, interval=0.03)
        plain = action.requests()
        jittered = action.requests(jitter=0.25, rng=np.random.default_rng(0))
        assert len(jittered) == len(plain)
        times = [r.time for r in jittered]
        assert times == sorted(times)
        for p, j in zip(plain, jittered):
            assert abs(j.time - p.time) <= 0.25 * 0.03 + 1e-12

    def test_first_request_unjittered(self):
        action = UserAction(0, 0, "ds", start=5.0, duration=1.0, interval=0.03)
        jittered = action.requests(jitter=0.25, rng=np.random.default_rng(0))
        assert jittered[0].time == 5.0


class TestPersistentActions:
    def test_scenario1_counts(self):
        """6 datasets x 60 s at 33.33 fps → the paper's 12 006 jobs."""
        datasets = dataset_suite(6, 2 * GiB)
        trace = persistent_actions(datasets, 60.0, target_framerate=100.0 / 3.0)
        assert trace.interactive_count == 12006
        assert trace.batch_count == 0
        assert trace.action_count == 6

    def test_one_action_per_dataset(self):
        datasets = dataset_suite(3, GiB)
        trace = persistent_actions(datasets, 1.0)
        by_action = {}
        for r in trace.requests:
            by_action.setdefault(r.action, set()).add(r.dataset)
        assert all(len(ds) == 1 for ds in by_action.values())
        assert {next(iter(ds)) for ds in by_action.values()} == {
            d.name for d in datasets
        }

    def test_seed_reproducible(self):
        datasets = dataset_suite(2, GiB)
        t1 = persistent_actions(datasets, 2.0, seed=9)
        t2 = persistent_actions(datasets, 2.0, seed=9)
        assert t1.requests == t2.requests


class TestPoissonActionStream:
    def test_reproducible(self):
        datasets = dataset_suite(4, GiB)
        t1 = poisson_action_stream(
            datasets, 10.0, arrival_rate=1.0, mean_action_duration=2.0, seed=3
        )
        t2 = poisson_action_stream(
            datasets, 10.0, arrival_rate=1.0, mean_action_duration=2.0, seed=3
        )
        assert t1.requests == t2.requests

    def test_count_close_to_expectation(self):
        datasets = dataset_suite(4, GiB)
        trace = poisson_action_stream(
            datasets,
            200.0,
            arrival_rate=2.0,
            mean_action_duration=2.0,
            target_framerate=33.33,
            seed=0,
        )
        expected = expected_interactive_jobs(200.0, 2.0, 2.0, 33.33)
        assert 0.6 * expected < trace.interactive_count < 1.4 * expected

    def test_requests_within_horizon(self):
        datasets = dataset_suite(2, GiB)
        trace = poisson_action_stream(
            datasets, 5.0, arrival_rate=3.0, mean_action_duration=10.0, seed=1
        )
        assert all(r.time < 5.0 + 0.03 for r in trace.requests)

    def test_dataset_weights_respected(self):
        datasets = dataset_suite(4, GiB)
        trace = poisson_action_stream(
            datasets,
            50.0,
            arrival_rate=2.0,
            mean_action_duration=1.0,
            dataset_weights=[1.0, 1.0, 0.0, 0.0],
            seed=2,
        )
        used = {r.dataset for r in trace.requests}
        assert used <= {"ds0", "ds1", "ds00", "ds01"} | {"ds0", "ds1"} or used <= {
            "ds00",
            "ds01",
        }

    def test_weight_length_mismatch(self):
        datasets = dataset_suite(4, GiB)
        with pytest.raises(ValueError, match="weights"):
            poisson_action_stream(
                datasets,
                1.0,
                arrival_rate=1.0,
                mean_action_duration=1.0,
                dataset_weights=[1.0],
            )

    def test_distinct_action_ids(self):
        datasets = dataset_suite(2, GiB)
        trace = poisson_action_stream(
            datasets, 30.0, arrival_rate=2.0, mean_action_duration=1.0, seed=4
        )
        by_action = {}
        for r in trace.requests:
            by_action.setdefault(r.action, []).append(r.sequence)
        for seqs in by_action.values():
            assert seqs == list(range(len(seqs)))


class TestUsersValidation:
    @pytest.mark.parametrize("users", [0, -2])
    def test_non_positive_users_rejected(self, users):
        with pytest.raises(ValueError, match="users"):
            poisson_action_stream(
                dataset_suite(2, GiB),
                5.0,
                arrival_rate=2.0,
                mean_action_duration=1.0,
                users=users,
            )

    def test_users_round_robin(self):
        trace = poisson_action_stream(
            dataset_suite(2, GiB),
            10.0,
            arrival_rate=3.0,
            mean_action_duration=0.5,
            users=2,
            first_user=5,
            seed=1,
        )
        assert {r.user for r in trace.requests} == {5, 6}

    def test_default_is_one_user_per_action(self):
        trace = poisson_action_stream(
            dataset_suite(2, GiB),
            10.0,
            arrival_rate=3.0,
            mean_action_duration=0.5,
            first_user=5,
            first_action_id=40,
            seed=1,
        )
        assert all(r.user - 5 == r.action - 40 for r in trace.requests)
