"""Tests for closed-loop users."""

import pytest

from repro.core.chunks import dataset_suite
from repro.sim.config import system_linux8
from repro.util.units import GiB
from repro.workload.closedloop import run_closed_loop


def run(users=2, duration=3.0, window=3, scheduler="OURS", nodes=8):
    datasets = dataset_suite(min(users, 6), 2 * GiB)
    return run_closed_loop(
        system_linux8(node_count=nodes),
        datasets,
        scheduler=scheduler,
        users=users,
        duration=duration,
        window=window,
    )


class TestValidation:
    def test_needs_users_and_datasets(self):
        with pytest.raises(ValueError):
            run_closed_loop(
                system_linux8(), [], scheduler="OURS", users=1, duration=1.0
            )
        with pytest.raises(ValueError):
            run(users=0)


class TestLightLoad:
    def test_underloaded_users_hit_target(self):
        """With spare capacity, closed-loop == open-loop behaviour."""
        result = run(users=2, duration=3.0)
        fps = result.delivered_fps_per_user()
        for rate in fps.values():
            assert rate > 0.9 * (100.0 / 3.0)
        assert result.mean_interactive_latency() < 0.1
        # Barely any stalling.
        assert sum(u.stalled for u in result.users) < 10

    def test_outstanding_never_exceeds_window(self):
        result = run(users=2, duration=2.0, window=2)
        for user in result.users:
            assert user.outstanding <= 2


class TestOverload:
    def test_latency_bounded_under_overload(self):
        """10 users on 8 nodes: users stall instead of queueing."""
        result = run(users=10, duration=8.0, window=3)
        assert result.mean_interactive_latency() < 0.5
        assert sum(u.stalled for u in result.users) > 0

    def test_throughput_fair_across_users(self):
        result = run(users=10, duration=8.0, window=3)
        fps = list(result.delivered_fps_per_user().values())
        assert max(fps) < 1.3 * min(fps)

    def test_fewer_requests_than_open_loop(self):
        """Pacing reduces issued requests below duration/interval."""
        result = run(users=10, duration=8.0, window=3)
        open_loop_would_issue = 10 * int(8.0 / 0.03)
        assert result.issued < 0.9 * open_loop_would_issue


class TestJobIds:
    def test_identical_runs_record_identical_job_ids(self):
        """Ids come from the run's own allocator, not a process-global
        counter, so a second identical run records the same ids."""
        first, second = (
            run(users=3, duration=1.0).service.collector.records.job_id
            for _ in range(2)
        )
        assert len(first) > 0
        assert list(first) == list(second)
