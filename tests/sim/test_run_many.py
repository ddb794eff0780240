"""Tests for ``run_many``, the one multi-run path and process pool."""

import functools

import pytest

import repro.sim.simulator as simulator
from repro.core.chunks import dataset_suite
from repro.core.fcfs import FCFSScheduler
from repro.core.ours import OursScheduler
from repro.sim import run_many
from repro.sim.config import system_linux8
from repro.sim.run_config import RunConfig
from repro.sim.simulator import run_simulation
from repro.util.units import GiB
from repro.workload.actions import persistent_actions
from repro.workload.scenarios import Scenario


def tiny_scenario(actions: int, seed: int = 0) -> Scenario:
    """Module-level so pool workers can pickle partials of it."""
    trace = persistent_actions(
        dataset_suite(2, 1 * GiB),
        1.5,
        actions=actions,
        target_framerate=100.0 / 3.0,
        seed=seed,
        name=f"many-a{actions}-s{seed}",
    )
    return Scenario(
        name=trace.name, system=system_linux8(node_count=4), trace=trace
    )


def mixed_points():
    """Scenarios, builders, scheduler names/instances/factories and
    distinct configs in one list."""
    return [
        (tiny_scenario(1), "OURS", RunConfig(record_assignments=True)),
        (
            functools.partial(tiny_scenario, 2, seed=1),
            functools.partial(OursScheduler, cycle=0.01),
            RunConfig(record_assignments=True, drain=True),
        ),
        (
            functools.partial(tiny_scenario, 2),
            "FCFSL",
            RunConfig(record_assignments=True, storage_seed=3),
        ),
        (
            tiny_scenario(1, seed=2),
            FCFSScheduler(),
            RunConfig(record_assignments=True, timeline_interval=0.1, metrics=True),
        ),
    ]


def _keys(results):
    return [
        (r.scenario_name, r.scheduler_name, r.assignment_trace_hash())
        for r in results
    ]


@pytest.fixture(scope="module")
def serial():
    return run_many(mixed_points())


@pytest.fixture(scope="module")
def pooled():
    return run_many(mixed_points(), workers=2)


class TestRunMany:
    def test_input_order(self, serial):
        assert [(r.scenario_name, r.scheduler_name) for r in serial] == [
            ("many-a1-s0", "OURS"),
            ("many-a2-s1", "OURS"),
            ("many-a2-s0", "FCFSL"),
            ("many-a1-s2", "FCFS"),
        ]
        assert all(r.assignment_trace for r in serial)

    def test_each_point_matches_run_simulation(self, serial):
        configs = [config for _, _, config in mixed_points()]
        direct = [
            run_simulation(tiny_scenario(1), "OURS", configs[0]),
            run_simulation(
                tiny_scenario(2, seed=1), OursScheduler(cycle=0.01), configs[1]
            ),
            run_simulation(tiny_scenario(2), "FCFSL", configs[2]),
            run_simulation(tiny_scenario(1, seed=2), "FCFS", configs[3]),
        ]
        assert _keys(direct) == _keys(serial)

    def test_configs_apply_per_point(self, serial):
        assert serial[1].drained
        assert serial[3].timeline_samples is not None
        assert serial[0].timeline_samples is None

    def test_pool_returns_serial_order_and_hashes(self, serial, pooled):
        assert _keys(pooled) == _keys(serial)
        assert (
            pooled[3].timeline_samples.samples
            == serial[3].timeline_samples.samples
        )

    def test_pool_returns_serial_metric_windows(self, serial, pooled):
        assert serial[3].metrics.windows
        assert pooled[3].metrics.windows == serial[3].metrics.windows

    def test_serial_path_needs_no_pickling(self):
        (result,) = run_many(
            [(lambda: tiny_scenario(1), lambda: OursScheduler(), RunConfig())]
        )
        assert result.jobs_completed > 0

    def test_empty(self):
        assert run_many([]) == []
        assert run_many([], workers=4) == []

    @pytest.mark.parametrize("workers", [0, -1])
    def test_workers_below_one_rejected_before_any_run(self, workers):
        calls = []

        def build():
            calls.append(1)
            return tiny_scenario(1)

        with pytest.raises(ValueError, match="workers must be >= 1"):
            run_many([(build, "OURS", RunConfig())], workers=workers)
        assert calls == []


class _InlinePool:
    """Stands in for the process pool: records its width, maps inline."""

    widths = []

    def __init__(self, max_workers):
        self.widths.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return map(fn, items)


class TestPoolWidth:
    @pytest.fixture(autouse=True)
    def inline_pool(self, monkeypatch):
        _InlinePool.widths = []
        monkeypatch.setattr(simulator, "ProcessPoolExecutor", _InlinePool)

    def test_one_worker_uses_no_pool(self):
        run_many([(tiny_scenario(1), "OURS", RunConfig())])
        assert _InlinePool.widths == []

    def test_width_capped_by_point_count(self):
        points = [(tiny_scenario(1), "OURS", RunConfig())] * 2
        assert len(run_many(points, workers=8)) == 2
        assert _InlinePool.widths == [2]

    def test_width_capped_by_workers(self):
        points = [(tiny_scenario(1), "OURS", RunConfig())] * 3
        run_many(points, workers=2)
        assert _InlinePool.widths == [2]
