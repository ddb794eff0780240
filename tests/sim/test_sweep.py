"""Tests for the sweep experiment harness."""

import functools

import pytest

from repro.core.chunks import dataset_suite
from repro.core.ours import OursScheduler
from repro.sim.config import system_linux8
from repro.sim.run_config import RunConfig
from repro.sim.simulator import run_many
from repro.sim.sweep import sweep
from repro.util.units import GiB
from repro.workload.actions import persistent_actions
from repro.workload.scenarios import Scenario


def scenario_with_actions(actions: float, seed: int = 0) -> Scenario:
    system = system_linux8(node_count=4)
    datasets = dataset_suite(2, 1 * GiB)
    trace = persistent_actions(
        datasets,
        1.5,
        actions=int(actions),
        target_framerate=100.0 / 3.0,
        seed=seed,
        name=f"sweep-a{actions}",
    )
    return Scenario(name=f"sweep-a{actions}", system=system, trace=trace)


class TestSweep:
    def test_grid_complete(self):
        result = sweep(
            "#actions",
            [1, 2],
            scenario_with_actions,
            ["OURS", "FCFS"],
        )
        assert result.schedulers == ["OURS", "FCFS"]
        assert set(result.results) == {
            (1, "OURS"),
            (1, "FCFS"),
            (2, "OURS"),
            (2, "FCFS"),
        }

    def test_series_and_table(self):
        result = sweep("#actions", [1, 2], scenario_with_actions, ["OURS"])
        series = result.series(lambda r: float(r.jobs_submitted))
        assert series["OURS"][1] > series["OURS"][0]
        text = result.table(lambda r: r.interactive_fps, title="t")
        assert "OURS" in text and "t" in text

    def test_scheduler_factories_accepted(self):
        result = sweep(
            "#actions",
            [1],
            scenario_with_actions,
            [lambda: OursScheduler(cycle=0.01)],
        )
        assert result.schedulers == ["OURS"]

    def test_validation(self):
        with pytest.raises(ValueError):
            sweep("x", [], scenario_with_actions, ["OURS"])
        with pytest.raises(ValueError):
            sweep("x", [1], scenario_with_actions, [])
        # Two runs under one (value, scheduler) key would overwrite
        # each other's result.
        with pytest.raises(ValueError, match="scheduler names repeat"):
            sweep(
                "x",
                [1],
                scenario_with_actions,
                [
                    functools.partial(OursScheduler, cycle=0.002),
                    functools.partial(OursScheduler, cycle=0.1),
                ],
            )
        with pytest.raises(ValueError, match="scheduler names repeat"):
            sweep("x", [1], scenario_with_actions, ["OURS", "ours"])
        with pytest.raises(ValueError, match="values repeat"):
            sweep("x", [1, 2, 1], scenario_with_actions, ["OURS"])

    def test_validation_runs_nothing(self):
        calls = []

        def factory(value):
            calls.append(value)
            return scenario_with_actions(value)

        with pytest.raises(ValueError):
            sweep("x", [1, 1], factory, ["OURS"])
        with pytest.raises(ValueError):
            sweep("x", [1], factory, ["OURS"], workers=0)
        assert calls == []

    @pytest.mark.parametrize("workers", [0, -1])
    def test_workers_below_one_rejected(self, workers):
        with pytest.raises(ValueError, match="workers must be >= 1"):
            sweep("x", [1], scenario_with_actions, ["OURS"], workers=workers)


class TestParallelWorkers:
    """workers=N must reproduce the serial results exactly."""

    def test_sweep_parity(self):
        serial = sweep("#actions", [1, 2], scenario_with_actions, ["OURS", "FCFS"])
        parallel = sweep(
            "#actions",
            [1, 2],
            scenario_with_actions,
            ["OURS", "FCFS"],
            workers=2,
        )
        assert set(parallel.results) == set(serial.results)
        assert parallel.schedulers == serial.schedulers
        for key, serial_result in serial.results.items():
            parallel_result = parallel.results[key]
            assert parallel_result.jobs_completed == serial_result.jobs_completed
            assert parallel_result.interactive_fps == serial_result.interactive_fps
            assert parallel_result.hit_rate == serial_result.hit_rate

    def test_run_many_per_seed_parity(self):
        points = [
            (functools.partial(scenario_with_actions, 2, seed), "OURS", RunConfig())
            for seed in (0, 1, 2)
        ]
        serial = run_many(points)
        parallel = run_many(points, workers=2)
        assert [r.interactive_fps for r in parallel] == [
            r.interactive_fps for r in serial
        ]
        assert [r.hit_rate for r in parallel] == [r.hit_rate for r in serial]

    def test_workers_one_is_serial(self):
        result = sweep(
            "#actions", [1], scenario_with_actions, ["OURS"], workers=1
        )
        assert set(result.results) == {(1, "OURS")}

    def test_parallel_results_keep_profiles(self):
        result = sweep(
            "#actions", [1], scenario_with_actions, ["OURS"], workers=2
        )
        profile = result.result(1, "OURS").profile
        assert profile is not None
        assert len(profile.nodes) == 4

    def test_parallel_results_keep_timeline_samples(self):
        # The sampler holds no service reference, so a timeline-enabled
        # result crosses the process boundary as it is.
        with pytest.warns(DeprecationWarning, match="timeline_interval"):
            config = RunConfig(timeline_interval=0.1)
        serial = sweep(
            "#actions", [1], scenario_with_actions, ["OURS"], config=config
        )
        parallel = sweep(
            "#actions",
            [1],
            scenario_with_actions,
            ["OURS"],
            workers=2,
            config=config,
        )
        samples = parallel.result(1, "OURS").timeline_samples.samples
        assert samples
        assert samples == serial.result(1, "OURS").timeline_samples.samples
