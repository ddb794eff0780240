"""Tests for RunConfig, its validation, and the removed pre-1.1 keyword
spelling."""

import functools
import pickle
import re
import warnings

import pytest

from repro.frontend import FrontendConfig
from repro.sim.run_config import RunConfig
from repro.sim.simulator import compare_schedulers, run_many, run_simulation
from repro.sim.sweep import sweep
from repro.workload.scenarios import make_scenario

INF, NAN = float("inf"), float("nan")


def scenario_factory(seed):
    return make_scenario(2, scale=0.02, seed=seed)


class TestRunConfig:
    def test_frozen_and_replace(self):
        config = RunConfig()
        with pytest.raises(AttributeError):
            config.drain = True
        assert config.replace(drain=True).drain is True
        assert config.drain is False

    def test_picklable_with_frontend(self):
        config = RunConfig(frontend=FrontendConfig.protective())
        clone = pickle.loads(pickle.dumps(config))
        assert clone == config

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("max_drain_time", -1.0, "max_drain_time must be finite and >= 0, got -1.0"),
            ("max_drain_time", NAN, "max_drain_time must be finite and >= 0, got nan"),
            ("max_drain_time", INF, "max_drain_time must be finite and >= 0, got inf"),
        ],
    )
    def test_rejects_bad_drain_time_and_intervals(self, field, value, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            RunConfig(**{field: value})
        with pytest.raises(ValueError, match=re.escape(message)):
            RunConfig().replace(**{field: value})

    def test_boundary_values_accepted(self):
        config = RunConfig(drain=True, max_drain_time=0.0)
        assert config.max_drain_time == 0.0

    def test_max_drain_time_needs_drain(self):
        # The bound applies only to a drain; without one it did nothing.
        with pytest.raises(ValueError, match="needs drain=True"):
            RunConfig(max_drain_time=5.0)
        with pytest.raises(ValueError, match="needs drain=True"):
            RunConfig(drain=True, max_drain_time=5.0).replace(drain=False)
        with pytest.raises(ValueError, match="needs drain=True"):
            compare_schedulers(
                make_scenario(2, scale=0.02), ["OURS"], max_drain_time=5.0
            )
        assert RunConfig(drain=True, max_drain_time=5.0).max_drain_time == 5.0


class TestDeprecatedSpelling:
    """The pre-1.1 ``RunConfig`` fields-as-keywords spelling was removed
    in 1.6: it now fails loudly instead of warning."""

    def test_config_plus_kwargs_rejected(self):
        scenario = make_scenario(2, scale=0.02)
        with pytest.raises(TypeError, match="unexpected keyword"):
            run_simulation(
                scenario, "OURS", config=RunConfig(), drain=True
            )

    def test_unknown_kwarg_rejected(self):
        scenario = make_scenario(2, scale=0.02)
        with pytest.raises(TypeError, match="unexpected keyword"):
            run_simulation(scenario, "OURS", dran=True)

    def test_no_warning_on_config_path(self):
        scenario = make_scenario(2, scale=0.02)
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            run_simulation(scenario, "OURS", config=RunConfig())
            run_simulation(scenario, "OURS")

    def test_sweep_config_plus_kwargs_rejected(self):
        with pytest.raises(TypeError, match="unexpected keyword"):
            sweep(
                "seed",
                [0],
                scenario_factory,
                ["OURS"],
                config=RunConfig(),
                drain=True,
            )


class TestConfigThroughProcessPool:
    def test_run_many_per_seed_parallel_parity_with_frontend(self):
        """A frontend-bearing RunConfig survives the workers=N path of
        ``run_many`` over one point per seed (seed replication)."""
        config = RunConfig(
            frontend=FrontendConfig.protective(max_sessions=4, queue_limit=16)
        )
        points = [
            (functools.partial(scenario_factory, seed), "OURS", config)
            for seed in (0, 1)
        ]
        serial = run_many(points)
        parallel = run_many(points, workers=2)
        assert [r.interactive_fps for r in parallel] == [
            r.interactive_fps for r in serial
        ]
        assert [r.jobs_completed for r in parallel] == [
            r.jobs_completed for r in serial
        ]
        for result in parallel:
            assert result.frontend is not None
            assert result.frontend.forwarded == result.jobs_submitted
