"""Tests for the Table II scenario factories."""

import dataclasses
import functools
import pickle

import pytest

from repro.core.chunks import total_size
from repro.sim.run_config import RunConfig
from repro.sim.sweep import sweep
from repro.util.units import GiB, TiB
from repro.workload.scenarios import (
    Scenario,
    TARGET_FPS,
    custom_scenario,
    make_scenario,
    scenario_1,
    scenario_2,
    scenario_3,
    scenario_4,
)


class TestTableII:
    def test_scenario1_row(self):
        sc = scenario_1()
        assert sc.system.node_count == 8
        assert sc.system.total_memory == 16 * GiB
        assert len(sc.datasets) == 6
        assert total_size(sc.datasets) == 12 * GiB
        assert sc.trace.duration == 60.0
        assert sc.trace.batch_count == 0
        assert sc.trace.interactive_count == 12006
        assert sc.target_framerate == TARGET_FPS
        assert sc.target_framerate == pytest.approx(33.33, abs=0.01)

    def test_scenario2_row(self):
        sc = scenario_2()
        assert sc.system.node_count == 8
        assert len(sc.datasets) == 12
        assert total_size(sc.datasets) == 24 * GiB
        assert sc.trace.duration == 120.0
        # Table II: 2251 batch / 21011 interactive — generated counts
        # land within sampling noise of the published totals.
        assert 1000 < sc.trace.batch_count < 3600
        assert 14000 < sc.trace.interactive_count < 28000

    def test_scenario3_row(self):
        sc = scenario_3()
        assert sc.system.node_count == 64
        assert sc.system.total_memory == 512 * GiB
        assert len(sc.datasets) == 32
        assert total_size(sc.datasets) == 256 * GiB
        assert sc.trace.duration == 300.0
        assert 5000 < sc.trace.batch_count < 15000
        assert 110_000 < sc.trace.interactive_count < 210_000

    def test_scenario4_row(self):
        sc = scenario_4(scale=0.2)  # keep the test fast; rates unscaled
        assert sc.system.node_count == 64
        assert len(sc.datasets) == 128
        assert total_size(sc.datasets) == 1 * TiB
        assert sc.trace.duration == pytest.approx(120.0)
        # Rates match Table II: ~59 batch jobs/s and ~647 interactive/s.
        assert 30 < sc.trace.batch_count / sc.trace.duration < 95
        assert 450 < sc.trace.interactive_count / sc.trace.duration < 850

    def test_scale_shrinks_duration_not_rates(self):
        full = scenario_1()
        small = scenario_1(scale=0.25)
        assert small.trace.duration == pytest.approx(15.0)
        rate_full = full.trace.interactive_count / full.trace.duration
        rate_small = small.trace.interactive_count / small.trace.duration
        assert rate_small == pytest.approx(rate_full, rel=0.05)

    def test_scenario2_interactive_working_set(self):
        """Interactive actions restrict to the first 8 datasets; batch
        ranges over all 12."""
        from repro.core.job import JobType

        sc = scenario_2()
        interactive_ds = {
            r.dataset
            for r in sc.trace.requests
            if r.job_type is JobType.INTERACTIVE
        }
        assert interactive_ds <= {f"ds{i:02d}" for i in range(8)}
        batch_ds = {
            r.dataset for r in sc.trace.requests if r.job_type is JobType.BATCH
        }
        assert any(ds in batch_ds for ds in ("ds08", "ds09", "ds10", "ds11"))


class TestFactoryPlumbing:
    def test_make_scenario_dispatch(self):
        assert make_scenario(1).name == "scenario1"
        with pytest.raises(KeyError):
            make_scenario(5)

    def test_reproducible(self):
        a = scenario_2(scale=0.1)
        b = scenario_2(scale=0.1)
        assert a.trace.requests == b.trace.requests

    def test_custom_scenario(self):
        base = scenario_1(scale=0.05)
        sc = custom_scenario(base.system, base.trace, name="mine")
        assert isinstance(sc, Scenario)
        assert sc.name == "mine"

    def test_prewarm_default_on(self):
        assert scenario_1().prewarm is True

    def test_summary_nonempty(self):
        assert "scenario1" in scenario_1(scale=0.05).summary()


def _prebuilt(scenario, _value):
    """Sweep factory returning a scenario built (and pickled) by the caller."""
    return scenario


class TestPicklingContract:
    def test_generated_scenario_pickle_roundtrip(self):
        scenario = make_scenario(2, scale=0.05, seed=3)
        restored = pickle.loads(pickle.dumps(scenario))
        assert restored.trace.requests == scenario.trace.requests
        assert restored.trace.datasets == scenario.trace.datasets
        first = restored.trace.requests[0]
        assert dataclasses.is_dataclass(first)
        assert hash(first) == hash(scenario.trace.requests[0])
        with pytest.raises(dataclasses.FrozenInstanceError):
            first.time = 0.0
        assert dataclasses.replace(first, sequence=99).sequence == 99

    def test_pickled_scenario_sweep_matches_serial(self):
        """A generated trace shipped to pool workers runs identically."""
        factory = functools.partial(_prebuilt, make_scenario(2, scale=0.05))
        config = RunConfig(record_assignments=True)
        schedulers = ["OURS", "FCFS"]
        serial = sweep("v", [0], factory, schedulers, config=config)
        pooled = sweep("v", [0], factory, schedulers, workers=2, config=config)
        for name in schedulers:
            assert (
                serial.result(0, name).assignment_trace_hash()
                == pooled.result(0, name).assignment_trace_hash()
            )
