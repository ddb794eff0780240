"""Tests for the SLO-burn-driven quality-ladder controller."""

from types import SimpleNamespace

import pytest

from repro.cluster.event_queue import EventQueue
from repro.core.job import JOB_TYPES, JobType
from repro.frontend.config import DEFAULT_LADDER, DegradeConfig, QualityLevel
from repro.frontend.degradation import DegradationController


class FakeCollector:
    def __init__(self):
        self.completed_by_code = [0] * len(JOB_TYPES)
        self.action_issues = {}


class FakeService:
    """Collector + clock: all the controller reads between ticks."""

    def __init__(self):
        self.collector = FakeCollector()
        self.cluster = SimpleNamespace(events=EventQueue(), now=0.0)

    def has_work(self):
        return False

    def deliver(self, frames, *, now, action=0):
        """Record ``frames`` interactive completions and an active span."""
        self.collector.completed_by_code[JOB_TYPES.index(JobType.INTERACTIVE)] += frames
        self.collector.action_issues[action] = [float(frames), 0.0, now]


def make_controller(**overrides):
    config = DegradeConfig(
        sample_interval=1.0,
        step_down_burn=0.25,
        step_up_burn=0.05,
        patience=2,
        **overrides,
    )
    service = FakeService()
    ctrl = DegradationController(config, 10.0)
    ctrl.attach(service, horizon=100.0)
    return ctrl, service


def tick(ctrl, service, now, frames):
    service.cluster.now = now
    service.deliver(frames, now=now)
    ctrl._tick()


class TestKeepFrame:
    def test_full_quality_keeps_everything(self):
        ctrl, _ = make_controller()
        assert all(ctrl.keep_frame(i) for i in range(10))
        assert ctrl.frames_dropped == 0

    def test_half_rate_is_even_stride(self):
        ctrl, _ = make_controller()
        ctrl.level_index = 1  # half-rate
        kept = [i for i in range(10) if ctrl.keep_frame(i)]
        assert len(kept) == 5
        # Evenly spaced, deterministic — no two adjacent kept frames.
        assert all(b - a == 2 for a, b in zip(kept, kept[1:]))
        assert ctrl.frames_dropped == 5

    def test_quarter_rate(self):
        ctrl, _ = make_controller()
        ctrl.level_index = 3  # quarter
        kept = [i for i in range(20) if ctrl.keep_frame(i)]
        assert len(kept) == 5


class TestHysteresis:
    def test_sustained_burn_steps_down(self):
        ctrl, service = make_controller()
        tick(ctrl, service, 1.0, frames=2)  # 2 fps vs 10 → burn 0.8
        assert ctrl.level_index == 0  # one hot sample is not enough
        tick(ctrl, service, 2.0, frames=2)
        assert ctrl.level_index == 1
        change = ctrl.changes[-1]
        assert change.reason == "burn"
        assert change.level == 1

    def test_single_spike_does_not_degrade(self):
        ctrl, service = make_controller()
        tick(ctrl, service, 1.0, frames=2)  # hot
        tick(ctrl, service, 2.0, frames=9)  # neutral: fine for current,
        tick(ctrl, service, 3.0, frames=2)  # not cool enough to restore
        assert ctrl.level_index == 0

    def test_recovery_judged_against_restored_target(self):
        ctrl, service = make_controller()
        ctrl.level_index = 1  # half-rate: effective target 5 fps
        # 5 fps satisfies the current rung but NOT the full-rate rung
        # above (burn 0.5 >= 0.05) — no flapping back up.
        for now in (1.0, 2.0, 3.0):
            tick(ctrl, service, now, frames=5)
        assert ctrl.level_index == 1
        # Delivering the *full* target with margin restores.
        tick(ctrl, service, 4.0, frames=10)
        tick(ctrl, service, 5.0, frames=10)
        assert ctrl.level_index == 0
        assert ctrl.changes[-1].reason == "recovered"

    def test_idle_interval_is_not_judged(self):
        ctrl, service = make_controller()
        service.cluster.now = 1.0
        ctrl._tick()  # no active session: no hot/cool movement
        tick(ctrl, service, 2.0, frames=2)
        tick(ctrl, service, 3.0, frames=2)
        assert ctrl.level_index == 1

    def test_ladder_clamps_at_bottom(self):
        ctrl, service = make_controller()
        for step in range(20):
            tick(ctrl, service, 1.0 + step, frames=0)
        assert ctrl.level_index == len(DEFAULT_LADDER) - 1


class TestOverflowNudge:
    def test_nudges_accumulate_to_a_move(self):
        ctrl, _ = make_controller()
        ctrl.overflow_nudge()
        assert ctrl.level_index == 0
        ctrl.overflow_nudge()
        assert ctrl.level_index == 1
        assert ctrl.changes[-1].reason == "overflow"

    def test_nudge_resets_cool_streak(self):
        ctrl, service = make_controller()
        ctrl.level_index = 1
        tick(ctrl, service, 1.0, frames=10)  # cool
        ctrl.overflow_nudge()  # overload evidence cancels it
        tick(ctrl, service, 2.0, frames=10)
        assert ctrl.level_index == 1  # cool streak restarted


class TestConfig:
    def test_custom_ladder(self):
        ladder = (QualityLevel("full"), QualityLevel("low", 0.5, 0.25))
        ctrl, service = make_controller(ladder=ladder)
        tick(ctrl, service, 1.0, frames=0)
        tick(ctrl, service, 2.0, frames=0)
        assert ctrl.level.name == "low"
        assert ctrl.level.resolution_factor == 0.25

    def test_bad_factors_rejected(self):
        with pytest.raises(ValueError):
            QualityLevel("bad", 0.0, 1.0)
        with pytest.raises(ValueError):
            QualityLevel("bad", 1.0, 1.5)

    def test_burn_thresholds_validated(self):
        with pytest.raises(ValueError):
            DegradeConfig(step_down_burn=0.1, step_up_burn=0.2)

    def test_explicit_target_overrides_scenario(self):
        config = DegradeConfig(target_fps=20.0)
        ctrl = DegradationController(config, 33.33)
        assert ctrl.target_fps == 20.0
