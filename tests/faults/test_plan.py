"""Fault-plan layer: validation, mini-language parsing, seeded storms."""

import pytest

from repro.faults import (
    CacheWipe,
    DetectionConfig,
    FaultPlan,
    NodeCrash,
    RecoveryConfig,
    StorageDegrade,
    Straggler,
)


class TestEventValidation:
    def test_negative_time_rejected(self):
        with pytest.raises(ValueError, match="time must be >= 0"):
            NodeCrash(-1.0, 0)

    def test_negative_node_rejected(self):
        with pytest.raises(ValueError, match="node must be >= 0"):
            NodeCrash(1.0, -2)

    def test_revive_must_follow_crash(self):
        with pytest.raises(ValueError, match="revive_at"):
            NodeCrash(5.0, 0, revive_at=5.0)

    def test_straggler_factors_below_one_rejected(self):
        with pytest.raises(ValueError, match="factors must be >= 1.0"):
            Straggler(1.0, 0, render_factor=0.5)
        with pytest.raises(ValueError, match="factors must be >= 1.0"):
            Straggler(1.0, 0, io_factor=0.9)

    def test_straggler_until_must_follow_onset(self):
        with pytest.raises(ValueError, match="until"):
            Straggler(3.0, 0, until=2.0)

    def test_wipe_negative_node_rejected(self):
        with pytest.raises(ValueError, match="node must be >= 0"):
            CacheWipe(1.0, node=-1)

    def test_storage_factor_ranges(self):
        with pytest.raises(ValueError, match="latency_factor"):
            StorageDegrade(1.0, latency_factor=0.5)
        with pytest.raises(ValueError, match="bandwidth_factor"):
            StorageDegrade(1.0, bandwidth_factor=0.0)
        with pytest.raises(ValueError, match="bandwidth_factor"):
            StorageDegrade(1.0, bandwidth_factor=1.5)

    def test_detection_config_validation(self):
        with pytest.raises(ValueError, match="heartbeat_interval"):
            DetectionConfig(heartbeat_interval=0.0)
        with pytest.raises(ValueError, match="heartbeat_timeout"):
            DetectionConfig(heartbeat_interval=0.2, heartbeat_timeout=0.1)
        with pytest.raises(ValueError, match="outlier_ratio"):
            DetectionConfig(outlier_ratio=1.0)

    def test_recovery_config_validation(self):
        with pytest.raises(ValueError, match="rewarm_limit"):
            RecoveryConfig(rewarm_limit=-1)

    def test_plan_rejects_non_events(self):
        with pytest.raises(TypeError, match="fault events must be"):
            FaultPlan(events=("crash@1",))

    def test_recovery_requires_detection(self):
        with pytest.raises(ValueError, match="recovery requires detection"):
            FaultPlan(events=(), recovery=RecoveryConfig())


class TestPlanModes:
    def test_raw_plan_is_vanilla(self):
        plan = FaultPlan(events=(NodeCrash(1.0, 0),))
        assert plan.detection is None
        assert plan.recovery is None
        assert not plan.self_healing

    def test_detect_only_is_not_self_healing(self):
        plan = FaultPlan(
            events=(NodeCrash(1.0, 0),), detection=DetectionConfig()
        )
        assert not plan.self_healing
        assert "detect-only" in plan.describe()

    def test_self_healing_needs_both_configs(self):
        plan = FaultPlan(
            events=(NodeCrash(1.0, 0),),
            detection=DetectionConfig(),
            recovery=RecoveryConfig(),
        )
        assert plan.self_healing
        assert "self-healing" in plan.describe()

    def test_max_node(self):
        plan = FaultPlan(
            events=(
                NodeCrash(1.0, 2),
                Straggler(2.0, 5),
                StorageDegrade(3.0, latency_factor=2.0),
            )
        )
        assert plan.max_node() == 5
        assert FaultPlan().max_node() == -1
        plan.check_nodes(6)
        with pytest.raises(ValueError, match="references node 5 .* 5 nodes"):
            plan.check_nodes(5)

    def test_describe_lists_every_event(self):
        plan = FaultPlan.parse(
            "crash@10:node=3,revive=20; wipe@8:node=1", heal=False
        )
        text = plan.describe()
        assert "crash@10" in text
        assert "wipe@8" in text
        assert "vanilla" in text


class TestParse:
    def test_full_grammar_round_trip(self):
        plan = FaultPlan.parse(
            "crash@10:node=3,revive=20;"
            "straggler@5:node=2,render=4,io=2,until=15;"
            "wipe@8:dataset=ds2;"
            "storage@6:latency=5,bw=0.25,until=12"
        )
        crash, straggler, wipe, storage = plan.events
        assert crash == NodeCrash(10.0, 3, revive_at=20.0)
        assert straggler == Straggler(
            5.0, 2, render_factor=4.0, io_factor=2.0, until=15.0
        )
        assert wipe == CacheWipe(8.0, dataset="ds2")
        assert storage == StorageDegrade(
            6.0, latency_factor=5.0, bandwidth_factor=0.25, until=12.0
        )
        assert plan.self_healing  # heal=True is the parse default

    def test_heal_false_yields_vanilla(self):
        plan = FaultPlan.parse("crash@1:node=0", heal=False)
        assert plan.detection is None and plan.recovery is None

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultPlan.parse("meteor@1:node=0")

    def test_unknown_option_rejected(self):
        with pytest.raises(ValueError, match="unknown crash option"):
            FaultPlan.parse("crash@1:node=0,sverity=9")

    def test_missing_required_option_rejected(self):
        with pytest.raises(ValueError, match="missing required option"):
            FaultPlan.parse("crash@1")

    def test_bad_time_rejected(self):
        with pytest.raises(ValueError, match="bad fault time"):
            FaultPlan.parse("crash@soon:node=0")

    def test_bad_option_syntax_rejected(self):
        with pytest.raises(ValueError, match="expected key=value"):
            FaultPlan.parse("crash@1:node")

    def test_empty_segments_ignored(self):
        plan = FaultPlan.parse("crash@1:node=0; ; ")
        assert len(plan.events) == 1


class TestStorm:
    def test_same_seed_same_plan(self):
        first = FaultPlan.storm(11, node_count=8, duration=60.0)
        second = FaultPlan.storm(11, node_count=8, duration=60.0)
        assert first == second

    def test_different_seeds_differ(self):
        first = FaultPlan.storm(11, node_count=8, duration=60.0)
        second = FaultPlan.storm(12, node_count=8, duration=60.0)
        assert first != second

    def test_storm_shape(self):
        plan = FaultPlan.storm(7, node_count=8, duration=60.0)
        kinds = sorted(event.kind for event in plan.events)
        assert kinds == ["crash", "storage", "straggler", "wipe"]
        assert all(0.0 <= event.time <= 60.0 for event in plan.events)
        assert plan.max_node() < 8
        assert plan.self_healing

    def test_storm_validation(self):
        with pytest.raises(ValueError, match="storm needs >= 2 nodes"):
            FaultPlan.storm(1, node_count=1, duration=10.0)
        with pytest.raises(ValueError, match="duration must be > 0"):
            FaultPlan.storm(1, node_count=4, duration=0.0)


class TestFromNodeFailures:
    def test_pairs_become_vanilla_crashes(self):
        plan = FaultPlan.from_node_failures([(2.0, 1), (4.0, 3)])
        assert plan.events == (NodeCrash(2.0, 1), NodeCrash(4.0, 3))
        assert not plan.self_healing
