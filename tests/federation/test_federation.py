"""End-to-end federation invariants: split exactness, merge
determinism, 1-shard bit-identity, serial-vs-pool parity, and the
locality-beats-hash cache effect the router exists for."""

import pytest

from repro.federation import (
    FederationConfig,
    build_shards,
    run_federation,
)
from repro.sim.run_config import RunConfig
from repro.sim.simulator import run_simulation
from repro.workload.scenarios import make_scenario

SCALE = 0.05


def _scenario(number=2, users=2, **kwargs):
    return make_scenario(number, scale=SCALE, users=users, **kwargs)


class TestConfig:
    def test_defaults_valid(self):
        config = FederationConfig()
        assert config.shards == 2
        assert config.resolved_replication == "partition"

    def test_auto_replication_follows_router(self):
        assert (
            FederationConfig(router="hash").resolved_replication == "mirror"
        )
        assert (
            FederationConfig(router="locality").resolved_replication
            == "partition"
        )

    @pytest.mark.parametrize(
        "bad",
        [
            dict(shards=0),
            dict(router="rr"),
            dict(replication="nope"),
            dict(workers=0),
            dict(frontend_scope="planet"),
        ],
    )
    def test_invalid_rejected(self, bad):
        with pytest.raises(ValueError):
            FederationConfig(**bad)

    def test_picklable(self):
        import pickle

        config = FederationConfig(shards=4, workers=2)
        assert pickle.loads(pickle.dumps(config)) == config


class TestBuildShards:
    def test_requests_conserved_exactly(self):
        scenario = _scenario()
        _, _, pairs = build_shards(scenario, FederationConfig(shards=3))
        key = lambda r: (r.time, r.user, r.action, r.sequence, r.dataset)
        split = [r for s, _ in pairs for r in s.trace.requests]
        assert sorted(split, key=key) == sorted(
            scenario.trace.requests, key=key
        )

    def test_users_never_split(self):
        scenario = _scenario()
        _, _, pairs = build_shards(scenario, FederationConfig(shards=3))
        seen = {}
        for index, (shard_scenario, _) in enumerate(pairs):
            for request in shard_scenario.trace.requests:
                assert seen.setdefault(request.user, index) == index

    def test_shard_configs_namespaced(self):
        scenario = _scenario()
        _, _, pairs = build_shards(scenario, FederationConfig(shards=3))
        assert [cfg.job_namespace for _, cfg in pairs] == [0, 1, 2]

    def test_shard_datasets_cover_referenced(self):
        scenario = _scenario()
        _, _, pairs = build_shards(
            scenario, FederationConfig(shards=3, router="hash")
        )
        for shard_scenario, _ in pairs:
            names = {ds.name for ds in shard_scenario.trace.datasets}
            assert {r.dataset for r in shard_scenario.trace.requests} <= names


class TestMergeDeterminism:
    def test_serial_and_pool_merges_identical(self):
        """workers=N is a pure wall-clock optimization: the merged
        FederatedResult digests bit-identically."""
        config = FederationConfig(shards=3, run=RunConfig(metrics=True))
        scenario = _scenario(users=3)
        serial = run_federation(scenario, "OURS", config)
        pooled = run_federation(
            scenario, "OURS", config.replace(workers=3)
        )
        assert serial.digest() == pooled.digest()
        assert serial.metric_totals() == pooled.metric_totals()

    def test_repeat_runs_identical(self):
        config = FederationConfig(shards=2)
        scenario = _scenario()
        assert (
            run_federation(scenario, "OURS", config).digest()
            == run_federation(scenario, "OURS", config).digest()
        )


class TestOneShardIdentity:
    def test_bit_identical_to_plain_run(self):
        """A 1-shard federation is the simulator, exactly: same
        assignment trace to the last bit, same merged summary."""
        scenario = _scenario(users=1)
        run_config = RunConfig(record_assignments=True)
        plain = run_simulation(scenario, "OURS", run_config)
        federated = run_federation(
            scenario, "OURS", FederationConfig(shards=1, run=run_config)
        )
        (shard,) = federated.shard_results
        assert (
            shard.assignment_trace_hash() == plain.assignment_trace_hash()
        )
        assert federated.records == plain.records
        # sched_cost_us is measured wall-clock — the one summary field
        # that is legitimately nondeterministic; everything else must
        # match to the bit.
        import dataclasses

        assert dataclasses.replace(
            federated.summary(), sched_cost_us=0.0
        ) == dataclasses.replace(plain.summary(), sched_cost_us=0.0)


class TestMergedView:
    def test_totals_sum_over_shards(self):
        result = run_federation(
            _scenario(), "OURS", FederationConfig(shards=2)
        )
        assert result.jobs_submitted == sum(
            r.jobs_submitted for r in result.shard_results
        )
        assert len(result.records) == result.jobs_completed

    def test_job_ids_never_collide(self):
        result = run_federation(
            _scenario(), "OURS", FederationConfig(shards=2)
        )
        ids = [r.job_id for r in result.records]
        assert len(ids) == len(set(ids))

    def test_merged_slo_denominators_sum(self):
        from repro.obs import SLObjective, SLOMonitor

        result = run_federation(
            _scenario(), "OURS", FederationConfig(shards=2)
        )
        objective = SLObjective.parse("fps=33.33")
        (merged,) = result.evaluate_slos([objective])
        per_shard = [
            SLOMonitor([objective]).evaluate(s)[0]
            for s in result.shard_results
        ]
        assert merged.actions_evaluated == sum(
            r.actions_evaluated for r in per_shard
        )
        assert merged.evaluated_time == pytest.approx(
            sum(r.evaluated_time for r in per_shard)
        )
        assert len(merged.violations) == sum(
            len(r.violations) for r in per_shard
        )

    def test_shard_table_renders(self):
        result = run_federation(
            _scenario(), "OURS", FederationConfig(shards=2)
        )
        table = result.shard_table()
        assert "shard" in table and "merged [locality/partition]" in table
        assert len(table.splitlines()) == 2 + 2 + 1  # header+rule+rows+footer


class TestFrontendScope:
    def test_global_scope_divides_caps(self):
        from repro.frontend import FrontendConfig

        scenario = _scenario(load=2.0)
        run = RunConfig(frontend=FrontendConfig.protective())
        result = run_federation(
            scenario,
            "OURS",
            FederationConfig(shards=2, run=run, frontend_scope="global"),
        )
        base = run.frontend.admission.max_sessions
        for shard in result.shard_results:
            cfg = shard.frontend.config
            assert cfg.admission.max_sessions == -(-base // 2)

    def test_global_scope_keeps_the_per_user_rate(self):
        """The token rate budgets one user, and a user lives on one
        shard, so global scope rejects on rate exactly as shard scope
        does."""
        from repro.frontend import FrontendConfig
        from repro.frontend.config import AdmissionConfig

        admission = AdmissionConfig(rate=20.0, burst=30.0)
        run = RunConfig(frontend=FrontendConfig(admission=admission))
        rejected = {}
        for scope in ("shard", "global"):
            result = run_federation(
                _scenario(load=2.0),
                "OURS",
                FederationConfig(shards=2, run=run, frontend_scope=scope),
            )
            for shard in result.shard_results:
                cfg = shard.frontend.config.admission
                assert (cfg.rate, cfg.burst) == (20.0, 30.0)
            rejected[scope] = result.frontend.rejected_rate
        assert rejected["shard"] > 0
        assert rejected["global"] == rejected["shard"]

    @pytest.mark.parametrize("part", ["admission", "backpressure"])
    def test_global_scope_with_one_part_unset(self, part):
        """A frontend with only admission, or only a queue limit, splits
        the part it has and leaves the other unset."""
        from repro.frontend import FrontendConfig
        from repro.frontend.config import AdmissionConfig, BackpressureConfig

        frontend = (
            FrontendConfig(admission=AdmissionConfig(max_sessions=8))
            if part == "admission"
            else FrontendConfig(backpressure=BackpressureConfig(queue_limit=64))
        )
        result = run_federation(
            _scenario(load=2.0),
            "OURS",
            FederationConfig(
                shards=2,
                run=RunConfig(frontend=frontend),
                frontend_scope="global",
            ),
        )
        for shard in result.shard_results:
            cfg = shard.frontend.config
            if part == "admission":
                assert cfg.backpressure is None
                assert cfg.admission.max_sessions == 4
            else:
                assert cfg.admission is None
                assert cfg.backpressure.queue_limit == 32

    def test_conservation_identity_survives_merge(self):
        from repro.frontend import FrontendConfig

        scenario = _scenario(load=2.0)
        run = RunConfig(frontend=FrontendConfig.protective())
        result = run_federation(
            scenario,
            "OURS",
            FederationConfig(shards=2, run=run, frontend_scope="global"),
        )
        stats = result.frontend
        assert stats is not None
        accounted = (
            stats.forwarded
            + stats.rejected_rate
            + stats.rejected_sessions
            + stats.shed_oldest
            + stats.shed_newest
            + stats.frames_dropped
            + stats.unserved_at_end
        )
        assert accounted == stats.requests_seen


class TestLocalityBeatsHash:
    def test_locality_router_wins_on_cache_hits(self):
        """The point of the tier: routing users to their data's home
        shard keeps the Cache table warm; hash routing scatters them."""
        scenario = _scenario(users=2)
        locality = run_federation(
            scenario, "OURS", FederationConfig(shards=2, router="locality")
        )
        hashed = run_federation(
            scenario, "OURS", FederationConfig(shards=2, router="hash")
        )
        assert locality.hit_rate >= hashed.hit_rate
        assert (
            locality.summary().interactive_latency
            <= hashed.summary().interactive_latency
        )
