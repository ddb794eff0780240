"""Decision audit log: ring semantics, reason codes, flight recorder."""

import hashlib
import json

import pytest

from repro.core.chunks import Dataset
from repro.core.job import JobType
from repro.obs.audit import (
    REASON_CACHE_HIT,
    REASON_CODES,
    REASON_FALLBACK,
    REASON_MIN_ESTIMATE,
    REASON_ONLY_AVAILABLE,
    REASON_SHED,
    AuditConfig,
    AuditLog,
    snapshot_candidates,
)
from repro.frontend.config import FrontendConfig
from repro.sim.run_config import RunConfig
from repro.sim.simulator import run_simulation
from repro.util.units import MiB
from repro.workload.scenarios import make_scenario
from repro.workload.trace import Request
from tests.conftest import MiniHarness


def stage(harness, available=(0.0, 1.0, 9.0, 9.0), cached=(), *, tasks=1,
          user=1, action=2, sequence=3):
    """The tasks of one interactive job over ``tasks`` 256 MiB chunks,
    with the harness tables' Available row set to ``available`` and the
    first chunk cached on the ``cached`` nodes."""
    job = harness.job(
        Dataset("ds", tasks * 256 * MiB), user=user, action=action,
        sequence=sequence,
    )
    out = job.decompose(harness.decomposition)
    harness.tables.available[:] = available
    for node in cached:
        harness.tables.warm(out[0].chunk, node)
    return out


def lean(**options):
    """A log config on the deprecated ``candidates=False`` capture branch."""
    with pytest.warns(DeprecationWarning, match="AuditConfig.candidates"):
        return AuditConfig(candidates=False, **options)


class TestAuditConfig:
    def test_defaults(self):
        cfg = AuditConfig()
        assert cfg.capacity == 4096
        assert cfg.jsonl_path is None
        assert cfg.candidates is True

    def test_unbounded_capacity_allowed(self):
        assert AuditConfig(capacity=None).capacity is None

    def test_bad_capacity_rejected(self):
        with pytest.raises(ValueError, match="capacity"):
            AuditConfig(capacity=0)

    def test_bad_max_candidates_rejected(self):
        with pytest.raises(ValueError, match="max_candidates"):
            AuditConfig(max_candidates=0)


class TestReasonDerivation:
    """When the policy states no reason, one is derived from the tables."""

    def record(self, harness, node, cached=(), reason=None):
        (task,) = stage(harness, (5.0, 0.0, 9.0, 9.0), cached)
        log = AuditLog(lean())
        log.begin_invocation(0.0, 1)
        log.record_assignment(task, node, harness.tables, 1.0, reason)
        (rec,) = log.records
        return rec

    def test_cached_node_is_cache_hit(self, harness):
        rec = self.record(harness, node=1, cached={1})
        assert rec.reason == REASON_CACHE_HIT

    def test_min_available_node_is_only_available(self, harness):
        rec = self.record(harness, node=1)
        assert rec.reason == REASON_ONLY_AVAILABLE

    def test_other_node_is_min_estimate(self, harness):
        rec = self.record(harness, node=0)
        assert rec.reason == REASON_MIN_ESTIMATE

    def test_explicit_reason_passes_through(self, harness):
        rec = self.record(harness, node=1, cached={1}, reason=REASON_FALLBACK)
        assert rec.reason == REASON_FALLBACK

    def test_record_fields(self, harness):
        rec = self.record(harness, node=1, cached={1})
        assert rec.time == 1.0
        assert rec.cycle == 1
        assert (rec.user, rec.action, rec.sequence) == (1, 2, 3)
        assert rec.job_type == "interactive"
        assert rec.key() == (1, 2, 3, 0)


class TestRingBuffer:
    def test_eviction_keeps_newest_and_counts_drops(self, harness):
        log = AuditLog(lean(capacity=4))
        for i, task in enumerate(stage(harness, tasks=10)):
            log.record_assignment(task, 0, harness.tables, float(i), None)
        assert len(log) == 4
        assert log.total_recorded == 10
        assert log.dropped == 6
        assert [r.task_index for r in log] == [6, 7, 8, 9]

    def test_reason_totals_survive_eviction(self, harness):
        log = AuditLog(lean(capacity=2))
        for task in stage(harness, tasks=5):
            log.record_assignment(task, 0, harness.tables, 0.0, None)
        assert log.reason_counts() == {REASON_ONLY_AVAILABLE: 5}
        assert sum(log.reason_counts().values()) == log.total_recorded

    def test_decisions_for_filters_one_job(self, harness):
        log = AuditLog(lean())
        for user in (7, 8):
            (task,) = stage(harness, user=user, action=1, sequence=0)
            log.record_assignment(task, 0, harness.tables, 0.0, None)
        assert len(log.decisions_for(7, 1, 0)) == 1
        assert log.decisions_for(9, 9, 9) == []

    def test_summary_mentions_counts(self, harness):
        log = AuditLog(lean())
        (task,) = stage(harness)
        log.record_assignment(task, 0, harness.tables, 0.0, None)
        assert "1 decisions" in log.summary()


class TestFlightRecorder:
    def test_jsonl_stream_sees_evicted_records(self, harness, tmp_path):
        path = tmp_path / "audit.jsonl"
        log = AuditLog(lean(capacity=2, jsonl_path=path))
        for i, task in enumerate(stage(harness, tasks=5)):
            log.record_assignment(task, 0, harness.tables, float(i), None)
        log.close()
        rows = [json.loads(line) for line in path.read_text().splitlines()]
        assert len(rows) == 5  # the ring only holds 2
        assert [r["task_index"] for r in rows] == [0, 1, 2, 3, 4]
        assert rows[0]["reason"] == REASON_ONLY_AVAILABLE

    def test_close_is_idempotent(self, tmp_path):
        log = AuditLog(AuditConfig(jsonl_path=tmp_path / "a.jsonl"))
        log.close()
        log.close()

    def test_candidates_roundtrip_through_json(self, harness, tmp_path):
        path = tmp_path / "audit.jsonl"
        log = AuditLog(AuditConfig(jsonl_path=path))
        (task,) = stage(harness, cached={1})
        log.record_assignment(task, 0, harness.tables, 0.5, None)
        log.close()
        (row,) = [json.loads(line) for line in path.read_text().splitlines()]
        nodes = {c["node"]: c for c in row["candidates"]}
        assert nodes[1]["cached"] is True

    def test_write_jsonl_dumps_ring_only(self, harness, tmp_path):
        log = AuditLog(lean(capacity=2))
        for task in stage(harness, tasks=5):
            log.record_assignment(task, 0, harness.tables, 0.0, None)
        path = log.write_jsonl(tmp_path / "ring.jsonl")
        rows = [json.loads(line) for line in path.read_text().splitlines()]
        assert [r["task_index"] for r in rows] == [3, 4]


class TestShed:
    def test_record_shed_shape(self):
        log = AuditLog()
        request = Request(0.25, JobType.INTERACTIVE, "engine", 4, 2, 9)
        log.record_shed(0.25, request)
        (rec,) = log.records
        assert rec.reason == REASON_SHED
        assert rec.node == -1
        assert rec.task_index == -1
        assert (rec.user, rec.action, rec.sequence) == (4, 2, 9)
        assert log.shed_count == 1
        assert log.reason_counts() == {REASON_SHED: 1}


    def test_deferred_sheds_match_the_eager_flight_recorder(self, tmp_path):
        """A shed-heavy run: the ring (sheds held as deferred entries)
        materializes to the records the flight recorder builds eagerly,
        and the recorder's file is the one built before sheds deferred."""
        scenario = make_scenario(2, scale=0.05, load=2.5)
        frontend = FrontendConfig.protective(max_sessions=8, queue_limit=32)

        def audit(config):
            config = RunConfig(frontend=frontend, audit=config)
            return run_simulation(scenario, "OURS", config).audit

        path = tmp_path / "flight.jsonl"
        deferred = audit(AuditConfig(capacity=256))
        eager = audit(AuditConfig(capacity=256, jsonl_path=path))
        assert deferred.shed_count == eager.shed_count == 981
        assert list(deferred.reason_totals.items()) == list(
            eager.reason_totals.items()
        )
        assert deferred.dropped == eager.dropped > 0
        ring = list(deferred.records)
        assert REASON_SHED in {r.reason for r in ring}
        assert ring == list(eager.records)
        lines = path.read_text().splitlines()
        assert len(lines) == eager.total_recorded == 2998
        assert [json.loads(line) for line in lines[-256:]] == [
            json.loads(json.dumps(r.to_dict())) for r in ring
        ]
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "4e00bd22b478d166b712833dafbf0808871224a4e21067b87d97abb30e0d8453"
        )



class TestSnapshot:
    def test_chosen_first_then_min_available_then_replicas(self, harness):
        (task,) = stage(harness, (3.0, 0.0, 2.0, 1.0), cached={2, 3})
        tables = harness.tables
        cands = snapshot_candidates(tables, task, chosen=0, max_candidates=8)
        hit, cold = tables.estimate_components(task.chunk, task.job.composite_group_size)
        assert hit < cold
        assert [c.node for c in cands] == [0, 1, 2, 3]
        assert cands[0].cached is False and cands[0].estimate == cold
        assert cands[2].cached is True and cands[2].estimate == hit
        assert cands[1].available == 0.0

    def test_no_duplicates_when_chosen_is_min_available(self, harness):
        (task,) = stage(harness, cached={0})
        cands = snapshot_candidates(harness.tables, task, chosen=0, max_candidates=8)
        assert [c.node for c in cands] == [0]

    def test_max_candidates_caps_replica_fanout(self):
        harness = MiniHarness(node_count=10)
        (task,) = stage(harness, [0.0] * 10, cached=range(10))
        cands = snapshot_candidates(harness.tables, task, chosen=5, max_candidates=3)
        assert len(cands) == 3

    def test_deferred_record_matches_the_snapshot(self, harness):
        """A ring entry materialized after the tables moved on carries
        the candidates the decision saw."""
        (task,) = stage(harness, (3.0, 0.0, 2.0, 1.0), cached={2, 3})
        tables = harness.tables
        seen = snapshot_candidates(tables, task, chosen=0, max_candidates=8)
        log = AuditLog()
        log.record_assignment(task, 0, tables, 0.0, None)
        tables.record_assignment(task, 0, now=0.0)
        tables.available[:] = [9.0] * 4
        (rec,) = log.records
        assert rec.candidates == seen


class TestSimulationWiring:
    """The audit log threaded through a real run."""

    def run(self, scheduler, audit, **kwargs):
        scenario = make_scenario(2, scale=0.05)
        return run_simulation(
            scenario, scheduler, RunConfig(audit=audit, **kwargs)
        )

    def test_off_by_default(self):
        result = self.run("OURS", audit=False)
        assert result.audit is None
        assert result.critical_paths is None

    def test_audit_true_uses_default_config(self):
        result = self.run("OURS", audit=True)
        assert result.audit is not None
        assert result.audit.total_recorded > 0
        assert result.audit.invocations > 0
        assert set(result.audit.reason_counts()) <= set(REASON_CODES)

    def test_audit_off_keeps_golden_hash(self):
        """Auditing must not perturb the simulation (bit-identical)."""
        scenario = make_scenario(2, scale=0.05)
        plain = run_simulation(
            scenario, "OURS", RunConfig(record_assignments=True)
        )
        audited = run_simulation(
            scenario,
            "OURS",
            RunConfig(record_assignments=True, audit=AuditConfig()),
        )
        assert plain.assignment_trace, "trace must not be empty"
        assert (
            plain.assignment_trace_hash() == audited.assignment_trace_hash()
        )

    @pytest.mark.parametrize(
        "scheduler,allowed",
        [
            ("OURS", {REASON_CACHE_HIT, REASON_MIN_ESTIMATE}),
            ("FCFS", {REASON_ONLY_AVAILABLE}),
            ("SF", {REASON_ONLY_AVAILABLE}),
            ("FS", {REASON_ONLY_AVAILABLE}),
            ("FCFSL", {REASON_CACHE_HIT, REASON_MIN_ESTIMATE}),
            ("FCFSU", {REASON_CACHE_HIT, REASON_FALLBACK}),
        ],
    )
    def test_reason_vocabulary_per_scheduler(self, scheduler, allowed):
        result = self.run(scheduler, audit=lean())
        counts = result.audit.reason_counts()
        assert counts, scheduler
        assert set(counts) <= allowed, counts

    def test_streaming_jsonl_from_run(self, tmp_path):
        path = tmp_path / "flight.jsonl"
        result = self.run(
            "OURS", audit=AuditConfig(capacity=64, jsonl_path=path)
        )
        lines = path.read_text().splitlines()
        assert len(lines) == result.audit.total_recorded
        assert len(result.audit) <= 64
        first = json.loads(lines[0])
        assert first["reason"] in REASON_CODES
