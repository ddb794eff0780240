"""Decision audit log: ring semantics, reason codes, flight recorder."""

import hashlib
import json

import pytest

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
from repro.workload.scenarios import make_scenario
from repro.workload.trace import Request


class FakeChunk:
    def __init__(self, dataset="ds", index=0):
        self.dataset = dataset
        self.index = index


class FakeJob:
    def __init__(self, user=1, action=2, sequence=3):
        self.user = user
        self.action = action
        self.sequence = sequence
        self.job_type = JobType.INTERACTIVE
        self.composite_group_size = 1


class FakeTask:
    def __init__(self, index=0, job=None, chunk=None):
        self.chunk = chunk if chunk is not None else FakeChunk()
        self.job = job if job is not None else FakeJob()
        self.index = index


class FakeTables:
    """Just enough SchedulerTables surface for the audit hooks."""

    def __init__(self, available, cached=()):
        self.available = list(available)
        self._cached = set(cached)

    def is_cached(self, chunk, node):
        return node in self._cached

    def cached_nodes(self, chunk):
        return set(self._cached)

    def min_available_node(self):
        return min(range(len(self.available)), key=self.available.__getitem__)

    def estimate_components(self, chunk, group):
        return 1.0, 5.0  # (cached, cold)


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

    def record(self, tables, node, reason=None):
        log = AuditLog(AuditConfig(candidates=False))
        log.begin_invocation(0.0, 1)
        log.record_assignment(FakeTask(), node, tables, 1.0, reason)
        (rec,) = log.records
        return rec

    def test_cached_node_is_cache_hit(self):
        rec = self.record(FakeTables([5.0, 0.0], cached={1}), node=1)
        assert rec.reason == REASON_CACHE_HIT

    def test_min_available_node_is_only_available(self):
        rec = self.record(FakeTables([5.0, 0.0]), node=1)
        assert rec.reason == REASON_ONLY_AVAILABLE

    def test_other_node_is_min_estimate(self):
        rec = self.record(FakeTables([5.0, 0.0]), node=0)
        assert rec.reason == REASON_MIN_ESTIMATE

    def test_explicit_reason_passes_through(self):
        rec = self.record(
            FakeTables([5.0, 0.0], cached={1}), node=1, reason=REASON_FALLBACK
        )
        assert rec.reason == REASON_FALLBACK

    def test_record_fields(self):
        rec = self.record(FakeTables([5.0, 0.0], cached={1}), node=1)
        assert rec.time == 1.0
        assert rec.cycle == 1
        assert (rec.user, rec.action, rec.sequence) == (1, 2, 3)
        assert rec.job_type == "interactive"
        assert rec.key() == (1, 2, 3, 0)


class TestRingBuffer:
    def test_eviction_keeps_newest_and_counts_drops(self):
        log = AuditLog(AuditConfig(capacity=4, candidates=False))
        tables = FakeTables([0.0, 1.0])
        for i in range(10):
            log.record_assignment(FakeTask(index=i), 0, tables, float(i), None)
        assert len(log) == 4
        assert log.total_recorded == 10
        assert log.dropped == 6
        assert [r.task_index for r in log] == [6, 7, 8, 9]

    def test_reason_totals_survive_eviction(self):
        log = AuditLog(AuditConfig(capacity=2, candidates=False))
        tables = FakeTables([0.0, 1.0])
        for i in range(5):
            log.record_assignment(FakeTask(index=i), 0, tables, 0.0, None)
        assert log.reason_counts() == {REASON_ONLY_AVAILABLE: 5}
        assert sum(log.reason_counts().values()) == log.total_recorded

    def test_decisions_for_filters_one_job(self):
        log = AuditLog(AuditConfig(candidates=False))
        tables = FakeTables([0.0, 1.0])
        log.record_assignment(
            FakeTask(job=FakeJob(user=7, action=1, sequence=0)), 0, tables, 0.0, None
        )
        log.record_assignment(
            FakeTask(job=FakeJob(user=8, action=1, sequence=0)), 0, tables, 0.0, None
        )
        assert len(log.decisions_for(7, 1, 0)) == 1
        assert log.decisions_for(9, 9, 9) == []

    def test_summary_mentions_counts(self):
        log = AuditLog(AuditConfig(candidates=False))
        log.record_assignment(FakeTask(), 0, FakeTables([0.0]), 0.0, None)
        assert "1 decisions" in log.summary()


class TestFlightRecorder:
    def test_jsonl_stream_sees_evicted_records(self, tmp_path):
        path = tmp_path / "audit.jsonl"
        log = AuditLog(AuditConfig(capacity=2, jsonl_path=path, candidates=False))
        tables = FakeTables([0.0, 1.0])
        for i in range(5):
            log.record_assignment(FakeTask(index=i), 0, tables, float(i), None)
        log.close()
        rows = [json.loads(line) for line in path.read_text().splitlines()]
        assert len(rows) == 5  # the ring only holds 2
        assert [r["task_index"] for r in rows] == [0, 1, 2, 3, 4]
        assert rows[0]["reason"] == REASON_ONLY_AVAILABLE

    def test_close_is_idempotent(self, tmp_path):
        log = AuditLog(AuditConfig(jsonl_path=tmp_path / "a.jsonl"))
        log.close()
        log.close()

    def test_candidates_roundtrip_through_json(self, tmp_path):
        path = tmp_path / "audit.jsonl"
        log = AuditLog(AuditConfig(jsonl_path=path))
        log.record_assignment(
            FakeTask(), 0, FakeTables([0.0, 1.0], cached={1}), 0.5, None
        )
        log.close()
        (row,) = [json.loads(line) for line in path.read_text().splitlines()]
        nodes = {c["node"]: c for c in row["candidates"]}
        assert nodes[1]["cached"] is True

    def test_write_jsonl_dumps_ring_only(self, tmp_path):
        log = AuditLog(AuditConfig(capacity=2, candidates=False))
        tables = FakeTables([0.0, 1.0])
        for i in range(5):
            log.record_assignment(FakeTask(index=i), 0, tables, 0.0, None)
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
    def test_chosen_first_then_min_available_then_replicas(self):
        tables = FakeTables([3.0, 0.0, 2.0, 1.0], cached={2, 3})
        cands = snapshot_candidates(tables, FakeTask(), chosen=0, max_candidates=8)
        assert [c.node for c in cands] == [0, 1, 2, 3]
        assert cands[0].cached is False and cands[0].estimate == 5.0
        assert cands[2].cached is True and cands[2].estimate == 1.0
        assert cands[1].available == 0.0

    def test_no_duplicates_when_chosen_is_min_available(self):
        tables = FakeTables([0.0, 1.0], cached={0})
        cands = snapshot_candidates(tables, FakeTask(), chosen=0, max_candidates=8)
        assert [c.node for c in cands] == [0]

    def test_max_candidates_caps_replica_fanout(self):
        tables = FakeTables([0.0] * 10, cached=set(range(10)))
        cands = snapshot_candidates(tables, FakeTask(), chosen=5, max_candidates=3)
        assert len(cands) == 3


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
        result = self.run(scheduler, audit=AuditConfig(candidates=False))
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
