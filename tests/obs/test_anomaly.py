"""Online anomaly detection: detectors, vocabulary, ground-truth scoring.

Two layers of guarantees:

* **unit** — the EWMA z-score and CUSUM primitives alarm on genuine
  step changes / sustained drift and stay silent on healthy series;
* **end to end** — the detector bank localizes at least 3 of the 4
  seeded storm faults from the streamed snapshots alone with zero
  false positives, and a fault-free run emits no anomaly at all (the
  determinism the ``BENCH_stream`` regression leaves pin).
"""

import pytest

from repro.faults import FaultPlan
from repro.obs.anomaly import (
    ANOMALY_KINDS,
    FAULT_SIGNATURES,
    AnomalyConfig,
    AnomalyRecord,
    CusumDetector,
    EwmaDetector,
    OnlineAnomalyDetector,
    detect_from_snapshots,
    merge_anomalies,
    score_anomalies,
)
from repro.obs.stream import StreamConfig, read_stream
from repro.sim.run_config import RunConfig
from repro.sim.simulator import run_simulation
from repro.workload.scenarios import make_scenario

#: The smallest scale at which the scale-0.5-tuned storm leaves every
#: fault a signal window (at 0.05 the whole cluster collapses before
#: the wipe and storage events land).
STORM_SCALE = 0.1
STORM_SEED = 11


def _storm_run(tmp_path, *, heal=True):
    scenario = make_scenario(1, scale=STORM_SCALE)
    plan = FaultPlan.storm(
        STORM_SEED,
        node_count=scenario.system.node_count,
        duration=scenario.trace.duration,
        heal=heal,
    )
    result = run_simulation(
        scenario,
        "OURS",
        config=RunConfig(
            drain=True,
            faults=plan,
            stream=StreamConfig(path=tmp_path / "storm.ndjson"),
        ),
    )
    return plan, result


class TestEwmaDetector:
    def test_constant_series_stays_quiet(self):
        detector = EwmaDetector(0.25)
        assert all(abs(detector.update(5.0)) < 1e-9 for _ in range(50))

    def test_step_change_alarms(self):
        detector = EwmaDetector(0.25)
        for _ in range(20):
            detector.update(1.0)
        assert detector.update(10.0) > 4.0

    def test_noise_below_floor_is_absorbed(self):
        detector = EwmaDetector(0.25, rel_floor=0.25)
        values = [1.0, 1.01, 0.99, 1.02, 0.98] * 10
        zs = [detector.update(v) for v in values]
        assert max(abs(z) for z in zs[1:]) < 1.0

    def test_first_sample_seeds_baseline(self):
        detector = EwmaDetector(0.25)
        assert detector.update(42.0) == 0.0
        assert detector.mean == 42.0


class TestCusumDetector:
    def test_flat_series_never_alarms(self):
        detector = CusumDetector(0.15, 1.0, 0.25, min_level=4.0)
        assert all(detector.update(6.0) <= 1e-9 for _ in range(50))

    def test_sustained_drift_alarms(self):
        detector = CusumDetector(0.15, 1.0, 0.25, min_level=4.0)
        for _ in range(10):
            detector.update(5.0)
        # Growth outpacing the EWMA reference (a queue blowing up).
        score = 0.0
        for step in range(15):
            score = detector.update(5.0 * 1.6 ** step)
            if score > 1.0:
                break
        assert score > 1.0

    def test_reset_drops_accumulated_drift(self):
        detector = CusumDetector(0.15, 1.0, 0.25)
        for step in range(10):
            detector.update(float(step * 3))
        assert detector.sum > 0.0
        detector.reset()
        assert detector.sum == 0.0


class TestVocabulary:
    def test_closed_vocabulary(self):
        assert ANOMALY_KINDS == (
            "queue-growth",
            "hit-rate-collapse",
            "latency-spike",
            "throughput-stall",
            "burn-acceleration",
        )

    def test_signatures_cover_all_fault_kinds(self):
        assert set(FAULT_SIGNATURES) == {
            "crash", "straggler", "wipe", "storage",
        }
        for kinds in FAULT_SIGNATURES.values():
            assert set(kinds) <= set(ANOMALY_KINDS)

    def test_record_round_trips_through_dict(self):
        record = AnomalyRecord(
            kind="latency-spike",
            time=3.5,
            window_start=3.0,
            detector="ewma",
            score=5.1,
            value=0.2,
            baseline=0.05,
        )
        payload = record.to_dict()
        assert payload["type"] == "anomaly"
        assert AnomalyRecord.from_dict(payload) == record
        assert "latency-spike" in record.describe()

    def test_config_validation(self):
        with pytest.raises(ValueError):
            AnomalyConfig(z_threshold=0.0)
        with pytest.raises(ValueError):
            AnomalyConfig(warmup=-1)


def _snapshot(t, **overrides):
    base = {
        "t": t,
        "start": t - 1.0,
        "jobs_completed": 10,
        "outstanding": 5,
        "latency_p95": 0.05,
        "cache_hits": 9,
        "cache_misses": 1,
        "hit_rate": 0.9,
        "burn": 1.0,
    }
    base.update(overrides)
    return base


class TestDetectorBank:
    def _warm(self, detector, until=12):
        for k in range(until):
            assert detector.observe(_snapshot(float(k + 1))) == []

    def test_healthy_stream_is_silent(self):
        detector = OnlineAnomalyDetector(target_framerate=33.3)
        self._warm(detector, until=40)

    def test_latency_spike_fires_once_then_cools_down(self):
        detector = OnlineAnomalyDetector()
        self._warm(detector)
        alarms = detector.observe(_snapshot(13.0, latency_p95=2.0))
        assert [a.kind for a in alarms] == ["latency-spike"]
        assert alarms[0].detector == "ewma"
        # Cooldown: the still-elevated next window does not re-alarm.
        assert detector.observe(_snapshot(14.0, latency_p95=2.0)) == []

    def test_throughput_stall_rule(self):
        detector = OnlineAnomalyDetector()
        self._warm(detector)
        alarms = detector.observe(
            _snapshot(13.0, jobs_completed=0, cache_hits=0, cache_misses=0)
        )
        assert [a.kind for a in alarms] == ["throughput-stall"]
        assert alarms[0].detector == "rule"

    def test_hit_rate_collapse(self):
        detector = OnlineAnomalyDetector()
        self._warm(detector, until=20)
        alarms = detector.observe(
            _snapshot(21.0, hit_rate=0.1, cache_hits=1, cache_misses=9)
        )
        assert "hit-rate-collapse" in [a.kind for a in alarms]

    def test_queue_growth_cusum(self):
        detector = OnlineAnomalyDetector()
        self._warm(detector)
        kinds = []
        for step in range(12):
            kinds += [
                a.kind
                for a in detector.observe(
                    _snapshot(13.0 + step, outstanding=5 + 6 * (step + 1))
                )
            ]
        assert "queue-growth" in kinds

    def test_burn_needs_a_target(self):
        untargeted = OnlineAnomalyDetector(target_framerate=0.0)
        self._warm(untargeted)
        for step in range(12):
            alarms = untargeted.observe(
                _snapshot(13.0 + step, burn=2.0 + 3.0 * step)
            )
            assert "burn-acceleration" not in [a.kind for a in alarms]

    def test_warmup_suppresses_early_alarms(self):
        with pytest.warns(DeprecationWarning, match="AnomalyConfig"):
            config = AnomalyConfig(warmup=6)
        with pytest.warns(DeprecationWarning, match="OnlineAnomalyDetector"):
            detector = OnlineAnomalyDetector(config)
        for k in range(5):
            detector.observe(_snapshot(float(k + 1)))
        assert detector.observe(_snapshot(6.0, latency_p95=5.0)) == []


class TestMergeAndScore:
    def _record(self, kind, t):
        return AnomalyRecord(
            kind=kind, time=t, window_start=t - 1.0,
            detector="ewma", score=5.0, value=1.0, baseline=0.1,
        )

    def test_merge_orders_by_time_shard_vocab(self):
        a = self._record("latency-spike", 2.0)
        b = self._record("queue-growth", 1.0)
        c = self._record("hit-rate-collapse", 2.0)
        merged = merge_anomalies([[a], [b, c]])
        # t=1 first; at t=2 shard 0 precedes shard 1.
        assert merged == [b, a, c]

    def test_merge_is_permutation_invariant_on_equal_keys(self):
        a = self._record("queue-growth", 1.0)
        b = self._record("latency-spike", 1.0)
        # Same shard, same time: vocabulary order breaks the tie.
        assert merge_anomalies([[a, b]]) == merge_anomalies([[b, a]])

    def test_score_matches_alarm_to_fault_window(self):
        plan = FaultPlan.parse("straggler@10:node=1,until=20", heal=True)
        grade = score_anomalies(
            [self._record("latency-spike", 12.0)], plan
        )
        assert grade["localized"] == 1
        assert grade["false_positives"] == 0
        assert grade["recall"] == 1.0
        assert grade["precision"] == 1.0
        assert grade["mean_onset_latency"] == pytest.approx(2.0)
        assert grade["events"][0]["matched"] == ["latency-spike"]

    def test_score_counts_unexplained_alarms_as_false_positives(self):
        plan = FaultPlan.parse("straggler@10:node=1,until=20", heal=True)
        grade = score_anomalies(
            [self._record("latency-spike", 50.0)], plan
        )
        assert grade["localized"] == 0
        assert grade["false_positives"] == 1
        assert grade["precision"] == 0.0

    def test_score_ignores_wrong_kind(self):
        plan = FaultPlan.parse("wipe@10:node=1,dataset=0", heal=True)
        grade = score_anomalies([self._record("queue-growth", 11.0)], plan)
        assert grade["localized"] == 0

    def test_score_empty_alarms(self):
        plan = FaultPlan.parse("straggler@10:node=1,until=20", heal=True)
        grade = score_anomalies([], plan)
        assert grade["localized"] == 0
        assert grade["false_positives"] == 0
        assert grade["precision"] == 1.0
        assert grade["mean_onset_latency"] is None

    def test_score_rejects_negative_tolerance(self):
        plan = FaultPlan.parse("straggler@10:node=1,until=20", heal=True)
        with pytest.raises(ValueError, match="onset_tolerance"):
            score_anomalies([], plan, onset_tolerance=-1.0)


class TestEndToEnd:
    def test_storm_localized_with_zero_false_positives(self, tmp_path):
        plan, result = _storm_run(tmp_path)
        grade = score_anomalies(result.stream.anomalies, plan)
        assert grade["total"] == 4
        # The acceptance bar: >= 3/4 faults localized online, nothing
        # flagged that no injected fault explains.
        assert grade["localized"] >= 3
        assert grade["false_positives"] == 0
        assert grade["precision"] == 1.0

    def test_fault_free_run_raises_no_alarm(self, tmp_path):
        scenario = make_scenario(1, scale=STORM_SCALE)
        result = run_simulation(
            scenario,
            "OURS",
            config=RunConfig(
                stream=StreamConfig(path=tmp_path / "quiet.ndjson")
            ),
        )
        assert result.stream.anomalies == []

    def test_offline_twin_matches_online_records(self, tmp_path):
        _, result = _storm_run(tmp_path)
        snapshots = [
            r for r in read_stream(tmp_path / "storm.ndjson")
            if r["type"] == "snapshot"
        ]
        offline = detect_from_snapshots(
            snapshots,
            target_framerate=result.target_framerate,
        )
        assert offline == result.stream.anomalies

    def test_stream_file_carries_fault_markers_and_anomalies(self, tmp_path):
        _, result = _storm_run(tmp_path)
        records = read_stream(tmp_path / "storm.ndjson")
        faults = [r for r in records if r["type"] == "fault"]
        assert {f["kind"] for f in faults} == {
            "crash", "straggler", "wipe", "storage",
        }
        streamed = [
            AnomalyRecord.from_dict(r)
            for r in records
            if r["type"] == "anomaly"
        ]
        assert streamed == result.stream.anomalies
