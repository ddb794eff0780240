"""Online anomaly detection over the live telemetry stream.

Consumes the ``snapshot`` records :class:`~repro.obs.stream.TelemetryStream`
emits and raises ``anomaly`` records *while the run executes* — the
streaming counterpart of the post-hoc fault RCA
(:mod:`repro.faults.rca`).  Where RCA reads the audit log after the run
to name the node and mechanism, these detectors watch windowed series
online and flag *that something is wrong* within a few grid windows of
onset, from a closed vocabulary:

* ``queue-growth`` — outstanding jobs accumulate a sustained upward
  drift (CUSUM on the window-to-window change);
* ``hit-rate-collapse`` — windowed cache hit rate drops far below its
  EWMA baseline (z-score);
* ``latency-spike`` — windowed p95 latency jumps far above its EWMA
  baseline (z-score);
* ``throughput-stall`` — a window completes nothing while work is
  outstanding (rule), or completions fall far below baseline (z-score);
* ``burn-acceleration`` — the fps burn rate (target / delivered)
  accumulates a sustained upward drift (CUSUM).

Two detector families, matched to the failure shapes:

* :class:`EwmaDetector` — EWMA mean + EWMA variance; flags a sample
  whose z-score against the *pre-update* baseline exceeds a threshold.
  Catches step changes (spikes, collapses).
* :class:`CusumDetector` — one-sided CUSUM over the rate of change;
  accumulates drift beyond a slack ``k`` and alarms when the sum
  crosses ``h``.  Catches slow ramps a z-score never sees.

The thresholds are the module constants below.  :class:`AnomalyConfig`,
which overrode them, and the ``config`` argument of
:class:`OnlineAnomalyDetector` and :func:`detect_from_snapshots` are
deprecated since 1.9 and removed in 1.10.

Detectors consume only virtual-time snapshot fields (never ``wall_s``
or events/s), so the anomaly records for a given run are bit-identical
across machines — which is what lets
:func:`score_anomalies` grade them against a
:class:`~repro.faults.plan.FaultPlan` as a deterministic benchmark leaf
(precision / recall / onset latency, mirroring
:func:`repro.faults.rca.score`).
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.util.deprecation import deprecated, quietly
from repro.util.validation import check_positive

#: The closed anomaly vocabulary, in canonical (merge) order.
ANOMALY_KINDS: Tuple[str, ...] = (
    "queue-growth",
    "hit-rate-collapse",
    "latency-spike",
    "throughput-stall",
    "burn-acceleration",
)

#: Which anomaly kinds each ground-truth fault kind is expected to
#: surface as.  A crashed node stalls throughput and backs the queue up;
#: a straggler inflates latency until the backlog shows; a cache wipe
#: collapses the windowed hit rate; degraded storage inflates latency
#: and burns the fps budget.
FAULT_SIGNATURES: Dict[str, Tuple[str, ...]] = {
    "crash": (
        "throughput-stall",
        "queue-growth",
        "latency-spike",
        "burn-acceleration",
    ),
    "straggler": (
        "latency-spike",
        "queue-growth",
        "throughput-stall",
        "burn-acceleration",
    ),
    "wipe": ("hit-rate-collapse", "latency-spike"),
    "storage": ("latency-spike", "burn-acceleration", "queue-growth"),
}


# The detector thresholds.  They are deliberately conservative: a
# fault-free run must stay silent (a benchmark gate).

#: Snapshots observed before any detector may alarm (the EWMA
#: baselines are meaningless until then).
WARMUP = 6
#: EWMA smoothing factor for the mean/variance baselines.
EWMA_ALPHA = 0.25
#: |z| a sample must exceed against its pre-update baseline to alarm.
Z_THRESHOLD = 4.0
#: CUSUM slack per window, as a fraction of the tracked level.
CUSUM_K = 0.15
#: Accumulated CUSUM drift, as a fraction of the tracked level, that
#: alarms.
CUSUM_H = 1.0
#: Snapshots a kind stays suppressed after alarming.
COOLDOWN = 8


@dataclass(frozen=True)
class AnomalyConfig:
    """Detector thresholds.  *Deprecated since 1.9, removed in 1.10*:
    constructing one warns; the detectors use the module constants.

    Attributes:
        warmup: Snapshots observed before any detector may alarm (the
            EWMA baselines are meaningless until then).
        ewma_alpha: EWMA smoothing factor for mean/variance baselines.
        z_threshold: |z| a sample must exceed against its pre-update
            baseline to alarm.
        cusum_k: Slack per window absorbed before drift accumulates,
            as a fraction of the tracked level.
        cusum_h: Accumulated (slack-adjusted) drift, as a fraction of
            the tracked level, at which a CUSUM alarms.
        cooldown: Snapshots a kind stays suppressed after alarming, so
            one sustained fault yields one record per flare-up rather
            than one per window.
    """

    warmup: int = WARMUP
    ewma_alpha: float = EWMA_ALPHA
    z_threshold: float = Z_THRESHOLD
    cusum_k: float = CUSUM_K
    cusum_h: float = CUSUM_H
    cooldown: int = COOLDOWN

    def __post_init__(self) -> None:
        if self.warmup < 1:
            raise ValueError(f"warmup must be >= 1, got {self.warmup}")
        if not 0.0 < self.ewma_alpha <= 1.0:
            raise ValueError(
                f"ewma_alpha must be in (0, 1], got {self.ewma_alpha}"
            )
        check_positive("z_threshold", self.z_threshold)
        if self.cusum_k < 0:
            raise ValueError(f"cusum_k must be >= 0, got {self.cusum_k}")
        check_positive("cusum_h", self.cusum_h)
        if self.cooldown < 0:
            raise ValueError(f"cooldown must be >= 0, got {self.cooldown}")
        deprecated(
            "AnomalyConfig",
            "drop it: the detectors use the thresholds in repro.obs.anomaly "
            "(WARMUP, EWMA_ALPHA, Z_THRESHOLD, CUSUM_K, CUSUM_H, COOLDOWN)",
        )


@dataclass(frozen=True)
class AnomalyRecord:
    """One online detector alarm."""

    kind: str  # one of ANOMALY_KINDS
    #: Virtual end time of the window that tripped the detector.
    time: float
    #: Virtual start of that window.
    window_start: float
    detector: str  # "ewma" | "cusum" | "rule"
    #: Exceedance score (z-score, CUSUM sum / h, or 1.0 for rules).
    score: float
    #: The sample value that alarmed.
    value: float
    #: The detector's baseline at alarm time.
    baseline: float

    def describe(self) -> str:
        """One human-readable line for this alarm."""
        return (
            f"{self.kind} @ t={self.time:.3f}s "
            f"({self.detector}, score {self.score:.1f}, "
            f"value {self.value:.4g} vs baseline {self.baseline:.4g})"
        )

    def to_dict(self) -> Dict[str, Any]:
        """NDJSON record form (``type: anomaly``)."""
        return {
            "type": "anomaly",
            "kind": self.kind,
            "time": self.time,
            "window_start": self.window_start,
            "detector": self.detector,
            "score": self.score,
            "value": self.value,
            "baseline": self.baseline,
        }

    @classmethod
    def from_dict(cls, record: Mapping[str, Any]) -> "AnomalyRecord":
        """Rebuild from an NDJSON record (``repro watch``, merges)."""
        return cls(
            kind=record["kind"],
            time=record["time"],
            window_start=record["window_start"],
            detector=record["detector"],
            score=record["score"],
            value=record["value"],
            baseline=record["baseline"],
        )


class EwmaDetector:
    """EWMA mean/variance baseline with z-score alarming.

    The z-score is computed against the baseline *before* the sample
    updates it, so a genuine step change cannot mask itself.  A std
    floor (``rel_floor`` of the baseline mean, at least ``abs_floor``)
    keeps near-constant healthy series from alarming on numeric noise.
    """

    __slots__ = ("alpha", "rel_floor", "abs_floor", "mean", "var", "samples")

    def __init__(
        self, alpha: float, *, rel_floor: float = 0.1, abs_floor: float = 1e-6
    ) -> None:
        self.alpha = alpha
        self.rel_floor = rel_floor
        self.abs_floor = abs_floor
        self.mean = 0.0
        self.var = 0.0
        self.samples = 0

    def update(self, x: float) -> float:
        """Feed one sample; return its z-score against the old baseline."""
        if self.samples == 0:
            self.mean = x
            self.var = 0.0
            self.samples = 1
            return 0.0
        floor = max(abs(self.mean) * self.rel_floor, self.abs_floor)
        std = max(math.sqrt(self.var), floor)
        z = (x - self.mean) / std
        alpha = self.alpha
        delta = x - self.mean
        self.mean += alpha * delta
        # EWMA variance of the residuals (Roberts-style recursion).
        self.var = (1.0 - alpha) * (self.var + alpha * delta * delta)
        self.samples += 1
        return z


class CusumDetector:
    """One-sided positive CUSUM over a series' rate of change.

    Accumulates per-window increases beyond a slack of ``k`` times the
    reference level and alarms when the sum exceeds ``h`` times that
    level — i.e. the series has drifted up by a whole ``h`` fraction of
    itself faster than the slack allows.  The reference level is an
    EWMA of the series (floored at ``min_level``), so thresholds scale
    with the workload instead of hard-coding job counts.
    """

    __slots__ = ("k", "h", "alpha", "min_level", "level", "sum", "last", "samples")

    def __init__(
        self, k: float, h: float, alpha: float, *, min_level: float = 1.0
    ) -> None:
        self.k = k
        self.h = h
        self.alpha = alpha
        self.min_level = min_level
        self.level = 0.0
        self.sum = 0.0
        self.last = 0.0
        self.samples = 0

    def update(self, x: float) -> float:
        """Feed one sample; return the alarm score (sum / threshold)."""
        if self.samples == 0:
            self.level = x
            self.last = x
            self.samples = 1
            return 0.0
        reference = max(self.level, self.min_level)
        delta = x - self.last
        self.sum = max(0.0, self.sum + delta - self.k * reference)
        self.last = x
        self.level += self.alpha * (x - self.level)
        self.samples += 1
        return self.sum / (self.h * reference)

    def reset(self) -> None:
        """Drop accumulated drift (called after an alarm is emitted)."""
        self.sum = 0.0


class OnlineAnomalyDetector:
    """Runs the full detector bank over a snapshot stream.

    Feed each ``snapshot`` record (dict form, as written by the stream)
    to :meth:`observe`; it returns the :class:`AnomalyRecord` alarms
    that window raised (usually none).  Only virtual-time fields are
    read, so the output is deterministic for a given run.  ``config``
    is deprecated: passing one warns, and its thresholds replace the
    module constants.
    """

    def __init__(
        self, config: Optional[AnomalyConfig] = None, *, target_framerate: float = 0.0
    ) -> None:
        thresholds = (WARMUP, EWMA_ALPHA, Z_THRESHOLD, CUSUM_K, CUSUM_H, COOLDOWN)
        if config is not None:
            deprecated(
                "OnlineAnomalyDetector(config=...)",
                "drop it: the detectors use the module constants",
            )
            thresholds = astuple(config)  # the same fields, in that order
        self.warmup, alpha, self.z_threshold, cusum_k, cusum_h, self.cooldown = (
            thresholds
        )
        self.target_framerate = target_framerate
        self._latency = EwmaDetector(alpha, rel_floor=0.25)
        self._hit_rate = EwmaDetector(alpha, rel_floor=0.0, abs_floor=0.08)
        self._throughput = EwmaDetector(alpha, rel_floor=0.35)
        self._queue = CusumDetector(cusum_k, cusum_h, alpha, min_level=4.0)
        self._burn = CusumDetector(cusum_k, cusum_h, alpha, min_level=1.0)
        self._snapshots = 0
        self._cooldowns: Dict[str, int] = {}

    # -- plumbing ----------------------------------------------------------

    def _armed(self, kind: str) -> bool:
        return (
            self._snapshots > self.warmup
            and self._cooldowns.get(kind, 0) <= 0
        )

    def _emit(
        self,
        out: List[AnomalyRecord],
        kind: str,
        snapshot: Mapping[str, Any],
        detector: str,
        score: float,
        value: float,
        baseline: float,
    ) -> None:
        out.append(
            AnomalyRecord(
                kind=kind,
                time=snapshot["t"],
                window_start=snapshot["start"],
                detector=detector,
                score=score,
                value=value,
                baseline=baseline,
            )
        )
        self._cooldowns[kind] = self.cooldown

    # -- the detector bank -------------------------------------------------

    def observe(self, snapshot: Mapping[str, Any]) -> List[AnomalyRecord]:
        """Feed one snapshot window; return the alarms it raised."""
        out: List[AnomalyRecord] = []
        z_threshold = self.z_threshold
        self._snapshots += 1
        for kind in list(self._cooldowns):
            self._cooldowns[kind] -= 1

        completed = snapshot["jobs_completed"]
        outstanding = snapshot["outstanding"]

        # latency-spike: windowed p95 against its EWMA baseline.  Empty
        # windows carry no latency signal and are skipped entirely.
        if completed > 0:
            baseline = self._latency.mean
            z = self._latency.update(snapshot["latency_p95"])
            if z > z_threshold and self._armed("latency-spike"):
                self._emit(
                    out, "latency-spike", snapshot, "ewma", z,
                    snapshot["latency_p95"], baseline,
                )

        # hit-rate-collapse: windowed hit rate far below baseline.  Only
        # windows that actually touched the cache carry signal.
        if snapshot["cache_hits"] + snapshot["cache_misses"] > 0:
            baseline = self._hit_rate.mean
            z = self._hit_rate.update(snapshot["hit_rate"])
            if z < -z_threshold and self._armed("hit-rate-collapse"):
                self._emit(
                    out, "hit-rate-collapse", snapshot, "ewma", -z,
                    snapshot["hit_rate"], baseline,
                )

        # throughput-stall: the hard rule (nothing completed while work
        # is outstanding) catches a dead cluster a z-score would need
        # several windows to see; the z-score catches partial stalls.
        if completed == 0 and outstanding > 0:
            if self._armed("throughput-stall"):
                self._emit(
                    out, "throughput-stall", snapshot, "rule", 1.0,
                    0.0, self._throughput.mean,
                )
        else:
            baseline = self._throughput.mean
            z = self._throughput.update(float(completed))
            if (
                z < -z_threshold
                and outstanding > 0
                and self._armed("throughput-stall")
            ):
                self._emit(
                    out, "throughput-stall", snapshot, "ewma", -z,
                    float(completed), baseline,
                )

        # queue-growth: sustained upward drift of outstanding jobs.
        baseline = self._queue.level
        score = self._queue.update(float(outstanding))
        if score > 1.0 and self._armed("queue-growth"):
            self._emit(
                out, "queue-growth", snapshot, "cusum", score,
                float(outstanding), baseline,
            )
            self._queue.reset()

        # burn-acceleration: sustained upward drift of the fps burn
        # rate; only meaningful when the run has an fps target.
        if self.target_framerate > 0.0:
            baseline = self._burn.level
            score = self._burn.update(snapshot["burn"])
            if score > 1.0 and self._armed("burn-acceleration"):
                self._emit(
                    out, "burn-acceleration", snapshot, "cusum", score,
                    snapshot["burn"], baseline,
                )
                self._burn.reset()

        return out


def detect_from_snapshots(
    snapshots: Iterable[Mapping[str, Any]],
    config: Optional[AnomalyConfig] = None,
    *,
    target_framerate: float = 0.0,
) -> List[AnomalyRecord]:
    """Run the detector bank over an already-recorded snapshot series.

    The offline twin of the online path: feeding the same snapshots
    yields byte-identical records, which the grid-equality tests lean
    on.  ``config`` is deprecated, as on :class:`OnlineAnomalyDetector`.
    """
    if config is not None:
        deprecated(
            "detect_from_snapshots(config=...)",
            "drop it: the detectors use the module constants",
        )
    with quietly():
        detector = OnlineAnomalyDetector(config, target_framerate=target_framerate)
    out: List[AnomalyRecord] = []
    for snapshot in snapshots:
        out.extend(detector.observe(snapshot))
    return out


def merge_anomalies(
    per_shard: Sequence[Sequence[AnomalyRecord]],
) -> List[AnomalyRecord]:
    """Deterministic merge of per-shard anomaly lists.

    Sorted by (time, shard order, vocabulary order) — a pure function
    of the shard results, so serial and process-pool federated runs
    merge identically.
    """
    keyed = []
    for shard, records in enumerate(per_shard):
        for record in records:
            keyed.append(
                ((record.time, shard, ANOMALY_KINDS.index(record.kind)), record)
            )
    keyed.sort(key=lambda pair: pair[0])
    return [record for _, record in keyed]


def score_anomalies(
    anomalies: Sequence[AnomalyRecord],
    plan,
    *,
    onset_tolerance: float = 2.0,
) -> Dict[str, Any]:
    """Grade online alarms against the ground-truth fault plan.

    Mirrors :func:`repro.faults.rca.score`: a planned event is
    *localized* when some alarm of an expected kind
    (:data:`FAULT_SIGNATURES`) fires inside the event's active window
    (onset → ``until``/``revive_at``/end-of-impact) plus
    ``onset_tolerance`` seconds of detection slack.  Alarms explaining
    no event are false positives.

    Returns the per-event outcomes, recall, precision, false-positive
    count, and the mean onset latency (first matching alarm time minus
    true onset) over the localized events.
    """
    if onset_tolerance < 0:
        raise ValueError(
            f"onset_tolerance must be >= 0, got {onset_tolerance}"
        )
    explained: set = set()
    events_out: List[dict] = []
    localized = 0
    onset_latencies: List[float] = []
    for event in plan.events:
        expected = FAULT_SIGNATURES.get(event.kind, ())
        window_end = getattr(event, "until", None)
        if window_end is None:
            window_end = getattr(event, "revive_at", None)
        first_hit: Optional[float] = None
        hits: List[int] = []
        for i, record in enumerate(anomalies):
            if record.kind not in expected:
                continue
            if record.time < event.time:
                continue
            if (
                window_end is not None
                and record.time > window_end + onset_tolerance
            ):
                continue
            hits.append(i)
            if first_hit is None or record.time < first_hit:
                first_hit = record.time
        explained.update(hits)
        hit = bool(hits)
        if hit:
            localized += 1
            onset_latencies.append(first_hit - event.time)
        node = getattr(event, "node", None)
        events_out.append(
            {
                "kind": event.kind,
                "node": -1 if node is None else node,
                "time": event.time,
                "localized": hit,
                "onset_latency": (
                    first_hit - event.time if first_hit is not None else None
                ),
                "matched": sorted({anomalies[i].kind for i in hits}),
            }
        )
    total = len(plan.events)
    false_positives = len(anomalies) - len(explained)
    return {
        "events": events_out,
        "localized": localized,
        "total": total,
        "recall": localized / total if total else 1.0,
        "anomalies": len(anomalies),
        "false_positives": false_positives,
        "precision": (
            (len(anomalies) - false_positives) / len(anomalies)
            if anomalies
            else 1.0
        ),
        "mean_onset_latency": (
            sum(onset_latencies) / len(onset_latencies)
            if onset_latencies
            else None
        ),
    }


__all__ = [
    "ANOMALY_KINDS",
    "FAULT_SIGNATURES",
    "WARMUP",
    "EWMA_ALPHA",
    "Z_THRESHOLD",
    "CUSUM_K",
    "CUSUM_H",
    "COOLDOWN",
    "AnomalyConfig",
    "AnomalyRecord",
    "EwmaDetector",
    "CusumDetector",
    "OnlineAnomalyDetector",
    "detect_from_snapshots",
    "merge_anomalies",
    "score_anomalies",
]
