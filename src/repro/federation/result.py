"""Deterministic merge of per-shard results into one federated report.

A federation runs N independent simulators; :class:`FederatedResult`
recombines their :class:`~repro.sim.SimulationResult`\\ s into one view:

* **job records** — concatenated in shard order (shard-namespaced job
  ids never collide, so the merged list is joinable on ``job_id``),
* **latency / framerate summary** — recomputed over the merged records
  with :func:`repro.reporting.analysis.summarize`, exactly as a single
  run would,
* **SLO reports** — per-objective concatenation of violation windows
  plus summed evaluation denominators (action ids are globally unique
  across shards, so windows never double-count),
* **frontend accounting** — counter sums; the conservation identity
  (every request seen is forwarded, rejected, shed, thinned, or
  unserved) survives summation because it holds per shard,
* **metrics** — counters summed by (name, labels) across shard
  registries.

Every merge is order-deterministic (shard order, then each shard's own
deterministic order), so serial and process-pool federated runs
produce byte-identical merged reports — the federation-level analogue
of the sweep parity discipline.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.frontend.frontend import FrontendStats
from repro.reporting.analysis import SchedulerSummary, summarize
from repro.reporting.collectors import JobRecords
from repro.sim.simulator import SimulationResult
from repro.federation.config import FederationConfig
from repro.federation.replication import ReplicationPlan
from repro.federation.router import RoutingTable


def merge_frontend_stats(
    parts: Sequence[FrontendStats],
) -> Optional[FrontendStats]:
    """Sum per-shard overload accounting into one fleet view.

    Counter fields add; ``max_wait_depth`` takes the worst shard;
    ``final_quality_level`` reports the most-degraded shard;
    ``quality_changes`` concatenate in shard order.  The conservation
    identity holds on the sum because it holds on every part.
    """
    parts = [p for p in parts if p is not None]
    if not parts:
        return None
    merged = FrontendStats(config=parts[0].config)
    for part in parts:
        merged.requests_seen += part.requests_seen
        merged.forwarded += part.forwarded
        merged.rejected_rate += part.rejected_rate
        merged.rejected_sessions += part.rejected_sessions
        merged.deferred += part.deferred
        merged.shed_oldest += part.shed_oldest
        merged.shed_newest += part.shed_newest
        merged.frames_dropped += part.frames_dropped
        merged.degraded_jobs += part.degraded_jobs
        merged.max_wait_depth = max(merged.max_wait_depth, part.max_wait_depth)
        merged.unserved_at_end += part.unserved_at_end
        merged.final_quality_level = max(
            merged.final_quality_level, part.final_quality_level
        )
        merged.quality_changes.extend(part.quality_changes)
        merged.rejected_actions |= part.rejected_actions
    return merged


def merge_metric_counters(
    results: Sequence[SimulationResult],
) -> Dict[Tuple[str, Tuple[Tuple[str, str], ...]], float]:
    """Sum counter/gauge metrics across shard registries.

    Keyed by ``(name, sorted label items)``; histograms are skipped
    (quantiles do not merge exactly — read them per shard instead).
    """
    totals: Dict[Tuple[str, Tuple[Tuple[str, str], ...]], float] = {}
    for result in results:
        run_metrics = result.metrics
        if run_metrics is None:
            continue
        for entry in run_metrics.registry.snapshot():
            if entry["kind"] == "histogram":
                continue
            key = (entry["name"], tuple(sorted(entry["labels"].items())))
            totals[key] = totals.get(key, 0.0) + entry["value"]
    return totals


@dataclass
class FederatedResult:
    """The merged outcome of one federated run.

    Per-shard :class:`~repro.sim.SimulationResult`\\ s stay fully
    accessible on ``shard_results``; everything else on this object is
    a deterministic function of them.
    """

    scenario_name: str
    scheduler_name: str
    config: FederationConfig
    routing: RoutingTable
    plan: ReplicationPlan
    shard_results: List[SimulationResult] = field(default_factory=list)

    # -- merged job records ------------------------------------------------

    @property
    def shards(self) -> int:
        """Shard count."""
        return self.config.shards

    @property
    def records(self) -> JobRecords:
        """All shards' completed-job records, in shard order (merged
        column-wise; see :meth:`JobRecords.joined`)."""
        return JobRecords.joined(r.records for r in self.shard_results)

    @property
    def jobs_submitted(self) -> int:
        return sum(r.jobs_submitted for r in self.shard_results)

    @property
    def jobs_completed(self) -> int:
        return sum(r.jobs_completed for r in self.shard_results)

    @property
    def tasks_executed(self) -> int:
        return sum(r.tasks_executed for r in self.shard_results)

    @property
    def tasks_hit(self) -> int:
        return sum(r.tasks_hit for r in self.shard_results)

    @property
    def tasks_missed(self) -> int:
        return sum(r.tasks_missed for r in self.shard_results)

    @property
    def events_processed(self) -> int:
        return sum(r.events_processed for r in self.shard_results)

    @property
    def hit_rate(self) -> float:
        """Fleet-wide data-reuse hit rate over executed tasks."""
        total = self.tasks_hit + self.tasks_missed
        if total == 0:
            return 0.0
        return self.tasks_hit / total

    @property
    def horizon(self) -> float:
        """The common trace horizon (max over shards)."""
        return max(r.horizon for r in self.shard_results)

    @property
    def simulated_time(self) -> float:
        """Virtual time at the end of the slowest shard."""
        return max(r.simulated_time for r in self.shard_results)

    @property
    def target_framerate(self) -> float:
        return self.shard_results[0].target_framerate

    @property
    def frame_interval(self) -> float:
        return 1.0 / self.target_framerate

    @property
    def sched_cost_us(self) -> float:
        """Mean scheduling cost per job across shards (job-weighted)."""
        jobs = self.jobs_submitted
        if jobs == 0:
            return 0.0
        return (
            sum(r.sched_cost_us * r.jobs_submitted for r in self.shard_results)
            / jobs
        )

    # -- merged analyses ---------------------------------------------------

    def action_issues(self) -> Dict[int, List[float]]:
        """Union of per-shard issue accounting (action ids are unique)."""
        merged: Dict[int, List[float]] = {}
        for result in self.shard_results:
            merged.update(result.collector.action_issues)
        return merged

    def summary(self) -> SchedulerSummary:
        """One comparison row over the merged records."""
        return summarize(
            self.scheduler_name,
            self.records,
            hit_rate=self.hit_rate,
            sched_cost_us=self.sched_cost_us,
            action_issues=self.action_issues(),
            frame_interval=self.frame_interval,
        )

    @property
    def frontend(self) -> Optional[FrontendStats]:
        """Fleet-summed overload accounting (None without a frontend)."""
        return merge_frontend_stats(
            [r.frontend for r in self.shard_results if r.frontend is not None]
        )

    def metric_totals(
        self,
    ) -> Dict[Tuple[str, Tuple[Tuple[str, str], ...]], float]:
        """Counter/gauge totals across shard registries."""
        return merge_metric_counters(self.shard_results)

    def stream_reports(self) -> List:
        """Per-shard :class:`~repro.obs.stream.StreamReport`\\ s, in
        shard order (empty when the run did not stream)."""
        return [
            r.stream for r in self.shard_results if r.stream is not None
        ]

    def merged_anomalies(self) -> List:
        """All shards' online anomaly records, deterministically merged.

        Sorted by (time, shard, vocabulary order) — a pure function of
        the shard results, so serial and process-pool federated runs
        agree byte for byte.
        """
        from repro.obs.anomaly import merge_anomalies

        return merge_anomalies(
            [r.stream.anomalies for r in self.shard_results if r.stream]
        )

    def evaluate_slos(self, objectives) -> List:
        """Merged :class:`~repro.obs.slo.SLOReport` per objective.

        Each shard is evaluated independently (violation windows are
        per action, and every action lives on exactly one shard), then
        the per-objective reports concatenate windows and sum the
        evaluation denominators.
        """
        from repro.obs.slo import SLOMonitor, SLOReport

        merged: List[SLOReport] = []
        for objective in objectives:
            monitor = SLOMonitor([objective])
            violations = []
            evaluated_time = 0.0
            actions_evaluated = 0
            for result in self.shard_results:
                (report,) = monitor.evaluate(result)
                violations.extend(report.violations)
                evaluated_time += report.evaluated_time
                actions_evaluated += report.actions_evaluated
            merged.append(
                SLOReport(
                    objective=objective,
                    scheduler=self.scheduler_name,
                    scenario=self.scenario_name,
                    violations=violations,
                    evaluated_time=evaluated_time,
                    actions_evaluated=actions_evaluated,
                )
            )
        return merged

    # -- tables / digests --------------------------------------------------

    def shard_rows(self) -> List[List[str]]:
        """Per-shard summary rows (the report grid's data)."""
        rows = []
        for index, result in enumerate(self.shard_results):
            summary = result.summary()
            rows.append(
                [
                    f"{index}",
                    f"{self.routing.counts()[index]}",
                    f"{len(self.plan.home[index])}",
                    f"{result.jobs_submitted}",
                    f"{result.jobs_completed}",
                    f"{summary.interactive_fps:.2f}",
                    f"{summary.interactive_latency * 1000:.1f}",
                    f"{result.hit_rate * 100:.1f}",
                ]
            )
        return rows

    def shard_table(self) -> str:
        """Fixed-width per-shard summary grid."""
        headers = [
            "shard",
            "users",
            "home ds",
            "submitted",
            "completed",
            "fps",
            "latency ms",
            "hit %",
        ]
        rows = [headers] + self.shard_rows()
        widths = [
            max(len(row[col]) for row in rows) for col in range(len(headers))
        ]
        lines = []
        for index, row in enumerate(rows):
            lines.append(
                "  ".join(cell.rjust(w) for cell, w in zip(row, widths))
            )
            if index == 0:
                lines.append("  ".join("-" * w for w in widths))
        summary = self.summary()
        lines.append(
            f"merged [{self.routing.policy}/{self.plan.policy}]: "
            f"{self.jobs_completed}/{self.jobs_submitted} jobs, "
            f"{summary.interactive_fps:.2f} fps, "
            f"{summary.interactive_latency * 1000:.1f} ms latency, "
            f"{self.hit_rate * 100:.1f}% hit rate"
        )
        return "\n".join(lines)

    def digest(self) -> str:
        """Bit-exact sha256 over the merged records and routing.

        Floats hash via :meth:`float.hex`, like the golden assignment
        traces: two federated runs digest equal only when every merged
        record matches to the last bit.  This is what the serial-vs-
        pool parity tests pin.
        """
        h = hashlib.sha256()
        h.update(repr(self.routing.assignments).encode())
        for record in self.records:
            h.update(
                "|".join(
                    value.hex() if isinstance(value, float) else repr(value)
                    for value in record
                ).encode()
            )
            h.update(b"\n")
        return h.hexdigest()


__all__ = [
    "FederatedResult",
    "merge_frontend_stats",
    "merge_metric_counters",
]
