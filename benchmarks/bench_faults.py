"""Fault storm — Scenario 1 under seeded faults, healed vs vanilla.

A seeded, reproducible fault storm (one crash+revival, one straggler,
one cache wipe, one storage-degradation window from
:meth:`~repro.faults.plan.FaultPlan.storm`) hits Scenario 1 three ways:
recovery-aware OURS (detection + self-healing), vanilla OURS (the same
faults, no detection — crashes fall back to the instantly-aware §VI-D
path), and vanilla FCFS.  The gate numbers are the honest
fault-tolerance score: jobs lost, detection count and latency, recovery
actions taken, the fps-SLO compliant fraction, and — for the healed run
— whether root-cause analysis localizes the injected faults from the
audit log and critical paths alone.
"""

from __future__ import annotations

import pytest

from benchmarks._shared import bench_scale, emit_json, emit_report
from repro.faults import FaultPlan, analyze, score
from repro.obs import AuditConfig
from repro.obs.slo import SLObjective, SLOMonitor
from repro.sim.run_config import RunConfig
from repro.sim.simulator import run_many
from repro.workload.scenarios import make_scenario

SCALE = bench_scale(0.5)
STORM_SEED = 11
#: RCA onset-grading tolerance: with multi-second reload I/O the onset
#: cannot be pinned finer than roughly one task duration.
RCA_TOLERANCE = 2.0
#: (scheduler, self-healing) rows, paper-comparison order.
MODES = [("OURS", True), ("OURS", False), ("FCFS", False)]


def _mode_name(scheduler: str, heal: bool) -> str:
    return f"{scheduler}:{'healed' if heal else 'vanilla'}"


@pytest.fixture(scope="module")
def runs():
    """``(scenario, plan, result)`` per mode, freed when the module ends."""
    scenario = make_scenario(1, scale=SCALE)
    plans = [
        FaultPlan.storm(
            STORM_SEED,
            node_count=scenario.system.node_count,
            duration=scenario.trace.duration,
            heal=heal,
        )
        for _, heal in MODES
    ]
    audit = AuditConfig(capacity=None)
    results = run_many(
        (scenario, scheduler, RunConfig(drain=True, audit=audit, faults=plan))
        for (scheduler, _), plan in zip(MODES, plans)
    )
    by_mode = {m: (scenario, p, r) for m, p, r in zip(MODES, plans, results)}
    yield by_mode
    by_mode.clear()


def _row(scenario, plan, result, *, with_rca: bool) -> dict:
    report = result.fault_report
    objective = SLObjective(kind="fps", target=scenario.target_framerate)
    slo = SLOMonitor([objective]).evaluate(result)[0]
    row = {
        "jobs_submitted": report.jobs_submitted,
        "jobs_completed": report.jobs_completed,
        "jobs_lost": report.jobs_lost,
        "detections": len(report.detections),
        "detection_latency_mean": report.detection_latency_mean,
        "detection_latency_max": report.detection_latency_max,
        "recovery_actions": len(report.actions),
        "tasks_requeued": report.tasks_requeued(),
        "action_counts": report.action_counts(),
        "compliant_fraction": slo.compliant_fraction,
    }
    if with_rca:
        rca = analyze(
            result.audit,
            result.critical_paths.paths,
            slo.violations,
            node_count=scenario.system.node_count,
        )
        grade = score(rca, plan, time_tolerance=RCA_TOLERANCE)
        row["rca"] = {
            "verdicts": len(rca.verdicts),
            "localized": grade["localized"],
            "recall": grade["recall"],
            "false_positives": grade["false_positives"],
        }
    return row


def test_faults_report(benchmark, runs):
    for _, _, result in runs.values():
        assert result.fault_report is not None
        assert result.fault_report.events_injected == 4

    def build():
        return {
            _mode_name(scheduler, heal): _row(
                *runs[(scheduler, heal)], with_rca=heal
            )
            for scheduler, heal in MODES
        }

    rows = benchmark.pedantic(build, rounds=1, iterations=1)

    header = (
        f"{'mode':<14} {'lost':>5} {'det':>4} {'lat(ms)':>9} "
        f"{'actions':>8} {'compliant':>10} {'rca':>8}"
    )
    lines = [
        (
            f"Fault storm — Scenario 1 (scale {SCALE:g}), seeded storm "
            f"{STORM_SEED}: crash+revival, straggler, cache wipe, "
            f"storage window"
        ),
        header,
        "-" * len(header),
    ]
    for scheduler, heal in MODES:
        name = _mode_name(scheduler, heal)
        row = rows[name]
        rca = row.get("rca")
        rca_text = (
            f"{rca['localized']}/4" if rca is not None else "-"
        )
        lines.append(
            f"{name:<14} {row['jobs_lost']:>5} {row['detections']:>4} "
            f"{row['detection_latency_mean'] * 1e3:>9.1f} "
            f"{row['recovery_actions']:>8} "
            f"{row['compliant_fraction'] * 100:>9.2f}% {rca_text:>8}"
        )
    lines.append(
        "shape: self-healing OURS loses no jobs without any oracle, "
        "detects every node-scoped fault, localizes the storm via RCA, "
        "and stays ahead of FCFS.  The OURS:vanilla row is an upper "
        "bound, not a fair baseline: its legacy crash path is instantly "
        "aware (no heartbeat needed), and the paper's completion-time "
        "corrections (SV-B) already absorb stragglers and wipes — the "
        "estimate feedback reroutes around slow nodes and the stale "
        "mirror preserves reload affinity."
    )
    emit_report("faults", "\n".join(lines))
    emit_json(
        "faults",
        {
            "scenario": 1,
            "scale": SCALE,
            "storm_seed": STORM_SEED,
            "rca_tolerance": RCA_TOLERANCE,
            "modes": rows,
        },
    )

    healed = rows[_mode_name("OURS", True)]
    # Conservation holds at every scale: self-healing re-places every
    # stranded task, so no submitted job is lost.
    assert healed["jobs_lost"] == 0

    if SCALE < 0.5 - 1e-9:
        return  # smoke scale: numbers regenerated, shape not asserted
    fcfs = rows[_mode_name("FCFS", False)]
    # The detectors caught the node-scoped faults (crash, straggler,
    # wipe; the bounded storage window has no per-node signature).
    assert healed["detections"] >= 3
    assert healed["recovery_actions"] >= 3
    # Healing beats a scheduler with no cache awareness and no healing.
    assert healed["compliant_fraction"] >= fcfs["compliant_fraction"]
    # RCA localizes at least the crash and the straggler from the audit
    # log and critical paths alone, with no spurious verdict kinds.
    assert healed["rca"]["localized"] >= 2
