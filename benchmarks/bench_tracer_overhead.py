"""Tracing overhead: events/sec with tracing disabled vs fully on.

The observability layer must be free when off — hot paths hold ``None``
and skip instrumentation with one identity check — and cheap enough
when on that traced runs stay practical.  This bench measures the
simulator's event-processing rate five ways (untraced, ``NullTracer``,
full ``Tracer`` + counter sampling, metrics registry + window sampler,
decision audit log) on Scenario 1, in interleaved rounds, and emits
the numbers both as a text report and as machine-readable
``benchmarks/results/BENCH_tracer.json`` for regression tracking.  The
audit sample also carries the log's deterministic decision counters, so
the regression gate pins the decision stream itself, not just its cost.
"""

from __future__ import annotations

import json
import sys
import time
from typing import Dict

from benchmarks._shared import (
    REPEATS,
    RESULTS_DIR,
    bench_scale,
    best_of,
    emit_report,
    interleaved_rounds,
    paired_ratio,
)
from repro.obs import tracer as tracer_module
from repro.obs.audit import AuditConfig
from repro.obs.tracer import NullTracer, Tracer
from repro.sim.run_config import RunConfig
from repro.sim.simulator import run_simulation
from repro.workload.scenarios import scenario_1

# Overhead ratios need enough events to be signal rather than timing
# noise, so smoke-scale overrides (CI's REPRO_BENCH_SCALE=0.05) are
# floored; larger overrides still apply.
SCALE = max(bench_scale(0.25), 0.25)
# Every overhead ratio is a median over rounds; one run at this scale
# takes ~0.1 s, so its rate carries scheduler noise of the same order as
# the overheads being bounded.
ROUNDS = 9


def _measure_once(
    tracer_factory, metrics: bool = False, audit: bool = False
) -> Dict[str, float]:
    """Events/sec for one run of one observability configuration."""
    scenario = scenario_1(scale=SCALE)
    tracer = tracer_factory() if tracer_factory else None
    start = time.perf_counter()
    cpu_start = time.process_time()
    result = run_simulation(
        scenario,
        "OURS",
        config=RunConfig(
            tracer=tracer,
            metrics=metrics,
            audit=AuditConfig() if audit else False,
        ),
    )
    cpu = time.process_time() - cpu_start
    wall = time.perf_counter() - start
    sample = {
        "events": float(result.events_processed),
        "wall_s": wall,
        # The rate divides CPU time, not wall time: the overhead ratios
        # below compare one config's rate against another's, and CPU
        # time is immune to co-tenant load stealing cycles mid-block
        # (wall_s is kept for the human report only).
        "cpu_s": cpu,
        "events_per_sec": result.events_processed / cpu,
        "trace_events": float(len(tracer)) if tracer is not None else 0.0,
    }
    if audit:
        # Deterministic decision counters — same trace, same stream,
        # every run; the regression gate compares these exactly.
        log = result.audit
        sample["audit_decisions"] = float(log.total_recorded)
        for reason, count in sorted(log.reason_counts().items()):
            sample[f"audit_{reason.replace('-', '_')}"] = float(count)
    return sample


def _tracer_calls_per_event() -> float:
    """Python calls into ``obs/tracer.py`` per recorded trace event.

    One traced run under ``sys.setprofile``: a count, so unlike the
    wall-clock ratios it repeats exactly.
    """
    namespace = vars(tracer_module)
    calls = 0

    def profiler(frame, event, arg):
        nonlocal calls
        if event == "call" and frame.f_globals is namespace:
            calls += 1

    tracer = Tracer()
    sys.setprofile(profiler)
    try:
        run_simulation(scenario_1(scale=SCALE), "OURS", config=RunConfig(tracer=tracer))
    finally:
        sys.setprofile(None)
    return calls / len(tracer)


#: The configurations under comparison, in measurement order.
_CONFIGS = {
    "untraced": dict(tracer_factory=None),
    "null_tracer": dict(tracer_factory=NullTracer),
    "full_tracer": dict(tracer_factory=Tracer),
    "metrics_registry": dict(tracer_factory=None, metrics=True),
    "audit": dict(tracer_factory=None, audit=True),
}


def test_tracer_overhead(benchmark):
    """Measure and persist the disabled/null/full tracing rates."""

    rounds = benchmark.pedantic(
        interleaved_rounds,
        args=(_CONFIGS, ROUNDS, _measure_once),
        rounds=1,
        iterations=1,
    )
    # The report keeps each config's best round; every ratio is the
    # median of the per-round paired ratios.
    rates = best_of(rounds)
    null_ratio = paired_ratio(rounds, "null_tracer", "untraced")
    full_ratio = paired_ratio(rounds, "full_tracer", "untraced")
    metrics_ratio = paired_ratio(rounds, "metrics_registry", "null_tracer")
    audit_ratio = paired_ratio(rounds, "audit", "null_tracer")
    calls_per_event = _tracer_calls_per_event()

    payload = {
        "bench": "tracer_overhead",
        "scenario": "scenario1",
        "scale": SCALE,
        "scheduler": "OURS",
        "rounds": ROUNDS,
        "results": rates,
        "null_tracer_relative_rate": null_ratio,
        "full_tracer_relative_rate": full_ratio,
        "metrics_registry_relative_rate": metrics_ratio,
        "audit_relative_rate": audit_ratio,
        "tracer_calls_per_event": calls_per_event,
    }
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    out = RESULTS_DIR / "BENCH_tracer.json"
    out.write_text(json.dumps(payload, indent=2) + "\n")

    lines = ["tracer overhead — scenario 1, OURS, best of "
             f"{ROUNDS} (scale {SCALE}); ratios are medians of "
             "per-round paired ratios", ""]
    for name, r in rates.items():
        lines.append(
            f"{name:>12}: {r['events_per_sec']:>12,.0f} events/s "
            f"({r['events']:,.0f} events/run, {r['wall_s']*1e3:.1f} ms "
            f"for {REPEATS} runs, "
            f"{r['trace_events']:,.0f} trace events)"
        )
    lines.append("")
    lines.append(f"null tracer relative rate: {null_ratio:.3f}")
    lines.append(f"full tracer relative rate: {full_ratio:.3f}")
    lines.append(f"metrics registry relative rate (vs null): {metrics_ratio:.3f}")
    lines.append(f"audit relative rate (vs null): {audit_ratio:.3f}")
    lines.append(f"tracer calls per trace event: {calls_per_event:.3f}")
    lines.append(
        f"audit decisions: {rates['audit']['audit_decisions']:,.0f}"
    )
    lines.append(f"machine-readable: {out.relative_to(RESULTS_DIR.parent.parent)}")
    emit_report("tracer_overhead", "\n".join(lines))

    # Disabled tracing must be ~free (generous bound: timing noise on
    # shared CI machines), and full tracing must not cripple the run.
    assert null_ratio > 0.80
    assert full_ratio > 0.25
    # The full tracer's cost, counted: one traced occurrence is one row.
    assert calls_per_event <= 1.5
    assert rates["full_tracer"]["trace_events"] > 0
    assert rates["null_tracer"]["trace_events"] == 0
    # The metrics registry (counters/histograms + window sampler) must
    # not dominate the event-processing rate.  The bound was 0.90 before
    # the simulator hot-path pass roughly doubled the base event rate:
    # the registry's absolute per-event cost is unchanged, but it is now
    # a larger *fraction* of a much faster loop (and the ratio is
    # wall-clock derived, so shared machines add noise on top).
    assert metrics_ratio >= 0.60
    # The audit log rides the scheduler hot path (one record per
    # assignment + candidate snapshot); its budget is 15% over the
    # NullTracer rate.
    assert audit_ratio >= 0.85
    assert rates["audit"]["audit_decisions"] > 0
