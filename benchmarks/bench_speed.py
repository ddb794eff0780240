"""Simulator speed: wall-clock, events/sec, and the scaling curve.

The hot-path work (incremental ``ReplicaBucketIndex``, memoized cost
estimates, inlined completion/dispatch loops and min-node scans,
batched event insertion) is justified by this bench: it runs Table II
scenarios 1-4 under every registered scheduler
and emits both machine-dependent rates (``wall_s``, ``events_per_sec``
— reported, never gated) and *deterministic* algorithmic counters
(``events_processed``, ``tasks_executed``, and for OURS ``cycles_run``,
``backlog_chunks_sorted``, ``backlog_sorts_avoided``) that
``benchmarks/check_regressions.py`` gates bit-for-bit.  A change that
silently re-introduces per-cycle backlog re-sorting shows up as a
``backlog_sorts_avoided`` collapse even on a fast machine.

The **scaling curve** runs Scenario 2 under OURS at a ladder of
absolute scales (independent of ``REPRO_BENCH_SCALE``) and records
events/s per point.  The deterministic leaves of every curve point are
gated and must repeat exactly across rounds.  ``REPRO_BENCH_CURVE_MAX``
caps the ladder: CI sets ``0.2`` so the smoke subset {0.05, 0.2}
regenerates and gates, while local full runs add the expensive points
as warnings-only extras.

The ``reference`` block records the interleaved old/new measurements of
the optimization passes (full-scale Scenario 2 under OURS, six
alternating rounds of pre-PR vs. current source on one machine) so the
achieved speedups are part of the committed record rather than claims
in commit messages.
"""

from __future__ import annotations

import os
import time
from typing import Dict

from benchmarks._shared import (
    ALL_SCHEDULERS,
    SCENARIO_SCALES,
    emit_json,
    emit_report,
    get_scenario,
)
from repro.core.registry import make_scheduler
from repro.sim.simulator import run_simulation
from repro.workload.scenarios import make_scenario

#: Best-of-N wall clock per (scenario, scheduler) cell.  Two rounds is
#: the minimum that still cross-checks counter determinism; the wall
#: numbers are reported, never gated, so round-to-round noise is fine.
ROUNDS = 2

#: Deterministic counters (gated by check_regressions.py).  The OURS
#: backlog counters exist only on that scheduler.
OURS_COUNTERS = ("cycles_run", "backlog_chunks_sorted", "backlog_sorts_avoided")

#: The scaling-curve ladder: absolute Scenario 2 scales (fractions of
#: the paper's 120 s trace), NOT affected by ``REPRO_BENCH_SCALE``.
#: Event counts grow roughly linearly with scale, so the ladder spans
#: ~4.5k to ~900k events.
CURVE_SCALES = (0.05, 0.2, 1.0, 3.0, 10.0)


def curve_max() -> float:
    """Largest curve scale to run (``REPRO_BENCH_CURVE_MAX`` caps it).

    CI sets ``0.2``: the committed baseline carries exactly the
    {0.05, 0.2} smoke subset, so those points regenerate and gate on
    every build while local full-ladder runs only add warning-level
    extras (``check_regressions`` treats fresh-only leaves as
    warnings).
    """
    env = os.environ.get("REPRO_BENCH_CURVE_MAX")
    return float(env) if env else max(CURVE_SCALES)


#: Interleaved pre-PR vs. post-PR measurements of full-scale Scenario 2
#: under OURS (six alternating subprocess rounds each, same machine, to
#: cancel thermal/load noise).  Static record of the optimization
#: passes; identical in baseline and fresh results, so it never gates.
SPEEDUP_REFERENCE = {
    "scenario2_ours_full_scale": {
        "pre_pr_wall_s_avg": 2.170,
        "post_pr_wall_s_avg": 1.077,
        "speedup_avg": 2.01,
        "speedup_best_of_best": 2.07,
    },
    # The batched-event-queue pass (C-level namedtuple allocation,
    # batched assignment, pre-bound table hooks, drain-to-timestamp run
    # loop).  The event core was already within ~2x of the Python floor
    # after the pass above, so these wins land in the few-percent range
    # at the paper's p=8.  The key keeps its historical name.
    "scenario2_ours_full_scale_soa_pass": {
        "pre_pr_wall_s_avg": 0.904,
        "post_pr_wall_s_avg": 0.820,
        "speedup_avg": 1.10,
        "speedup_best_of_best": 1.05,
    },
}


def _measure(number: int, scheduler_name: str) -> Dict[str, float]:
    """Best-of-ROUNDS wall clock for one scenario x scheduler cell.

    Deterministic counters must not vary across rounds — a mismatch
    means the simulator lost determinism, which is worth failing loudly
    here rather than downstream in the golden-trace tests.
    """
    scenario = get_scenario(number)
    best: Dict[str, float] = {}
    for _ in range(ROUNDS):
        scheduler = make_scheduler(scheduler_name)
        start = time.perf_counter()
        result = run_simulation(scenario, scheduler)
        wall = time.perf_counter() - start
        sample = {
            "wall_s": wall,
            "events_per_sec": result.events_processed / wall,
            "events_processed": result.events_processed,
            "tasks_executed": result.tasks_executed,
        }
        for counter in OURS_COUNTERS:
            value = getattr(scheduler, counter, None)
            if value is not None:
                sample[counter] = value
        if best:
            for key in sample:
                if key not in ("wall_s", "events_per_sec"):
                    assert sample[key] == best[key], (
                        f"nondeterministic {key} for scenario {number} "
                        f"{scheduler_name}: {sample[key]} != {best[key]}"
                    )
        if not best or sample["wall_s"] < best["wall_s"]:
            best = sample
    return best


def _measure_curve_point(scale: float) -> Dict[str, object]:
    """One scaling-curve point: Scenario 2 under OURS.

    Returns the deterministic counters (gated; asserted identical
    across rounds) plus the best-of-ROUNDS wall-clock rate under the
    ``python`` key the baselines already carry (reported, never gated).
    """
    scenario = get_scenario(2, scale)
    deterministic: Dict[str, int] = {}
    best_wall = None
    for _ in range(ROUNDS):
        scheduler = make_scheduler("OURS")
        start = time.perf_counter()
        result = run_simulation(scenario, scheduler)
        wall = time.perf_counter() - start
        if best_wall is None or wall < best_wall:
            best_wall = wall
        sample = {
            "events_processed": result.events_processed,
            "tasks_executed": result.tasks_executed,
        }
        for counter in OURS_COUNTERS:
            sample[counter] = getattr(scheduler, counter)
        if deterministic:
            assert sample == deterministic, (
                f"curve point scale={scale}: nondeterministic counters: "
                f"{sample} != {deterministic}"
            )
        else:
            deterministic = sample
    point: Dict[str, object] = {
        "scale": scale,
        "python": {
            "wall_s": best_wall,
            "events_per_sec": deterministic["events_processed"] / best_wall,
        },
    }
    point.update(deterministic)
    return point


def test_simulator_speed(benchmark):
    """Measure and persist per-scenario, per-scheduler speed numbers."""

    def run_all():
        return {
            f"scenario{number}": {
                name: _measure(number, name) for name in ALL_SCHEDULERS
            }
            for number in sorted(SCENARIO_SCALES)
        }

    cells = benchmark.pedantic(run_all, rounds=1, iterations=1)

    cap = curve_max()
    curve = {
        str(scale): _measure_curve_point(scale)
        for scale in CURVE_SCALES
        if scale <= cap + 1e-9
    }

    payload = {
        "bench": "speed",
        "scale": SCENARIO_SCALES[1],
        "scales": {str(n): s for n, s in sorted(SCENARIO_SCALES.items())},
        "rounds": ROUNDS,
        "scenarios": cells,
        "curve": curve,
        # Named under the skipped ``scales*`` prefix: metadata, not a
        # gated number (CI caps at 0.2, local runs default to the full
        # ladder).
        "scales_curve_max": cap,
        "reference": SPEEDUP_REFERENCE,
    }
    out = emit_json("speed", payload)

    lines = [
        f"simulator speed — best of {ROUNDS} "
        f"(scales {payload['scales']})",
        "",
        f"{'scenario':>9} {'scheduler':>10} {'events/s':>12} "
        f"{'wall ms':>9} {'events':>9} {'tasks':>7}  OURS counters",
    ]
    for scenario_key, row in cells.items():
        for name, cell in row.items():
            extras = " ".join(
                f"{c}={cell[c]:,}" for c in OURS_COUNTERS if c in cell
            )
            lines.append(
                f"{scenario_key:>9} {name:>10} "
                f"{cell['events_per_sec']:>12,.0f} "
                f"{cell['wall_s'] * 1e3:>9.1f} "
                f"{cell['events_processed']:>9,} "
                f"{cell['tasks_executed']:>7,}  {extras}"
            )
    lines.append("")
    lines.append(f"scaling curve — scenario 2, OURS (curve max {cap})")
    lines.append(f"{'scale':>7} {'events':>9} {'tasks':>8} {'events/s':>12}")
    for key, point in curve.items():
        lines.append(
            f"{key:>7} {point['events_processed']:>9,} "
            f"{point['tasks_executed']:>8,} "
            f"{point['python']['events_per_sec']:>12,.0f}"
        )
    lines.append("")
    for name, ref in SPEEDUP_REFERENCE.items():
        lines.append(
            f"reference {name} (interleaved pre/post, full-scale "
            f"scenario 2, OURS): {ref['pre_pr_wall_s_avg']:.3f} s -> "
            f"{ref['post_pr_wall_s_avg']:.3f} s  "
            f"({ref['speedup_avg']:.2f}x avg, "
            f"{ref['speedup_best_of_best']:.2f}x best-of-best)"
        )
    lines.append(f"machine-readable: {out}")
    emit_report("speed", "\n".join(lines))

    # Sanity: every cell did real work, and the incremental backlog
    # index actually avoided sorts for OURS on every scenario.
    for scenario_key, row in cells.items():
        for name, cell in row.items():
            assert cell["events_processed"] > 0, (scenario_key, name)
        ours = row["OURS"]
        assert ours["cycles_run"] > 0
        assert ours["backlog_sorts_avoided"] >= 0
        assert (
            ours["backlog_sorts_avoided"] <= ours["backlog_chunks_sorted"]
        )

    # Curve sanity: at least the smoke subset ran, every point did real
    # work, and event counts grow strictly with scale.
    assert len(curve) >= 2, "curve must cover at least {0.05, 0.2}"
    previous = 0
    for scale in sorted(float(k) for k in curve):
        point = curve[str(scale)]
        assert point["events_processed"] > previous, (
            f"curve point {scale}: events did not grow "
            f"({point['events_processed']} <= {previous})"
        )
        previous = point["events_processed"]
