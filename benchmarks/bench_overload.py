"""Overload management — Scenario 2 over-subscribed 2.5x.

The paper's service accepts every request (§III, Algorithm 1); when the
offered load exceeds capacity the head-node queue grows without bound
and *every* session's latency diverges — the completed-job percentiles
just hide it, because the jobs that never finish are not counted
(survivorship bias).  This bench over-subscribes Scenario 2 by 2.5x and
runs OURS and FCFSL with and without the protective frontend
(admission cap + shed-oldest bounded queue + SLO-driven quality
ladder).  The honest score is the latency-SLO compliant fraction from
:class:`~repro.obs.slo.SLOMonitor`, whose windows with no completions
violate maximally: admitted sessions must spend strictly more of their
time inside the objective with the frontend than without it.
"""

from __future__ import annotations

from functools import partial
from itertools import product

import pytest

from benchmarks._shared import bench_scale, emit_json, emit_report
from repro.frontend import FrontendConfig
from repro.obs.slo import SLObjective, SLOMonitor
from repro.sim.run_config import RunConfig
from repro.sim.simulator import run_many
from repro.workload.scenarios import make_scenario

SCALE = bench_scale(0.5)
LOAD = 2.5
SCHEDULERS = ["FCFSL", "OURS"]
MODES = ["baseline", "protected"]

#: All three gates on: session cap, bounded queue shedding stale
#: requests, and the default quality ladder.
PROTECTED = FrontendConfig.protective(max_sessions=8, queue_limit=32)

#: "p99 interaction latency <= 250 ms" over 1 s sliding windows —
#: judged per admitted action, with empty windows counted as maximal
#: violations (an admitted user staring at a stalled frame is the
#: worst outcome, not a missing sample).
OBJECTIVE = SLObjective(kind="latency", target=0.25, quantile=99.0)


@pytest.fixture(scope="module")
def runs():
    """Result per (scheduler, mode), freed when the module ends."""
    grid = list(product(SCHEDULERS, MODES))
    results = run_many(
        (
            partial(make_scenario, 2, scale=SCALE, load=LOAD),
            scheduler,
            RunConfig(frontend=PROTECTED if mode == "protected" else None),
        )
        for scheduler, mode in grid
    )
    by_point = dict(zip(grid, results))
    yield by_point
    by_point.clear()


def _compliance(result) -> float:
    return SLOMonitor([OBJECTIVE]).evaluate(result)[0].compliant_fraction


def _row(result) -> dict:
    out = {
        "interactive_fps": result.interactive_fps,
        "interactive_p99": result.interactive_latency.p99,
        "jobs_submitted": result.jobs_submitted,
        "jobs_completed": result.jobs_completed,
        "slo_compliant_fraction": _compliance(result),
    }
    if result.frontend is not None:
        fe = result.frontend
        out["frontend"] = {
            "requests_seen": fe.requests_seen,
            "forwarded": fe.forwarded,
            "rejected": fe.rejected,
            "shed": fe.shed,
            "frames_dropped": fe.frames_dropped,
            "final_quality_level": fe.final_quality_level,
        }
    return out


def test_overload_report(benchmark, runs):
    for result in runs.values():
        assert result.jobs_submitted > 0

    def build():
        return {
            s: {m: _row(runs[(s, m)]) for m in MODES} for s in SCHEDULERS
        }

    rows = benchmark.pedantic(build, rounds=1, iterations=1)

    header = (
        f"{'sched':<7} {'mode':<10} {'fps':>8} {'p99(s)':>8} "
        f"{'done/sub':>11} {'compliant':>10}"
    )
    lines = [
        (
            f"Overload — Scenario 2 at {LOAD:g}x load (scale {SCALE:g}), "
            f"with/without the protective frontend"
        ),
        OBJECTIVE.describe(),
        header,
        "-" * len(header),
    ]
    for scheduler in SCHEDULERS:
        for mode in MODES:
            row = rows[scheduler][mode]
            lines.append(
                f"{scheduler:<7} {mode:<10} {row['interactive_fps']:>8.2f} "
                f"{row['interactive_p99']:>8.3f} "
                f"{row['jobs_completed']:>5}/{row['jobs_submitted']:<5} "
                f"{row['slo_compliant_fraction'] * 100:>9.2f}%"
            )
    lines.append(
        "shape: the unprotected service drowns — its completed-job "
        "percentiles look fine only because the backlog never finishes; "
        "the SLO windows (empty window = maximal violation) show admitted "
        "sessions meeting the objective strictly more of the time behind "
        "the frontend."
    )
    emit_report("overload", "\n".join(lines))
    emit_json(
        "overload",
        {
            "scenario": 2,
            "scale": SCALE,
            "load": LOAD,
            "objective": OBJECTIVE.describe(),
            "schedulers": rows,
        },
    )

    if SCALE < 0.5 - 1e-9:
        return  # smoke scale: numbers regenerated, shape not asserted
    for scheduler in SCHEDULERS:
        base = rows[scheduler]["baseline"]
        prot = rows[scheduler]["protected"]
        # Admitted sessions spend strictly more time inside the
        # objective behind the frontend, under both schedulers.
        assert (
            prot["slo_compliant_fraction"] > base["slo_compliant_fraction"]
        ), scheduler
        # The frontend actually engaged: it refused or shed work.
        fe = prot["frontend"]
        assert fe["forwarded"] < fe["requests_seen"], scheduler
        # What was admitted got served: no runaway backlog left behind.
        assert prot["jobs_completed"] >= 0.9 * prot["jobs_submitted"], scheduler
