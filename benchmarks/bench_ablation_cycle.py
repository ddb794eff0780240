"""Ablation — the scheduling cycle ω (paper §V-A).

"We carefully choose the scheduling cycle ω so that interactive jobs can
be scheduled timely with minimal scheduling overhead."  This sweep runs
Scenario 2 under OURS with ω from 2 ms to 120 ms:

* a tiny ω schedules each job almost alone (no amortization, more
  invocations → higher per-job cost),
* a large ω delays every interactive job by up to ω (latency floor
  rises and the framerate dips as λ-bounded batch filling coarsens).
"""

from __future__ import annotations

from functools import partial

import pytest

from benchmarks._shared import bench_scale, emit_report
from repro.core.ours import OursScheduler
from repro.reporting.report import sweep_table
from repro.sim.run_config import RunConfig
from repro.sim.simulator import run_many
from repro.workload.scenarios import scenario_2

CYCLES_MS = [2, 5, 15, 45, 120]
SCALE = bench_scale(0.5)


@pytest.fixture(scope="module")
def runs():
    """Results in ``CYCLES_MS`` order, freed when the module ends."""
    scenario = scenario_2(scale=SCALE)
    results = run_many(
        (scenario, partial(OursScheduler, cycle=c / 1000.0), RunConfig())
        for c in CYCLES_MS
    )
    yield results
    results.clear()


def test_ablation_cycle_report(benchmark, runs):
    for result in runs:
        assert result.jobs_completed > 0

    def build():
        return {
            "fps": [r.interactive_fps for r in runs],
            "latency (s)": [r.interactive_latency.mean for r in runs],
            "cost (us/job)": [r.sched_cost_us for r in runs],
        }

    series = benchmark.pedantic(build, rounds=1, iterations=1)
    text = sweep_table(
        "omega (ms)",
        CYCLES_MS,
        series,
        title="Ablation — scheduling cycle sweep, Scenario 2 under OURS",
        fmt="{:>12.3f}",
    )
    text += (
        "\npaper shape (§V-A): omega must keep interactive scheduling "
        "timely (small enough) while amortizing scheduling work (large "
        "enough); the paper's regime is a constant short period around "
        "the request interval."
    )
    emit_report("ablation_cycle", text)

    fps = dict(zip(CYCLES_MS, series["fps"]))
    # A 120 ms cycle (4 frames of delay per schedule) costs framerate
    # versus the default 15 ms.
    assert fps[120] < fps[15]
