"""Ablation — node crashes mid-run (paper §VI-D fault tolerance).

"Our scheduling method has a certain degree of fault tolerance when
some of the nodes crash … the rendering can still carry on as long as
the system has copies of the required data chunks on other rendering
nodes."  This bench runs Scenario 1 under OURS with 0, 1, and 2 node
crashes injected mid-run and reports the degradation: the service keeps
serving every action (no job is lost — orphaned tasks re-schedule onto
survivors), at the framerate the surviving capacity supports.
"""

from __future__ import annotations

import pytest

from benchmarks._shared import bench_scale, emit_report
from repro.faults import FaultPlan
from repro.reporting.report import sweep_table
from repro.sim.run_config import RunConfig
from repro.sim.simulator import run_many
from repro.workload.scenarios import scenario_1

SCALE = bench_scale(0.5)
CRASHES = {0: [], 1: [(10.0 * SCALE, 3)], 2: [(10.0 * SCALE, 3), (18.0 * SCALE, 6)]}


@pytest.fixture(scope="module")
def runs():
    """Results in crash-count order, freed when the module ends."""
    scenario = scenario_1(scale=SCALE)
    plans = [FaultPlan.from_node_failures(CRASHES[c]) for c in sorted(CRASHES)]
    results = run_many((scenario, "OURS", RunConfig(faults=p)) for p in plans)
    yield results
    results.clear()


def test_failure_report(benchmark, runs):
    for result in runs:
        assert result.jobs_submitted > 0

    def build():
        return {
            "fps": [r.interactive_fps for r in runs],
            "latency (s)": [r.interactive_latency.mean for r in runs],
            "hit rate %": [100 * r.hit_rate for r in runs],
        }

    series = benchmark.pedantic(build, rounds=1, iterations=1)
    text = sweep_table(
        "# crashed nodes",
        sorted(CRASHES),
        series,
        title=(
            "Ablation — node crashes mid-run, Scenario 1 under OURS "
            "(8 nodes; crashes at 1/3 and 3/5 of the run)"
        ),
        fmt="{:>12.2f}",
    )
    text += (
        "\nshape: the service survives every crash — orphaned tasks are "
        "re-dispatched to surviving replicas and lost chunks reload from "
        "the file system — degrading to the framerate the remaining "
        "capacity supports instead of failing."
    )
    emit_report("ablation_failure", text)

    fps = series["fps"]
    # Monotone degradation, never collapse-to-zero.
    assert fps[0] > fps[1] > fps[2] > 1.0
    # Every crash run still completed a substantial share of its jobs.
    for result in runs:
        assert result.jobs_completed > 0.25 * result.jobs_submitted