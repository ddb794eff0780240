"""Ablation — shared-file-server contention (paper §III, Fig. 1).

The paper's Fig. 1 shows rendering nodes fetching from local disks *or*
a network file server.  With a shared server, concurrent cold loads
divide its bandwidth, so I/O storms are self-amplifying: a scheduler
that triggers many simultaneous misses makes every miss slower.  This
ablation runs a cold-start Scenario 1 (no prewarm) under OURS and FCFS,
with local disks versus a shared server capped at one quarter of the
aggregate disk bandwidth, and reports the framerates: the locality-blind scheduler is
hurt disproportionately by contention.
"""

from __future__ import annotations

from dataclasses import replace
from functools import partial
from itertools import product

import pytest

from benchmarks._shared import bench_scale, emit_report
from repro.cluster.storage import StorageSpec
from repro.reporting.report import sweep_table
from repro.sim.run_config import RunConfig
from repro.sim.simulator import run_many
from repro.util.units import MiB
from repro.workload.scenarios import scenario_1

SCALE = bench_scale(1.0)


def contention_scenario(shared: bool):
    """Cold-start Scenario 1 on local disks or one shared server."""
    sc = scenario_1(scale=SCALE)
    storage = StorageSpec(
        bandwidth=100 * MiB,
        latency=0.010,
        shared_bandwidth=400 * MiB if shared else None,
    )
    return replace(
        sc,
        system=sc.system.with_overrides(storage=storage),
        prewarm=False,  # cold start: loads happen during the run
    )


@pytest.fixture(scope="module")
def runs():
    """Result per (scheduler, shared), freed when the module ends."""
    grid = list(product(["OURS", "FCFS"], [False, True]))
    results = run_many(
        (partial(contention_scenario, shared), scheduler, RunConfig())
        for scheduler, shared in grid
    )
    by_point = dict(zip(grid, results))
    yield by_point
    by_point.clear()


def test_contention_report(benchmark, runs):
    for result in runs.values():
        assert result.jobs_submitted > 0

    def build():
        ours = [runs[("OURS", shared)] for shared in (False, True)]
        fcfs = [runs[("FCFS", shared)] for shared in (False, True)]
        return {
            "OURS fps": [r.interactive_fps for r in ours],
            "FCFS fps": [r.interactive_fps for r in fcfs],
            "FCFS loads": [float(r.tasks_missed) for r in fcfs],
        }

    series = benchmark.pedantic(build, rounds=1, iterations=1)
    text = sweep_table(
        "storage (0=local disks, 1=shared 400MiB/s server)",
        [0, 1],
        series,
        title=(
            "Ablation — file-server contention, cold-start Scenario 1 "
            "(no prewarm)"
        ),
        fmt="{:>12.2f}",
    )
    text += (
        "\nshape: OURS pays each chunk's load once (one miss per chunk, "
        "then locality), so contention barely matters; FCFS's scattered "
        "placement re-loads chunks continuously, and a shared server "
        "makes every one of those loads slower."
    )
    emit_report("ablation_contention", text)

    # OURS loses only its one-time warm-up to contention; it stays far
    # ahead of FCFS in both regimes.
    assert series["OURS fps"][1] > 0.5 * series["OURS fps"][0]
    assert series["OURS fps"][0] > 5 * series["FCFS fps"][0]
    assert series["OURS fps"][1] > 5 * series["FCFS fps"][1]
    # FCFS keeps re-loading data; OURS pays each chunk once.
    assert (
        runs[("FCFS", False)].tasks_missed
        > 1.5 * runs[("OURS", False)].tasks_missed
    )
