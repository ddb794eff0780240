"""Ablation — one vs two rendering pipelines (GPUs) per node.

The ANL Eureka nodes carry two Quadro FX5600s (paper §VI-A); the
calibrated presets model one rendering pipeline per node because the
paper's numbers are per-node.  This ablation asks what the second GPU
buys: Scenario 4's interactive demand (~647 jobs/s) slightly exceeds
the single-pipeline capacity (~615 jobs/s), so with one GPU per node
latency soars (the published behaviour); with two, capacity doubles and
the same workload runs at the target framerate with interactive
latency.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from benchmarks._shared import bench_scale, emit_report
from repro.reporting.report import sweep_table
from repro.sim.sweep import sweep
from repro.workload.scenarios import scenario_4

SCALE = bench_scale(0.1)
GPU_COUNTS = [1, 2]


def gpu_scenario(gpus: int):
    """Scenario 4 with ``gpus`` rendering pipelines per node."""
    sc = scenario_4(scale=SCALE)
    if gpus != 1:
        sc = replace(sc, system=sc.system.with_overrides(gpus_per_node=gpus))
    return sc


@pytest.fixture(scope="module")
def runs():
    """The GPU-count sweep under OURS, freed when the module ends."""
    result = sweep("GPUs per node", GPU_COUNTS, gpu_scenario, ["OURS"])
    yield result
    result.results.clear()


def test_multigpu_report(benchmark, runs):
    for result in runs.results.values():
        assert result.jobs_submitted > 0

    def build():
        ours = [runs.result(g, "OURS") for g in GPU_COUNTS]
        return {
            "fps": [r.interactive_fps for r in ours],
            "latency (s)": [r.interactive_latency.mean for r in ours],
            "utilization %": [100 * r.mean_node_utilization for r in ours],
        }

    series = benchmark.pedantic(build, rounds=1, iterations=1)
    text = sweep_table(
        "GPUs per node",
        GPU_COUNTS,
        series,
        title=(
            "Ablation — rendering pipelines per node, Scenario 4 under "
            "OURS (Eureka nodes physically carry two FX5600s)"
        ),
        fmt="{:>12.2f}",
    )
    text += (
        "\nshape: Scenario 4's demand slightly exceeds single-pipeline "
        "capacity (the paper's soaring-latency regime); a second GPU per "
        "node absorbs it — framerate reaches the target and latency "
        "drops by orders of magnitude."
    )
    emit_report("ablation_multigpu", text)

    assert series["fps"][1] > 1.2 * series["fps"][0]
    assert series["latency (s)"][1] < 0.5 * series["latency (s)"][0]
