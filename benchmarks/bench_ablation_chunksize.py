"""Ablation — maximal chunk size Chkmax (paper §III-C).

The paper argues Chkmax must not exceed graphics memory and "should not
be too small either because a small chunk size results in more chunks
and transmission overheads"; a moderate size slightly below the
graphics memory gave satisfactory performance.  This sweep runs
Scenario 1 under OURS with Chkmax from 64 MiB to 1 GiB and reports the
framerate/latency trade-off: tiny chunks multiply per-task overheads
(more tasks per job, deeper compositing), oversized chunks reduce
placement freedom.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from benchmarks._shared import bench_scale, emit_report
from repro.reporting.report import sweep_table
from repro.sim.sweep import sweep
from repro.util.units import GiB, MiB
from repro.workload.scenarios import scenario_1

CHUNK_SIZES_MIB = [64, 128, 256, 512, 1024]
SCALE = bench_scale(0.5)


def chunk_scenario(chunk_mib: int):
    """Scenario 1 with ``Chkmax = chunk_mib`` MiB."""
    sc = scenario_1(scale=SCALE)
    return replace(
        sc, system=sc.system.with_overrides(chunk_max=chunk_mib * MiB)
    )


@pytest.fixture(scope="module")
def runs():
    """The Chkmax sweep under OURS, freed when the module ends."""
    result = sweep("Chkmax (MiB)", CHUNK_SIZES_MIB, chunk_scenario, ["OURS"])
    yield result
    result.results.clear()


def test_ablation_chunk_report(benchmark, runs):
    for result in runs.results.values():
        assert result.jobs_completed > 0

    def build():
        ours = [runs.result(c, "OURS") for c in CHUNK_SIZES_MIB]
        return {
            "fps": [r.interactive_fps for r in ours],
            "latency (s)": [r.interactive_latency.mean for r in ours],
            "tasks/job": [
                float(2 * GiB // (c * MiB)) for c in CHUNK_SIZES_MIB
            ],
        }

    series = benchmark.pedantic(build, rounds=1, iterations=1)
    text = sweep_table(
        "Chkmax (MiB)",
        CHUNK_SIZES_MIB,
        series,
        title=(
            "Ablation — Chkmax sweep, Scenario 1 under OURS (2 GiB "
            "datasets, 8 nodes)"
        ),
        fmt="{:>12.2f}",
    )
    text += (
        "\npaper shape (§III-C): small chunks multiply per-task overheads "
        "and sink the framerate; a moderate size slightly below the 1 GiB "
        "graphics memory performs best."
    )
    emit_report("ablation_chunksize", text)

    fps = dict(zip(CHUNK_SIZES_MIB, series["fps"]))
    # 64 MiB chunks (32 tasks/job) carry clearly more overhead than 512.
    assert fps[64] < fps[512]
    # The paper's choice (512 MiB) reaches the target.
    assert fps[512] > 0.9 * (100.0 / 3.0)
