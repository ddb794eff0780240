"""Ablation — time-varying batch playback (paper §I's second batch use).

Batch jobs visualize "time-varying data": every frame renders a
*different* timestep dataset, so batch traffic gets no cache reuse at
all — the hardest case for the memory hierarchy, where deferral (not
locality) is the only defense for the interactive streams.  This bench
mixes four persistent interactive actions with time-varying playback
submissions over an 8-timestep series on the 8-node system and compares
OURS, FCFSL, and FCFS.
"""

from __future__ import annotations

import pytest

from benchmarks._shared import bench_scale, emit_report
from repro.core.chunks import dataset_suite
from repro.reporting.report import comparison_table
from repro.sim.config import system_linux8
from repro.sim.run_config import RunConfig
from repro.sim.simulator import run_many
from repro.util.units import GiB
from repro.workload.actions import persistent_actions
from repro.workload.batch import time_varying_batch_stream
from repro.workload.scenarios import Scenario
from repro.workload.trace import merge_traces

DURATION = 40.0 * bench_scale(1.0)
SCHEDULERS = ["OURS", "FCFSL", "FCFS"]


def tv_scenario() -> Scenario:
    hot = dataset_suite(4, 2 * GiB)  # interactive working set: 8 GB
    series = dataset_suite(8, 2 * GiB, prefix="ts")  # timesteps: 16 GB
    interactive = persistent_actions(
        hot, DURATION, target_framerate=100.0 / 3.0, seed=21, name="tv-i"
    )
    batch = time_varying_batch_stream(
        series,
        DURATION,
        submission_rate=0.25,
        frames_per_submission=16,  # two loops over the series
        seed=22,
    )
    return Scenario(
        name="time-varying",
        system=system_linux8(),
        trace=merge_traces([interactive, batch], name="time-varying"),
    )


@pytest.fixture(scope="module")
def runs():
    """Results in ``SCHEDULERS`` order, freed when the module ends."""
    scenario = tv_scenario()
    results = run_many((scenario, s, RunConfig()) for s in SCHEDULERS)
    yield results
    results.clear()


def test_timevarying_report(benchmark, runs):
    for result in runs:
        assert result.jobs_submitted > 0
    summaries = benchmark.pedantic(
        lambda: [r.summary() for r in runs], rounds=1, iterations=1
    )
    by_name = {s.scheduler: s for s in summaries}
    text = comparison_table(
        summaries,
        title=(
            "Ablation — time-varying batch playback vs interactive "
            "exploration (8 nodes; batch gets zero cache reuse)"
        ),
        target_fps=100.0 / 3.0,
    )
    text += (
        "\nshape: with every batch frame on a different timestep, batch "
        "locality cannot exist; only OURS's deferral heuristics protect "
        "the interactive streams from the playback's I/O churn."
    )
    emit_report("ablation_timevarying", text)

    target = 100.0 / 3.0
    assert by_name["OURS"].interactive_fps > 0.7 * target
    assert by_name["OURS"].interactive_fps > by_name["FCFSL"].interactive_fps
    assert by_name["FCFS"].interactive_fps < 0.2 * target
