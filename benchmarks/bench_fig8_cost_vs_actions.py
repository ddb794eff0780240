"""Fig. 8 — scheduling cost versus the number of simultaneous actions.

The paper runs 32 ANL nodes with 16 datasets (4 GB each) and sweeps the
number of simultaneous user actions.  The FCFS-family schedules one job
at a time (per-job cost independent of the action count but linear in
cluster size); OURS and FS run on a constant cycle and amortize the
per-cycle work across all jobs of the cycle, so their per-job cost
*drops* as more simultaneous actions arrive — the paper's "can more
efficiently process incoming jobs as more simultaneous user actions are
taking place".
"""

from __future__ import annotations

import pytest

from benchmarks._shared import bench_scale, emit_report
from repro.core.chunks import dataset_suite
from repro.sim.config import system_anl
from repro.sim.sweep import sweep
from repro.util.units import GiB
from repro.workload.actions import persistent_actions
from repro.workload.scenarios import Scenario

ACTION_COUNTS = [8, 16, 32, 64, 128]
SCHEDULERS = ["OURS", "FCFSL", "FCFSU"]
DURATION = 10.0 * bench_scale(1.0)


def fig8_scenario(actions: int) -> Scenario:
    """32 ANL nodes, 16 x 4 GB datasets, ``actions`` persistent actions."""
    system = system_anl(node_count=32)
    datasets = dataset_suite(16, 4 * GiB)
    # Action i explores dataset i mod 16 (several users per dataset at
    # high action counts, as in a busy shared service).
    trace = persistent_actions(
        datasets,
        DURATION,
        actions=actions,
        target_framerate=100.0 / 3.0,
        seed=42,
        name="fig8",
    )
    return Scenario(name=f"fig8-a{actions}", system=system, trace=trace)


@pytest.fixture(scope="module")
def runs():
    """The action-count x scheduler grid, freed when the module ends."""
    result = sweep("# user actions", ACTION_COUNTS, fig8_scenario, SCHEDULERS)
    yield result
    result.results.clear()


def test_fig8_report(benchmark, runs):
    for r in runs.results.values():
        assert r.jobs_completed > 0
    series = benchmark.pedantic(
        runs.series, args=(lambda r: r.sched_cost_us,), rounds=1, iterations=1
    )
    text = runs.table(
        lambda r: r.sched_cost_us,
        title=(
            "Fig. 8 — per-job scheduling cost (us) vs simultaneous user "
            "actions (32 ANL nodes, 16x4GB datasets)"
        ),
    )
    text += (
        "\npaper shape: OURS amortizes its constant-cycle scheduling "
        "across all jobs of a cycle, so its per-job cost falls (or stays "
        "flat) with more actions, while per-job FCFS-family costs do not."
    )
    emit_report("fig8_cost_vs_actions", text)

    ours = series["OURS"]
    fcfsu = series["FCFSU"]
    # OURS per-job cost stays roughly flat across a 16x action increase
    # (amortized scheduling); allow generous wall-clock noise headroom.
    assert ours[-1] <= 1.6 * ours[0]
    # FCFSU (whole-cluster jobs) is the most expensive policy per job at
    # every point of the sweep.
    for i in range(len(ACTION_COUNTS)):
        assert ours[i] < fcfsu[i]
