"""Fig. 9 — scheduling cost / framerate / latency versus dataset count.

The paper runs 16 ANL nodes with 8 GB datasets and mixed interactive +
batch jobs while growing the number of datasets in use.  Three panels:

* scheduling cost grows with the dataset count — the O(p * m log m)
  pre-processing that categorizes incoming tasks by chunk — but stays
  two to three orders of magnitude below the rendering time;
* the interactive framerate remains stable near the target;
* interactive latency stays low even when total data exceeds the
  aggregate memory capacity (16 x 8 GB = 128 GB here, exceeded from 24
  datasets up).
"""

from __future__ import annotations

from functools import partial

import pytest

from benchmarks._shared import bench_scale, emit_report
from repro.core.chunks import dataset_suite
from repro.core.ours import OursScheduler
from repro.reporting.report import sweep_table
from repro.sim.config import system_anl
from repro.sim.run_config import RunConfig
from repro.sim.simulator import run_many
from repro.util.units import GiB
from repro.workload.actions import persistent_actions
from repro.workload.batch import poisson_batch_stream
from repro.workload.scenarios import Scenario
from repro.workload.trace import merge_traces

DATASET_COUNTS = [8, 16, 32, 64, 128]
DURATION = 10.0 * bench_scale(1.0)
INTERACTIVE_ACTIONS = 4  # ~4 concurrent 33 fps actions fit 16 nodes


def fig9_scenario(n_datasets: int) -> Scenario:
    system = system_anl(node_count=16)
    datasets = dataset_suite(n_datasets, 8 * GiB)
    # Interactive actions on a fixed-size working set (first datasets);
    # batch submissions range over all of them.
    action_datasets = [
        datasets[i % min(n_datasets, INTERACTIVE_ACTIONS)]
        for i in range(INTERACTIVE_ACTIONS)
    ]
    interactive = persistent_actions(
        action_datasets,
        DURATION,
        target_framerate=100.0 / 3.0,
        seed=7,
        name="fig9-interactive",
    )
    # Heavy batch pressure: the ε heuristic defers cold batch work while
    # interactive actions keep the nodes warm, so the head node carries
    # a standing backlog whose *chunk* diversity scales with the number
    # of datasets — the O(p * m log m) categorization cost of §VI-D.
    batch = poisson_batch_stream(
        datasets,
        DURATION,
        submission_rate=6.0,  # many small submissions: the backlog's
        mean_frames=15,  # chunk diversity then scales with #datasets
        seed=8,
        name="fig9-batch",
    )
    trace = merge_traces([interactive, batch], name=f"fig9-d{n_datasets}")
    return Scenario(name=f"fig9-d{n_datasets}", system=system, trace=trace)


@pytest.fixture(scope="module")
def runs():
    """``(result, scheduler)`` per (dataset count, early exit), freed
    when the module ends.  The runs are serial, so each scheduler
    instance is the one that ran and its sort counters are the run's."""
    schedulers = {
        (d, early_exit): OursScheduler(early_exit=early_exit)
        for early_exit in (False, True)
        for d in DATASET_COUNTS
    }
    results = run_many(
        (partial(fig9_scenario, d), scheduler, RunConfig())
        for (d, _), scheduler in schedulers.items()
    )
    pairs = dict(zip(schedulers, zip(results, schedulers.values())))
    yield pairs
    pairs.clear()


def test_fig9_report(benchmark, runs):
    for result, _ in runs.values():
        assert result.jobs_completed > 0

    def build():
        plain = [runs[(d, False)][0] for d in DATASET_COUNTS]
        return {
            "cost (us/job)": [r.sched_cost_us for r in plain],
            "cost-earlyexit": [
                runs[(d, True)][0].sched_cost_us for d in DATASET_COUNTS
            ],
            "fps": [r.interactive_fps for r in plain],
            "latency (s)": [r.interactive_latency.mean for r in plain],
        }

    series = benchmark.pedantic(build, rounds=1, iterations=1)
    sorters = [runs[(d, False)][1] for d in DATASET_COUNTS]
    series["sortwork/cyc"] = [
        s.backlog_chunks_sorted / max(s.cycles_run, 1) for s in sorters
    ]
    text = sweep_table(
        "# datasets",
        DATASET_COUNTS,
        series,
        title=(
            "Fig. 9 — OURS vs dataset count (16 ANL nodes, 8GB datasets, "
            "mixed interactive+batch; memory capacity = 16 datasets)"
        ),
        fmt="{:>12.3f}",
    )
    text += (
        "\npaper shape: scheduling cost rises with datasets (O(p*m log m) "
        "chunk categorization) yet stays orders of magnitude below render "
        "time; framerate stays near target; latency stays low even past "
        "the memory capacity.\nThe cost-earlyexit column is this repo's "
        "optimization beyond the paper (skip batch phases when all nodes "
        "are booked past the cycle): it flattens the cost curve."
    )
    emit_report("fig9_cost_vs_datasets", text)

    fps = series["fps"]
    cost = series["cost (us/job)"]
    target = 100.0 / 3.0
    # Framerate stable near target across the sweep.
    assert min(fps) > 0.85 * target
    # The O(p * m log m) categorization work grows with the dataset
    # count — asserted on the deterministic sorted-chunk counter, which
    # unlike wall-clock time is immune to measurement noise.
    work = series["sortwork/cyc"]
    assert work[-1] > 2.0 * work[0]
    # Scheduling cost stays far below the per-task render time (~6.5 ms).
    assert max(cost) < 6500
    # Latency stays interactive even past memory capacity.
    assert max(series["latency (s)"]) < 2.0
