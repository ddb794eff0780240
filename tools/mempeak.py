"""Memory probe: where the traced heap peaks during one simulation run.

Runs one (scenario, scheduler, scale, drain) point with ``tracemalloc``
on, samples the traced memory every 4,000 task completions (from a
wrapper around ``RenderNode._finish``), keeps a snapshot at the largest
sample, and prints the traced peak and the ten largest allocation sites
of that snapshot, by source line::

    python tools/mempeak.py --scenario 3 --scheduler FCFSU --scale 0.065 \\
        --seed 3 --requests 4000 --drain

``--requests N`` keeps the first N arrivals of the generated trace
(doubling the scale until it has more), through the end-to-end
benchmark's own helper; the line above is its ``immediate-s3``
workload.  ``tracemalloc`` slows the run several times over and adds
its own bookkeeping to the resident size, so read the printed sizes
against each other, not against ``peak_rss_mb``.
Stdlib only; not part of CI.
"""

from __future__ import annotations

import argparse
import sys
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmarks" / "e2e")]

from repro.cluster.node import RenderNode  # noqa: E402
from repro.sim.run_config import RunConfig  # noqa: E402
from repro.sim.simulator import run_simulation  # noqa: E402
from repro.workload.scenarios import make_scenario  # noqa: E402
from workloads import _first_requests  # noqa: E402

MiB = 1024 * 1024
SAMPLE_EVERY = 4000  # task completions between samples
TOP_SITES = 10


def _scenario(args):
    if args.requests is None:
        return make_scenario(
            args.scenario, scale=args.scale, seed=args.seed, load=args.load
        )
    return _first_requests(
        args.scenario, args.scale, args.seed, args.load, args.requests
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--scenario", type=int, default=2, help="Table II scenario 1-4"
    )
    parser.add_argument("--scheduler", default="OURS")
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--seed", type=int, default=None, help="trace seed")
    parser.add_argument("--load", type=float, default=1.0)
    parser.add_argument(
        "--requests", type=int, default=None, help="keep the first N arrivals"
    )
    parser.add_argument("--drain", action="store_true", help="run until idle")
    args = parser.parse_args(argv)

    tracemalloc.start()
    scenario = _scenario(args)
    best = {"bytes": -1, "completions": 0, "time": 0.0, "snapshot": None}
    completions = 0
    finish = RenderNode._finish

    def sampling_finish(node, task):
        nonlocal completions
        finish(node, task)
        completions += 1
        if completions % SAMPLE_EVERY:
            return
        current = tracemalloc.get_traced_memory()[0]
        if current > best["bytes"]:
            best.update(
                bytes=current,
                completions=completions,
                time=task.finish_time,
                snapshot=tracemalloc.take_snapshot(),
            )

    RenderNode._finish = sampling_finish
    try:
        result = run_simulation(
            scenario, args.scheduler, RunConfig(drain=args.drain)
        )
    finally:
        RenderNode._finish = finish
    peak = tracemalloc.get_traced_memory()[1]
    snapshot = best["snapshot"]
    tracemalloc.stop()

    print(
        f"scenario {args.scenario} {args.scheduler} scale {args.scale}: "
        f"{result.jobs_completed}/{result.jobs_submitted} jobs, "
        f"{completions} task completions"
    )
    print(f"traced peak: {peak / MiB:.1f} MiB")
    if snapshot is None:
        print(f"no sample taken (fewer than {SAMPLE_EVERY} completions)")
        return 0
    print(
        f"sampled maximum: {best['bytes'] / MiB:.1f} MiB at completion "
        f"{best['completions']} (t={best['time']:.3f} s); top sites:"
    )
    for stat in snapshot.statistics("lineno")[:TOP_SITES]:
        frame = stat.traceback[0]
        print(
            f"  {stat.size / MiB:8.2f} MiB {stat.count:>9} blocks  "
            f"{frame.filename}:{frame.lineno}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
