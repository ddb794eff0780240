"""Memory probe: where the traced heap peaks during one simulation run.

Runs one simulation with ``tracemalloc`` on and samples the traced
memory once right after the arrival feed starts (wrapping
``EventQueue.feed``) and then every 4,000 task completions (wrapping
``RenderNode._finish``).  It keeps a snapshot at the largest sample and
prints the traced peak, the post-feed sample, the tasks in flight at
the largest sample (queued on nodes, running, and held by the
scheduler) with the traced bytes per in-flight task, and the ten
largest allocation sites of that snapshot, by source line.

Either replay one end-to-end benchmark workload with its exact inputs,
built by the benchmark's own ``workloads.build`` (frontend, fault storm
and observers included)::

    python tools/mempeak.py --workload immediate-s3
    python tools/mempeak.py --workload observed-storm --smoke

A workload replay first prints the setup stage (building the inputs):
its traced peak and the bytes the built inputs hold per request.  Or
run one (scenario, scheduler, scale) point::

    python tools/mempeak.py --scenario 2 --scheduler OURS --scale 3 --drain

``tracemalloc`` slows the run several times over and adds its own
bookkeeping to the resident size, so read the printed sizes against
each other, not against ``peak_rss_mb``.  Stdlib only.
"""

from __future__ import annotations

import argparse
import sys
import tempfile
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmarks" / "e2e")]

from repro.cluster.event_queue import EventQueue  # noqa: E402
from repro.cluster.node import RenderNode  # noqa: E402
from repro.sim.service import VisualizationService  # noqa: E402
from repro.sim.run_config import RunConfig  # noqa: E402
from repro.sim.simulator import run_simulation  # noqa: E402
from repro.workload.scenarios import make_scenario  # noqa: E402
from workloads import WORKLOADS, build  # noqa: E402

MiB = 1024 * 1024
SAMPLE_EVERY = 4000  # task completions between samples
TOP_SITES = 10


class _Sampler:
    """The largest traced-memory sample, with its snapshot and the
    run's tasks in flight at that moment."""

    def __init__(self) -> None:
        self.bytes = -1
        self.label = ""
        self.snapshot = None
        #: The run's service (set once it is built).
        self.service = None
        #: ``(queued on nodes, running, held by the scheduler)``.
        self.inflight = (0, 0, 0)

    def sample(self, label: str) -> int:
        current = tracemalloc.get_traced_memory()[0]
        if current > self.bytes:
            self.bytes = current
            self.label = label
            self.snapshot = tracemalloc.take_snapshot()
            service = self.service
            if service is not None:
                nodes = service.cluster.nodes
                self.inflight = (
                    sum(node.backlog for node in nodes),
                    sum(len(node._running) for node in nodes),
                    service.scheduler.pending_task_count(),
                )
        return current


def _probe(scenario, scheduler: str, config: RunConfig, title: str) -> int:
    """Run once under ``tracemalloc`` and print where the heap peaked."""
    best = _Sampler()
    after_feed = None
    completions = 0
    feed = EventQueue.feed
    finish = RenderNode._finish
    init = VisualizationService.__init__

    def sampling_feed(queue, *args, **kwargs):
        nonlocal after_feed
        feed(queue, *args, **kwargs)
        after_feed = best.sample("right after the arrival feed started")

    def sampling_finish(node, row):
        nonlocal completions
        finish(node, row)
        completions += 1
        if completions % SAMPLE_EVERY == 0:
            best.sample(f"completion {completions} (t={node._events.now:.3f} s)")

    def recording_init(service, *args, **kwargs):
        init(service, *args, **kwargs)
        best.service = service

    EventQueue.feed = sampling_feed
    RenderNode._finish = sampling_finish
    VisualizationService.__init__ = recording_init
    try:
        result = run_simulation(scenario, scheduler, config)
    finally:
        EventQueue.feed = feed
        RenderNode._finish = finish
        VisualizationService.__init__ = init
    peak = tracemalloc.get_traced_memory()[1]

    print(
        f"{title}: {result.jobs_completed}/{result.jobs_submitted} jobs, "
        f"{completions} task completions"
    )
    print(f"traced peak: {peak / MiB:.2f} MiB")
    if after_feed is not None:
        print(f"after the feed started: {after_feed / MiB:.1f} MiB")
    if best.snapshot is None:
        print("no sample taken (empty trace and no completion)")
        return 0
    print(f"sampled maximum: {best.bytes / MiB:.1f} MiB {best.label}")
    queued, running, held = best.inflight
    inflight = queued + running + held
    if inflight:
        print(
            f"in flight there: {inflight:,} tasks ({queued:,} queued on "
            f"nodes, {running:,} running, {held:,} held by the scheduler); "
            f"{best.bytes / inflight:.1f} traced bytes per in-flight task"
            + (
                f", {(best.bytes - after_feed) / inflight:.1f} above the "
                "post-feed heap"
                if after_feed is not None
                else ""
            )
        )
    print("top sites:")
    for stat in best.snapshot.statistics("lineno")[:TOP_SITES]:
        frame = stat.traceback[0]
        print(
            f"  {stat.size / MiB:8.2f} MiB {stat.count:>9} blocks  "
            f"{frame.filename}:{frame.lineno}"
        )
    return 0


def _report_setup(inputs, before: int) -> None:
    """Print the setup stage's traced peak and what the built inputs hold.

    The inputs are the trace plus the run's configuration, whose size
    does not grow with the trace, so the bytes they hold per request
    are the trace's bytes per request (a bound from above).
    """
    held, peak = tracemalloc.get_traced_memory()
    requests = len(inputs.scenario.trace.requests)
    print(
        f"setup: traced peak {(peak - before) / MiB:.1f} MiB; the built "
        f"inputs hold {(held - before) / MiB:.2f} MiB, "
        f"{(held - before) / max(requests, 1):.1f} bytes per request "
        f"({requests} requests)"
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload",
        choices=sorted(WORKLOADS),
        help="replay this end-to-end benchmark workload's inputs",
    )
    parser.add_argument(
        "--smoke", action="store_true", help="the workload at its smoke size"
    )
    parser.add_argument(
        "--seed", type=int, default=None, help="trace seed (the storm's for "
        "observed-storm)"
    )
    parser.add_argument(
        "--scenario", type=int, default=2, help="Table II scenario 1-4"
    )
    parser.add_argument("--scheduler", default="OURS")
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--load", type=float, default=1.0)
    parser.add_argument("--drain", action="store_true", help="run until idle")
    args = parser.parse_args(argv)
    if args.smoke and args.workload is None:
        parser.error("--smoke needs --workload")

    tracemalloc.start()
    try:
        if args.workload is None:
            scenario = make_scenario(
                args.scenario, scale=args.scale, seed=args.seed, load=args.load
            )
            return _probe(
                scenario,
                args.scheduler,
                RunConfig(drain=args.drain),
                f"scenario {args.scenario} {args.scheduler} scale {args.scale}",
            )
        workload = WORKLOADS[args.workload]
        with tempfile.TemporaryDirectory() as out_dir:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            inputs = build(
                workload, args.seed, smoke=args.smoke, out_dir=Path(out_dir)
            )
            _report_setup(inputs, before)
            tracemalloc.reset_peak()
            return _probe(
                inputs.scenario,
                workload.scheduler,
                inputs.config,
                f"{workload.name}{' (smoke)' if args.smoke else ''}",
            )
    finally:
        tracemalloc.stop()


if __name__ == "__main__":
    sys.exit(main())
