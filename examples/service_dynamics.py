#!/usr/bin/env python3
"""Watch the service's dynamics: backlog, utilization, completion rate.

Aggregate numbers hide the story; this example reads the probe
snapshots the metrics layer keeps (~64 over the horizon) from a
Scenario 2 run (memory pressure, mixed interactive+batch) and prints
text sparklines of the dynamics under OURS versus FCFSL:

* OURS: backlog stays bounded, the scheduler's deferred-batch queue
  absorbs pressure, completion rate tracks the request rate;
* FCFSL: batch-induced cold loads stall nodes, the node backlog spikes
  and the completion rate craters during every swap episode.

Run:
    python examples/service_dynamics.py [--scale 0.5]
"""

from __future__ import annotations

import argparse

from repro import RunConfig, run_simulation, scenario_2
from repro.reporting import sparkline


def describe(result) -> None:
    snaps = result.metrics.snapshots
    ticks = list(zip(snaps, snaps[1:]))
    print(f"--- {result.scheduler_name} ---")
    print(
        f"fps {result.interactive_fps:6.2f} | mean latency "
        f"{result.interactive_latency.mean:7.3f} s | hit rate "
        f"{result.hit_rate:.2%} | {len(snaps)} samples"
    )
    print(f"  node backlog (tasks) {sparkline([s.backlog for s in snaps])}")
    print(f"  busy nodes           {sparkline([s.busy for s in snaps])}")
    print(f"  deferred batch tasks {sparkline([s.deferred for s in snaps])}")
    rates = [(b.completed - a.completed) / (b.time - a.time) for a, b in ticks]
    print(f"  completions / s      {sparkline(rates)}")
    misses = [b.misses - a.misses for a, b in ticks]
    print(f"  cache misses / tick  {sparkline(misses)}")
    print()


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", type=float, default=0.5)
    args = parser.parse_args()

    scenario = scenario_2(scale=args.scale)
    print(scenario.summary())
    print()
    for name in ("OURS", "FCFSL"):
        result = run_simulation(scenario, name, config=RunConfig(metrics=True))
        describe(result)

    print(
        "Reading the sparklines: under FCFSL every batch submission on a "
        "cold dataset triggers 512 MiB loads on nodes that also serve "
        "interactive streams — visible as miss bursts followed by backlog "
        "spikes and completion-rate dips.  OURS holds those loads in its "
        "deferred queue until nodes go interactively idle."
    )


if __name__ == "__main__":
    main()
