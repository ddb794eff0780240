"""Call counter: Python and C calls per task in one simulation run.

Replays end-to-end benchmark workloads with their exact inputs, built by
the benchmark's own ``workloads.build`` (frontend, fault storm and
observers included), under ``sys.setprofile``.  It counts every
Python-level call (the profiler's ``call`` events, generator resumptions
included) and every call that Python bytecode makes into a C function
(``c_call`` events), then prints both per executed task and per placed
task.  A run with a frontend also prints its Python calls per arrival:
the calls made inside
:meth:`~repro.frontend.frontend.ServiceFrontend.submit_request`'s
subtree, found with a depth counter on the same profiler and divided by
the requests the frontend saw, once without and once with the entry
call itself::

    python tools/callcount.py --smoke                  # all five workloads
    python tools/callcount.py --workload backlog-s4 --smoke

Calls that C code makes internally (``filter`` calling a predicate,
``sorted`` comparing tuples) raise no event, so moving a loop into C
shows up as fewer calls.  The same command repeats its counts
exactly, unlike wall-clock time, which makes them the measure to quote
for a change to a hot path (replaying one workload alone can differ by
a few calls from replaying it after the others, as first-use caches
fill).  The profiler slows the run several times over, so the tool
prints no times.  Stdlib only; not a CI gate.
"""

from __future__ import annotations

import argparse
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmarks" / "e2e")]

from repro.frontend.frontend import ServiceFrontend  # noqa: E402
from repro.sim.simulator import run_simulation  # noqa: E402
from workloads import WORKLOADS, build  # noqa: E402


#: The arrival path's entry point; calls below it count per arrival.
_ARRIVAL_ENTRY = ServiceFrontend.submit_request.__code__


def count_calls(scenario, scheduler, config):
    """Run once under the profiler.

    Returns ``(result, python, c, arrival)``: ``arrival`` is the number
    of Python calls made inside ``submit_request``'s subtree.
    """
    tally = dict.fromkeys(("call", "return", "c_call", "c_return", "c_exception"), 0)
    depth = 0
    arrival = 0

    def profiler(frame, event, arg):
        nonlocal depth, arrival
        tally[event] += 1
        if depth:
            if event == "call":
                depth += 1
                arrival += 1
            elif event == "return":
                depth -= 1
        elif event == "call" and frame.f_code is _ARRIVAL_ENTRY:
            depth = 1

    sys.setprofile(profiler)
    try:
        result = run_simulation(scenario, scheduler, config)
    finally:
        sys.setprofile(None)
    return result, tally["call"], tally["c_call"], arrival


def _report(
    title: str, result, python_calls: int, c_calls: int, arrival_calls: int
) -> None:
    executed = result.tasks_executed
    placed = result.collector.scheduling.tasks_assigned
    print(
        f"{title}: {executed:,} tasks executed, {placed:,} placed, "
        f"{python_calls:,} Python and {c_calls:,} C calls"
    )
    for unit, tasks in (("executed", executed), ("placed", placed)):
        if tasks:
            print(
                f"  per {unit} task: {python_calls / tasks:6.2f} Python, "
                f"{c_calls / tasks:6.2f} C"
            )
    frontend = result.frontend
    if frontend is not None and frontend.requests_seen:
        seen = frontend.requests_seen
        print(
            f"  Python calls per arrival: {arrival_calls / seen:6.2f} below "
            f"submit_request, {(arrival_calls + seen) / seen:.2f} with it "
            f"({arrival_calls:,} over {seen:,} arrivals)"
        )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload",
        choices=sorted(WORKLOADS),
        help="replay only this end-to-end benchmark workload (default: all)",
    )
    parser.add_argument(
        "--smoke", action="store_true", help="the workloads at their smoke size"
    )
    parser.add_argument(
        "--seed", type=int, default=None, help="trace seed (the storm's for "
        "observed-storm)"
    )
    args = parser.parse_args(argv)
    names = [args.workload] if args.workload else list(WORKLOADS)
    with tempfile.TemporaryDirectory() as out_dir:
        for name in names:
            workload = WORKLOADS[name]
            inputs = build(workload, args.seed, smoke=args.smoke, out_dir=Path(out_dir))
            result, python_calls, c_calls, arrival_calls = count_calls(
                inputs.scenario, workload.scheduler, inputs.config
            )
            _report(
                f"{name}{' (smoke)' if args.smoke else ''}",
                result,
                python_calls,
                c_calls,
                arrival_calls,
            )
    return 0


if __name__ == "__main__":
    sys.exit(main())
