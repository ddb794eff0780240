"""One timed repeat of one workload, in a fresh process.

``run.py`` starts this script once per repeat so every repeat starts
from the same interpreter state and reports its own peak RSS.  The
repeat:

1. builds the workload inputs (timed: ``setup``);
2. with ``--trace``, wraps the layer entry points (:mod:`layertrace`);
3. runs the calibration loop, then ``run_simulation`` plus
   ``result.summary()`` (timed: ``run``), then the calibration loop
   again;
4. restores every wrapped attribute, digests the simulated statistics
   and checks the run's invariants;
5. prints one JSON object with the raw measurements on stdout.

Usage::

    PYTHONPATH=src python benchmarks/e2e/repeat.py --workload paper-s2 \
        [--seed N] [--smoke] [--trace]
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import time
from pathlib import Path
from typing import Optional

from calibrate import calibrate
from layertrace import LayerTrace, wrapper_cost_ns
from workloads import WORKLOADS, build, digest, violations

from repro.core.registry import make_scheduler
from repro.sim import simulator

HERE = Path(__file__).resolve().parent
OUT_DIR = HERE / "out"


def _rss_mib() -> float:
    """Peak resident set size of this process in MiB (Linux: KiB units)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _pin_to_one_core() -> None:
    """Keep the run and both calibration loops on the same core.

    Neighbour noise differs from core to core, so a process that
    migrates mid-run would be calibrated against the wrong core.
    """
    try:
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    except (AttributeError, OSError):
        pass  # no affinity control on this platform: run unpinned


def _observability_counts(result) -> dict:
    """Work done by the frontend, faults and obs layers (0 when off)."""
    frontend = result.frontend
    return {
        "frontend_seen": frontend.requests_seen if frontend is not None else 0,
        "frontend_forwarded": frontend.forwarded if frontend is not None else 0,
        "recovery_actions": (
            len(result.fault_report.actions) if result.fault_report is not None else 0
        ),
        "trace_events": len(result.tracer) if result.tracer is not None else 0,
        "audit_records": len(result.audit) if result.audit is not None else 0,
        "stream_snapshots": (
            result.stream.snapshots if result.stream is not None else 0
        ),
    }


def run_repeat(name: str, seed: Optional[int], *, smoke: bool, trace: bool) -> dict:
    """Run one repeat in this process and return its raw measurements."""
    workload = WORKLOADS[name]
    t0 = time.perf_counter()
    inputs = build(workload, seed, smoke=smoke, out_dir=OUT_DIR)
    setup_s = time.perf_counter() - t0

    scheduler = make_scheduler(workload.scheduler)
    layer_trace = None
    wrapper_ns = None
    if trace:
        wrapper_ns = wrapper_cost_ns()
        layer_trace = LayerTrace()
        layer_trace.install(type(scheduler))
    patched = layer_trace.installed if layer_trace is not None else []
    try:
        calib_before = calibrate()
        t0 = time.perf_counter()
        result = simulator.run_simulation(
            inputs.scenario, scheduler, config=inputs.config
        )
        result.summary()
        run_s = time.perf_counter() - t0
        calib_after = calibrate()
    finally:
        if layer_trace is not None:
            layer_trace.restore()
        for path in inputs.temp_files:
            path.unlink(missing_ok=True)

    scheduling = result.collector.scheduling
    sample = {
        "workload": name,
        "inputs": workload.inputs_key(seed),
        "smoke": smoke,
        "traced": trace,
        "setup_raw_s": setup_s,
        "run_raw_s": run_s,
        "calib_s": [calib_before, calib_after],
        "peak_rss_mb": _rss_mib(),
        "requests": len(inputs.scenario.trace.requests),
        "events": result.events_processed,
        "tasks": result.tasks_executed,
        "records": len(result.records),
        "hit_rate": result.hit_rate,
        "digest": digest(result),
        "violations": violations(inputs, result),
        "sched_cost_raw_us": result.sched_cost_us,
        "sched_invocations": scheduling.invocations,
        "sched_tasks_assigned": scheduling.tasks_assigned,
        "backlog_chunks_sorted": getattr(scheduler, "backlog_chunks_sorted", 0),
        "backlog_sorts_avoided": getattr(scheduler, "backlog_sorts_avoided", 0),
    }
    sample.update(_observability_counts(result))
    if layer_trace is not None:
        trace_file = OUT_DIR / f"trace-{name}{'-smoke' if smoke else ''}.json"
        sample.update(
            restored=all(
                owner.__dict__.get(attr) is original
                for owner, attr, original in patched
            ),
            wrapped=len(patched),
            wrapper_ns=wrapper_ns,
            layers=layer_trace.layer_table(),
            entries=layer_trace.entry_table(),
            schedule_ns=sorted(layer_trace.schedule_ns),
            storage_loads=layer_trace.entry_calls("StorageModel.begin_load"),
            trace_file=str(trace_file),
            spans=layer_trace.write_chrome(trace_file),
        )
    return sample


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    _pin_to_one_core()
    sample = run_repeat(args.workload, args.seed, smoke=args.smoke, trace=args.trace)
    print(json.dumps(sample))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
