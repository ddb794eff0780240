"""End-to-end simulator benchmark: five workloads, calibrated, traced.

Every timed repeat runs in its own fresh process (``repeat.py``), and
repeats are interleaved round-robin across the selected workloads.  The
command prints every end-to-end metric by name with its unit, median,
quartiles and sample count, and checks that the simulated outputs are
correct (digest and invariants).  A separate traced run per workload
then gives the per-layer numbers (``layertrace.py``).

Timings are reported in reference-machine seconds (``calibrate.py``):
each repeat runs the calibration loop before and after its simulation,
and a workload's raw timings are scaled by ``CALIB_REF_S`` over the
median of all its calibration samples.  Per-repeat loop timings follow
sub-second neighbour noise the simulation does not share; their median
over a run follows the slow drift that it does share.

Usage::

    python benchmarks/e2e/run.py [--workloads a,b] [--seed N]
        [--repeats 5] [--no-trace] [--smoke] [--json PATH]
    python benchmarks/e2e/run.py --workload paper-s2 --seed 3 \
        --seconds 24 --trace 0
    python benchmarks/e2e/run.py --calibrate
    python benchmarks/e2e/run.py --update-expected

With ``--seconds``, untraced repeats continue until the time budget
(per workload) is spent, at least :data:`MIN_REPEATS` of them.  The
last line of standard output is one JSON object ``{"correct",
"attempted", "failed", "metrics"}``: the end-to-end metrics, or the
per-layer ones when a traced run was made (nested by workload when
several ran).  The exit code is 0 only when every run was correct, and
2 when the simulator sources are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
EXPECTED = HERE / "expected.json"

#: Fewest untraced repeats a time-bounded, untraced run makes.
MIN_REPEATS = 3

#: Wall seconds after which a repeat is killed and counted as failed.
REPEAT_TIMEOUT_S = 150.0

#: A time-bounded invocation stops starting repeats after this long.
TOTAL_LIMIT_S = 170.0

#: A traced run costs at most this many untraced repeats.
TRACED_COST = 2.5

#: ``(name, unit, better, bound)`` of the end-to-end metrics; ``bound``
#: is the share of the parent's median by which a metric may worsen.
E2E_METRICS: Tuple[Tuple[str, str, str, float], ...] = (
    ("setup_s", "s", "lower", 0.25),
    ("run_s", "s", "lower", 0.25),
    ("requests_per_s", "requests/s", "higher", 0.25),
    ("peak_rss_mb", "MiB", "lower", 0.15),
)

#: Layers that work on every workload.  frontend, faults and obs work
#: only on observed-storm, so their self time would read 0 elsewhere and
#: is reported in the layer table but not as a named metric.
ALWAYS_ON_LAYERS = (
    "simulator",
    "event_queue",
    "service",
    "scheduler",
    "tables",
    "node",
    "collectors",
    "analysis",
)

#: ``(name, unit, better)`` of the per-layer metrics beyond the
#: ``<layer>.calls`` / ``.self_s`` / ``.self_share`` triple.
LAYER_EXTRAS: Tuple[Tuple[str, str, str], ...] = (
    ("event_queue.events", "count", "lower"),
    ("event_queue.self_ns_per_event", "ns", "lower"),
    ("scheduler.invocations", "count", "lower"),
    ("scheduler.call_p50_us", "us", "lower"),
    ("scheduler.call_p99_us", "us", "lower"),
    ("scheduler.tasks_per_invocation", "count", "higher"),
    ("scheduler.sched_cost_us", "us", "lower"),
    ("scheduler.backlog_chunks_sorted", "count", "lower"),
    ("scheduler.sorts_avoided_ratio", "ratio", "higher"),
    ("tables.calls_per_task", "count", "lower"),
    ("node.tasks", "count", "higher"),
    ("node.cache_hit_ratio", "ratio", "higher"),
    ("node.storage_loads", "count", "lower"),
    ("collectors.records", "count", "higher"),
    ("frontend.forwarded_ratio", "ratio", "higher"),
    ("faults.recovery_actions", "count", "lower"),
    ("obs.trace_events", "count", "lower"),
    ("obs.audit_records", "count", "lower"),
    ("obs.stream_snapshots", "count", "lower"),
    ("trace.overhead", "ratio", "lower"),
    ("trace.wrapper_ns", "ns", "lower"),
)


def per_layer_catalogue(layers: Sequence[str]) -> List[Tuple[str, str, str]]:
    """``(name, unit, better)`` of every per-layer metric."""
    out: List[Tuple[str, str, str]] = []
    for layer in layers:
        out.append((f"{layer}.calls", "count", "lower"))
        if layer in ALWAYS_ON_LAYERS:
            out.append((f"{layer}.self_s", "s", "lower"))
        out.append((f"{layer}.self_share", "ratio", "lower"))
    return out + list(LAYER_EXTRAS)


# -- statistics ------------------------------------------------------------


def summarize(values: Sequence[float]) -> Dict[str, float]:
    """Median, quartiles (``statistics.quantiles``, n=4) and count."""
    vals = sorted(values)
    if len(vals) >= 2:
        q1, median, q3 = statistics.quantiles(vals, n=4)
    else:
        q1 = median = q3 = vals[0]
    return {"median": median, "q1": q1, "q3": q3, "n": len(vals)}


def _percentile(sorted_values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of an already sorted sequence."""
    if not sorted_values:
        return 0.0
    rank = max(0, min(len(sorted_values) - 1, round(q * len(sorted_values)) - 1))
    return sorted_values[rank]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# -- one repeat ------------------------------------------------------------


def run_child(
    workload: str,
    seed: Optional[int],
    *,
    smoke: bool,
    trace: bool,
    timeout: float,
) -> Tuple[Optional[dict], str]:
    """Run one repeat in a fresh process; ``(sample, error)``."""
    cmd = [sys.executable, str(HERE / "repeat.py"), "--workload", workload]
    if seed is not None:
        cmd += ["--seed", str(seed)]
    if smoke:
        cmd.append("--smoke")
    if trace:
        cmd.append("--trace")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH", "")) if p
    )
    try:
        proc = subprocess.run(
            cmd, capture_output=True, text=True, timeout=timeout, env=env
        )
    except subprocess.TimeoutExpired:
        return None, f"timed out after {timeout:.0f} s"
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-5:]
        return None, f"exit {proc.returncode}: " + " | ".join(tail)
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1]), ""
    except (IndexError, ValueError) as exc:
        return None, f"unreadable output: {exc}"


class WorkloadRuns:
    """Every run of one workload, its verdicts, and its metrics."""

    def __init__(self, name: str, expected: Optional[str], ref_s: float) -> None:
        self.name = name
        self.expected = expected
        self.ref_s = ref_s
        #: Correct untraced repeats, then the correct traced run.
        self.samples: List[dict] = []
        self.traced: Optional[dict] = None
        self.attempted = 0
        self.failures: List[str] = []
        #: Digest of the first correct run: every later one must match.
        self.reference: Optional[str] = None
        self.walls: List[float] = []

    def judge(self, sample: Optional[dict], error: str, wall: float) -> bool:
        """Record one run; returns whether it was correct."""
        self.attempted += 1
        self.walls.append(wall)
        problems = [error] if sample is None else list(sample["violations"])
        if sample is not None:
            got = sample["digest"]
            if self.expected is not None and got != self.expected:
                problems.append(f"digest {got[:12]} != expected {self.expected[:12]}")
            if self.reference is None:
                self.reference = got
            elif got != self.reference:
                problems.append(f"digest {got[:12]} differs from earlier runs")
            if sample["traced"] and not sample["restored"]:
                problems.append("a wrapped attribute was not restored")
        if problems:
            kind = "traced run" if sample and sample["traced"] else "repeat"
            self.failures.append(f"{self.name} {kind}: " + "; ".join(problems))
            return False
        if sample["traced"]:
            self.traced = sample
        else:
            self.samples.append(sample)
        return True

    @property
    def failed(self) -> int:
        return len(self.failures)

    @property
    def calib_s(self) -> float:
        """Median of every calibration-loop timing of this workload."""
        runs = self.samples + ([self.traced] if self.traced else [])
        return statistics.median(c for s in runs for c in s["calib_s"])

    def normalized(self, sample: dict) -> Dict[str, float]:
        """One run's end-to-end metrics in reference-machine units."""
        factor = self.ref_s / self.calib_s
        run_s = sample["run_raw_s"] * factor
        return {
            "setup_s": sample["setup_raw_s"] * factor,
            "run_s": run_s,
            "requests_per_s": sample["requests"] / run_s,
            "peak_rss_mb": sample["peak_rss_mb"],
            "sched_cost_us": sample["sched_cost_raw_us"] * factor,
        }

    def e2e(self) -> Dict[str, Dict[str, float]]:
        """Summaries of every end-to-end metric over untraced repeats."""
        if not self.samples:
            return {}
        rows = [self.normalized(s) for s in self.samples]
        out = {}
        for name, unit, _, _ in E2E_METRICS:
            out[name] = dict(summarize([r[name] for r in rows]), unit=unit)
        return out

    def per_layer(self) -> Dict[str, float]:
        """Per-layer metrics from the traced run (plus untraced medians)."""
        t = self.traced
        if t is None or not self.samples:
            return {}
        factor = self.ref_s / self.calib_s
        layers = t["layers"]
        total_ns = sum(row["self_ns"] for row in layers.values())
        out: Dict[str, float] = {}
        for layer, row in layers.items():
            out[f"{layer}.calls"] = row["calls"]
            if layer in ALWAYS_ON_LAYERS:
                out[f"{layer}.self_s"] = row["self_ns"] / 1e9 * factor
            out[f"{layer}.self_share"] = _ratio(row["self_ns"], total_ns)
        sched_ns = t["schedule_ns"]
        untraced = [self.normalized(s) for s in self.samples]
        untraced_run = statistics.median(r["run_s"] for r in untraced)
        out.update(
            {
                "event_queue.events": t["events"],
                "event_queue.self_ns_per_event": _ratio(
                    layers["event_queue"]["self_ns"] * factor, t["events"]
                ),
                "scheduler.invocations": len(sched_ns),
                "scheduler.call_p50_us": _percentile(sched_ns, 0.50) / 1e3 * factor,
                "scheduler.call_p99_us": _percentile(sched_ns, 0.99) / 1e3 * factor,
                "scheduler.tasks_per_invocation": _ratio(
                    t["sched_tasks_assigned"], t["sched_invocations"]
                ),
                "scheduler.sched_cost_us": statistics.median(
                    r["sched_cost_us"] for r in untraced
                ),
                "scheduler.backlog_chunks_sorted": t["backlog_chunks_sorted"],
                "scheduler.sorts_avoided_ratio": _ratio(
                    t["backlog_sorts_avoided"], t["backlog_chunks_sorted"]
                ),
                "tables.calls_per_task": _ratio(layers["tables"]["calls"], t["tasks"]),
                "node.tasks": t["tasks"],
                "node.cache_hit_ratio": t["hit_rate"],
                "node.storage_loads": t["storage_loads"],
                "collectors.records": t["records"],
                "frontend.forwarded_ratio": _ratio(
                    t["frontend_forwarded"], t["frontend_seen"]
                ),
                "faults.recovery_actions": t["recovery_actions"],
                "obs.trace_events": t["trace_events"],
                "obs.audit_records": t["audit_records"],
                "obs.stream_snapshots": t["stream_snapshots"],
                "trace.overhead": _ratio(t["run_raw_s"] * factor, untraced_run),
                "trace.wrapper_ns": t["wrapper_ns"] * factor,
            }
        )
        return out

    def report(self) -> dict:
        """Everything measured, for ``--json``."""
        runs = self.samples + ([self.traced] if self.traced else [])
        return {
            "attempted": self.attempted,
            "failed": self.failed,
            "failures": self.failures,
            "calib_s": self.calib_s if runs else None,
            "metrics": self.e2e(),
            "per_layer": self.per_layer(),
            "samples": [
                dict(
                    {k: v for k, v in s.items() if k != "schedule_ns"},
                    normalized=self.normalized(s),
                )
                for s in runs
            ],
        }


# -- scheduling of repeats -------------------------------------------------


def run_all(
    runs: Dict[str, WorkloadRuns],
    *,
    seed: Optional[int],
    repeats: int,
    seconds: Optional[float],
    trace: bool,
    smoke: bool,
) -> None:
    """Interleaved untraced repeats, then one traced run per workload."""
    names = list(runs)
    start = time.perf_counter()
    budget = None if seconds is None else seconds * len(names)

    def one(name: str, traced: bool) -> None:
        timeout = REPEAT_TIMEOUT_S
        if budget is not None:
            left = TOTAL_LIMIT_S - (time.perf_counter() - start)
            timeout = max(10.0, min(timeout, left))
        t0 = time.perf_counter()
        sample, error = run_child(
            name, seed, smoke=smoke, trace=traced, timeout=timeout
        )
        r = runs[name]
        kind = "traced" if traced else "repeat"
        if r.judge(sample, error, time.perf_counter() - t0):
            print(
                f"  {name:<15} {kind:<6} run {sample['run_raw_s']:7.4f} s raw  "
                f"calib {statistics.fmean(sample['calib_s']):.4f} s",
                flush=True,
            )
        else:
            print(f"  {name:<15} {kind:<6} FAILED: {r.failures[-1]}", flush=True)

    # A traced run needs only one untraced repeat to compare with.
    min_rounds = 1 if trace else MIN_REPEATS

    def another_round(rounds: int) -> bool:
        if budget is None:
            return rounds < repeats
        if rounds < min_rounds:
            return True
        worst = max(w for r in runs.values() for w in r.walls)
        reserve = TRACED_COST if trace else 0.0
        elapsed = time.perf_counter() - start
        return elapsed + (1.0 + reserve) * len(names) * worst <= budget

    rounds = 0
    while another_round(rounds):
        for name in names:
            one(name, traced=False)
        rounds += 1
    if trace:
        for name in names:
            one(name, traced=True)


# -- reporting -------------------------------------------------------------


def format_e2e(r: WorkloadRuns) -> List[str]:
    lines = [
        f"{r.name}: {len(r.samples)} repeats, {r.failed}/{r.attempted} runs "
        f"failed (failed_frac {_ratio(r.failed, r.attempted):.3f})"
    ]
    if not r.samples:
        return lines
    lines[0] += f", calib_s {r.calib_s:.4f} s"
    bounds = {name: bound for name, _, _, bound in E2E_METRICS}
    for name, stats in r.e2e().items():
        spread = _ratio(stats["q3"] - stats["q1"], stats["median"])
        flag = "  UNRESOLVED: spread > bound" if spread > bounds[name] else ""
        lines.append(
            f"  {name:<15} {stats['median']:12.4f} {stats['unit']:<10} "
            f"q1 {stats['q1']:.4f}  q3 {stats['q3']:.4f}  n={stats['n']}  "
            f"spread {spread:6.2%} (bound {bounds[name]:.0%}){flag}"
        )
    return lines


def format_layers(r: WorkloadRuns, metrics: Dict[str, float]) -> List[str]:
    t = r.traced
    if t is None or not metrics:
        return []
    factor = r.ref_s / r.calib_s
    lines = [
        f"{r.name}: traced run, overhead {metrics['trace.overhead']:.2f}x, "
        f"wrapper {metrics['trace.wrapper_ns']:.0f} ns/call, "
        f"{t['spans']} spans -> {t['trace_file']}",
        f"  {'layer':<12} {'calls':>10} {'self s (ref)':>13} {'share':>7}",
    ]
    for layer, row in t["layers"].items():
        share = metrics[f"{layer}.self_share"]
        self_s = row["self_ns"] / 1e9 * factor
        lines.append(f"  {layer:<12} {row['calls']:>10} {self_s:>13.4f} {share:>7.1%}")
    for name, _, _ in LAYER_EXTRAS:
        lines.append(f"  {name:<34} {metrics[name]:.6g}")
    return lines


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Calibrated end-to-end simulator benchmark."
    )
    add = parser.add_argument
    add("--workloads", "--workload", help="comma-separated workload names")
    add("--seed", type=int, help="input seed (default: each workload's own)")
    add("--repeats", type=int, default=5, help="untraced repeats per workload")
    add("--seconds", type=float, help="time budget per workload (replaces --repeats)")
    add("--trace", type=int, choices=(0, 1), default=1, help="traced run per workload")
    add("--no-trace", dest="trace", action="store_const", const=0, help="--trace 0")
    add("--smoke", action="store_true", help="1/20-size inputs, one repeat, traced")
    add("--json", type=Path, help="write every sample and metric here")
    add("--calibrate", action="store_true", help="print this machine's calib_s")
    add("--update-expected", action="store_true", help="record this run's digests")
    args = parser.parse_args(argv)

    if not (SRC / "repro").is_dir():
        print(f"error: simulator sources not found at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from calibrate import CALIB_REF_S, calibrate
    from layertrace import LAYERS
    from workloads import WORKLOADS

    if args.calibrate:
        values = [calibrate() for _ in range(7)]
        print(
            f"calib_s median {statistics.median(values):.4f} s over 7 loops "
            f"(calib_ref_s {CALIB_REF_S})"
        )
        return 0

    spec = args.workloads or ",".join(WORKLOADS)
    names = [n.strip() for n in spec.split(",") if n.strip()]
    unknown = [n for n in names if n not in WORKLOADS]
    if unknown:
        parser.error(f"unknown workload(s) {unknown}; choose from {sorted(WORKLOADS)}")
    if args.repeats < 1:
        parser.error("--repeats must be >= 1")
    trace = bool(args.trace) or args.smoke
    expected = json.loads(EXPECTED.read_text()) if EXPECTED.exists() else {}

    def expected_digest(name: str) -> Optional[str]:
        if args.smoke or args.update_expected:
            return None
        return expected.get(name, {}).get(WORKLOADS[name].inputs_key(args.seed))

    runs = {
        name: WorkloadRuns(name, expected_digest(name), CALIB_REF_S) for name in names
    }
    t0 = time.perf_counter()
    run_all(
        runs,
        seed=args.seed,
        repeats=1 if args.smoke else args.repeats,
        seconds=args.seconds,
        trace=trace,
        smoke=args.smoke,
    )
    elapsed = time.perf_counter() - t0

    print()
    for r in runs.values():
        for line in format_e2e(r) + format_layers(r, r.per_layer()):
            print(line)
    attempted = sum(r.attempted for r in runs.values())
    failed = sum(r.failed for r in runs.values())
    print(f"\n{attempted} runs, {failed} failed, {elapsed:.1f} s wall")

    if args.update_expected and failed == 0 and not args.smoke:
        for name, r in runs.items():
            key = WORKLOADS[name].inputs_key(args.seed)
            expected.setdefault(name, {})[key] = r.reference
        EXPECTED.write_text(json.dumps(expected, indent=2, sort_keys=True) + "\n")
        print(f"wrote {EXPECTED}")

    if args.json is not None:
        args.json.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            "calib_ref_s": CALIB_REF_S,
            "seed": args.seed,
            "smoke": args.smoke,
            "wall_s": elapsed,
            "workloads": {name: r.report() for name, r in runs.items()},
        }
        args.json.write_text(json.dumps(payload, indent=1))

    units = {name: unit for name, unit, _ in per_layer_catalogue(LAYERS)}

    def final_metrics(r: WorkloadRuns) -> Dict[str, dict]:
        if trace:
            return {
                k: {"value": v, "unit": units[k]} for k, v in r.per_layer().items()
            }
        return {
            k: {"value": v["median"], "unit": v["unit"]} for k, v in r.e2e().items()
        }

    if len(names) == 1:
        metrics = final_metrics(runs[names[0]])
    else:
        metrics = {name: final_metrics(r) for name, r in runs.items()}
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
