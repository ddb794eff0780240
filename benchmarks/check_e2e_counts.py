#!/usr/bin/env python3
"""Count gate: the e2e smoke run's count-valued per-layer keys, exactly.

``benchmarks/e2e/run.py --smoke --json benchmarks/results/e2e-smoke.json``
records, per workload, how many times each layer's entry points were
called, how many events ran, how many tasks were executed and the like.
Those counts are deterministic for given inputs, unlike the wall-clock
keys, so this script compares every per-layer key that
``BENCHMARK.json`` declares with unit ``count`` against the committed
``benchmarks/baselines/e2e_smoke_counts.json`` at zero tolerance.  A
change that moves a count fails here until the baseline is regenerated
with ``--update``, and the change says which counts moved and why.

Usage::

    python benchmarks/check_e2e_counts.py            # gate
    python benchmarks/check_e2e_counts.py --update   # refresh the baseline

Exit codes: 0 ok, 1 a count moved or is missing, 2 usage/configuration
error (missing or non-smoke results, missing baseline).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, List

BENCH_DIR = Path(__file__).parent
ROOT = BENCH_DIR.parent
DEFAULT_RESULTS = BENCH_DIR / "results" / "e2e-smoke.json"
DEFAULT_BASELINE = BENCH_DIR / "baselines" / "e2e_smoke_counts.json"
DEFAULT_DECLARATION = ROOT / "BENCHMARK.json"


def count_keys(declaration: Path) -> List[str]:
    """The per-layer keys ``BENCHMARK.json`` declares with unit ``count``."""
    spec = json.loads(declaration.read_text())
    return [m["name"] for m in spec["per_layer"] if m["unit"] == "count"]


def extract(report: dict, keys: List[str]) -> Dict[str, Dict[str, float]]:
    """``{workload: {key: value}}`` for ``keys`` present in the report."""
    return {
        name: {k: run["per_layer"][k] for k in keys if k in run["per_layer"]}
        for name, run in sorted(report["workloads"].items())
    }


def compare(baseline: dict, fresh: dict) -> List[str]:
    """Every baseline count that moved or is missing from ``fresh``."""
    problems: List[str] = []
    for name, counts in baseline.items():
        got = fresh.get(name)
        if got is None:
            problems.append(f"{name}: workload missing from the results")
            continue
        for key, value in counts.items():
            if key not in got:
                problems.append(f"{name}: {key} missing (baseline {value!r})")
            elif got[key] != value:
                problems.append(f"{name}: {key} = {got[key]!r} vs baseline {value!r}")
    for name in fresh:
        if name not in baseline:
            problems.append(f"{name}: workload not in the baseline")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--results", type=Path, default=DEFAULT_RESULTS)
    parser.add_argument("--baseline", type=Path, default=DEFAULT_BASELINE)
    parser.add_argument("--declaration", type=Path, default=DEFAULT_DECLARATION)
    parser.add_argument(
        "--update", action="store_true", help="write the baseline from the results"
    )
    args = parser.parse_args(argv)

    if not args.results.is_file():
        print(f"results not found: {args.results}", file=sys.stderr)
        return 2
    report = json.loads(args.results.read_text())
    if not report.get("smoke"):
        print(f"{args.results} is not a --smoke run", file=sys.stderr)
        return 2
    fresh = extract(report, count_keys(args.declaration))

    if args.update:
        args.baseline.write_text(json.dumps(fresh, indent=2, sort_keys=True) + "\n")
        print(f"updated {args.baseline}")
        return 0
    if not args.baseline.is_file():
        print(f"baseline not found: {args.baseline}", file=sys.stderr)
        return 2
    problems = compare(json.loads(args.baseline.read_text()), fresh)
    if problems:
        print(f"{len(problems)} count(s) moved against {args.baseline}:")
        for problem in problems:
            print(f"  {problem}")
        return 1
    total = sum(len(counts) for counts in fresh.values())
    print(f"ok: {total} counts over {len(fresh)} workloads match the baseline")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
