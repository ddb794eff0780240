"""Federation — locality routing vs consistent hashing, shard scaling.

The federation tier exists for one reason: a user routed to the shard
that homes their dominant dataset hits a warm Cache table; a user
hashed onto an arbitrary shard faults their working set in cold.  This
bench runs Scenario 2 with a ``users=shards`` population multiplier
(each shard sees about one Table II load after routing) under both
routers and pins:

* the fleet cache hit rate, delivered fps, and latency per router,
* the locality-minus-hash hit-rate delta (the tier's headline number),
* shard-count scaling rows (2 -> 4 shards under locality routing), and
* the deterministic placement counters — users per shard and replica
  bytes — which must be bit-stable across machines (routing and
  replication are pure md5/LPT functions of the trace).

All runs are serial (``workers=1``); pool parity is pinned by the
tier-1 tests, so burning CI wall-clock on processes here buys nothing.
"""

from __future__ import annotations

import pytest

from benchmarks._shared import bench_scale, emit_json, emit_report
from repro.federation import FederationConfig, run_federation
from repro.workload.scenarios import make_scenario

SCALE = bench_scale(0.5)
SCHEDULER = "OURS"

#: (label, shards, router) — the comparison grid.  Two shards for the
#: router A/B, four for the scaling row.
POINTS = [
    ("hash-2", 2, "hash"),
    ("locality-2", 2, "locality"),
    ("locality-4", 4, "locality"),
]


@pytest.fixture(scope="module")
def runs():
    """Merged result per point label, freed when the module ends; each
    :func:`run_federation` runs its shards as one ``run_many`` call."""
    results = {
        label: run_federation(
            make_scenario(2, scale=SCALE, users=shards),
            SCHEDULER,
            FederationConfig(shards=shards, router=router),
        )
        for label, shards, router in POINTS
    }
    yield results
    results.clear()


def _row(result) -> dict:
    summary = result.summary()
    return {
        "shards": result.shards,
        "router": result.routing.policy,
        "replication": result.plan.policy,
        "hit_rate": result.hit_rate,
        "interactive_fps": summary.interactive_fps,
        "interactive_latency": summary.interactive_latency,
        "jobs_submitted": result.jobs_submitted,
        "jobs_completed": result.jobs_completed,
        # Deterministic placement counters: pure functions of the
        # trace, identical on every machine.
        "users_per_shard": result.routing.counts(),
        "replica_bytes": result.plan.replica_bytes(
            make_scenario(2, scale=SCALE, users=result.shards).trace
        ),
    }


def test_federation_report(benchmark, runs):
    for result in runs.values():
        assert result.jobs_submitted > 0

    def build():
        return {label: _row(runs[label]) for label, _, _ in POINTS}

    rows = benchmark.pedantic(build, rounds=1, iterations=1)
    delta = rows["locality-2"]["hit_rate"] - rows["hash-2"]["hit_rate"]

    header = (
        f"{'point':<12} {'hit rate':>9} {'fps':>8} {'lat(ms)':>8} "
        f"{'done/sub':>11} {'users/shard':>14}"
    )
    lines = [
        (
            f"Federation — Scenario 2, users=shards, scale {SCALE:g}: "
            f"consistent-hash vs locality routing"
        ),
        header,
        "-" * len(header),
    ]
    for label, _, _ in POINTS:
        row = rows[label]
        lines.append(
            f"{label:<12} {row['hit_rate'] * 100:>8.2f}% "
            f"{row['interactive_fps']:>8.2f} "
            f"{row['interactive_latency'] * 1000:>8.1f} "
            f"{row['jobs_completed']:>5}/{row['jobs_submitted']:<5} "
            f"{'/'.join(str(c) for c in row['users_per_shard']):>14}"
        )
    lines.append(
        f"locality-minus-hash hit-rate delta: {delta * 100:+.2f} pts — "
        "routing users to their data's home shard keeps each Cache "
        "table warm; hashing scatters working sets across shards."
    )
    emit_report("federation", "\n".join(lines))
    emit_json(
        "federation",
        {
            "scenario": 2,
            "scale": SCALE,
            "scheduler": SCHEDULER,
            "points": rows,
            "locality_vs_hash_hit_delta": delta,
        },
    )

    # Placement is deterministic at every scale: routing and
    # replication are pure functions of the trace.
    assert sum(rows["hash-2"]["users_per_shard"]) == sum(
        rows["locality-2"]["users_per_shard"]
    )
    if SCALE < 0.5 - 1e-9:
        return  # smoke scale: numbers regenerated, shape not asserted
    # The tier's reason to exist: locality routing wins on cache reuse
    # and never loses on latency.
    assert delta >= 0.0
    assert (
        rows["locality-2"]["interactive_latency"]
        <= rows["hash-2"]["interactive_latency"]
    )
    # Scaling out under locality keeps the fleet hit rate high: each
    # added shard homes its own partition of the suite.
    assert rows["locality-4"]["hit_rate"] >= rows["locality-2"]["hit_rate"] - 0.02
