"""Cross-shard dataset replication: which data lives on which shard.

Before a federated run starts, every dataset is assigned a *home
shard* (and, under mirroring, replicas everywhere).  The home
assignment drives two things:

* the locality router sends each user to the home shard of their
  dominant dataset, and
* each shard's prewarm pass (the paper's pre-measurement "test run")
  loads its home datasets first, so the shard's cache holds exactly
  the working set routed to it.

Policies are pure functions of the trace — deterministic, no RNG — so
a federated run is reproducible from its inputs alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.workload.trace import WorkloadTrace


@dataclass(frozen=True)
class ReplicationPlan:
    """The resolved dataset→shard placement for one federated run.

    Attributes:
        policy: ``"mirror"`` or ``"partition"``.
        shards: Shard count.
        home: Per-shard tuples of *home* dataset names, each in the
            original suite order (prewarm iterates this order, so
            keeping suite order makes a 1-shard partition identical to
            the un-federated dataset list).
        home_shard: Dataset name → primary home shard.
    """

    policy: str
    shards: int
    home: Tuple[Tuple[str, ...], ...]
    home_shard: Tuple[Tuple[str, int], ...]

    def home_of(self, dataset: str) -> int:
        """Primary home shard of a dataset."""
        for name, shard in self.home_shard:
            if name == dataset:
                return shard
        raise KeyError(dataset)

    def home_map(self) -> Dict[str, int]:
        """Dataset name → home shard, as a dict."""
        return dict(self.home_shard)

    def replica_bytes(self, trace: WorkloadTrace) -> int:
        """Total bytes resident across all shards under this plan."""
        sizes = {ds.name: ds.size for ds in trace.datasets}
        return sum(
            sizes[name] for shard_home in self.home for name in shard_home
        )


def dataset_demand(trace: WorkloadTrace) -> Dict[str, int]:
    """Request count per dataset name (the bin-packing weight)."""
    columns = trace.requests
    counts = np.bincount(
        np.asarray(columns.dataset_code), minlength=len(columns.dataset_names)
    )
    return dict(zip(columns.dataset_names, counts.tolist()))


def plan_replication(
    trace: WorkloadTrace, shards: int, policy: str
) -> ReplicationPlan:
    """Assign every dataset of ``trace`` a home under ``policy``.

    ``mirror`` homes every dataset on every shard (primary home =
    suite index modulo shard count, round-robin).  ``partition`` homes
    each dataset on exactly one shard: datasets are taken in
    descending request-demand order (ties broken by suite order) and
    greedily placed on the least-demand-loaded shard (ties broken by
    lowest shard id) — a deterministic longest-processing-time
    bin-pack that balances *demand*, not byte counts, because demand
    is what the routed users bring with them.
    """
    if shards < 1:
        raise ValueError(f"shards must be >= 1, got {shards}")
    names = [ds.name for ds in trace.datasets]
    suite_index = {name: i for i, name in enumerate(names)}

    if policy == "mirror":
        home = tuple(tuple(names) for _ in range(shards))
        home_shard = tuple(
            (name, suite_index[name] % shards) for name in names
        )
        return ReplicationPlan(
            policy=policy, shards=shards, home=home, home_shard=home_shard
        )

    if policy != "partition":
        raise ValueError(f"unknown replication policy {policy!r}")

    demand = dataset_demand(trace)
    # LPT order: heaviest demand first, suite order breaking ties.
    order = sorted(names, key=lambda n: (-demand[n], suite_index[n]))
    load = [0] * shards
    assigned: Dict[str, int] = {}
    for name in order:
        shard = min(range(shards), key=lambda k: (load[k], k))
        assigned[name] = shard
        load[shard] += demand[name]
    per_shard: List[List[str]] = [[] for _ in range(shards)]
    for name in names:  # original suite order — the prewarm order
        per_shard[assigned[name]].append(name)
    return ReplicationPlan(
        policy=policy,
        shards=shards,
        home=tuple(tuple(h) for h in per_shard),
        home_shard=tuple((name, assigned[name]) for name in names),
    )


__all__ = ["ReplicationPlan", "plan_replication", "dataset_demand"]
