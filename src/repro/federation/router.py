"""User→shard placement: the router in front of the federation.

The router decides, per user, which head-node shard serves all of that
user's requests.  Keeping a user on one shard is what preserves the
paper's per-action cache behaviour — an action's frames reuse the same
chunks, so splitting a user across shards would destroy exactly the
locality the Cache table exploits.

Two policies:

* :class:`ConsistentHashRouter` — a classic vnode hash ring.  Uniform,
  stateless, residency-blind: a user may well land on a shard that
  does not hold their dataset.
* :class:`LocalityRouter` — routes each user to the home shard of
  their *dominant* dataset (the one they request most), so routed
  demand lands where the data already lives.

Both are deterministic pure functions of (trace, plan, shards): no
RNG, no insertion-order dependence — the same inputs always produce
the same :class:`RoutingTable`, on every platform (hashes come from
md5, not Python's seeded ``hash()``).
"""

from __future__ import annotations

import bisect
import hashlib
from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.federation.replication import ReplicationPlan
from repro.workload.trace import WorkloadTrace

#: Virtual nodes per shard on the consistent-hash ring.  Enough to
#: bound per-shard spread to a few percent at small shard counts.
VNODES_PER_SHARD = 64


def stable_hash(key: str) -> int:
    """64-bit platform-stable hash (md5 prefix; not for security)."""
    return int.from_bytes(hashlib.md5(key.encode()).digest()[:8], "big")


@dataclass(frozen=True)
class RoutingTable:
    """The resolved user→shard assignment for one federated run."""

    policy: str
    shards: int
    assignments: Tuple[Tuple[int, int], ...]  # (user, shard), user-sorted

    def shard_of(self, user: int) -> int:
        """Shard serving a user."""
        index = bisect.bisect_left(self.assignments, (user, -1))
        if index < len(self.assignments) and self.assignments[index][0] == user:
            return self.assignments[index][1]
        raise KeyError(user)

    def users_of(self, shard: int) -> List[int]:
        """Users routed to a shard, ascending."""
        return [u for u, s in self.assignments if s == shard]

    def counts(self) -> List[int]:
        """Users per shard."""
        out = [0] * self.shards
        for _, shard in self.assignments:
            out[shard] += 1
        return out


class ConsistentHashRouter:
    """Vnode consistent-hash ring over the shard set."""

    name = "hash"

    def __init__(self, shards: int, *, vnodes: int = VNODES_PER_SHARD) -> None:
        if shards < 1:
            raise ValueError(f"shards must be >= 1, got {shards}")
        ring = [
            (stable_hash(f"shard-{shard}-vnode-{v}"), shard)
            for shard in range(shards)
            for v in range(vnodes)
        ]
        ring.sort()
        self.shards = shards
        self._points = [h for h, _ in ring]
        self._targets = [s for _, s in ring]

    def route(self, user: int) -> int:
        """Shard for a user: first ring point at or after the user's hash."""
        index = bisect.bisect_left(self._points, stable_hash(f"user-{user}"))
        if index == len(self._points):
            index = 0
        return self._targets[index]

    def assign(
        self, trace: WorkloadTrace, plan: ReplicationPlan
    ) -> RoutingTable:
        """Route every user of the trace (plan unused — residency-blind)."""
        users = sorted(set(trace.requests.user))
        return RoutingTable(
            policy=self.name,
            shards=self.shards,
            assignments=tuple((u, self.route(u)) for u in users),
        )


class LocalityRouter:
    """Route each user to the home shard of their dominant dataset.

    The dominant dataset is the one the user requests most often (ties
    broken by first appearance in the user's time-sorted request
    stream, so the decision is deterministic).  Batch users submit
    exactly one dataset each — their submissions always land on the
    data's home shard, which is what keeps batch-induced cache
    swapping (the Scenario 2/4 memory-pressure mechanism) local.
    """

    name = "locality"

    def __init__(self, shards: int) -> None:
        if shards < 1:
            raise ValueError(f"shards must be >= 1, got {shards}")
        self.shards = shards

    def assign(
        self, trace: WorkloadTrace, plan: ReplicationPlan
    ) -> RoutingTable:
        """Route every user of the trace by dataset residency."""
        counts: Dict[int, Dict[str, int]] = {}
        first_seen: Dict[Tuple[int, str], int] = {}
        columns = trace.requests
        names = map(columns.dataset_names.__getitem__, columns.dataset_code)
        for order, (user, dataset) in enumerate(zip(columns.user, names)):
            per_user = counts.setdefault(user, {})
            per_user[dataset] = per_user.get(dataset, 0) + 1
            first_seen.setdefault((user, dataset), order)
        home = plan.home_map()
        assignments = []
        for user in sorted(counts):
            per_user = counts[user]
            dominant = min(
                per_user,
                key=lambda ds: (-per_user[ds], first_seen[(user, ds)]),
            )
            assignments.append((user, home[dominant]))
        return RoutingTable(
            policy=self.name,
            shards=self.shards,
            assignments=tuple(assignments),
        )


def make_router(policy: str, shards: int):
    """Instantiate a router by policy name (``hash`` | ``locality``)."""
    if policy == "hash":
        return ConsistentHashRouter(shards)
    if policy == "locality":
        return LocalityRouter(shards)
    raise ValueError(f"unknown router policy {policy!r}")


__all__ = [
    "RoutingTable",
    "ConsistentHashRouter",
    "LocalityRouter",
    "make_router",
    "stable_hash",
    "VNODES_PER_SHARD",
]
