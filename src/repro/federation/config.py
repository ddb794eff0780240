"""Run configuration for a federated (sharded) simulation.

:class:`FederationConfig` is to :func:`~repro.federation.run_federation`
what :class:`~repro.sim.RunConfig` is to
:func:`~repro.sim.run_simulation`: one frozen, picklable object
describing *how* to run — here, how many head-node shards, which
user-routing policy places users onto them, which replication policy
homes datasets, and whether the shards execute serially or on a
process pool.  The per-shard simulator options ride along as a nested
``RunConfig``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Tuple

from repro.sim.run_config import RunConfig

#: Valid ``router`` values: consistent-hash (uniform spread) or
#: locality-aware (dominant-dataset residency) user placement.
ROUTER_POLICIES: Tuple[str, ...] = ("hash", "locality")

#: Valid ``replication`` values.  ``auto`` resolves per router:
#: ``mirror`` for hash routing (any shard may see any dataset),
#: ``partition`` for locality routing (each dataset has one home).
REPLICATION_POLICIES: Tuple[str, ...] = ("auto", "mirror", "partition")

#: Valid ``frontend_scope`` values: per-shard admission (each shard
#: enforces the configured caps independently) or a global view (the
#: session and queue caps describe the whole fleet and are divided
#: across shards; the per-user token rate and burst are not divided).
FRONTEND_SCOPES: Tuple[str, ...] = ("shard", "global")


@dataclass(frozen=True)
class FederationConfig:
    """Everything about *how* to run a federated scenario.

    Attributes:
        shards: Number of independent head-node shards.  Each shard is
            a full simulator instance (head node + render nodes per the
            scenario's system config).
        router: User→shard placement policy — ``"hash"``
            (consistent-hash ring, uniform and residency-blind) or
            ``"locality"`` (route each user to the home shard of their
            dominant dataset, preserving the Cache table's locality
            across the shard boundary).
        replication: Cross-shard dataset placement — ``"mirror"``
            (every dataset resident on every shard), ``"partition"``
            (each dataset homed on exactly one shard, demand-balanced),
            or ``"auto"`` (mirror under hash routing, partition under
            locality routing).
        run: The per-shard :class:`~repro.sim.RunConfig`.  Its
            ``job_namespace`` is overridden per shard (shard ``k`` runs
            in namespace ``k``) so merged job ids never collide.
        workers: Process-pool width for running shards, handed to
            :func:`~repro.sim.simulator.run_many` (the same pool
            ``sweep(workers=N)`` uses).  ``1`` (serial) and ``N``
            produce bit-identical
            :class:`~repro.federation.FederatedResult`\\ s.
        frontend_scope: How ``run.frontend`` caps apply when a frontend
            is configured: ``"shard"`` applies them per shard,
            ``"global"`` treats ``max_sessions`` and ``queue_limit`` as
            fleet-wide totals and divides them across shards.  The
            per-user token ``rate`` and ``burst`` apply unchanged on
            every shard, since each user is routed to one shard.
    """

    shards: int = 2
    router: str = "locality"
    replication: str = "auto"
    run: RunConfig = field(default_factory=RunConfig)
    workers: int = 1
    frontend_scope: str = "shard"

    def __post_init__(self) -> None:
        if self.shards < 1:
            raise ValueError(f"shards must be >= 1, got {self.shards}")
        if self.router not in ROUTER_POLICIES:
            raise ValueError(
                f"unknown router {self.router!r}; valid: "
                + ", ".join(ROUTER_POLICIES)
            )
        if self.replication not in REPLICATION_POLICIES:
            raise ValueError(
                f"unknown replication {self.replication!r}; valid: "
                + ", ".join(REPLICATION_POLICIES)
            )
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        if self.frontend_scope not in FRONTEND_SCOPES:
            raise ValueError(
                f"unknown frontend_scope {self.frontend_scope!r}; valid: "
                + ", ".join(FRONTEND_SCOPES)
            )

    @property
    def resolved_replication(self) -> str:
        """The effective replication policy (``auto`` resolved)."""
        if self.replication != "auto":
            return self.replication
        return "partition" if self.router == "locality" else "mirror"

    def replace(self, **changes) -> "FederationConfig":
        """A copy with the given fields changed."""
        return replace(self, **changes)


__all__ = [
    "FederationConfig",
    "ROUTER_POLICIES",
    "REPLICATION_POLICIES",
    "FRONTEND_SCOPES",
]
