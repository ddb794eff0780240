"""Federated run orchestration: split, simulate, merge.

:func:`run_federation` is the first layer *above* the simulator: it
splits one scenario into N per-shard scenarios (router + replication
plan), runs the shards as independent simulations through
:func:`~repro.sim.simulator.run_many` — serially or on its process
pool, ``workers=N`` — and merges the per-shard results
deterministically into one :class:`~repro.federation.FederatedResult`.

The split is exact, not sampled: every request of the input trace
lands on exactly one shard (its user's shard), so fleet totals
conserve the input workload.  A 1-shard federation routes everything
to shard 0 with the original dataset order and job namespace 0 — bit-
identical to a plain :func:`~repro.sim.run_simulation` run, which the
golden-trace tests pin.
"""

from __future__ import annotations

from dataclasses import replace as dc_replace
from typing import List, Optional, Tuple, Union

import numpy as np

from repro.core.scheduler_base import Scheduler
from repro.frontend.config import FrontendConfig
from repro.sim.run_config import RunConfig
from repro.sim.simulator import run_many
from repro.util.deprecation import quietly
from repro.workload.scenarios import Scenario
from repro.workload.trace import WorkloadTrace
from repro.federation.config import FederationConfig
from repro.federation.replication import ReplicationPlan, plan_replication
from repro.federation.result import FederatedResult
from repro.federation.router import RoutingTable, make_router


def _scoped_frontend(
    frontend: Optional[FrontendConfig], scope: str, shards: int
) -> Optional[FrontendConfig]:
    """Resolve frontend caps for one shard.

    ``shard`` scope passes the config through unchanged; ``global``
    scope treats the fleet caps — ``max_sessions`` and ``queue_limit``
    — as totals and divides them across shards (ceiling, floor 1 — a
    shard with a zero cap would reject everything routed to it).  The
    token-bucket ``rate`` and ``burst`` pass through: they budget one
    user, and each user is routed to one shard.  A cap the config
    leaves unset (``None``) stays unset.
    """
    if frontend is None or scope == "shard" or shards == 1:
        return frontend

    def split(value):
        return None if value is None else max(1, -(-value // shards))

    admission = frontend.admission
    if admission is not None:
        admission = dc_replace(
            admission, max_sessions=split(admission.max_sessions)
        )
    backpressure = frontend.backpressure
    if backpressure is not None:
        backpressure = dc_replace(
            backpressure, queue_limit=split(backpressure.queue_limit)
        )
    return dc_replace(
        frontend, admission=admission, backpressure=backpressure
    )


def build_shards(
    scenario: Scenario, config: FederationConfig
) -> Tuple[ReplicationPlan, RoutingTable, List[Tuple[Scenario, RunConfig]]]:
    """Split one scenario into per-shard (scenario, run-config) pairs.

    Shard ``k`` gets:

    * the requests of every user the router placed on it (an action
      never splits across shards — all its requests share a user),
    * a dataset list ordering its *home* datasets first (in suite
      order), then any foreign datasets its requests reference (suite
      order).  Prewarm loads datasets in list order, so each shard's
      cache warms with its own working set before anything else,
    * ``RunConfig(job_namespace=k)`` so merged job ids never collide,
      with frontend caps scoped per :attr:`FederationConfig.frontend_scope`.
    """
    trace = scenario.trace
    plan = plan_replication(trace, config.shards, config.resolved_replication)
    routing = make_router(config.router, config.shards).assign(trace, plan)

    # One column pass: each request's shard is its user's, and a shard
    # takes its rows in trace order.
    shard_of = dict(routing.assignments)
    columns = trace.requests
    users, user_index = np.unique(np.asarray(columns.user), return_inverse=True)
    user_shard = np.array([shard_of[u] for u in users.tolist()], dtype=np.int64)
    row_shard = user_shard[user_index]

    suite = {ds.name: ds for ds in trace.datasets}
    pairs: List[Tuple[Scenario, RunConfig]] = []
    for k in range(config.shards):
        requests = columns.take(np.flatnonzero(row_shard == k))
        home = list(plan.home[k])
        referenced = {requests.dataset_names[c] for c in set(requests.dataset_code)}
        foreign = [
            ds.name
            for ds in trace.datasets
            if ds.name in referenced and ds.name not in set(home)
        ]
        shard_trace = WorkloadTrace(
            requests=requests,
            datasets=[suite[name] for name in home + foreign],
            duration=trace.duration,
            target_framerate=trace.target_framerate,
            name=f"{trace.name}-shard{k}",
        )
        shard_scenario = dc_replace(
            scenario,
            name=f"{scenario.name}-shard{k}" if config.shards > 1 else scenario.name,
            trace=shard_trace,
        )
        # A copy of the caller's config: deprecated values it sets
        # warned when the caller set them.
        with quietly():
            shard_config = config.run.replace(
                job_namespace=k,
                frontend=_scoped_frontend(
                    config.run.frontend, config.frontend_scope, config.shards
                ),
                # One stream file per shard: worker processes never share
                # a write handle, and FederatedResult merges the
                # per-shard anomaly records deterministically afterwards.
                stream=(
                    config.run.stream.for_shard(k)
                    if config.run.stream is not None and config.shards > 1
                    else config.run.stream
                ),
            )
        pairs.append((shard_scenario, shard_config))
    return plan, routing, pairs


def run_federation(
    scenario: Scenario,
    scheduler: Union[str, Scheduler] = "OURS",
    config: Optional[FederationConfig] = None,
) -> FederatedResult:
    """Run ``scenario`` across a federation of simulator shards.

    Args:
        scenario: The *whole-fleet* workload (typically built with a
            ``users=shards`` multiplier so each shard sees about one
            Table II load after routing).
        scheduler: Per-shard scheduling policy (name or instance; every
            shard runs the same policy).
        config: The :class:`FederationConfig`; defaults to
            ``FederationConfig()`` (2 shards, locality router).

    Returns:
        The merged :class:`~repro.federation.FederatedResult`;
        ``workers=1`` and ``workers=N`` produce bit-identical merges.
    """
    if config is None:
        config = FederationConfig()
    scheduler_name = (
        scheduler if isinstance(scheduler, str) else scheduler.name
    )
    plan, routing, pairs = build_shards(scenario, config)
    results = run_many(
        [(shard, scheduler_name, cfg) for shard, cfg in pairs],
        workers=config.workers,
    )
    return FederatedResult(
        scenario_name=scenario.name,
        scheduler_name=scheduler_name,
        config=config,
        routing=routing,
        plan=plan,
        shard_results=results,
    )


__all__ = ["run_federation", "build_shards"]
