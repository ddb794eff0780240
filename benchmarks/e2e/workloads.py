"""The benchmark's five named workloads, their inputs, and output checks.

Every workload is one Table II scenario x scheduler cell plus a run
configuration.  The seed only picks *which* trace is generated; the
amount of work is pinned so that different seeds measure the same thing.
Each workload generates its scenario's trace and keeps the first
``requests`` arrivals, with the horizon at the first arrival dropped.  A
Poisson trace cut at a fixed *duration* varies by 5-40% in size from
seed to seed at these scales, which would swamp any timing comparison; a
trace cut at a fixed *count* is the same scenario observed until that
many requests have arrived.  Scenario 1 (persistent actions) is
seed-free, so every seed gives it the same inputs.

The four workloads without a frontend run to drain (every submitted job
completes), so a repeat executes exactly ``requests x tasks-per-job``
tasks whatever the seed; cut at the horizon instead, the backlog left
unfinished varies by up to 30% between seeds.

observed-storm stays horizon-bounded (draining changes what its frontend
does) and always replays the default Scenario 2 trace; its seed picks
the fault storm instead.  Its frontend admits a share of the trace that
depends strongly on the trace's action structure (executed tasks vary
3x across trace seeds), while the storm moves it by a few percent.

The load is open-loop in simulated time: the whole trace is preloaded
into the event queue and arrivals never wait for completions.

:func:`digest` hashes the simulated statistics only (floats via
``float.hex``), so any refactor that keeps behaviour keeps the digest;
event counts are left out so that fusing events stays valid.
:func:`violations` checks conservation invariants that hold for every
seed.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.faults.plan import FaultPlan
from repro.frontend.config import FrontendConfig
from repro.obs.stream import StreamConfig
from repro.obs.tracer import Tracer
from repro.sim.run_config import RunConfig
from repro.sim.simulator import SimulationResult
from repro.workload.scenarios import Scenario, make_scenario
from repro.workload.trace import WorkloadTrace

#: ``--smoke`` runs every workload at this fraction of its size.
SMOKE_FRACTION = 20

#: Plan seed of the observed-storm fault storm when ``--seed`` is absent.
DEFAULT_STORM_SEED = 7


@dataclass(frozen=True)
class Workload:
    """One named benchmark workload.

    Attributes:
        name: The ``--workload`` name.
        scenario: Table II scenario number.
        scheduler: Registry name of the scheduling policy.
        scale: Scenario scale the trace is generated at, sized so that
            every seed yields more than ``requests`` arrivals (it
            doubles until one does).
        requests: Arrivals kept from the generated trace.
        default_seed: Trace seed when ``--seed`` is absent (``None``
            for the seed-free scenario).
        load: Arrival-rate multiplier (over-subscription).
        observed: Run with the frontend, a self-healing fault storm, the
            tracer, metrics, audit, and the telemetry stream all on.

    Why each workload is carried is recorded in ``BENCHMARK.json`` and
    ``README.md``.
    """

    name: str
    scenario: int
    scheduler: str
    scale: float
    requests: int
    default_seed: Optional[int]
    load: float = 1.0
    observed: bool = False

    def seeds(self, seed: Optional[int]) -> Tuple[Optional[int], ...]:
        """The effective input seeds: the trace's, then the storm's."""
        if self.observed:
            return (self.default_seed, DEFAULT_STORM_SEED if seed is None else seed)
        if self.default_seed is None:
            return (None,)
        return (self.default_seed if seed is None else seed,)

    def inputs_key(self, seed: Optional[int]) -> str:
        """Identifies the generated inputs; keys ``expected.json``."""
        return "/".join("-" if s is None else str(s) for s in self.seeds(seed))


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "paper-s2",
            scenario=2,
            scheduler="OURS",
            scale=1.7,
            requests=32_000,
            default_seed=2,
        ),
        Workload(
            "cached-s1",
            scenario=1,
            scheduler="OURS",
            scale=3.5,
            requests=40_000,
            default_seed=None,
        ),
        Workload(
            "backlog-s4",
            scenario=4,
            scheduler="OURS",
            scale=0.045,
            requests=11_000,
            default_seed=4,
        ),
        Workload(
            "immediate-s3",
            scenario=3,
            scheduler="FCFSU",
            scale=0.065,
            requests=4_000,
            default_seed=3,
        ),
        Workload(
            "observed-storm",
            scenario=2,
            scheduler="OURS",
            scale=2.4,
            requests=120_000,
            default_seed=2,
            load=2.5,
            observed=True,
        ),
    )
}


@dataclass
class Inputs:
    """Everything one run needs, built by :func:`build` (the set-up)."""

    scenario: Scenario
    config: RunConfig
    #: Files the run writes that the benchmark deletes afterwards.
    temp_files: List[Path]


def _first_requests(
    number: int, scale: float, seed: Optional[int], load: float, budget: int
) -> Scenario:
    """A seeded scenario cut to exactly its first ``budget`` arrivals."""
    while True:
        scenario = make_scenario(number, scale=scale, seed=seed, load=load)
        requests = scenario.trace.requests
        if len(requests) > budget:
            break
        scale *= 2.0
    trace = scenario.trace
    kept = WorkloadTrace(
        requests=requests[:budget],
        datasets=trace.datasets,
        duration=requests[budget].time,
        target_framerate=trace.target_framerate,
        name=trace.name,
    )
    return dataclasses.replace(scenario, trace=kept)


def build(
    workload: Workload,
    seed: Optional[int],
    *,
    smoke: bool = False,
    out_dir: Path,
) -> Inputs:
    """Generate the workload's inputs (this is what ``setup_s`` times)."""
    seeds = workload.seeds(seed)
    shrink = SMOKE_FRACTION if smoke else 1
    scenario = _first_requests(
        workload.scenario,
        workload.scale / shrink,
        seeds[0],
        workload.load,
        workload.requests // shrink,
    )
    if not workload.observed:
        return Inputs(scenario, RunConfig(drain=True), [])
    stream_path = out_dir / f"stream-{workload.name}-{os.getpid()}.ndjson"
    config = RunConfig(
        frontend=FrontendConfig.protective(max_sessions=8, queue_limit=32),
        faults=FaultPlan.storm(
            seeds[1],
            node_count=scenario.system.node_count,
            duration=scenario.trace.duration,
        ),
        tracer=Tracer(),
        metrics=True,
        audit=True,
        stream=StreamConfig(stream_path),
    )
    return Inputs(scenario, config, [stream_path])


def _hex(value: float) -> str:
    return float(value).hex()


#: Frontend counters folded into the digest when a frontend ran.
_FRONTEND_FIELDS = (
    "requests_seen",
    "forwarded",
    "rejected_rate",
    "rejected_sessions",
    "deferred",
    "shed_oldest",
    "shed_newest",
    "frames_dropped",
    "degraded_jobs",
    "max_wait_depth",
    "unserved_at_end",
    "final_quality_level",
)

#: Fault-report counters folded into the digest when faults ran.
_FAULT_FIELDS = (
    "crashes",
    "stragglers",
    "wipes",
    "storage_faults",
    "revivals",
    "jobs_lost",
)


def digest(result: SimulationResult) -> str:
    """sha256 over the run's simulated statistics (no event counts)."""
    h = hashlib.sha256()
    update = h.update
    update(
        (
            f"jobs {result.jobs_submitted} {result.jobs_completed}\n"
            f"tasks {result.tasks_executed} {result.tasks_hit} "
            f"{result.tasks_missed}\n"
            f"time {_hex(result.simulated_time)}\n"
        ).encode()
    )
    for r in result.records:
        update(
            (
                f"{r.user} {r.action} {r.sequence} {_hex(r.arrival)} "
                f"{_hex(r.start)} {_hex(r.finish)} {r.cache_hits} "
                f"{r.task_count}\n"
            ).encode()
        )
    if result.frontend is not None:
        values = [getattr(result.frontend, f) for f in _FRONTEND_FIELDS]
        update(("frontend " + " ".join(map(str, values)) + "\n").encode())
    if result.fault_report is not None:
        report = result.fault_report
        values = [getattr(report, f) for f in _FAULT_FIELDS]
        values += [len(report.detections), len(report.actions)]
        update(("faults " + " ".join(map(str, values)) + "\n").encode())
    return h.hexdigest()


def violations(inputs: Inputs, result: SimulationResult) -> List[str]:
    """Invariants every correct run satisfies, whatever the seed."""
    found: List[str] = []
    requests = len(inputs.scenario.trace.requests)
    if result.jobs_completed != len(result.records):
        found.append("jobs_completed differs from the number of job records")
    if not 0 < result.jobs_completed <= result.jobs_submitted:
        found.append("completed jobs not in 1..submitted")
    if result.tasks_executed <= 0:
        found.append("no task executed")
    if result.tasks_executed > result.tasks_hit + result.tasks_missed:
        found.append("more tasks finished than started")
    if result.frontend is None:
        if result.jobs_submitted != requests:
            found.append(
                f"{result.jobs_submitted} jobs submitted for {requests} requests"
            )
        if result.jobs_completed != result.jobs_submitted or not result.drained:
            found.append("the drained run left jobs unfinished")
        if result.tasks_executed != result.tasks_hit + result.tasks_missed:
            found.append("the drained run left tasks unfinished")
    else:
        if result.frontend.requests_seen != requests:
            found.append("frontend did not see every request")
        if result.frontend.forwarded != result.jobs_submitted:
            found.append("frontend forwarded count differs from submissions")
    horizon = inputs.scenario.trace.duration
    for r in result.records:
        if not r.arrival <= r.start <= r.finish:
            found.append(f"job {r.job_id}: arrival/start/finish out of order")
            break
        if r.arrival > horizon:
            found.append(f"job {r.job_id} arrived after the horizon")
            break
    return found
