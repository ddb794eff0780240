"""Causal task graph: per-job critical paths and phase attribution.

Every rendering job flows through the same causal chain::

    submit → (scheduling) → assign → (queueing) → start
           → (fetch/io) → (render) → task finish → (composite) → deliver

The tasks of one job form a fork-join DAG: the job's end-to-end latency
is bounded by exactly one task — the *bounding task*, the one whose
finish time is maximal — plus the compositing barrier.  This module
links the per-task events the simulator already produces (assignment
times from the audit log, start/finish/io times from the task records)
into that DAG, extracts the critical path of every completed job, and
attributes its latency to five phases:

* ``scheduling`` — submit → assignment of the bounding task (head-node
  queueing plus cycle/window wait; batch deferral lands here),
* ``queueing`` — assignment → execution start (node FIFO wait),
* ``io`` — the chunk fetch actually paid (0 on a cache hit; includes
  retry backoff),
* ``render`` — GPU execution (plus host→VRAM upload when modeled),
* ``composite`` — last task finish → job delivery (sort-last exchange).

The five phases sum exactly to the job's Definition-3 latency, so
comparing two schedulers' phase profiles *is* the paper's analysis: a
locality-aware policy converts ``io`` time into ``render`` time.  The
``repro explain`` CLI verb surfaces that diff, together with the first
decision where two runs placed the same task differently
(:func:`first_divergence`).

Enabled with the audit log (``RunConfig(audit=...)``); results surface
as ``SimulationResult.critical_paths``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Iterable, List, NamedTuple, Optional, Sequence

from repro.cluster.node import (
    S_FINISH,
    S_HIT,
    S_IO,
    S_NODE,
    S_START,
    TASK_WIDTH,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.job import RenderJob, RenderTask
    from repro.obs.audit import DecisionRecord

#: Attribution phases, in causal order.  Their per-path values sum to
#: the job's end-to-end latency.
PHASES = ("scheduling", "queueing", "io", "render", "composite")


class CriticalPath(NamedTuple):
    """The latency-bounding chain of one completed job."""

    user: int
    action: int
    sequence: int
    job_type: str
    arrival: float
    finish: float
    #: Index (within the job) and node of the bounding task.
    bounding_task: int
    bounding_node: int
    #: Whether the bounding task's chunk was memory-resident.
    cache_hit: bool
    task_count: int
    scheduling: float
    queueing: float
    io: float
    render: float
    composite: float

    @property
    def latency(self) -> float:
        """End-to-end job latency (Definition 3)."""
        return self.finish - self.arrival

    def phase_values(self) -> Dict[str, float]:
        """The five phase durations as a mapping."""
        return {
            "scheduling": self.scheduling,
            "queueing": self.queueing,
            "io": self.io,
            "render": self.render,
            "composite": self.composite,
        }


def job_critical_path(job: "RenderJob") -> CriticalPath:
    """Extract one completed job's critical path (pure).

    The bounding task is the one with the maximal finish time (the
    first such, in task order); its assignment time is the task's entry
    in ``job.assign_times`` (stamped at placement on audited runs; a
    task re-dispatched after a node failure overwrites the entry, so
    attribution always uses the assignment that actually executed).  A
    missing stamp falls back to the job's arrival (scheduling phase
    reads as zero).  Reads the job's task store directly.
    """
    state = job.task_state
    finishes = state[S_FINISH::TASK_WIDTH]
    bound_finish = max(finishes)
    index = finishes.index(bound_finish)
    base = index * TASK_WIDTH
    arrival = job.arrival_time
    times = job.assign_times
    assign = None if times is None else times[index]
    if assign is None:
        assign = arrival
    start = state[base + S_START]
    io = state[base + S_IO]
    return CriticalPath(
        job.user,
        job.action,
        job.sequence,
        job.job_type.value,
        arrival,
        job.finish_time,  # type: ignore[arg-type]
        index,
        state[base + S_NODE],
        bool(state[base + S_HIT]),
        len(finishes),
        assign - arrival,
        start - assign,
        io,
        (bound_finish - start) - io,
        job.finish_time - bound_finish,  # type: ignore[operator]
    )


class CausalCollector:
    """Builds critical paths from job completions during a run.

    Registered as a service *completion* listener
    (:meth:`~repro.sim.service.VisualizationService.add_completion_listener`),
    which fires once per job after the service has set
    ``job.finish_time`` — so the collector runs off the per-task hot
    path entirely (the cluster keeps its single-listener task-finish
    fast path) and touches each job exactly once.

    The in-run cost is a single C-level list append: the listener just
    collects the completed job objects, and path extraction
    (:func:`job_critical_path` — a pure function of the job's final
    task records) is deferred until the analysis is first read.
    """

    def __init__(self) -> None:
        self._jobs: List["RenderJob"] = []
        #: The completion listener itself — a bound ``list.append`` so
        #: the service fires straight into C.
        self.on_job_complete = self._jobs.append

    def note_assign(self, task: "RenderTask", now: float) -> None:
        """Record the (latest) assignment time of ``task``."""
        task.assign_time = now

    @property
    def paths(self) -> List[CriticalPath]:
        """Critical paths of the jobs completed so far (built on read)."""
        return [job_critical_path(job) for job in self._jobs]

    def analysis(self) -> "CriticalPathAnalysis":
        """Freeze the collected jobs into a (lazy) analysis object."""
        return CriticalPathAnalysis(jobs=self._jobs)


class CriticalPathAnalysis:
    """Aggregated phase attribution over a run's critical paths.

    Built either from :class:`CriticalPath` tuples directly or lazily
    from completed job objects (``jobs=...``): the audited hot path then
    ends with path extraction still pending, and the first read — or
    pickling — materializes it.
    """

    def __init__(
        self,
        paths: Iterable[CriticalPath] = (),
        *,
        jobs: Optional[List["RenderJob"]] = None,
    ) -> None:
        self._jobs = jobs
        self._paths: Optional[List[CriticalPath]] = (
            None if jobs is not None else list(paths)
        )

    @property
    def paths(self) -> List[CriticalPath]:
        """The critical paths, materialized on first access."""
        if self._paths is None:
            self._paths = [job_critical_path(job) for job in self._jobs]
            self._jobs = None
        return self._paths

    def __getstate__(self) -> dict:
        """Pickle support: materialize, drop the job-graph references."""
        return {"_paths": self.paths, "_jobs": None}

    def __len__(self) -> int:
        return len(self.paths)

    def filter(self, job_type: Optional[str] = None) -> "CriticalPathAnalysis":
        """A sub-analysis restricted to one job type (``None`` = all)."""
        if job_type is None:
            return CriticalPathAnalysis(self.paths)
        return CriticalPathAnalysis(
            [p for p in self.paths if p.job_type == job_type]
        )

    def phase_totals(self) -> Dict[str, float]:
        """Summed seconds per phase across all paths."""
        totals = {name: 0.0 for name in PHASES}
        for p in self.paths:
            totals["scheduling"] += p.scheduling
            totals["queueing"] += p.queueing
            totals["io"] += p.io
            totals["render"] += p.render
            totals["composite"] += p.composite
        return totals

    def phase_shares(self) -> Dict[str, float]:
        """Fraction of total critical-path time spent in each phase."""
        totals = self.phase_totals()
        denom = sum(totals.values())
        if denom <= 0:
            return {name: 0.0 for name in PHASES}
        return {name: totals[name] / denom for name in PHASES}

    @property
    def mean_latency(self) -> float:
        """Mean end-to-end latency over the analyzed paths."""
        if not self.paths:
            return 0.0
        return sum(p.latency for p in self.paths) / len(self.paths)

    @property
    def cache_hit_fraction(self) -> float:
        """Fraction of paths whose bounding task hit the cache."""
        if not self.paths:
            return 0.0
        return sum(1 for p in self.paths if p.cache_hit) / len(self.paths)

    def table(self, *, title: str = "") -> str:
        """Text table: mean seconds and share per phase."""
        lines: List[str] = []
        if title:
            lines.append(title)
        n = len(self.paths)
        lines.append(
            f"{n} critical paths, mean latency {self.mean_latency * 1e3:.2f} ms, "
            f"bounding-task hit rate {self.cache_hit_fraction:.1%}"
        )
        lines.append(f"{'phase':>12} {'mean (ms)':>10} {'share':>7}")
        totals = self.phase_totals()
        shares = self.phase_shares()
        for name in PHASES:
            mean_ms = (totals[name] / n * 1e3) if n else 0.0
            lines.append(f"{name:>12} {mean_ms:>10.3f} {shares[name]:>6.1%}")
        return "\n".join(lines)


class Divergence(NamedTuple):
    """First decision two runs made differently for the same task."""

    #: Index of the divergent decision in run A's record stream.
    index: int
    a: "DecisionRecord"
    b: "DecisionRecord"


def first_divergence(
    records_a: Sequence["DecisionRecord"],
    records_b: Sequence["DecisionRecord"],
) -> Optional[Divergence]:
    """The earliest decision (in run A's order) placed differently in B.

    Decisions are matched by cross-run task identity ``(user, action,
    sequence, task_index)`` plus occurrence number (a task re-dispatched
    after a node failure is decided twice).  Shed records and tasks the
    other run never decided are skipped.  Returns ``None`` when every
    matched decision agrees.
    """
    b_by_key: Dict[tuple, "DecisionRecord"] = {}
    occurrence: Dict[tuple, int] = {}
    for rec in records_b:
        if rec.task_index < 0:
            continue
        key = rec.key()
        n = occurrence.get(key, 0)
        occurrence[key] = n + 1
        b_by_key[(key, n)] = rec
    occurrence_a: Dict[tuple, int] = {}
    for index, rec in enumerate(records_a):
        if rec.task_index < 0:
            continue
        key = rec.key()
        n = occurrence_a.get(key, 0)
        occurrence_a[key] = n + 1
        other = b_by_key.get((key, n))
        if other is not None and other.node != rec.node:
            return Divergence(index, rec, other)
    return None


def phase_delta_table(
    a: CriticalPathAnalysis,
    b: CriticalPathAnalysis,
    name_a: str,
    name_b: str,
) -> str:
    """Side-by-side per-phase latency attribution for two runs.

    One row per phase: mean seconds and share under each run, plus the
    share delta in percentage points (A − B).  This is the "locality
    converts I/O time into render time" table.
    """
    na, nb = len(a.paths), len(b.paths)
    ta, tb = a.phase_totals(), b.phase_totals()
    sa, sb = a.phase_shares(), b.phase_shares()
    lines = [
        f"{'phase':>12} | {name_a:>16} | {name_b:>16} | {'Δ share':>8}",
        f"{'':>12} | {'ms':>8} {'share':>7} | {'ms':>8} {'share':>7} |",
    ]
    for name in PHASES:
        mean_a = (ta[name] / na * 1e3) if na else 0.0
        mean_b = (tb[name] / nb * 1e3) if nb else 0.0
        delta_pp = (sa[name] - sb[name]) * 100.0
        lines.append(
            f"{name:>12} | {mean_a:>8.3f} {sa[name]:>6.1%} | "
            f"{mean_b:>8.3f} {sb[name]:>6.1%} | {delta_pp:>+7.1f}pp"
        )
    lines.append(
        f"{'latency':>12} | {a.mean_latency * 1e3:>8.3f} {'':>6} | "
        f"{b.mean_latency * 1e3:>8.3f} {'':>6} |"
    )
    return "\n".join(lines)


__all__ = [
    "PHASES",
    "CriticalPath",
    "job_critical_path",
    "CausalCollector",
    "CriticalPathAnalysis",
    "Divergence",
    "first_divergence",
    "phase_delta_table",
]
