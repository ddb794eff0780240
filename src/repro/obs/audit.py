"""Scheduler decision audit log — the *why* behind every placement.

The tracer (:mod:`repro.obs.tracer`) records *what* happened and the
metrics registry (:mod:`repro.obs.metrics`) records *how much*; neither
records why the scheduler put a task where it did.  This module adds
that third lens: every placement routed through
:meth:`~repro.core.scheduler_base.SchedulerContext.assign` appends one
:class:`DecisionRecord` capturing the decision time, the scheduling
cycle, the candidate nodes the policy could have chosen (with their
``Available``/``Cache``/``Estimate`` state *at decision time*, before
the assignment mutates the tables), the chosen node, and a
machine-readable reason code.

Reason codes (the closed vocabulary, one per decision):

* ``cache-hit`` — a locality-aware policy chose a node because it
  caches the task's chunk (OURS phases 2-3, FCFSL, FCFSU on warm data).
* ``min-estimate`` — a locality-aware policy scored
  ``Available[k] + exec_estimate(c, k)`` and a *non-cached* node won
  (the chunk is cold everywhere, or every replica's backlog exceeds the
  I/O cost).
* ``only-available`` — a locality-blind policy took the min-available
  node without consulting the Cache table (FCFS, SF, FS).
* ``fallback`` — the placement came from outside the policy's scoring
  loop: FCFSU's static chunk→node pinning on cold data, round-robin
  dealing, failure rescheduling, and other defensive paths.
* ``shed`` — the request never reached a node: the overload frontend
  refused it (admission reject, frame thinning).  Shed records carry
  ``node = -1`` and ``task_index = -1``.
* ``requeue-crash`` — the fault-recovery engine re-placed a task
  stranded on a node whose crash the heartbeat detector confirmed.
* ``quarantine`` — a straggling node was removed from scheduling
  (non-placement record: ``task_index = -1``, ``node`` = the node).
* ``speculative`` — a quarantined node's unstarted backlog was
  re-issued onto healthy nodes.
* ``rewarm`` — the head node's cache mirror was resynced after a
  detected wipe and lost replicas re-loaded (non-placement record).

Records live in a bounded ring buffer (:class:`AuditLog`) so an
always-on flight recorder has a fixed memory ceiling; an optional
streaming-JSONL export writes every record as it happens for offline
analysis.  The log is opt-in via ``RunConfig(audit=AuditConfig(...))``
— the default off path holds ``None`` in the scheduler context and pays
one identity check per assignment, keeping disabled runs bit-identical
(the golden assignment-trace hashes pin this).
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass
from pathlib import Path
from typing import (
    IO,
    TYPE_CHECKING,
    Any,
    Deque,
    Dict,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Tuple,
    Union,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.job import RenderTask
    from repro.core.tables import SchedulerTables

#: A locality-aware policy placed the task on a node caching its chunk.
REASON_CACHE_HIT = "cache-hit"
#: Locality-aware scoring picked a non-cached node (cold chunk, or the
#: replicas' backlogs exceeded the I/O cost).
REASON_MIN_ESTIMATE = "min-estimate"
#: A locality-blind policy took the min-available node.
REASON_ONLY_AVAILABLE = "only-available"
#: Placement outside the policy's scoring loop (static pinning,
#: round-robin dealing, failure rescheduling, defensive paths).
REASON_FALLBACK = "fallback"
#: The overload frontend refused the request before scheduling.
REASON_SHED = "shed"
#: Recovery re-placed a task stranded by a detected node crash.
REASON_REQUEUE_CRASH = "requeue-crash"
#: Recovery removed a straggling node from scheduling.
REASON_QUARANTINE = "quarantine"
#: Recovery re-issued a quarantined node's unstarted backlog.
REASON_SPECULATIVE = "speculative"
#: Recovery resynced a wiped node's cache mirror and reloaded replicas.
REASON_REWARM = "rewarm"

#: Where a decision record's candidate snapshot stops adding cached
#: replicas (replica sets are usually 0-2 nodes; this caps pathological
#: fan-out).
MAX_CANDIDATES = 8

#: The closed reason-code vocabulary, in rough goodness order.
REASON_CODES: Tuple[str, ...] = (
    REASON_CACHE_HIT,
    REASON_MIN_ESTIMATE,
    REASON_ONLY_AVAILABLE,
    REASON_FALLBACK,
    REASON_SHED,
    REASON_REQUEUE_CRASH,
    REASON_QUARANTINE,
    REASON_SPECULATIVE,
    REASON_REWARM,
)


@dataclass(frozen=True)
class AuditConfig:
    """How the decision audit log behaves for one run.

    Every record carries its candidate-node snapshot, capped at
    :data:`MAX_CANDIDATES`.

    Attributes:
        capacity: Ring-buffer size in decision records.  Old records are
            dropped (and counted) once the buffer fills; ``None`` keeps
            every record (the ``repro explain`` diff needs the full
            stream).
        jsonl_path: When set, every record is also appended to this file
            as one JSON object per line *as it is recorded* — the
            flight-recorder export, unaffected by ring eviction.
    """

    capacity: Optional[int] = 4096
    jsonl_path: Optional[Union[str, Path]] = None

    def __post_init__(self) -> None:
        if self.capacity is not None and self.capacity < 1:
            raise ValueError(f"capacity must be >= 1 or None, got {self.capacity}")


class CandidateState(NamedTuple):
    """One candidate node's table state at decision time."""

    node: int
    #: ``Available[node]`` (raw predicted available time, not floored).
    available: float
    #: Whether the task's chunk was predicted resident on the node.
    cached: bool
    #: ``exec_estimate(chunk, node, group)`` — render only when cached,
    #: I/O + render otherwise.
    estimate: float


class DecisionRecord(NamedTuple):
    """One audited scheduling decision.

    Job identity is ``(user, action, sequence)`` — deliberately not the
    process-global ``job_id``, so records from two separate runs of the
    same trace are directly comparable (the ``repro explain`` diff
    depends on this).
    """

    time: float
    #: Ordinal of the scheduler invocation that produced the decision
    #: (the scheduling cycle for cycle-triggered policies).
    cycle: int
    user: int
    action: int
    sequence: int
    job_type: str
    task_index: int
    dataset: str
    chunk_index: int
    #: Chosen node (``-1`` for shed records).
    node: int
    reason: str
    candidates: Tuple[CandidateState, ...]

    def key(self) -> Tuple[int, int, int, int]:
        """Cross-run task identity: ``(user, action, sequence, task)``."""
        return (self.user, self.action, self.sequence, self.task_index)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serializable form (one flight-recorder line)."""
        d = self._asdict()
        d["candidates"] = [c._asdict() for c in self.candidates]
        return d


def snapshot_candidates(
    tables: "SchedulerTables",
    task: "RenderTask",
    chosen: int,
    max_candidates: int,
) -> Tuple[CandidateState, ...]:
    """Capture the candidate set a placement decision saw.

    The interesting candidates are always: the chosen node, the
    globally min-available node (what a locality-blind policy would
    take), and the cached replicas of the task's chunk (what a
    locality-aware policy scores).  Among the remaining nodes the I/O
    penalty is uniform, so this bounded set is exactly the set any of
    the implemented policies could have preferred.

    Must be called *before* the assignment mutates the tables.

    This runs once per audited placement, so the per-node estimate is
    split into its node-independent halves up front
    (:meth:`~repro.core.tables.SchedulerTables.estimate_components`)
    instead of calling ``exec_estimate`` per candidate — same values,
    one render/I-O pricing per decision.
    """
    chunk = task.chunk
    hit_est, cold_est = tables.estimate_components(
        chunk, task.job.composite_group_size
    )
    return _candidates(
        chosen, tables.min_available_node(), tables.available,
        tables.cached_nodes(chunk), hit_est, cold_est, max_candidates,
    )


def _candidates(
    chosen, min_node, available, replicas, hit_est, cold_est, max_candidates
) -> Tuple[CandidateState, ...]:
    """Chosen node, min-available node, then sorted replicas up to the cap."""
    cached = chosen in replicas
    out = [
        CandidateState(
            chosen, available[chosen], cached, hit_est if cached else cold_est
        )
    ]
    if min_node != chosen:
        cached = min_node in replicas
        out.append(
            CandidateState(
                min_node,
                available[min_node],
                cached,
                hit_est if cached else cold_est,
            )
        )
    for k in sorted(replicas):
        if len(out) >= max_candidates:
            break
        if k != chosen and k != min_node:
            out.append(CandidateState(k, available[k], True, hit_est))
    return tuple(out)


def _shed_record(now: float, cycle: int, request) -> DecisionRecord:
    """The record of a request the frontend refused (no task, no node)."""
    return DecisionRecord(
        now,
        cycle,
        request.user,
        request.action,
        request.sequence,
        request.job_type.value,
        -1,
        request.dataset,
        -1,
        -1,
        REASON_SHED,
        (),
    )


class AuditLog:
    """Bounded ring buffer of :class:`DecisionRecord` + flight recorder.

    One instance exists per audited run; the scheduler context holds it
    (or ``None`` when auditing is off) and records one decision per
    assignment.  The ring keeps the most recent ``capacity`` records;
    ``total_recorded`` / ``dropped`` and the per-reason totals cover the
    whole run regardless of eviction, so they are deterministic inputs
    for the benchmark regression gate.

    The hot path is deliberately lazy: :meth:`record_assignment` only
    captures the time-varying table state (availability and residency
    as C-level tuple copies, plus the chunk's ``io_estimates`` entry)
    in a flat entry and defers building the :class:`DecisionRecord`
    until the log is first read — everything else a record needs (job
    identity, chunk, the min-available node, the pure render price) is
    recomputable from the capture later.
    :meth:`record_shed` defers the same way, keeping only the refused
    request and the clock.  The streaming flight recorder materializes
    immediately (the write dominates anyway), and records evicted from
    the ring before anyone read them are never built at all.

    Attributes:
        invocations: Scheduler invocations seen (``begin_invocation``).
        total_recorded: Decisions recorded over the whole run.
        reason_totals: Per-reason decision counts over the whole run.
    """

    def __init__(
        self,
        config: Optional[AuditConfig] = None,
        *,
        scheduler: str = "",
        scenario: str = "",
    ) -> None:
        self.config = config if config is not None else AuditConfig()
        self.scheduler = scheduler
        self.scenario = scenario
        self._ring: Deque = deque(maxlen=self.config.capacity)
        self._ring_append = self._ring.append
        self._pending = False
        self._tables = None
        self._replicas_get = None
        self._available = None
        self._estimate_table = None
        # Materialization context: the render price list (a pure
        # function of the capture), read off the hot path.
        self._render_times = None
        self.invocations = 0
        self.shed_count = 0
        self.reason_totals: Dict[str, int] = {}
        self._stream: Optional[IO[str]] = None
        self.jsonl_path: Optional[Path] = None
        if self.config.jsonl_path is not None:
            self.jsonl_path = Path(self.config.jsonl_path)
            if self.jsonl_path.parent != Path("."):
                self.jsonl_path.parent.mkdir(parents=True, exist_ok=True)
            self._stream = self.jsonl_path.open("w")

    # -- recording ---------------------------------------------------------

    def begin_invocation(self, now: float, jobs: int) -> None:
        """Mark one scheduler invocation (cycle ordinal for records)."""
        self.invocations += 1

    def record_assignment(
        self,
        task: "RenderTask",
        node: int,
        tables: "SchedulerTables",
        now: float,
        reason: Optional[str],
    ) -> None:
        """Audit one placement (called by ``SchedulerContext.assign``).

        Runs *before* the tables absorb the assignment, so the candidate
        snapshot reflects the state the policy actually scored.  When
        the policy did not state a reason (custom schedulers), one is
        derived from the tables: cached chunk → ``cache-hit``, chosen
        node == min-available → ``only-available``, else
        ``min-estimate``.
        """
        if tables is not self._tables:
            self._bind_tables(tables)
        job, index, chunk = task
        replicas = self._replicas_get(chunk)
        if reason is None:
            if replicas and node in replicas:
                reason = REASON_CACHE_HIT
            else:
                # min_available_node() inlined: one C-level scan over
                # the shared availability list.
                available = self._available
                reason = (
                    REASON_ONLY_AVAILABLE
                    if node == available.index(min(available))
                    else REASON_MIN_ESTIMATE
                )
        totals = self.reason_totals
        try:
            totals[reason] += 1
        except KeyError:
            totals[reason] = 1
        # The handle in the entry keeps its job alive for
        # materialization; the placement time goes to the job.
        times = job.assign_times
        if times is None:
            times = job.assign_times = [None] * len(job.chunks)
        times[index] = now
        # C-level copies of the mutable state, plus the chunk's
        # time-varying Estimate entry.  Everything else a record needs
        # (min-available node, render estimate, membership, the
        # candidate cap) is a pure function of this capture and is
        # deferred to materialization.
        entry = (
            now,
            self.invocations,
            task,
            node,
            reason,
            tuple(replicas) if replicas else (),
            tuple(self._available),
            self._estimate_table[chunk],
        )
        if self._stream is None:
            self._ring_append(entry)
            self._pending = True
        else:
            record = self._record_from_entry(entry)
            self._ring_append(record)
            self._stream.write(json.dumps(record.to_dict()) + "\n")
            # Flush per record: a mid-run crash loses at most the line
            # being written, and a tailing reader always sees complete
            # records (plus at most one torn trailing line).
            self._stream.flush()

    def _bind_tables(self, tables: "SchedulerTables") -> None:
        """Resolve per-decision table accessors once per tables object.

        The audit hook fires per placement, so the replica map, the
        availability view and the Estimate table are bound directly
        (one dict/list read per decision instead of a method-call
        chain).  The render price is a pure function of the chunk, so
        materialization reads it later; only the Estimate entry is
        time-varying, and the hot path captures it.  Reading an entry
        the tables have not priced yet stores its seed now; that equals
        the tables' own later seed unless a storage fault changes the
        storage spec before they read it.
        """
        self._tables = tables
        self._replicas_get = tables._replicas.get
        self._available = tables.available
        self._estimate_table = tables.io_estimates
        self._render_times = tables.cost.render_times

    def _record_from_entry(self, entry) -> DecisionRecord:
        """Build the full record from a deferred hot-path entry.

        Everything beyond the captured tuples is a pure function of the
        capture: the min-available node is an index into the frozen
        availability copy, and the render estimate comes from the cost
        model's render price list.
        """
        if len(entry) == 3:
            return _shed_record(*entry)
        now, cycle, task, node, reason, replicas, available, est = entry
        job, index, chunk = task
        hit_est = self._render_times[chunk.size, job.composite_group_size]
        candidates = _candidates(
            node, available.index(min(available)), available, replicas,
            hit_est, est + hit_est, MAX_CANDIDATES,
        )
        return DecisionRecord(
            now,
            cycle,
            job.user,
            job.action,
            job.sequence,
            job.job_type.value,
            index,
            chunk.dataset,
            chunk.index,
            node,
            reason,
            candidates,
        )

    def _materialize(self) -> None:
        """Convert every deferred ring entry into a DecisionRecord."""
        if self._pending:
            self._ring = deque(
                (
                    e
                    if type(e) is DecisionRecord
                    else self._record_from_entry(e)
                    for e in self._ring
                ),
                maxlen=self._ring.maxlen,
            )
            self._ring_append = self._ring.append
            self._pending = False

    @property
    def records(self) -> Deque[DecisionRecord]:
        """The ring buffer (oldest first), materialized on access."""
        self._materialize()
        return self._ring

    def record_shed(self, now: float, request) -> None:
        """Audit a request the overload frontend refused.

        ``request`` is a :class:`~repro.workload.trace.Request`; the
        record carries ``node = -1`` / ``task_index = -1`` since no task
        ever existed.  Like an assignment, the record is deferred: the
        ring holds ``(now, cycle, request)`` until the log is read, so
        the shed records a storm evicts are never built.
        """
        self.shed_count += 1
        if self._stream is not None:
            self._append(_shed_record(now, self.invocations, request))
            return
        self._ring_append((now, self.invocations, request))
        self._pending = True
        totals = self.reason_totals
        totals[REASON_SHED] = totals.get(REASON_SHED, 0) + 1

    def record_recovery(self, now: float, reason: str, node: int) -> None:
        """Audit a non-placement recovery action (quarantine, rewarm).

        Placement-shaped recovery (``requeue-crash``, ``speculative``)
        flows through ``SchedulerContext.assign`` like any other
        decision; this records the actions that change node state
        without placing a task, with ``task_index = -1``.
        """
        self._append(
            DecisionRecord(
                now,
                self.invocations,
                -1,
                -1,
                -1,
                "recovery",
                -1,
                "",
                -1,
                node,
                reason,
                (),
            )
        )

    def _append(self, record: DecisionRecord) -> None:
        self._ring_append(record)
        totals = self.reason_totals
        totals[record.reason] = totals.get(record.reason, 0) + 1
        if self._stream is not None:
            self._stream.write(json.dumps(record.to_dict()) + "\n")
            self._stream.flush()  # crash-safe: complete records only

    # -- inspection --------------------------------------------------------

    def __len__(self) -> int:
        return len(self._ring)

    def __iter__(self) -> Iterator[DecisionRecord]:
        return iter(self.records)

    @property
    def total_recorded(self) -> int:
        """Decisions recorded over the whole run (shed included),
        regardless of ring eviction — the per-reason totals summed."""
        return sum(self.reason_totals.values())

    @property
    def dropped(self) -> int:
        """Records evicted from the ring (recorded but no longer held)."""
        return self.total_recorded - len(self._ring)

    def reason_counts(self) -> Dict[str, int]:
        """Whole-run per-reason totals (deterministic; gate-friendly)."""
        return dict(self.reason_totals)

    def decisions_for(self, user: int, action: int, sequence: int):
        """Ring records for one job, in decision order."""
        return [
            r
            for r in self.records
            if r.user == user and r.action == action and r.sequence == sequence
        ]

    def summary(self) -> str:
        """One-line human summary."""
        reasons = ", ".join(
            f"{k}={v}" for k, v in sorted(self.reason_totals.items())
        )
        return (
            f"{self.total_recorded} decisions over {self.invocations} "
            f"invocations ({self.dropped} dropped from ring; {reasons})"
        )

    # -- export ------------------------------------------------------------

    def write_jsonl(self, path: Union[str, Path]) -> Path:
        """Dump the ring's current records as JSONL; returns the path.

        Unlike the streaming ``jsonl_path`` flight recorder this only
        sees what the ring still holds.
        """
        path = Path(path)
        if path.parent != Path("."):
            path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            for record in self.records:
                fh.write(json.dumps(record.to_dict()) + "\n")
        return path

    def close(self) -> None:
        """Finalize the log at the end of a run (idempotent).

        Drops the per-run table bindings and closes the streaming JSONL
        handle.  Deferred records stay deferred — they materialize on
        first read, or in :meth:`__getstate__` when the log is pickled
        back from the ``run_many`` process pool — so an audited run
        that nobody inspects never pays for building them.
        """
        self._tables = None
        self._replicas_get = None
        self._available = None
        self._estimate_table = None
        if self._stream is not None:
            self._stream.close()
            self._stream = None

    def __getstate__(self) -> Dict[str, Any]:
        """Pickle support: materialize the ring, strip live handles.

        Deferred entries hold task and job references (and through them
        the whole job graph); building the flat :class:`DecisionRecord`\\ s
        first keeps the pickled payload small and the log usable on the
        other side of a sweep pool.
        """
        self._materialize()
        state = self.__dict__.copy()
        for key in (
            "_stream",
            "_tables",
            "_replicas_get",
            "_available",
            "_estimate_table",
            "_render_times",
            "_ring_append",
        ):
            state[key] = None
        return state

    def __setstate__(self, state: Dict[str, Any]) -> None:
        self.__dict__.update(state)
        self._ring_append = self._ring.append


def read_audit_jsonl(path) -> List[Dict[str, Any]]:
    """Parsed records of an ``--audit-jsonl`` file, tolerating a torn tail.

    The writer flushes per record, so a mid-run crash (or a reader
    racing a live run) leaves at most one partial trailing line — this
    reader skips it instead of raising, via the same
    :func:`repro.obs.stream.iter_jsonl` discipline the telemetry stream
    uses.
    """
    from repro.obs.stream import iter_jsonl

    return list(iter_jsonl(path))


__all__ = [
    "REASON_CACHE_HIT",
    "REASON_MIN_ESTIMATE",
    "REASON_ONLY_AVAILABLE",
    "REASON_FALLBACK",
    "REASON_SHED",
    "REASON_REQUEUE_CRASH",
    "REASON_QUARANTINE",
    "REASON_SPECULATIVE",
    "REASON_REWARM",
    "REASON_CODES",
    "MAX_CANDIDATES",
    "AuditConfig",
    "CandidateState",
    "DecisionRecord",
    "AuditLog",
    "read_audit_jsonl",
    "snapshot_candidates",
]
