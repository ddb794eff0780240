"""Admission control: token buckets and the concurrent-session cap.

The head node of the paper accepts every request (§III, Algorithm 1);
under a Scenario-4-style burst the job queue grows without bound and
*every* user's delivered framerate collapses.  Admission control turns
that into a fair, explicit decision: each user gets a token-bucket
request budget, and the service as a whole caps how many interactive
sessions it will serve concurrently.  Rejections are recorded — never
silently dropped — so operators can see exactly who was turned away and
why.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Set, Tuple

from repro.core.job import JobType
from repro.frontend.config import AdmissionConfig

if TYPE_CHECKING:  # pragma: no cover - typing only (avoids workload cycle)
    from repro.workload.trace import Request


class Decision(enum.Enum):
    """Outcome of one admission check."""

    ADMIT = "admit"
    REJECT_RATE = "reject-rate"
    REJECT_SESSIONS = "reject-sessions"

    @property
    def admitted(self) -> bool:
        """True when the request may proceed."""
        return self is Decision.ADMIT


#: Enum members bound once for the per-arrival path: reading a member
#: through its class goes through the enum metaclass's attribute hook,
#: about 0.1 µs a read on CPython 3.11, where a module global costs a
#: few ns.
_ADMIT = Decision.ADMIT
_REJECT_RATE = Decision.REJECT_RATE
_REJECT_SESSIONS = Decision.REJECT_SESSIONS
_INTERACTIVE = JobType.INTERACTIVE


class TokenBucket:
    """A standard token bucket in simulated time.

    Starts full; refills continuously at ``rate`` tokens/second up to
    ``capacity``.  One request costs one token.
    """

    __slots__ = ("rate", "capacity", "tokens", "last")

    def __init__(self, rate: float, capacity: float, now: float = 0.0) -> None:
        self.rate = rate
        self.capacity = capacity
        self.tokens = capacity
        self.last = now

    def try_take(self, now: float) -> bool:
        """Refill to ``now`` and consume one token if available."""
        if now > self.last:
            self.tokens = min(
                self.capacity, self.tokens + (now - self.last) * self.rate
            )
            self.last = now
        if self.tokens >= 1.0:
            self.tokens -= 1.0
            return True
        return False


@dataclass
class AdmissionRecord:
    """One rejected request, for the audit log."""

    time: float
    user: int
    action: int
    decision: Decision


class AdmissionController:
    """Applies :class:`AdmissionConfig` to the request stream.

    Session semantics: an interactive session is one user action; it is
    *active* from the first admitted request until ``session_ttl``
    seconds pass without another.  A new session beyond ``max_sessions``
    is rejected atomically — every subsequent request of that action is
    refused too, so a rejected user gets a clean busy signal rather than
    a sub-framerate trickle.  Batch requests are exempt from the session
    cap (the scheduler already defers batch work) but do consume their
    user's token budget.
    """

    #: At most this many individual rejection records are retained; the
    #: counters keep exact totals beyond it.
    MAX_RECORDS = 1024

    def __init__(self, config: AdmissionConfig, *, metrics=None) -> None:
        self.config = config
        self._buckets: Dict[int, TokenBucket] = {}
        self._session_last_seen: Dict[int, float] = {}
        self._rejected_actions: Set[int] = set()
        self.admitted = 0
        self.rejected_rate = 0
        self.rejected_sessions = 0
        #: ``(time, user, action, decision)`` per retained rejection;
        #: :attr:`records` builds the record objects when read.
        self._records: List[Tuple[float, int, int, Decision]] = []
        if metrics is not None:
            metrics.counter(
                "repro_frontend_admitted",
                "requests admitted by the frontend",
            ).read_from(lambda: self.admitted)
            for decision, count in (
                (Decision.REJECT_RATE, lambda: self.rejected_rate),
                (Decision.REJECT_SESSIONS, lambda: self.rejected_sessions),
            ):
                metrics.counter(
                    "repro_frontend_rejected",
                    "requests rejected by admission control",
                    labels={"reason": decision.value},
                ).read_from(count)

    # -- inspection --------------------------------------------------------

    def active_sessions(self, now: float) -> int:
        """Interactive sessions seen within ``session_ttl`` of ``now``.

        Forgets the sessions that expired, in this one frame.
        """
        ttl = self.config.session_ttl
        seen = self._session_last_seen
        for action, last in list(seen.items()):
            if now - last > ttl:
                del seen[action]
        return len(seen)

    @property
    def records(self) -> List[AdmissionRecord]:
        """The first :attr:`MAX_RECORDS` rejections, oldest first."""
        return [AdmissionRecord(*row) for row in self._records]

    @property
    def rejected(self) -> int:
        """Total rejected requests (all reasons)."""
        return self.rejected_rate + self.rejected_sessions

    @property
    def rejected_action_ids(self) -> Set[int]:
        """Actions refused by the session cap (never served at all)."""
        return set(self._rejected_actions)

    # -- decision ----------------------------------------------------------

    def decide(self, request: Request, now: float) -> Decision:
        """Admit or reject one request, updating all accounting.

        The one home of the admission rules, in one frame: the session
        cap is checked before the token bucket, so a turned-away
        session does not drain its user's budget, and an admitted
        interactive request refreshes its session.  Beyond the calls
        below, an arrival costs no Python frame here:
        :meth:`active_sessions` runs only for an action not yet seen
        while a cap is set, and :meth:`TokenBucket.try_take` only with
        a finite ``rate``; a rejection's record is kept as a tuple.
        """
        cfg = self.config
        action = request.action
        interactive = request.job_type is _INTERACTIVE
        decision = _ADMIT
        if interactive:
            if action in self._rejected_actions:
                decision = _REJECT_SESSIONS
            elif (
                action not in self._session_last_seen
                and cfg.max_sessions is not None
                and self.active_sessions(now) >= cfg.max_sessions
            ):
                self._rejected_actions.add(action)
                decision = _REJECT_SESSIONS
        if decision is _ADMIT and cfg.rate is not None:
            bucket = self._buckets.get(request.user)
            if bucket is None:
                bucket = TokenBucket(cfg.rate, cfg.bucket_capacity, now)
                self._buckets[request.user] = bucket
            if not bucket.try_take(now):
                decision = _REJECT_RATE
        if decision is _ADMIT:
            if interactive:
                self._session_last_seen[action] = now
            self.admitted += 1
            return decision
        if decision is _REJECT_RATE:
            self.rejected_rate += 1
        else:
            self.rejected_sessions += 1
        if len(self._records) < self.MAX_RECORDS:
            self._records.append((now, request.user, action, decision))
        return decision

    def summary(self) -> Tuple[int, int, int]:
        """``(admitted, rejected_rate, rejected_sessions)`` totals."""
        return (self.admitted, self.rejected_rate, self.rejected_sessions)


__all__ = [
    "Decision",
    "TokenBucket",
    "AdmissionRecord",
    "AdmissionController",
]
