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
        self.records: List[AdmissionRecord] = []
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
        """Interactive sessions seen within ``session_ttl`` of ``now``."""
        ttl = self.config.session_ttl
        stale = [
            action
            for action, last in self._session_last_seen.items()
            if now - last > ttl
        ]
        for action in stale:
            del self._session_last_seen[action]
        return len(self._session_last_seen)

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
        """Admit or reject one request, updating all accounting."""
        decision = self._classify(request, now)
        if decision is Decision.ADMIT:
            self.admitted += 1
            return decision
        if decision is Decision.REJECT_RATE:
            self.rejected_rate += 1
        else:
            self.rejected_sessions += 1
        if len(self.records) < self.MAX_RECORDS:
            self.records.append(
                AdmissionRecord(now, request.user, request.action, decision)
            )
        return decision

    def _classify(self, request: Request, now: float) -> Decision:
        cfg = self.config
        interactive = request.job_type is JobType.INTERACTIVE
        if interactive:
            # The session cap is checked before the token bucket so a
            # turned-away session does not drain its user's budget.
            if request.action in self._rejected_actions:
                return Decision.REJECT_SESSIONS
            if (
                request.action not in self._session_last_seen
                and cfg.max_sessions is not None
                and self.active_sessions(now) >= cfg.max_sessions
            ):
                self._rejected_actions.add(request.action)
                return Decision.REJECT_SESSIONS
        if cfg.rate is not None:
            bucket = self._buckets.get(request.user)
            if bucket is None:
                bucket = TokenBucket(cfg.rate, cfg.bucket_capacity, now)
                self._buckets[request.user] = bucket
            if not bucket.try_take(now):
                return Decision.REJECT_RATE
        if interactive:
            self._session_last_seen[request.action] = now
        return Decision.ADMIT

    def summary(self) -> Tuple[int, int, int]:
        """``(admitted, rejected_rate, rejected_sessions)`` totals."""
        return (self.admitted, self.rejected_rate, self.rejected_sessions)


__all__ = [
    "Decision",
    "TokenBucket",
    "AdmissionRecord",
    "AdmissionController",
]
