"""Backpressure: the bounded head-node job queue.

The paper's dispatching thread pops an unbounded queue; under sustained
overload that queue *is* the latency.  :class:`BoundedQueue` caps how
many jobs may be inside the service at once (head-node queue, scheduler
backlog, and in-flight tasks all count — ``outstanding_jobs`` is the
Little's-law quantity that actually bounds waiting time) and applies a
configurable overflow policy to the excess.  Queue depth, deferral, and
shed counts are exposed through the metrics registry so the overload is
visible, not silent.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Callable, Deque, List, Optional, Tuple

from repro.frontend.config import BackpressureConfig, QueuePolicy

if TYPE_CHECKING:  # pragma: no cover - typing only (avoids workload cycle)
    from repro.workload.trace import Request

#: Policies bound once for the per-arrival path (see
#: :mod:`repro.frontend.admission`).
_SHED_NEWEST = QueuePolicy.SHED_NEWEST
_SHED_OLDEST = QueuePolicy.SHED_OLDEST
_DEGRADE = QueuePolicy.DEGRADE


class BoundedQueue:
    """Wait queue in front of the service, bounded per the policy.

    ``offer`` decides the fate of one admitted request; ``drain`` is
    called on every job completion to feed waiting requests back in as
    capacity frees up.  The queue never reorders requests (FIFO), so a
    blocked request cannot be overtaken by a later one.
    """

    def __init__(
        self,
        config: BackpressureConfig,
        service,
        forward: Callable[[Request, object], None],
        *,
        metrics=None,
        on_overflow: Optional[Callable[[], None]] = None,
    ) -> None:
        self.config = config
        self.service = service
        self._forward = forward
        self._on_overflow = on_overflow
        self._waiting: Deque[Tuple[Request, object]] = deque()
        self.deferred = 0
        self.shed_oldest = 0
        self.shed_newest = 0
        self.max_wait_depth = 0
        if metrics is not None:
            metrics.gauge(
                "repro_frontend_wait_depth",
                "requests parked in the frontend wait queue",
            ).read_from(lambda: len(self._waiting))
            metrics.counter(
                "repro_frontend_deferred",
                "requests deferred by backpressure",
            ).read_from(lambda: self.deferred)
            for which, count in (
                ("oldest", lambda: self.shed_oldest),
                ("newest", lambda: self.shed_newest),
            ):
                metrics.counter(
                    "repro_frontend_shed",
                    "requests shed by the bounded queue",
                    labels={"which": which},
                ).read_from(count)

    # -- inspection --------------------------------------------------------

    @property
    def waiting_count(self) -> int:
        """Requests currently parked in the wait queue."""
        return len(self._waiting)

    @property
    def shed(self) -> int:
        """Total requests shed (either end)."""
        return self.shed_oldest + self.shed_newest

    # -- admission-side ----------------------------------------------------

    def offer(self, request: Request, dataset: object) -> None:
        """Forward, park, or shed one admitted request."""
        limit = self.config.queue_limit
        if not self._waiting and self.service.outstanding_jobs < limit:
            self._forward(request, dataset)
            return
        policy = self.config.policy
        if policy is _SHED_NEWEST and len(self._waiting) >= limit:
            self.shed_newest += 1
            return
        self._waiting.append((request, dataset))
        self.deferred += 1
        if policy is _SHED_OLDEST:
            while len(self._waiting) > limit:
                self._waiting.popleft()
                self.shed_oldest += 1
        elif policy is _DEGRADE and self._on_overflow is not None:
            self._on_overflow()
        if len(self._waiting) > self.max_wait_depth:
            self.max_wait_depth = len(self._waiting)

    # -- completion-side ---------------------------------------------------

    def drain(self) -> int:
        """Feed waiting requests into freed capacity; returns how many."""
        released = 0
        limit = self.config.queue_limit
        while self._waiting and self.service.outstanding_jobs < limit:
            request, dataset = self._waiting.popleft()
            released += 1
            self._forward(request, dataset)
        return released

    def flush(self) -> List[Tuple[Request, object]]:
        """Remove and return everything still waiting (end of run)."""
        out = list(self._waiting)
        self._waiting.clear()
        return out


__all__ = ["BoundedQueue"]
