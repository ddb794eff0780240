"""The overload-management frontend: listener-side policy enforcement.

:class:`ServiceFrontend` sits between the workload trace and the
:class:`~repro.sim.service.VisualizationService` — the paper's listening
thread, grown a spine.  Every incoming request passes three gates:

1. **Admission** (:mod:`repro.frontend.admission`) — per-user token
   buckets and the global session cap decide whether the request may
   enter at all; rejections are recorded, never silently dropped.
2. **Degradation** (:mod:`repro.frontend.degradation`) — the quality
   ladder may thin the session's frame rate (the request is withheld
   and counted) or reduce the job's rendered resolution (fewer chunks).
3. **Backpressure** (:mod:`repro.frontend.backpressure`) — the bounded
   queue forwards, parks, or sheds the request depending on how much
   work is already in the service.

Jobs forwarded after waiting keep their *original* arrival time, so
Definition-3 latency honestly includes frontend queueing delay.

A run with ``frontend=None`` never constructs any of this and is
bit-identical to the pre-frontend simulator.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, List, Optional, Set

from repro.core.job import JobType
from repro.frontend.admission import AdmissionController, Decision
from repro.frontend.backpressure import BoundedQueue
from repro.frontend.config import FrontendConfig
from repro.frontend.degradation import DegradationController, QualityChange

if TYPE_CHECKING:  # pragma: no cover - typing only (avoids workload cycle)
    from repro.workload.trace import Request

#: Enum members bound once for the per-arrival path (see
#: :mod:`repro.frontend.admission`).
_ADMIT = Decision.ADMIT
_INTERACTIVE = JobType.INTERACTIVE


@dataclass
class FrontendStats:
    """Per-run overload-management accounting.

    Attached to :class:`~repro.sim.simulator.SimulationResult` as
    ``.frontend`` when the run had a :class:`FrontendConfig`.
    """

    config: FrontendConfig
    requests_seen: int = 0
    forwarded: int = 0
    rejected_rate: int = 0
    rejected_sessions: int = 0
    deferred: int = 0
    shed_oldest: int = 0
    shed_newest: int = 0
    frames_dropped: int = 0
    degraded_jobs: int = 0
    max_wait_depth: int = 0
    unserved_at_end: int = 0
    final_quality_level: int = 0
    quality_changes: List[QualityChange] = field(default_factory=list)
    rejected_actions: Set[int] = field(default_factory=set)

    @property
    def rejected(self) -> int:
        """Requests refused by admission control."""
        return self.rejected_rate + self.rejected_sessions

    @property
    def shed(self) -> int:
        """Requests dropped by the bounded queue."""
        return self.shed_oldest + self.shed_newest

    def summary(self) -> str:
        """One-line overload report."""
        return (
            f"frontend: {self.forwarded}/{self.requests_seen} forwarded, "
            f"{self.rejected} rejected "
            f"(rate {self.rejected_rate} / sessions {self.rejected_sessions}), "
            f"{self.shed} shed, {self.frames_dropped} frames thinned, "
            f"{len(self.quality_changes)} quality moves "
            f"(final level {self.final_quality_level})"
        )


class ServiceFrontend:
    """Admission + degradation + backpressure in front of the service.

    Args:
        config: The overload-management policy.
        service: The head-node service to protect.
        target_framerate: The scenario's interactive fps target (the
            degradation controller's default objective).
        horizon: Trace duration; bounds the controller's sampling loop
            in non-drain runs.
        metrics: Optional :class:`~repro.obs.metrics.MetricsRegistry`;
            when given, every gate exposes its counters/gauges.
        audit: Optional :class:`~repro.obs.audit.AuditLog`; when given,
            entry-gate refusals (admission rejects, thinned frames) are
            recorded as ``shed`` decisions.
    """

    def __init__(
        self,
        config: FrontendConfig,
        service,
        *,
        target_framerate: float,
        horizon: Optional[float] = None,
        metrics=None,
        audit=None,
    ) -> None:
        self.config = config
        self.service = service
        self._events = service.cluster.events
        self.audit = audit
        self._horizon = horizon
        self.requests_seen = 0
        self.forwarded = 0
        self.degraded_jobs = 0
        self.admission: Optional[AdmissionController] = (
            AdmissionController(config.admission, metrics=metrics)
            if config.admission is not None
            else None
        )
        self.degradation: Optional[DegradationController] = (
            DegradationController(
                config.degrade, target_framerate, metrics=metrics
            )
            if config.degrade is not None
            else None
        )
        self.queue: Optional[BoundedQueue] = (
            BoundedQueue(
                config.backpressure,
                service,
                self._forward,
                metrics=metrics,
                on_overflow=(
                    self.degradation.overflow_nudge
                    if self.degradation is not None
                    else None
                ),
            )
            if config.backpressure is not None
            else None
        )
        if self.queue is not None:
            service.add_completion_listener(self._on_completion)

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> None:
        """Arm the degradation controller's sampling loop."""
        if self.degradation is not None:
            self.degradation.attach(self.service, horizon=self._horizon)

    @property
    def waiting_count(self) -> int:
        """Requests parked behind backpressure."""
        return self.queue.waiting_count if self.queue is not None else 0

    # -- request path ------------------------------------------------------

    def submit_request(self, request: Request, dataset: object) -> None:
        """The listener-thread entry point (replaces the service's).

        An arrival refused by admission or thinned by degradation costs
        one call to :meth:`AdmissionController.decide`, one to
        :meth:`DegradationController.keep_frame` while a rung below
        full frame rate is active, and one to the audit's
        ``record_shed``; the clock and the gate's factor are read as
        plain attributes.
        """
        self.requests_seen += 1
        now = self._events._now
        if self.admission is not None:
            if self.admission.decide(request, now) is not _ADMIT:
                if self.audit is not None:
                    self.audit.record_shed(now, request)
                return
        degradation = self.degradation
        if (
            degradation is not None
            and degradation.fps_factor < 1.0
            and request.job_type is _INTERACTIVE
            and not degradation.keep_frame(request.sequence)
        ):
            if self.audit is not None:
                self.audit.record_shed(now, request)
            return
        if self.queue is not None:
            self.queue.offer(request, dataset)
        else:
            self._forward(request, dataset)

    def _forward(self, request: Request, dataset: object) -> None:
        """Build the job (at the request's true arrival time) and submit."""
        # The service allocates the id: frontend-mediated and direct
        # submissions draw from the same per-run allocator.
        job = self.service.build_job(request, dataset, request.time)
        if self.degradation is not None and request.job_type is _INTERACTIVE:
            factor = self.degradation.level.resolution_factor
            if factor < 1.0:
                job.chunk_fraction = factor
                self.degraded_jobs += 1
        self.forwarded += 1
        self.service.submit(job)

    def _on_completion(self, _job) -> None:
        self.queue.drain()

    # -- results -----------------------------------------------------------

    def stats(self) -> FrontendStats:
        """Freeze the run's overload accounting."""
        out = FrontendStats(
            config=self.config,
            requests_seen=self.requests_seen,
            forwarded=self.forwarded,
            degraded_jobs=self.degraded_jobs,
        )
        if self.admission is not None:
            out.rejected_rate = self.admission.rejected_rate
            out.rejected_sessions = self.admission.rejected_sessions
            out.rejected_actions = self.admission.rejected_action_ids
        if self.queue is not None:
            out.deferred = self.queue.deferred
            out.shed_oldest = self.queue.shed_oldest
            out.shed_newest = self.queue.shed_newest
            out.max_wait_depth = self.queue.max_wait_depth
            out.unserved_at_end = self.queue.waiting_count
        if self.degradation is not None:
            out.frames_dropped = self.degradation.frames_dropped
            out.final_quality_level = self.degradation.level_index
            out.quality_changes = list(self.degradation.changes)
        return out


__all__ = ["FrontendStats", "ServiceFrontend"]
