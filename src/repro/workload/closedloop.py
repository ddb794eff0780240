"""Closed-loop interactive users: request pacing by delivered frames.

The Table II scenarios drive the system *open-loop* — one request per
30 ms per action regardless of completions — which is how the paper
measures (its Scenario 4 note: latencies soar "because rendering jobs
are unceasingly pushed into the system.  But in a real scenario, users
usually do not continuously make actions and would stop the
interactions when they sense a lag").

:class:`ClosedLoopUser` models that real user: it issues requests at
the target interval only while fewer than ``window`` of its frames are
outstanding; otherwise it waits for a completion before continuing.
Under overload this bounds the user-perceived latency to roughly
``window x service time`` instead of growing without bound, at the cost
of a lower issued-frame rate — the trade the open/closed-loop ablation
bench quantifies.

Closed-loop traffic cannot be pre-generated as a trace (it depends on
completions), so these drivers live inside the simulation:
:func:`run_closed_loop` wires users to a service and runs the event
loop.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Sequence, Union

from repro.cluster.event_queue import PRIORITY_ARRIVAL, EventQueue
from repro.core.chunks import Dataset
from repro.core.job import JobType, RenderJob
from repro.core.registry import make_scheduler
from repro.core.scheduler_base import Scheduler
from repro.util.validation import check_positive

if TYPE_CHECKING:  # pragma: no cover - typing only (sim imports workload)
    from repro.sim.config import SystemConfig
    from repro.sim.service import VisualizationService


class ClosedLoopUser:
    """One user who stops requesting when the system lags.

    Args:
        service: The visualization service to submit to.
        dataset: Dataset the user explores.
        action_id / user_id: Identity for metrics.
        interval: Desired request spacing (1 / target fps).
        window: Maximum outstanding (issued, uncompleted) frames before
            the user pauses — their lag tolerance.
        start / duration: Active span of the session.
    """

    def __init__(
        self,
        service: VisualizationService,
        dataset: Dataset,
        *,
        action_id: int,
        user_id: int,
        interval: float,
        window: int,
        start: float,
        duration: float,
    ) -> None:
        check_positive("interval", interval)
        check_positive("window", window)
        check_positive("duration", duration)
        self.service = service
        self.dataset = dataset
        self.action_id = action_id
        self.user_id = user_id
        self.interval = interval
        self.window = window
        self.start = start
        self.end = start + duration
        self.issued = 0
        self.outstanding = 0
        self.stalled = 0  # ticks skipped because the window was full
        self._waiting = False
        service.add_completion_listener(self._on_complete)

    # -- driving -----------------------------------------------------------

    def begin(self) -> None:
        """Arm the first request tick."""
        self.service.cluster.events.schedule(
            self.start, self._tick, priority=PRIORITY_ARRIVAL
        )

    def _tick(self) -> None:
        events = self.service.cluster.events
        now = events.now
        if now >= self.end:
            return
        if self.outstanding >= self.window:
            # Lag sensed: pause until a frame comes back.
            self.stalled += 1
            self._waiting = True
            return
        job = RenderJob(
            JobType.INTERACTIVE,
            self.dataset,
            now,
            user=self.user_id,
            action=self.action_id,
            sequence=self.issued,
            job_id=self.service.job_ids.allocate(),
        )
        self.issued += 1
        self.outstanding += 1
        self.service.submit(job)
        events.schedule(
            now + self.interval, self._tick, priority=PRIORITY_ARRIVAL
        )

    def _on_complete(self, job: RenderJob) -> None:
        if job.action != self.action_id:
            return
        self.outstanding -= 1
        if self._waiting:
            self._waiting = False
            events = self.service.cluster.events
            if events.now < self.end:
                events.schedule(
                    events.now + self.interval,
                    self._tick,
                    priority=PRIORITY_ARRIVAL,
                )


@dataclass
class ClosedLoopResult:
    """Outcome of a closed-loop run."""

    service: VisualizationService
    users: List[ClosedLoopUser]
    duration: float

    @property
    def issued(self) -> int:
        """Requests actually issued (paced by the users)."""
        return sum(u.issued for u in self.users)

    @property
    def completed(self) -> int:
        """Jobs completed."""
        return self.service.jobs_completed

    def mean_interactive_latency(self) -> float:
        """Mean Definition-3 latency of completed interactive jobs."""
        records = self.service.collector.interactive_records()
        if not records:
            return 0.0
        return sum(r.latency for r in records) / len(records)

    def delivered_fps_per_user(self) -> Dict[int, float]:
        """Completed frames per active second, per user."""
        counts: Dict[int, int] = {}
        for record in self.service.collector.interactive_records():
            counts[record.action] = counts.get(record.action, 0) + 1
        return {
            u.action_id: counts.get(u.action_id, 0) / (u.end - u.start)
            for u in self.users
        }


def run_closed_loop(
    system: SystemConfig,
    datasets: Sequence[Dataset],
    *,
    scheduler: Union[str, Scheduler],
    users: int,
    duration: float,
    target_framerate: float = 100.0 / 3.0,
    window: int = 3,
    prewarm: bool = True,
) -> ClosedLoopResult:
    """Run closed-loop users against a cluster (user i → dataset i mod n).

    Args:
        window: Each user's lag tolerance in outstanding frames.
    """
    from repro.sim.service import VisualizationService  # deferred: sim imports workload

    check_positive("users", users)
    if not datasets:
        raise ValueError("need at least one dataset")
    events = EventQueue()
    cluster = system.build_cluster(events=events)
    sched = make_scheduler(scheduler) if isinstance(scheduler, str) else scheduler
    sched.reset()
    service = VisualizationService(cluster, sched, system.chunk_max)
    if prewarm:
        service.prewarm(list(datasets))
    interval = 1.0 / target_framerate
    drivers: List[ClosedLoopUser] = []
    for i in range(users):
        user = ClosedLoopUser(
            service,
            datasets[i % len(datasets)],
            action_id=i,
            user_id=i,
            interval=interval,
            window=window,
            start=(i * interval / max(users, 1)),  # staggered phases
            duration=duration,
        )
        user.begin()
        drivers.append(user)
    service.start()
    events.run(until=duration)
    return ClosedLoopResult(service=service, users=drivers, duration=duration)


__all__ = ["ClosedLoopUser", "ClosedLoopResult", "run_closed_loop"]
