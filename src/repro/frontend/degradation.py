"""SLO-driven graceful degradation: the quality-ladder controller.

The controller keeps its own tick on the event queue (not on the
:class:`~repro.obs.probe.Probe`: its tick decides admission; it stops
by the probe's quiescence rule) and converts the
delivered per-session framerate of the last interval into the SLO burn
rate of :mod:`repro.obs.slo` (``(target - fps) / target``).  Sustained
burn above ``step_down_burn`` walks every interactive session one rung
down the quality ladder — first cutting the forwarded frame rate, then
the rendered resolution (fewer chunks per job, per cost-model
Definitions 1-4).  Recovery is hysteretic: the controller only steps
back up after ``patience`` consecutive samples that would satisfy the
*restored* rung's target with margin, so quality does not flap at the
boundary.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.core.job import JOB_TYPES, JobType
from repro.frontend.config import DegradeConfig, QualityLevel
from repro.obs.metrics import default_window_interval
from repro.obs.probe import _keeps_ticking
from repro.obs.slo import SLObjective, fps_burn_rate

#: The interactive type's index in the collector's per-type counts.
_INTERACTIVE = JOB_TYPES.index(JobType.INTERACTIVE)


@dataclass(frozen=True)
class QualityChange:
    """One ladder move, for the audit trail."""

    time: float
    level: int
    name: str
    reason: str
    burn: float


class DegradationController:
    """Walks the quality ladder from sampled SLO burn.

    The burn signal is *global* (mean delivered fps per active session
    vs the current rung's effective target): the head node degrades and
    restores all interactive sessions together, which keeps the policy
    fair and the controller O(1) per tick.

    Attributes:
        fps_factor: The active rung's ``fps_factor``, the share of each
            session's frames :meth:`keep_frame` passes.
    """

    def __init__(
        self,
        config: DegradeConfig,
        target_fps: float,
        *,
        metrics=None,
    ) -> None:
        self.config = config
        self.target_fps = (
            config.target_fps if config.target_fps is not None else target_fps
        )
        self.level_index = 0
        self.changes: List[QualityChange] = []
        self.frames_dropped = 0
        self._service = None
        self._horizon: Optional[float] = None
        self._interval = 0.0
        self._last_time = 0.0
        self._last_interactive = 0
        self._hot = 0
        self._cool = 0
        # Per-rung fps objectives so burn comes from repro.obs.slo with
        # the exact semantics SLO reports use.
        self._objectives: Tuple[SLObjective, ...] = tuple(
            SLObjective(
                "fps",
                max(self.target_fps * lv.fps_factor, 1e-9),
                window=max(config.sample_interval or 0.5, 1e-3),
            )
            for lv in config.ladder
        )
        if metrics is not None:
            metrics.gauge(
                "repro_frontend_quality_level",
                "current quality-ladder rung (0 = full quality)",
            ).read_from(lambda: self.level_index)
            metrics.counter(
                "repro_frontend_frames_dropped",
                "interactive frames withheld by degradation",
            ).read_from(lambda: self.frames_dropped)

    # -- state -------------------------------------------------------------

    @property
    def level_index(self) -> int:
        """Index of the active rung in the ladder (0 = full quality)."""
        return self._level_index

    @level_index.setter
    def level_index(self, index: int) -> None:
        # ``fps_factor`` is a plain attribute, written with the index,
        # so the arrival path reads the frame gate's factor without a
        # call.
        self._level_index = index
        self.fps_factor = self.config.ladder[index].fps_factor

    @property
    def level(self) -> QualityLevel:
        """The active quality rung."""
        return self.config.ladder[self._level_index]

    @property
    def degraded(self) -> bool:
        """True while below full quality."""
        return self._level_index > 0

    def keep_frame(self, sequence: int) -> bool:
        """Whether frame ``sequence`` of a session passes the fps gate.

        Deterministic stride thinning: with factor ``f`` the kept frames
        are those where ``floor((seq+1)*f) > floor(seq*f)`` — evenly
        spaced, no RNG, identical across schedulers.  At factor 1 the
        rule keeps every frame, so the frontend calls this only while
        :attr:`fps_factor` is below 1.
        """
        f = self.fps_factor
        keep = int((sequence + 1) * f) > int(sequence * f)
        if not keep:
            self.frames_dropped += 1
        return keep

    # -- sampling ----------------------------------------------------------

    def attach(self, service, *, horizon: Optional[float] = None) -> None:
        """Start the controller's sampling loop on the event queue."""
        self._service = service
        self._horizon = horizon
        interval = self.config.sample_interval
        if interval is None:
            interval = 0.5 if horizon is None else default_window_interval(horizon)
        self._interval = interval
        events = service.cluster.events
        events.schedule(0.0, self._tick)
        events._periodic += 1

    def _delivered_burns(self, now: float) -> Optional[Tuple[float, float]]:
        """Burn vs the current rung and vs the rung above, or ``None``.

        ``None`` means the interval had no active interactive session,
        so there is nothing to judge (an idle service is not degraded
        further, nor credited with recovery).
        """
        service = self._service
        duration = now - self._last_time
        if duration <= 0.0:
            return None
        completed = (
            service.collector.completed_by_code[_INTERACTIVE]
            - self._last_interactive
        )
        active = sum(
            1
            for _count, _first, last in service.collector.action_issues.values()
            if last >= self._last_time
        )
        if active == 0:
            return None
        fps = completed / duration / active
        current = fps_burn_rate(self._objectives[self._level_index], fps)
        above = fps_burn_rate(
            self._objectives[max(self._level_index - 1, 0)], fps
        )
        return current, above

    def _tick(self) -> None:
        service = self._service
        now = service.cluster.now
        burns = self._delivered_burns(now)
        self._last_time = now
        self._last_interactive = service.collector.completed_by_code[
            _INTERACTIVE
        ]
        if burns is not None:
            burn, burn_above = burns
            cfg = self.config
            if burn > cfg.step_down_burn:
                self._hot += 1
                self._cool = 0
                if self._hot >= cfg.patience:
                    self._move(+1, now, "burn", burn)
                    self._hot = 0
            elif burn_above < cfg.step_up_burn:
                self._cool += 1
                self._hot = 0
                if self._cool >= cfg.patience:
                    self._move(-1, now, "recovered", burn_above)
                    self._cool = 0
            else:
                self._hot = 0
                self._cool = 0
        if _keeps_ticking(service, self._horizon):
            service.cluster.events.schedule_after(self._interval, self._tick)

    # -- ladder moves ------------------------------------------------------

    def overflow_nudge(self) -> None:
        """Queue-overflow signal (``QueuePolicy.DEGRADE``): count as hot."""
        self._cool = 0
        self._hot += 1
        if self._hot >= self.config.patience:
            service = self._service
            now = service.cluster.now if service is not None else 0.0
            self._move(+1, now, "overflow", 1.0)
            self._hot = 0

    def _move(self, step: int, now: float, reason: str, burn: float) -> None:
        target = self._level_index + step
        if not 0 <= target < len(self.config.ladder):
            return
        self.level_index = target
        level = self.config.ladder[target]
        self.changes.append(
            QualityChange(now, target, level.name, reason, burn)
        )


__all__ = ["QualityChange", "DegradationController"]
