"""Configuration for the overload-management frontend.

Everything here is a frozen dataclass so a :class:`FrontendConfig` can
ride inside :class:`~repro.sim.run_config.RunConfig` across process
boundaries (the ``run_many`` process pool) and key result caches.

The three sub-policies are independently optional:

* :class:`AdmissionConfig` — per-user token-bucket rate limits and a
  global concurrent-session cap (requests the service never accepts);
* :class:`BackpressureConfig` — a bounded head-node job queue with a
  configurable overflow policy (requests the service accepts *later*,
  or sheds);
* :class:`DegradeConfig` — the SLO-burn-driven quality ladder (requests
  the service accepts at reduced cost).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional, Tuple

from repro.util.validation import check_positive


class QueuePolicy(enum.Enum):
    """What a full head-node queue does with overflow.

    * ``BLOCK`` — hold excess requests in the frontend's wait queue and
      feed them in as completions free capacity (no request is lost,
      latency absorbs the wait).
    * ``SHED_OLDEST`` — drop the oldest *waiting* request to make room
      for the newest (fresh frames matter more than stale ones for an
      interactive service).
    * ``SHED_NEWEST`` — drop the incoming request once the wait queue is
      full (classic bounded-buffer tail drop).
    * ``DEGRADE`` — hold like ``BLOCK``, but every overflow also nudges
      the degradation controller one step down the quality ladder.
    """

    BLOCK = "block"
    SHED_OLDEST = "shed-oldest"
    SHED_NEWEST = "shed-newest"
    DEGRADE = "degrade"


@dataclass(frozen=True)
class AdmissionConfig:
    """Admission control: who gets in at all.

    Attributes:
        rate: Per-user sustained request budget in requests/second
            (token-bucket refill rate).  ``None`` disables rate
            limiting.
        burst: Token-bucket capacity (instantaneous burst allowance).
            Defaults to one frame interval's worth above ``rate``
            (``2 * rate`` when unset).
        max_sessions: Global cap on concurrently active interactive
            sessions (user actions).  A request opening a new session
            beyond the cap is rejected — and so is the rest of that
            session, so users see a clean "service busy" instead of a
            trickle.  ``None`` disables the cap.
        session_ttl: Seconds of inactivity after which a session stops
            counting against ``max_sessions``.
    """

    rate: Optional[float] = None
    burst: Optional[float] = None
    max_sessions: Optional[int] = None
    session_ttl: float = 1.0

    def __post_init__(self) -> None:
        if self.rate is not None:
            check_positive("AdmissionConfig.rate", self.rate)
        if self.burst is not None:
            check_positive("AdmissionConfig.burst", self.burst)
        if self.max_sessions is not None and self.max_sessions < 1:
            raise ValueError(
                f"max_sessions must be >= 1, got {self.max_sessions}"
            )
        check_positive("AdmissionConfig.session_ttl", self.session_ttl)

    @property
    def bucket_capacity(self) -> float:
        """Effective token-bucket capacity."""
        if self.burst is not None:
            return self.burst
        return 2.0 * self.rate if self.rate is not None else 0.0


@dataclass(frozen=True)
class BackpressureConfig:
    """Bounded head-node queue: how much work may be in the service.

    Attributes:
        queue_limit: Maximum jobs in the service at once (head-node
            queue + scheduler backlog + in flight).  Also bounds the
            frontend's wait queue under the shedding policies.
        policy: Overflow behavior (see :class:`QueuePolicy`).
    """

    queue_limit: int = 64
    policy: QueuePolicy = QueuePolicy.BLOCK

    def __post_init__(self) -> None:
        if self.queue_limit < 1:
            raise ValueError(
                f"queue_limit must be >= 1, got {self.queue_limit}"
            )
        if not isinstance(self.policy, QueuePolicy):
            object.__setattr__(self, "policy", QueuePolicy(self.policy))


@dataclass(frozen=True)
class QualityLevel:
    """One rung of the degradation ladder.

    Attributes:
        name: Human-readable label (shows up in stats / metrics).
        fps_factor: Fraction of each session's frames forwarded — the
            target-framerate reduction (Definition 4: fewer requests
            per action).
        resolution_factor: Fraction of a dataset's chunks a degraded
            interactive job renders — the image-resolution reduction
            expressed through the cost model (Definitions 1-2: fewer
            tasks, smaller composite group, cheaper ``TExec``).
    """

    name: str
    fps_factor: float = 1.0
    resolution_factor: float = 1.0

    def __post_init__(self) -> None:
        if not 0.0 < self.fps_factor <= 1.0:
            raise ValueError(
                f"fps_factor must be in (0, 1], got {self.fps_factor}"
            )
        if not 0.0 < self.resolution_factor <= 1.0:
            raise ValueError(
                f"resolution_factor must be in (0, 1], "
                f"got {self.resolution_factor}"
            )


#: The default quality ladder: degrade target framerate first (cheapest
#: perceptually), then image resolution (fewer chunks per job).
DEFAULT_LADDER: Tuple[QualityLevel, ...] = (
    QualityLevel("full", 1.0, 1.0),
    QualityLevel("half-rate", 0.5, 1.0),
    QualityLevel("half-rate/half-res", 0.5, 0.5),
    QualityLevel("quarter", 0.25, 0.25),
)


@dataclass(frozen=True)
class DegradeConfig:
    """SLO-driven graceful degradation.

    The controller samples delivered per-session framerate on the event
    queue, converts it to an SLO burn rate against the current rung's
    effective target, and walks the quality ladder hysteretically:
    ``patience`` consecutive hot samples step down, ``patience``
    consecutive cool samples (measured against the *restored* target)
    step back up.

    Attributes:
        target_fps: Framerate objective; ``None`` uses the scenario's
            target framerate.
        sample_interval: Controller sampling period in simulated
            seconds; ``None`` derives ~0.5 s windows.
        step_down_burn: Burn rate above which a sample counts as hot.
        step_up_burn: Burn rate (vs the next rung up) below which a
            sample counts as cool.
        patience: Consecutive hot/cool samples required to move.
        ladder: The quality ladder, best rung first.
    """

    target_fps: Optional[float] = None
    sample_interval: Optional[float] = None
    step_down_burn: float = 0.25
    step_up_burn: float = 0.05
    patience: int = 2
    ladder: Tuple[QualityLevel, ...] = DEFAULT_LADDER

    def __post_init__(self) -> None:
        if self.target_fps is not None:
            check_positive("DegradeConfig.target_fps", self.target_fps)
        if self.sample_interval is not None:
            check_positive(
                "DegradeConfig.sample_interval", self.sample_interval
            )
        if not 0.0 <= self.step_up_burn < self.step_down_burn:
            raise ValueError(
                "need 0 <= step_up_burn < step_down_burn, got "
                f"{self.step_up_burn} / {self.step_down_burn}"
            )
        if self.patience < 1:
            raise ValueError(f"patience must be >= 1, got {self.patience}")
        if not self.ladder:
            raise ValueError("ladder needs at least one QualityLevel")
        if not isinstance(self.ladder, tuple):
            object.__setattr__(self, "ladder", tuple(self.ladder))


@dataclass(frozen=True)
class FrontendConfig:
    """The complete overload-management policy for one run.

    Any combination of the three sub-policies may be enabled; an empty
    ``FrontendConfig()`` is a transparent pass-through (every request
    forwarded unchanged) that still measures admissions.
    """

    admission: Optional[AdmissionConfig] = None
    backpressure: Optional[BackpressureConfig] = None
    degrade: Optional[DegradeConfig] = None

    @classmethod
    def protective(
        cls,
        *,
        max_sessions: int = 8,
        queue_limit: int = 64,
        rate: Optional[float] = None,
    ) -> "FrontendConfig":
        """A sensible all-on policy for over-subscribed scenarios."""
        return cls(
            admission=AdmissionConfig(rate=rate, max_sessions=max_sessions),
            backpressure=BackpressureConfig(
                queue_limit=queue_limit, policy=QueuePolicy.SHED_OLDEST
            ),
            degrade=DegradeConfig(),
        )


__all__ = [
    "QueuePolicy",
    "AdmissionConfig",
    "BackpressureConfig",
    "QualityLevel",
    "DEFAULT_LADDER",
    "DegradeConfig",
    "FrontendConfig",
]
