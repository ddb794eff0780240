"""Interactive user-action streams.

An interactive *user action* is a sequence of continuous interactions
(rotating, zooming, adjusting a transfer function) over one dataset.
Per the paper's experiment design (§VI-B), an action issues rendering
requests **open-loop** at the target framerate — one request per 30 ms
for a 33.33 fps target — regardless of whether earlier frames have
completed.  Overload therefore shows up as completion backlog (rising
latency, falling measured framerate), exactly as in Scenario 4.

Two generators are provided:

* :func:`persistent_actions` — Scenario 1 style: ``n`` users, each
  exploring a distinct dataset for the whole run.
* :func:`poisson_action_stream` — Scenarios 2-4 style: actions arrive as
  a Poisson process with exponentially distributed durations over a
  dataset suite, giving "many short user actions".
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat, starmap
from typing import List, Optional, Sequence

import numpy as np

from repro.core.chunks import Dataset
from repro.core.job import JobType
from repro.util.rng import SeedLike, make_rng
from repro.util.validation import check_non_negative, check_positive
from repro.workload.trace import Request, RequestColumns, WorkloadTrace


@dataclass(frozen=True)
class UserAction:
    """One continuous interactive exploration session.

    Attributes:
        action_id: Unique action id within the trace.
        user: The user performing the action.
        dataset: Dataset being explored.
        start: Time of the first request.
        duration: Length of the action; requests are emitted at
            ``start, start + interval, ...`` while strictly inside
            ``start + duration``.
        interval: Spacing between requests (1 / target framerate).
    """

    action_id: int
    user: int
    dataset: str
    start: float
    duration: float
    interval: float

    def frame_times(
        self,
        *,
        jitter: float = 0.0,
        rng: Optional[np.random.Generator] = None,
    ) -> np.ndarray:
        """Arrival times of the action's open-loop frames, in frame order.

        Frame ``i`` is due at ``start + i * interval`` while that time is
        inside ``start + duration``.  Frames ``1..k-1`` then get uniform
        jitter from one vector draw of ``k - 1`` values, which consumes
        ``rng`` exactly as ``k - 1`` scalar draws would; the first frame
        stays at the action start.  See :meth:`requests` for the
        arguments.
        """
        check_positive("interval", self.interval)
        if not 0.0 <= jitter < 0.5:
            raise ValueError(f"jitter must be in [0, 0.5), got {jitter}")
        if jitter > 0.0 and rng is None:
            raise ValueError("jitter requires an rng")
        # Inclusive endpoint with a float-robust count: an action of
        # duration 60 s at one request per 30 ms issues 2001 requests
        # (the paper's 12 006 = 6 x 2001 in Scenario 1).
        n = int(math.floor(self.duration / self.interval + 1e-9)) + 1
        tolerance = 1e-9 * max(1.0, abs(self.start) + self.duration)
        times = self.start + np.arange(n) * self.interval
        # The unjittered times never decrease, so the first frame past
        # the end (the first frame itself is always kept) ends the action.
        late = np.flatnonzero(times[1:] > self.start + self.duration + tolerance)
        if late.size:
            times = times[: late[0] + 1]
        half = jitter * self.interval
        if half and times.size > 1:
            times[1:] += rng.uniform(  # type: ignore[union-attr]
                -half, half, size=times.size - 1
            )
        return times

    def requests(
        self,
        *,
        jitter: float = 0.0,
        rng: Optional[np.random.Generator] = None,
    ) -> List[Request]:
        """Expand the action into its open-loop request series.

        Args:
            jitter: Half-width of uniform arrival jitter as a *fraction*
                of the interval, in ``[0, 0.5)``.  Real interaction
                streams are not metronomic: mouse-drag events arrive
                with millisecond-scale noise.  Jitter below half an
                interval preserves both request order and the long-run
                rate.  (Without it, phase-locked actions make even
                locality-blind schedulers accidentally periodic — every
                chunk deterministically revisits the same node — which
                is an artifact, not locality.)
            rng: ``numpy.random.Generator`` used when ``jitter > 0``.
        """
        times = self.frame_times(jitter=jitter, rng=rng).tolist()
        return list(
            starmap(
                Request,
                zip(
                    times,
                    repeat(JobType.INTERACTIVE),
                    repeat(self.dataset),
                    repeat(self.user),
                    repeat(self.action_id),
                    range(len(times)),
                ),
            )
        )


def persistent_actions(
    datasets: Sequence[Dataset],
    duration: float,
    *,
    actions: Optional[int] = None,
    target_framerate: float = 33.33,
    jitter: float = 0.25,
    seed: SeedLike = 0,
    name: str = "persistent",
) -> WorkloadTrace:
    """Always-on actions for the whole run (Scenario 1 style).

    By default one action per dataset: with six 2 GiB datasets and 60 s
    at 33.33 fps this yields the paper's 12 006 interactive jobs
    (6 actions x 2001 requests).  Pass ``actions`` to run more (or
    fewer) simultaneous actions than datasets — action ``i`` explores
    dataset ``i mod len(datasets)`` (the Fig. 8 sweep uses up to 128
    actions over 16 datasets).  Per-request arrival jitter (see
    :meth:`UserAction.requests`) desynchronizes the streams as real
    users would be.
    """
    check_positive("duration", duration)
    check_positive("target_framerate", target_framerate)
    if not datasets:
        raise ValueError("persistent_actions needs at least one dataset")
    n_actions = len(datasets) if actions is None else int(actions)
    check_positive("actions", n_actions)
    rng = make_rng(seed)
    interval = 1.0 / target_framerate
    times: List[np.ndarray] = []
    codes: List[int] = []
    for i in range(n_actions):
        code = i % len(datasets)
        # Random phase offset: users do not start in lockstep, and a
        # shared exact period would make cycle-based schedulers see the
        # same job composition every cycle (another phantom-locality
        # artifact).  The per-action request count is unchanged.
        phase = float(rng.uniform(0.0, interval))
        action = UserAction(
            action_id=i,
            user=i,
            dataset=datasets[code].name,
            start=phase,
            duration=duration,
            interval=interval,
        )
        times.append(action.frame_times(jitter=jitter, rng=rng))
        codes.append(code)
    ids = list(range(n_actions))
    return WorkloadTrace(
        requests=RequestColumns.stacked(
            [d.name for d in datasets], JobType.INTERACTIVE, times, codes, ids, ids
        ),
        datasets=list(datasets),
        duration=duration,
        target_framerate=target_framerate,
        name=name,
    )


def poisson_action_stream(
    datasets: Sequence[Dataset],
    duration: float,
    *,
    arrival_rate: float,
    mean_action_duration: float,
    target_framerate: float = 33.33,
    jitter: float = 0.25,
    seed: SeedLike = 0,
    first_action_id: int = 0,
    first_user: int = 0,
    users: Optional[int] = None,
    dataset_weights: Optional[Sequence[float]] = None,
    name: str = "poisson-actions",
) -> WorkloadTrace:
    """Poisson arrivals of exponentially long actions (Scenarios 2-4).

    The long-run mean number of concurrent actions is
    ``arrival_rate * mean_action_duration`` (an M/G/inf queue), which is
    how the Table II interactive-job counts are matched: e.g. Scenario 3
    needs ~535 interactive jobs/s at 33.33 fps → ~16 concurrent actions.

    Args:
        arrival_rate: Action arrivals per second.
        mean_action_duration: Mean action length in seconds; actions are
            truncated at the trace end.
        users: Number of distinct users to attribute actions to
            (round-robin); defaults to one user per action.
        dataset_weights: Optional per-dataset selection weights
            (normalized internally).  Interactive exploration exhibits
            strong popularity skew — users revisit the datasets under
            active study — while batch production ranges wider; weights
            let scenarios model an interactive working set smaller than
            the full suite.
    """
    check_positive("duration", duration)
    check_positive("arrival_rate", arrival_rate)
    check_positive("mean_action_duration", mean_action_duration)
    if users is not None:
        check_positive("users", users)
    rng = make_rng(seed)
    probs = None
    if dataset_weights is not None:
        if len(dataset_weights) != len(datasets):
            raise ValueError(
                f"{len(dataset_weights)} weights for {len(datasets)} datasets"
            )
        total_w = float(sum(dataset_weights))
        check_positive("sum(dataset_weights)", total_w)
        probs = [w / total_w for w in dataset_weights]
    interval = 1.0 / target_framerate
    times: List[np.ndarray] = []
    codes: List[int] = []
    user_ids: List[int] = []
    action_ids: List[int] = []
    action_id = first_action_id
    t = float(rng.exponential(1.0 / arrival_rate))
    index = 0
    while t < duration:
        if probs is None:
            code = int(rng.integers(len(datasets)))
        else:
            code = int(rng.choice(len(datasets), p=probs))
        raw = float(rng.exponential(mean_action_duration))
        # An action must be at least one frame long and end by the horizon.
        action_duration = min(max(raw, interval), duration - t)
        user = first_user + (index if users is None else index % users)
        action = UserAction(
            action_id=action_id,
            user=user,
            dataset=datasets[code].name,
            start=t,
            duration=action_duration,
            interval=interval,
        )
        times.append(action.frame_times(jitter=jitter, rng=rng))
        codes.append(code)
        user_ids.append(user)
        action_ids.append(action_id)
        action_id += 1
        index += 1
        t += float(rng.exponential(1.0 / arrival_rate))
    return WorkloadTrace(
        requests=RequestColumns.stacked(
            [d.name for d in datasets],
            JobType.INTERACTIVE,
            times,
            codes,
            user_ids,
            action_ids,
        ),
        datasets=list(datasets),
        duration=duration,
        target_framerate=target_framerate,
        name=name,
    )


def expected_interactive_jobs(
    duration: float, arrival_rate: float, mean_action_duration: float,
    target_framerate: float,
) -> float:
    """Expected request count of :func:`poisson_action_stream` (sizing aid)."""
    check_non_negative("duration", duration)
    return duration * arrival_rate * mean_action_duration * target_framerate


__all__ = [
    "UserAction",
    "persistent_actions",
    "poisson_action_stream",
    "expected_interactive_jobs",
]
