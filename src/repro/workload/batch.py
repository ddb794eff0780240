"""Batch rendering submissions.

Batch jobs come from users producing animations or visualizing
time-varying data (paper §I): one *submission* expands into a series of
rendering jobs over the same dataset, all queued at submission time
(the frames of an animation are known upfront).  Batch jobs have no
framerate target; the evaluation reports their latency and mean working
time (Figs. 5-7, bottom charts).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from repro.core.chunks import Dataset
from repro.core.job import JobType
from repro.util.rng import SeedLike, make_rng
from repro.util.validation import check_positive
from repro.workload.trace import Request, RequestColumns, WorkloadTrace


@dataclass(frozen=True)
class BatchSubmission:
    """One batch request: render ``frames`` jobs over ``dataset``.

    Attributes:
        submission_id: Unique id (the ``action`` field of its requests).
        user: Submitting user.
        dataset: Dataset to render.
        time: Submission time; all frame jobs are queued at this instant.
        frames: Number of rendering jobs in the submission.
    """

    submission_id: int
    user: int
    dataset: str
    time: float
    frames: int

    def requests(self) -> List[Request]:
        """Expand into per-frame rendering requests."""
        check_positive("frames", self.frames)
        return [
            Request(
                self.time, JobType.BATCH, self.dataset, self.user, self.submission_id, i
            )
            for i in range(self.frames)
        ]


@dataclass(frozen=True)
class TimeVaryingSubmission:
    """A batch submission over a *time-varying* dataset series.

    Visualizing time-varying data is the second batch use the paper
    names (§I): every frame renders a different timestep, so unlike an
    animation over one dataset, each job needs a different set of
    chunks — the worst case for caching, and the workload for which
    batch deferral (as opposed to batch locality) matters most.

    Attributes:
        submission_id: Unique id (the ``action`` of its requests).
        user: Submitting user.
        timesteps: Dataset names in playback order.
        time: Submission time; all frame jobs are queued at once.
        frames: Number of rendering jobs; frame ``i`` renders timestep
            ``i % len(timesteps)`` (looping playback).
    """

    submission_id: int
    user: int
    timesteps: Sequence[str]
    time: float
    frames: int

    def requests(self) -> List[Request]:
        """Expand into per-frame rendering requests."""
        check_positive("frames", self.frames)
        if not self.timesteps:
            raise ValueError("a time-varying submission needs >= 1 timestep")
        return [
            Request(
                self.time,
                JobType.BATCH,
                self.timesteps[i % len(self.timesteps)],
                self.user,
                self.submission_id,
                i,
            )
            for i in range(self.frames)
        ]


def time_varying_batch_stream(
    timestep_datasets: Sequence[Dataset],
    duration: float,
    *,
    submission_rate: float,
    frames_per_submission: int,
    target_framerate: float = 33.33,
    seed: SeedLike = 0,
    first_submission_id: int = 2_000_000,
    first_user: int = 2_000_000,
    name: str = "time-varying-batch",
) -> WorkloadTrace:
    """Poisson submissions that each play back the timestep series.

    Every submission renders ``frames_per_submission`` jobs sweeping
    through ``timestep_datasets`` in order (looping if frames exceed
    timesteps).
    """
    check_positive("duration", duration)
    check_positive("submission_rate", submission_rate)
    check_positive("frames_per_submission", frames_per_submission)
    if not timestep_datasets:
        raise ValueError("need at least one timestep dataset")
    rng = make_rng(seed)
    names = [d.name for d in timestep_datasets]
    # Frame i renders timestep i mod len(names), as
    # TimeVaryingSubmission.requests expands it.
    playback = np.arange(frames_per_submission) % len(names)
    times: List[np.ndarray] = []
    ids: List[int] = []
    t = float(rng.exponential(1.0 / submission_rate))
    while t < duration:
        times.append(np.full(frames_per_submission, t))
        ids.append(len(ids))
        t += float(rng.exponential(1.0 / submission_rate))
    return WorkloadTrace(
        requests=RequestColumns.stacked(
            names,
            JobType.BATCH,
            times,
            [playback] * len(times),
            [first_user + i for i in ids],
            [first_submission_id + i for i in ids],
        ),
        datasets=list(timestep_datasets),
        duration=duration,
        target_framerate=target_framerate,
        name=name,
    )


def poisson_batch_stream(
    datasets: Sequence[Dataset],
    duration: float,
    *,
    submission_rate: float,
    mean_frames: float,
    target_framerate: float = 33.33,
    seed: SeedLike = 0,
    first_submission_id: int = 1_000_000,
    first_user: int = 1_000_000,
    name: str = "poisson-batch",
) -> WorkloadTrace:
    """Poisson batch submissions with geometric frame counts.

    The expected batch-job total is
    ``duration * submission_rate * mean_frames`` — the knob used to
    match Table II's batch-job counts.

    Args:
        submission_rate: Submissions per second.
        mean_frames: Mean frames per submission (geometric, >= 1).
        first_submission_id / first_user: Id offsets so merged traces
            keep interactive and batch identities disjoint.
    """
    check_positive("duration", duration)
    check_positive("submission_rate", submission_rate)
    check_positive("mean_frames", mean_frames)
    rng = make_rng(seed)
    times: List[np.ndarray] = []
    codes: List[int] = []
    t = float(rng.exponential(1.0 / submission_rate))
    while t < duration:
        code = int(rng.integers(len(datasets)))
        if mean_frames <= 1.0:
            frames = 1
        else:
            # Geometric with mean `mean_frames`, support {1, 2, ...}.
            frames = 1 + int(rng.geometric(1.0 / mean_frames)) - 1
            frames = max(1, frames)
        # All of a submission's frames are queued at its time.
        times.append(np.full(frames, t))
        codes.append(code)
        t += float(rng.exponential(1.0 / submission_rate))
    ids = range(len(times))
    return WorkloadTrace(
        requests=RequestColumns.stacked(
            [d.name for d in datasets],
            JobType.BATCH,
            times,
            codes,
            [first_user + i for i in ids],
            [first_submission_id + i for i in ids],
        ),
        datasets=list(datasets),
        duration=duration,
        target_framerate=target_framerate,
        name=name,
    )


__all__ = [
    "BatchSubmission",
    "poisson_batch_stream",
    "TimeVaryingSubmission",
    "time_varying_batch_stream",
]
