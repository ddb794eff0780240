"""Batch animation rendering: camera paths → frame sequences.

The paper's batch jobs are "producing animation or visualizing
time-varying data" (§I); one batch submission is a series of rendering
jobs over the same dataset.  This module provides the functional
counterpart for the software renderer: orbit camera paths and a driver
that renders every frame sort-last and (optionally) writes PPM files —
what a rendering node group actually executes when the scheduler grants
a batch submission its slots.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, List, Optional, Sequence, Union

import numpy as np

from repro.render.camera import Camera, default_camera_for
from repro.render.image import write_ppm
from repro.render.sortlast import render_sort_last
from repro.render.transfer_function import TransferFunction
from repro.render.volume import Volume
from repro.util.validation import check_positive

if False:  # pragma: no cover - typing only
    from repro.render.shading import Lighting


@dataclass(frozen=True)
class OrbitPath:
    """A camera orbit: azimuth sweep with optional elevation bob.

    Attributes:
        frames: Number of frames.
        azimuth_start / azimuth_end: Orbit range in degrees (end
            exclusive, so a 360° sweep loops seamlessly).
        elevation: Base elevation in degrees.
        elevation_swing: Sinusoidal elevation amplitude over the sweep.
    """

    frames: int
    azimuth_start: float = 0.0
    azimuth_end: float = 360.0
    elevation: float = 20.0
    elevation_swing: float = 0.0

    def __post_init__(self) -> None:
        check_positive("frames", self.frames)

    def cameras(self, shape, **camera_overrides) -> List[Camera]:
        """Instantiate per-frame cameras framing a volume of ``shape``."""
        out: List[Camera] = []
        span = self.azimuth_end - self.azimuth_start
        for i in range(self.frames):
            u = i / self.frames
            azimuth = self.azimuth_start + span * u
            elevation = self.elevation + self.elevation_swing * math.sin(
                2.0 * math.pi * u
            )
            out.append(
                default_camera_for(
                    shape,
                    azimuth=azimuth,
                    elevation=elevation,
                    **camera_overrides,
                )
            )
        return out


@dataclass
class AnimationResult:
    """Summary of one rendered animation."""

    frames: int
    ranks: int
    algorithm: str
    total_samples: int
    total_messages: int
    total_bytes: int
    paths: List[Path] = field(default_factory=list)


FrameCallback = Callable[[int, np.ndarray], None]


def render_animation(
    volume: Volume,
    path: OrbitPath,
    tf: TransferFunction,
    *,
    ranks: int = 4,
    algorithm: str = "2-3-swap",
    step: float = 0.7,
    lighting: Optional["Lighting"] = None,
    width: int = 128,
    height: int = 128,
    output_dir: Optional[Union[str, Path]] = None,
    on_frame: Optional[FrameCallback] = None,
) -> AnimationResult:
    """Render every frame of an orbit animation sort-last.

    Args:
        output_dir: If given, frames are written as
            ``frame_0000.ppm …`` into this directory.
        on_frame: Optional callback ``(index, premultiplied_rgba)`` per
            frame (e.g. for streaming or custom encoding).

    Returns:
        Aggregate statistics plus any written file paths.
    """
    check_positive("ranks", ranks)
    cameras = path.cameras(volume.shape, width=width, height=height)
    out_dir: Optional[Path] = None
    if output_dir is not None:
        out_dir = Path(output_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
    result = AnimationResult(
        frames=len(cameras),
        ranks=ranks,
        algorithm=algorithm,
        total_samples=0,
        total_messages=0,
        total_bytes=0,
    )
    for i, camera in enumerate(cameras):
        frame = render_sort_last(
            volume,
            camera,
            tf,
            ranks=ranks,
            algorithm=algorithm,
            step=step,
            lighting=lighting,
        )
        result.total_samples += frame.render_stats.samples
        result.total_messages += frame.compositing.messages
        result.total_bytes += frame.compositing.bytes_sent
        if on_frame is not None:
            on_frame(i, frame.image)
        if out_dir is not None:
            result.paths.append(
                write_ppm(out_dir / f"frame_{i:04d}.ppm", frame.image, background=0.08)
            )
    return result


__all__ = ["OrbitPath", "AnimationResult", "render_animation"]
