"""Calibrated cost constants for rendering and compositing.

The paper's cost model (§IV) is ``TExec ≈ t_io + α`` with α ≪ t_io.  This
module provides the structure *inside* α so the simulator reproduces the
second-order effects the evaluation depends on:

* **Ray casting is screen-space bound**: per-task render time is
  dominated by a fixed setup cost plus a per-pixel term, with only a weak
  dependence on chunk byte size.  This single property produces the
  paper's FCFSU result — splitting a job into twice as many tasks
  consumes twice the computing resources and halves the achievable
  framerate (§VI-C, Scenario 1), and quarters it at 64 nodes
  (Scenario 3).
* **Group-size overhead**: each job pays per-compositing-stage
  coordination/transmission overhead that grows with the render group
  (the "unnecessary transmission overheads over the network" of §III-C).
* **Compositing is pipelined** on a separate thread (§V-C), so its time
  extends job latency but does not occupy the render thread.

Two presets, :func:`cost_preset_linux8` and :func:`cost_preset_anl`, are
calibrated against the paper's two systems (8-node GTX 285 cluster and
the ANL Eureka FX5600 cluster) such that the published framerate shapes
hold; see EXPERIMENTS.md for the calibration targets.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Callable, Tuple

from repro.cluster.interconnect import swap_stage_count
from repro.util.validation import check_non_negative, check_positive


class PriceTable(dict):
    """A ``dict`` that prices a missing key on its first read and keeps it.

    Readers only index it: the first read of a key stores ``price(key)``.
    """

    __slots__ = ("price",)

    def __init__(self, price: Callable[[Any], float]) -> None:
        super().__init__()
        self.price = price

    def __missing__(self, key: Any) -> float:
        value = self[key] = self.price(key)
        return value

    def __reduce__(self):
        # The entries and the pricing function: an unpickled table keeps
        # filling itself (the ``run_many`` pool ships cost models).
        return PriceTable, (self.price,), None, None, iter(self.items())


@dataclass(frozen=True)
class CostParameters:
    """Constants of the rendering/compositing cost model.

    Attributes:
        render_base: Fixed per-task cost (dispatch, shader setup, texture
            bind) in seconds.
        render_per_pixel: Ray-casting cost per output pixel in seconds.
        image_pixels: Output image resolution in pixels (the paper
            renders full-screen images; per-task ray casting cost is
            proportional to this).
        render_per_byte: Residual data-size dependence of rendering
            (sampling long rays through a bigger brick) in s/byte.
        group_stage_overhead: Per-compositing-stage coordination and
            transmission overhead charged to each task's render time, in
            seconds.  A job over ``g`` nodes pays
            ``swap_stage_count(g)`` stages.
        composite_stage_latency: Per-stage latency of the (threaded)
            image compositing, charged to job latency only.
        composite_per_pixel: Per-pixel blending/transmission cost of
            compositing, charged to job latency only.
        render_jitter: Half-width of uniform multiplicative noise on
            *actual* render times (view-dependent sampling depth, early
            ray termination, shader divergence make real frame times
            vary).  The head node's estimates use the mean — the
            prediction/actual discrepancy the paper's table-correction
            machinery (§V-B) exists to absorb.

    The derived prices live in two :class:`PriceTable`\\ s,
    ``render_times[chunk_bytes, group_size]`` and
    ``composite_times[group_size]``; :meth:`render_time` and
    :meth:`composite_time` read them.
    """

    render_base: float = 2.0e-3
    render_per_pixel: float = 3.86e-9
    image_pixels: int = 1024 * 1024
    render_per_byte: float = 2.5e-12
    group_stage_overhead: float = 1.2e-3
    composite_stage_latency: float = 0.4e-3
    composite_per_pixel: float = 1.0e-9
    render_jitter: float = 0.15

    def __post_init__(self) -> None:
        check_non_negative("render_base", self.render_base)
        check_non_negative("render_per_pixel", self.render_per_pixel)
        check_positive("image_pixels", self.image_pixels)
        check_non_negative("render_per_byte", self.render_per_byte)
        check_non_negative("group_stage_overhead", self.group_stage_overhead)
        check_non_negative("composite_stage_latency", self.composite_stage_latency)
        check_non_negative("composite_per_pixel", self.composite_per_pixel)
        if not 0.0 <= self.render_jitter < 1.0:
            raise ValueError(
                f"render_jitter must be in [0, 1), got {self.render_jitter}"
            )
        # The price lists: a run only ever sees a handful of distinct
        # (chunk size, group size) pairs, so each price is computed on
        # its first read and then indexed.  Stashed around the
        # frozen-dataclass guard; ``replace()`` builds empty ones.
        object.__setattr__(self, "render_times", PriceTable(self._render_price))
        object.__setattr__(self, "composite_times", PriceTable(self._composite_price))

    # -- derived costs -----------------------------------------------------

    def render_time(self, chunk_bytes: int, group_size: int) -> float:
        """Render-thread time for one task (excludes I/O and compositing).

        ``group_size`` is the number of tasks/nodes participating in the
        owning job (the render group ``G`` of Definition 2).
        """
        return self.render_times[chunk_bytes, group_size]

    def composite_time(self, group_size: int) -> float:
        """Image-compositing time for a render group of ``group_size``.

        Runs on the compositing thread; extends job finish time only.
        """
        return self.composite_times[group_size]

    def _render_price(self, key: Tuple[int, int]) -> float:
        chunk_bytes, group_size = key
        return (
            self.render_base
            + self.render_per_pixel * self.image_pixels
            + self.render_per_byte * chunk_bytes
            + self.group_stage_overhead * swap_stage_count(max(1, group_size))
        )

    def _composite_price(self, group_size: int) -> float:
        return (
            self.composite_stage_latency * swap_stage_count(max(1, group_size))
            + self.composite_per_pixel * self.image_pixels
        )

    def with_overrides(self, **kwargs: float) -> "CostParameters":
        """Return a copy with the given fields replaced."""
        return replace(self, **kwargs)


def cost_preset_linux8() -> CostParameters:
    """Cost constants calibrated for the paper's 8-node Linux cluster.

    Calibration targets (Scenario 1, hit-path task times):

    * 512 MiB chunk in a 4-node group: ~9.6 ms → 8 nodes sustain the
      200 jobs/s demand of six 33.33 fps actions with slim headroom.
    * 256 MiB chunk in an 8-node group (FCFSU): ~10.1 ms → system
      throughput ~99 jobs/s ≈ 16.5 fps per action, matching the paper's
      "nearly half of the target framerate".
    """
    return CostParameters(
        render_base=2.0e-3,
        render_per_pixel=3.86e-9,
        image_pixels=1024 * 1024,
        render_per_byte=2.5e-12,
        group_stage_overhead=1.2e-3,
        composite_stage_latency=0.4e-3,
        composite_per_pixel=1.0e-9,
    )


def cost_preset_anl() -> CostParameters:
    """Cost constants calibrated for the ANL Eureka GPU cluster runs.

    Calibration targets (Scenario 3, hit-path task times):

    * 512 MiB chunk in a 16-node group: ~6.5 ms → 64 nodes sustain
      ~615 jobs/s, above the ~535 jobs/s demand (OURS reaches the
      near-target 32.8 fps of the paper).
    * 128 MiB chunk in a 64-node group (FCFSU): ~6.0 ms → system
      throughput ~167 jobs/s ≈ 10-11 fps, matching the paper's 11.25 fps.
    """
    return CostParameters(
        render_base=1.5e-3,
        render_per_pixel=2.658e-9,
        image_pixels=1024 * 1024,
        render_per_byte=2.5e-12,
        group_stage_overhead=0.25e-3,
        composite_stage_latency=0.25e-3,
        composite_per_pixel=1.0e-9,
    )


__all__ = ["CostParameters", "PriceTable", "cost_preset_linux8", "cost_preset_anl"]
