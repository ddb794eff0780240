"""System configurations: the two test systems of the paper (§VI-A).

* :func:`system_linux8` — the 8-node Linux cluster: quad-core 3.0 GHz
  Core 2, 4 GB RAM (memory quota constrained to 2 GB in the
  experiments), one GeForce GTX 285 (1 GiB VRAM) per node.
* :func:`system_anl` — the 100-node GPU cluster at Argonne (Eureka):
  two quad-core 2.0 GHz Xeons, 32 GB RAM (quota constrained to 8 GB),
  two Quadro FX5600 (1.5 GiB VRAM) per node; the experiments use 64 (or
  fewer) nodes.

A :class:`SystemConfig` bundles everything needed to build a
:class:`~repro.cluster.cluster.Cluster` plus the maximal chunk size
``Chkmax`` used by the paper's decomposition (512 MiB in all published
scenarios — "a moderate chunk size slightly less than the graphics
memory").  A configuration carries no network link: the simulator
prices compositing with :attr:`CostParameters.composite_times` alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

from repro.cluster.cluster import Cluster
from repro.cluster.costs import CostParameters, cost_preset_anl, cost_preset_linux8
from repro.cluster.event_queue import EventQueue
from repro.cluster.gpu import GpuSpec
from repro.cluster.storage import StorageSpec
from repro.util.units import GiB, MiB
from repro.util.validation import check_positive


@dataclass(frozen=True)
class SystemConfig:
    """A complete cluster + decomposition configuration.

    Attributes:
        name: Human-readable system name.
        node_count: Number of rendering nodes ``p``.
        memory_quota: Per-node main-memory byte budget for chunk caches.
        chunk_max: ``Chkmax`` — maximal chunk size for the paper's
            decomposition; must not exceed GPU memory.
        cost: Render/composite cost constants.
        storage: I/O model parameters.
        gpu: Per-node GPU description.
        model_vram: Enable the explicit VRAM model (ablation; default
            off, matching the paper's cost model).
        gpus_per_node: Concurrent rendering pipelines per node.  Both
            calibrated presets use 1 (the paper accounts per node, and
            the cost constants are fit to per-node throughput); the
            multi-GPU ablation raises it.
    """

    name: str
    node_count: int
    memory_quota: int
    chunk_max: int = 512 * MiB
    cost: CostParameters = field(default_factory=CostParameters)
    storage: StorageSpec = field(default_factory=StorageSpec)
    gpu: GpuSpec = field(default_factory=GpuSpec)
    model_vram: bool = False
    gpus_per_node: int = 1

    def __post_init__(self) -> None:
        check_positive("node_count", self.node_count)
        check_positive("memory_quota", self.memory_quota)
        check_positive("chunk_max", self.chunk_max)
        if self.chunk_max > self.gpu.video_memory:
            raise ValueError(
                f"Chkmax ({self.chunk_max}) exceeds GPU video memory "
                f"({self.gpu.video_memory}); the paper requires "
                "Chkmax <= graphics memory (§III-C)"
            )
        if self.gpus_per_node < 1:
            raise ValueError(
                f"gpus_per_node must be >= 1, got {self.gpus_per_node}"
            )
        if self.chunk_max > self.memory_quota:
            raise ValueError(
                f"Chkmax ({self.chunk_max}) exceeds the per-node memory "
                f"quota ({self.memory_quota})"
            )

    def build_cluster(
        self,
        *,
        events: Optional[EventQueue] = None,
        storage_seed: int = 0,
    ) -> Cluster:
        """Instantiate the cluster this configuration describes."""
        return Cluster(
            node_count=self.node_count,
            memory_quota=self.memory_quota,
            cost=self.cost,
            storage_spec=self.storage,
            gpu=self.gpu,
            model_vram=self.model_vram,
            events=events,
            storage_seed=storage_seed,
            executors_per_node=self.gpus_per_node,
        )

    def with_overrides(self, **kwargs: object) -> "SystemConfig":
        """Return a copy with fields replaced (ablation helper)."""
        return replace(self, **kwargs)  # type: ignore[arg-type]

    @property
    def total_memory(self) -> int:
        """Aggregate chunk-cache capacity across the cluster."""
        return self.node_count * self.memory_quota


def system_linux8(
    *,
    node_count: int = 8,
    memory_quota: int = 2 * GiB,
    model_vram: bool = False,
) -> SystemConfig:
    """The paper's 8-node Linux cluster (Scenarios 1-2)."""
    return SystemConfig(
        name="linux8",
        node_count=node_count,
        memory_quota=memory_quota,
        chunk_max=512 * MiB,
        cost=cost_preset_linux8(),
        storage=StorageSpec(bandwidth=100 * MiB, latency=0.010),
        gpu=GpuSpec(video_memory=1 * GiB, upload_bandwidth=4 * GiB),
        model_vram=model_vram,
    )


def system_anl(
    *,
    node_count: int = 64,
    memory_quota: int = 8 * GiB,
    model_vram: bool = False,
) -> SystemConfig:
    """The ANL Eureka GPU cluster, as used in Scenarios 3-4.

    The experiments constrain the per-node memory quota to 8 GB and use
    64 of the 100 nodes (Figs. 8 and 9 use 32 and 16 nodes).
    """
    return SystemConfig(
        name="anl",
        node_count=node_count,
        memory_quota=memory_quota,
        chunk_max=512 * MiB,
        cost=cost_preset_anl(),
        storage=StorageSpec(bandwidth=200 * MiB, latency=0.010),
        gpu=GpuSpec(video_memory=int(1.5 * GiB), upload_bandwidth=4 * GiB),
        model_vram=model_vram,
    )


__all__ = ["SystemConfig", "system_linux8", "system_anl"]
