"""GPU specification and the optional explicit video-memory model.

The paper's cost model folds the main-memory → video-memory upload into
the I/O term and omits it entirely on a main-memory hit ("the I/O time
can be omitted if the data chunk is already loaded in the main memory",
§IV Definition 1).  We follow that by default: :class:`GpuSpec` only
bounds ``Chkmax`` (a chunk must fit in video memory).

The paper's stated future work — "minimize the data transfer between main
memory and video memory" — motivates :class:`GpuMemoryModel`, an explicit
VRAM LRU with upload costs.  Enabling it (``SystemConfig.model_vram``)
charges an upload whenever a task's chunk is in main memory but not in
video memory, which exposes VRAM thrashing when one node serves more
distinct chunks than its GPU can hold.  The ablation bench
``benchmarks/bench_ablation_vram.py`` quantifies this effect.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.cluster.memory import LRUChunkCache
from repro.util.units import GiB
from repro.util.validation import check_positive

if TYPE_CHECKING:  # pragma: no cover - typing only (keeps cluster<-core one-way)
    from repro.core.chunks import Chunk


@dataclass(frozen=True)
class GpuSpec:
    """Static description of one GPU.

    Attributes:
        video_memory: VRAM capacity in bytes (GTX 285: 1 GiB; Quadro
            FX5600: 1.5 GiB).
        upload_bandwidth: Host-to-device copy bandwidth in bytes/s
            (PCIe-generation dependent; ~4-6 GiB/s for the paper's era).
    """

    video_memory: int = 1 * GiB
    upload_bandwidth: float = 4 * GiB

    def __post_init__(self) -> None:
        check_positive("GpuSpec.video_memory", self.video_memory)
        check_positive("GpuSpec.upload_bandwidth", self.upload_bandwidth)

    def upload_time(self, nbytes: int) -> float:
        """Host→device copy time for ``nbytes``."""
        return nbytes / self.upload_bandwidth


class GpuMemoryModel:
    """Explicit VRAM LRU cache tracking which chunks are GPU-resident.

    ``access`` returns the upload time to charge for a task: zero if the
    chunk is already resident, otherwise the host→device copy time (with
    LRU eviction of older chunks to make room).

    An optional ``observer`` callable — ``observer(kind, chunk)`` with
    ``kind`` in ``{"upload", "vram-hit"}`` — fires on accesses so the
    observability layer can emit VRAM instants; ``None`` by default.
    """

    def __init__(self, spec: GpuSpec) -> None:
        self.spec = spec
        self.observer = None
        self._cache = LRUChunkCache(spec.video_memory)
        self._uploads = 0
        self._upload_bytes = 0
        self._hits = 0

    @property
    def uploads(self) -> int:
        """Number of host→device chunk uploads performed."""
        return self._uploads

    @property
    def upload_bytes(self) -> int:
        """Total bytes uploaded to the device."""
        return self._upload_bytes

    @property
    def hits(self) -> int:
        """Number of VRAM-resident accesses (no upload needed)."""
        return self._hits

    def resident(self, chunk: Chunk) -> bool:
        """True if ``chunk`` currently occupies video memory."""
        return chunk in self._cache

    def access(self, chunk: Chunk) -> float:
        """Account one rendering access to ``chunk``; return upload seconds."""
        if self._cache.touch(chunk):
            self._hits += 1
            if self.observer is not None:
                self.observer("vram-hit", chunk)
            return 0.0
        self._cache.insert(chunk)
        self._uploads += 1
        self._upload_bytes += chunk.size
        if self.observer is not None:
            self.observer("upload", chunk)
        return self.spec.upload_time(chunk.size)

    def invalidate(self, chunk: Chunk) -> None:
        """Drop ``chunk`` from VRAM (e.g. after main-memory eviction)."""
        self._cache.evict(chunk)

    def clear(self) -> None:
        """Drop every resident chunk (the device lost its memory)."""
        self._cache.clear()


__all__ = ["GpuSpec", "GpuMemoryModel"]
