"""Disk / file-server I/O model (paper §III-B, Fig. 2).

Data I/O is the dominant cost in the visualization pipeline: loading a
chunk from the file system takes seconds, versus milliseconds for
rendering and compositing.  This module models that cost.

Two regimes are supported:

* **Local-disk** (default): each rendering node streams from its own disk
  at ``bandwidth`` bytes/s after a fixed ``latency`` (seek/open).
* **Shared file server**: an optional aggregate ``shared_bandwidth`` cap
  across the cluster.  When more streams are active than the server can
  serve at full rate, each stream's bandwidth degrades proportionally.
  Contention is approximated at load-start time (the effective rate seen
  by a load is fixed when it begins), which keeps the simulation at one
  event per task while still penalizing I/O storms — exactly the failure
  mode locality-blind schedulers trigger.

Optional multiplicative jitter models real-world I/O variance; it is off
by default so that unit tests and benchmarks are exactly reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.util.deprecation import deprecated
from repro.util.rng import SeedLike, make_rng
from repro.util.units import MiB
from repro.util.validation import check_non_negative, check_positive


@dataclass(frozen=True)
class StorageSpec:
    """Static description of the storage subsystem.

    Attributes:
        bandwidth: Per-stream streaming bandwidth in bytes/s.
        latency: Fixed per-load latency in seconds (seek, open, metadata).
        shared_bandwidth: Optional aggregate byte/s cap across all nodes
            (models a shared file server).  ``None`` means local disks.
        jitter: Multiplicative jitter half-width; a load's duration is
            scaled by ``U(1 - jitter, 1 + jitter)``.  0 disables jitter.
        timeout: Optional per-attempt I/O deadline in seconds.  A load
            whose duration would exceed it is abandoned at the deadline
            and retried by the node after exponential backoff (a slow
            shared file server then costs bounded waiting, not an
            unbounded stall).  ``None`` (default) disables timeouts —
            behavior is bit-identical to the pre-timeout model.
        max_retries: How many times a timed-out load may be retried
            before the node accepts whatever duration storage quotes
            (the final attempt never times out, so loads cannot starve).
        backoff: Base of the exponential retry delay; attempt ``k``
            waits ``backoff * 2**k`` seconds after its timeout.
    """

    bandwidth: float = 100 * MiB
    latency: float = 0.010
    shared_bandwidth: Optional[float] = None
    jitter: float = 0.0
    timeout: Optional[float] = None
    max_retries: int = 3
    backoff: float = 0.05

    def __post_init__(self) -> None:
        check_positive("StorageSpec.bandwidth", self.bandwidth)
        check_non_negative("StorageSpec.latency", self.latency)
        if self.shared_bandwidth is not None:
            check_positive("StorageSpec.shared_bandwidth", self.shared_bandwidth)
        if not 0.0 <= self.jitter < 1.0:
            raise ValueError(f"jitter must be in [0, 1), got {self.jitter}")
        if self.timeout is not None:
            check_positive("StorageSpec.timeout", self.timeout)
        if self.max_retries < 0:
            raise ValueError(
                f"max_retries must be >= 0, got {self.max_retries}"
            )
        check_non_negative("StorageSpec.backoff", self.backoff)


class StorageModel:
    """Runtime I/O cost model with stream-count contention tracking.

    One instance is shared by all rendering nodes of a cluster so that the
    shared-file-server regime can observe cluster-wide concurrency.
    """

    def __init__(self, spec: StorageSpec, *, seed: SeedLike = 0) -> None:
        self.spec = spec
        self._active_loads = 0
        self._active_bytes = 0
        self._total_loads = 0
        self._total_bytes = 0
        self._rng: np.random.Generator = make_rng(seed)

    def set_metrics(self, registry) -> None:
        """Expose the load/byte totals through ``registry`` (``None``: no-op)."""
        if registry is None:
            return
        registry.counter("repro_io_loads", "chunk loads started").read_from(
            lambda: self._total_loads
        )
        registry.counter(
            "repro_io_bytes", "bytes requested from storage"
        ).read_from(lambda: self._total_bytes)

    # -- inspection --------------------------------------------------------

    @property
    def active_loads(self) -> int:
        """Number of loads currently in flight."""
        return self._active_loads

    @property
    def active_bytes(self) -> int:
        """Bytes of I/O currently in flight (observability counter).

        Exact when callers pass the load size back to :meth:`end_load`,
        as every caller in repro does; the deprecated zero-argument
        ``end_load()`` only decrements the load count, so the byte
        gauge under-reports for such callers.
        """
        return self._active_bytes

    @property
    def total_loads(self) -> int:
        """Loads started since construction."""
        return self._total_loads

    @property
    def total_bytes(self) -> int:
        """Bytes requested since construction."""
        return self._total_bytes

    # -- cost --------------------------------------------------------------

    def estimate_load_time(self, nbytes: int) -> float:
        """Contention-free load duration: ``latency + nbytes / bandwidth``.

        This is what the head node's ``Estimate`` table is seeded with (the
        paper's "test run").
        """
        check_non_negative("nbytes", nbytes)
        return self.spec.latency + nbytes / self.spec.bandwidth

    def effective_bandwidth(self, concurrent: int) -> float:
        """Per-stream bandwidth when ``concurrent`` loads are in flight."""
        bw = self.spec.bandwidth
        shared = self.spec.shared_bandwidth
        if shared is not None and concurrent > 0:
            bw = min(bw, shared / concurrent)
        return bw

    def begin_load(self, nbytes: int) -> float:
        """Start a load of ``nbytes`` and return its duration in seconds.

        The caller must pair this with :meth:`end_load` when the load's
        completion event fires.
        """
        check_non_negative("nbytes", nbytes)
        self._active_loads += 1
        self._active_bytes += nbytes
        self._total_loads += 1
        self._total_bytes += nbytes
        bw = self.effective_bandwidth(self._active_loads)
        duration = self.spec.latency + nbytes / bw
        if self.spec.jitter:
            duration *= float(
                self._rng.uniform(1.0 - self.spec.jitter, 1.0 + self.spec.jitter)
            )
        return duration

    def end_load(self, nbytes: Optional[int] = None) -> None:
        """Mark one in-flight load as finished.

        Args:
            nbytes: Size of the finished load, used to keep the
                :attr:`active_bytes` gauge exact.  Omitting it is
                deprecated since 1.9 (the gauge then under-reports);
                1.10 makes it required.
        """
        if self._active_loads <= 0:
            raise RuntimeError("end_load without matching begin_load")
        if nbytes is None:
            deprecated(
                "StorageModel.end_load()",
                "pass the load's size: end_load(nbytes), as given to begin_load",
            )
            nbytes = 0
        self._active_loads -= 1
        self._active_bytes -= min(nbytes, self._active_bytes)
        if self._active_loads == 0:
            self._active_bytes = 0


__all__ = ["StorageSpec", "StorageModel"]
