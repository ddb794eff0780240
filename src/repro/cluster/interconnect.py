"""Interconnect model: point-to-point links with latency and bandwidth.

Used in two places:

* the *cost model* side uses only :func:`swap_stage_count`: a render
  group of ``g`` nodes pays ``ceil(log2 g)`` compositing stages at the
  per-stage prices of :class:`~repro.cluster.costs.CostParameters`; a
  simulation run reads no link and builds none;
* the *functional* side — :class:`repro.comm.SimCommunicator` charges
  every message it delivers against a link model, so the compositing
  algorithms in :mod:`repro.render.compositing` report realistic byte and
  time totals.  Their stage count differs from :func:`swap_stage_count`
  for some group sizes; ``tests/cluster/test_interconnect.py`` pins
  the differences.

The model is the classic postal/LogP-style ``latency + nbytes/bandwidth``
per message; congestion is not modeled (compositing traffic in the paper
is milliseconds against seconds of I/O, so first-order costs suffice).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.util.units import GiB
from repro.util.validation import check_non_negative, check_positive


@dataclass(frozen=True)
class LinkSpec:
    """One network link: fixed ``latency`` (s) plus ``bandwidth`` (bytes/s)."""

    latency: float = 50e-6
    bandwidth: float = 1.25 * GiB  # ~10 Gb/s

    def __post_init__(self) -> None:
        check_non_negative("LinkSpec.latency", self.latency)
        check_positive("LinkSpec.bandwidth", self.bandwidth)

    def transfer_time(self, nbytes: int) -> float:
        """Time to move ``nbytes`` over the link."""
        check_non_negative("nbytes", nbytes)
        return self.latency + nbytes / self.bandwidth


class Interconnect:
    """A fully connected switch of identical links with traffic accounting."""

    def __init__(self, spec: LinkSpec) -> None:
        self.spec = spec
        self._messages = 0
        self._bytes = 0

    @property
    def messages(self) -> int:
        """Messages sent since construction."""
        return self._messages

    @property
    def bytes_sent(self) -> int:
        """Payload bytes sent since construction."""
        return self._bytes

    def send(self, nbytes: int) -> float:
        """Account one message of ``nbytes``; return its transfer time."""
        self._messages += 1
        self._bytes += int(nbytes)
        return self.spec.transfer_time(nbytes)

    def reset_counters(self) -> None:
        """Zero the traffic counters."""
        self._messages = 0
        self._bytes = 0


def swap_stage_count(group_size: int) -> int:
    """Number of compositing stages for a group of ``group_size`` nodes.

    Binary swap uses ``log2 g`` stages for powers of two; the 2-3 swap
    generalization used by the paper handles arbitrary ``g`` in
    ``ceil(log2 g)`` stages.  A group of one composites locally (0
    stages).
    """
    if group_size < 1:
        raise ValueError(f"group_size must be >= 1, got {group_size}")
    if group_size == 1:
        return 0
    return int(math.ceil(math.log2(group_size)))


__all__ = ["LinkSpec", "Interconnect", "swap_stage_count"]
