"""Fixed stdlib calibration loop for machine-normalized timings.

Raw wall time on a shared machine drifts by more than 10% between
back-to-back sets of runs: neighbours on the same physical cores slow a
process down for seconds at a time, and the guest sees no steal time.
Each timed repeat therefore runs :func:`calibrate` in the same process
(pinned to the same core) right before and right after the measured
work, and ``run.py`` reports every timing in *reference-machine
seconds*::

    normalized_s = raw_s * CALIB_REF_S / calib_s

where ``calib_s`` is the median of all of a workload's loop timings in
one invocation.

The loop imitates the simulator's hot path rather than raw arithmetic:
method calls on ``__slots__`` objects, tuple allocation, heap push/pop,
deque and dict updates.  Such a loop tracked the simulator's speed more
closely than a pure integer loop did.  It keeps about 200 KB of objects
alive (it never sets the process's peak RSS) and takes about 0.3 s.

Run ``python benchmarks/e2e/run.py --calibrate`` to print this
machine's ``calib_s``.
"""

from __future__ import annotations

import heapq
import time
from collections import deque

#: Median ``calib_s`` of the first acceptance set (see README.md).
#: Normalized timings are expressed in seconds of this reference machine.
CALIB_REF_S = 0.312

#: Iterations of the loop body; about 0.3 s on the reference machine.
CALIB_ITERATIONS = 220_000

#: Heap size the loop keeps steady: push one, pop one beyond this.
_HEAP_DEPTH = 256

#: Objects the loop cycles through, and distinct dict keys it updates.
_SLOTS = 64
_KEYS = 512


class _Slot:
    """A stand-in for a simulated node: a clock, a counter, a queue."""

    __slots__ = ("busy", "count", "queue")

    def __init__(self) -> None:
        self.busy = 0
        self.count = 0
        self.queue: deque = deque()

    def take(self, t: int) -> int:
        self.count += 1
        if t > self.busy:
            self.busy = t
        return self.busy

    def offer(self, item: int) -> None:
        queue = self.queue
        queue.append(item)
        if len(queue) > 4:
            queue.popleft()


def _handle(slot: _Slot, t: int, i: int, push, heap: list) -> None:
    slot.offer(i)
    push(heap, (slot.take(t), i, slot))


def calibration_loop(iterations: int = CALIB_ITERATIONS) -> int:
    """The fixed work unit.  Returns a checksum so nothing is elided."""
    heap: list = []
    slots = [_Slot() for _ in range(_SLOTS)]
    totals: dict = {}
    push = heapq.heappush
    pop = heapq.heappop
    get = totals.get
    x = 12345
    for i in range(iterations):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        _handle(slots[x % _SLOTS], x & 0xFFFF, i, push, heap)
        if len(heap) > _HEAP_DEPTH:
            _, j, slot = pop(heap)
            key = j % _KEYS
            totals[key] = get(key, 0) + slot.count
    return sum(totals.values()) + len(heap)


def calibrate(iterations: int = CALIB_ITERATIONS) -> float:
    """Wall seconds one :func:`calibration_loop` takes right now."""
    t0 = time.perf_counter()
    calibration_loop(iterations)
    return time.perf_counter() - t0
