"""Seeded random-number-generator helpers.

Every stochastic component of the simulator (workload generation, I/O
jitter, user think times) takes an explicit seed or an explicit
``numpy.random.Generator``.  Simulations are therefore bit-reproducible,
which the test suite and the benchmark harness rely on.
"""

from __future__ import annotations

from typing import List, Optional, Union

import numpy as np

SeedLike = Union[int, np.random.Generator, None]


def make_rng(seed: SeedLike = None) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` from a seed or pass one through.

    ``None`` produces an OS-entropy generator (only appropriate for
    exploratory use; library code should always thread an explicit seed).
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def spawn_rngs(seed: SeedLike, n: int) -> List[np.random.Generator]:
    """Derive ``n`` statistically independent child generators.

    Uses :class:`numpy.random.SeedSequence` spawning so that child streams
    are independent regardless of how many are requested, and so that the
    assignment of streams to components is stable under refactorings that
    change consumption order within one component.
    """
    if n < 0:
        raise ValueError(f"cannot spawn {n} generators")
    if isinstance(seed, np.random.Generator):
        # Spawn from the generator's bit generator seed sequence.
        seq = seed.bit_generator.seed_seq  # type: ignore[attr-defined]
    else:
        seq = np.random.SeedSequence(seed)
    return [np.random.default_rng(child) for child in seq.spawn(n)]


__all__ = ["SeedLike", "make_rng", "spawn_rngs"]
