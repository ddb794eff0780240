"""Tests for the seeded RNG helpers."""

import numpy as np
import pytest

from repro.util.rng import make_rng, spawn_rngs


class TestMakeRng:
    def test_seed_reproducible(self):
        a = make_rng(42).random(8)
        b = make_rng(42).random(8)
        assert np.array_equal(a, b)

    def test_different_seeds_differ(self):
        a = make_rng(1).random(8)
        b = make_rng(2).random(8)
        assert not np.array_equal(a, b)

    def test_generator_passthrough(self):
        gen = np.random.default_rng(7)
        assert make_rng(gen) is gen


class TestSpawnRngs:
    def test_count(self):
        assert len(spawn_rngs(0, 5)) == 5

    def test_reproducible(self):
        a = [g.random() for g in spawn_rngs(3, 4)]
        b = [g.random() for g in spawn_rngs(3, 4)]
        assert a == b

    def test_children_independent(self):
        children = spawn_rngs(0, 3)
        draws = [g.random(4).tolist() for g in children]
        assert draws[0] != draws[1] != draws[2]

    def test_zero_children(self):
        assert spawn_rngs(0, 0) == []

    def test_negative_raises(self):
        with pytest.raises(ValueError):
            spawn_rngs(0, -1)
