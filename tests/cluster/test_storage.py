"""Tests for the disk / file-server I/O model."""

import pytest

from repro.cluster.storage import StorageModel, StorageSpec
from repro.util.units import GiB, MiB


class TestSpecValidation:
    def test_defaults_valid(self):
        spec = StorageSpec()
        assert spec.bandwidth == 100 * MiB

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"bandwidth": 0},
            {"latency": -1},
            {"shared_bandwidth": 0},
            {"jitter": 1.0},
            {"jitter": -0.1},
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ValueError):
            StorageSpec(**kwargs)


class TestEstimates:
    def test_estimate_is_latency_plus_transfer(self):
        model = StorageModel(StorageSpec(bandwidth=100 * MiB, latency=0.01))
        assert model.estimate_load_time(512 * MiB) == pytest.approx(0.01 + 5.12)

    def test_paper_magnitude_tens_of_seconds_per_dataset(self):
        """Fig. 2: loading a full 2 GiB dataset takes tens of seconds."""
        model = StorageModel(StorageSpec(bandwidth=100 * MiB, latency=0.01))
        total = 4 * model.estimate_load_time(512 * MiB)
        assert 10.0 < total < 60.0

    def test_zero_bytes(self):
        model = StorageModel(StorageSpec(latency=0.01))
        assert model.estimate_load_time(0) == pytest.approx(0.01)

    def test_negative_bytes_rejected(self):
        model = StorageModel(StorageSpec())
        with pytest.raises(ValueError):
            model.estimate_load_time(-1)


class TestLoadLifecycle:
    def test_begin_end_tracks_active(self):
        model = StorageModel(StorageSpec())
        model.begin_load(MiB)
        model.begin_load(MiB)
        assert (model.active_loads, model.active_bytes) == (2, 2 * MiB)
        model.end_load(MiB)
        assert (model.active_loads, model.active_bytes) == (1, MiB)
        model.end_load(MiB)
        assert (model.active_loads, model.active_bytes) == (0, 0)

    def test_end_without_begin_raises(self):
        model = StorageModel(StorageSpec())
        with pytest.raises(RuntimeError):
            model.end_load(MiB)

    def test_counters(self):
        model = StorageModel(StorageSpec())
        model.begin_load(10)
        model.begin_load(20)
        assert model.total_loads == 2
        assert model.total_bytes == 30

    def test_no_jitter_is_deterministic(self):
        model = StorageModel(StorageSpec(jitter=0.0))
        d1 = model.begin_load(MiB)
        d2 = model.begin_load(MiB)
        assert d1 == d2

    def test_jitter_bounded_and_seeded(self):
        spec = StorageSpec(jitter=0.2)
        nominal = StorageModel(StorageSpec()).estimate_load_time(MiB)
        a = StorageModel(spec, seed=5)
        b = StorageModel(spec, seed=5)
        da = [a.begin_load(MiB) for _ in range(20)]
        db = [b.begin_load(MiB) for _ in range(20)]
        assert da == db
        for d in da:
            assert 0.8 * nominal <= d <= 1.2 * nominal
        assert len(set(da)) > 1


class TestContention:
    def test_local_disks_no_contention(self):
        model = StorageModel(StorageSpec(bandwidth=100 * MiB))
        assert model.effective_bandwidth(16) == 100 * MiB

    def test_shared_server_divides_bandwidth(self):
        model = StorageModel(
            StorageSpec(bandwidth=100 * MiB, shared_bandwidth=200 * MiB)
        )
        assert model.effective_bandwidth(1) == 100 * MiB  # per-stream cap
        assert model.effective_bandwidth(4) == 50 * MiB
        assert model.effective_bandwidth(8) == 25 * MiB

    def test_contended_load_slower(self):
        spec = StorageSpec(bandwidth=1 * GiB, shared_bandwidth=1 * GiB, latency=0.0)
        model = StorageModel(spec)
        first = model.begin_load(GiB)
        second = model.begin_load(GiB)
        assert second == pytest.approx(2 * first)
