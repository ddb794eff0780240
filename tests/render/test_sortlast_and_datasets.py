"""Tests for sort-last rendering equivalence and synthetic datasets."""

import re

import numpy as np
import pytest

from repro.render.camera import default_camera_for
from repro.render.datasets import (
    DATASET_NAMES,
    combustion,
    make_volume,
    plume,
    supernova,
    value_noise,
)
from repro.render.image import max_channel_difference
from repro.render.raycast import render_volume
from repro.render.sortlast import render_sort_last
from repro.render.transfer_function import cool_warm, fire, grayscale_ramp


class TestSortLastEquivalence:
    """The headline substrate property: parallel == monolithic."""

    @pytest.mark.parametrize("ranks,algo", [
        (2, "binary-swap"),
        (4, "binary-swap"),
        (3, "2-3-swap"),
        (6, "2-3-swap"),
        (5, "2-3-swap"),
        (7, "2-3-swap"),
        (4, "direct-send"),
    ])
    def test_matches_monolithic(self, ranks, algo):
        vol = supernova((24, 24, 24))
        cam = default_camera_for(vol.shape, width=32, height=32, mode="ortho")
        tf = cool_warm()
        mono = render_volume(vol, cam, tf, step=0.8)
        result = render_sort_last(
            vol, cam, tf, ranks=ranks, algorithm=algo, step=0.8
        )
        assert result.ranks == ranks
        assert max_channel_difference(mono, result.image) < 1e-5

    def test_perspective_camera_close(self):
        """Perspective ordering of regular-grid bricks also composites
        correctly from outside the volume."""
        vol = plume((16, 16, 24))
        cam = default_camera_for(
            vol.shape, width=24, height=24, mode="persp", fov_degrees=35.0
        )
        tf = fire()
        mono = render_volume(vol, cam, tf, step=0.8)
        result = render_sort_last(vol, cam, tf, ranks=4, step=0.8)
        assert max_channel_difference(mono, result.image) < 1e-5

    def test_render_stats_populated(self):
        vol = supernova((16, 16, 16))
        cam = default_camera_for(vol.shape, width=16, height=16)
        result = render_sort_last(vol, cam, cool_warm(), ranks=2, step=1.0)
        assert result.render_stats.rays == 2 * 16 * 16
        assert result.render_stats.samples > 0
        assert result.compositing.messages > 0


class TestValueNoise:
    def test_reproducible(self):
        a = value_noise((8, 8, 8), seed=5)
        b = value_noise((8, 8, 8), seed=5)
        assert np.array_equal(a, b)

    def test_normalized(self):
        n = value_noise((8, 9, 10), seed=1)
        assert n.min() == pytest.approx(0.0)
        assert n.max() == pytest.approx(1.0)
        assert n.shape == (8, 9, 10)

    def test_seeds_differ(self):
        assert not np.array_equal(
            value_noise((8, 8, 8), seed=1), value_noise((8, 8, 8), seed=2)
        )

    def test_octaves_validated(self):
        with pytest.raises(ValueError):
            value_noise((8, 8, 8), octaves=0)


class TestDatasets:
    @pytest.mark.parametrize("name", DATASET_NAMES)
    def test_named_generation(self, name):
        vol = make_volume(name, (12, 12, 12))
        assert vol.shape == (12, 12, 12)
        assert vol.name == name
        assert vol.data.dtype == np.float32
        assert 0.0 <= vol.data.min() and vol.data.max() <= 1.0

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            make_volume("galaxy")

    @pytest.mark.parametrize("shape", [(0, 0, 0), (12, 0, 12), (12, 12, -1)])
    def test_empty_shape_rejected(self, shape):
        with pytest.raises(ValueError, match=re.escape(str(shape))):
            make_volume("supernova", shape)

    def test_reproducible(self):
        a = plume((12, 12, 16))
        b = plume((12, 12, 16))
        assert np.array_equal(a.data, b.data)

    def test_plume_column_structure(self):
        """Mass concentrates near the column axis, and the column
        dilutes (lower peak density) as it rises and spreads."""
        vol = plume((24, 24, 32))
        x, y = np.meshgrid(np.arange(24), np.arange(24), indexing="ij")
        near_axis = (np.abs(x - 12) <= 5) & (np.abs(y - 12) <= 5)
        inner = vol.data[near_axis].sum()
        outer = vol.data[~near_axis].sum()
        assert inner > outer
        peak_low = vol.data[:, :, 6:12].max()
        peak_high = vol.data[:, :, 26:].max()
        assert peak_low > peak_high

    def test_supernova_radially_structured(self):
        vol = supernova((24, 24, 24))
        c = 12
        # Mass vanishes outside the shell radius.
        assert vol.data[0, 0, 0] == pytest.approx(0.0, abs=1e-3)
        assert vol.data[c, c, c] > 0.1  # hot core

    def test_combustion_nontrivial_structure(self):
        vol = combustion((24, 18, 12))
        assert vol.data.std() > 0.05

    def test_datasets_render_nonempty(self):
        """Each gallery dataset produces a visible image (Fig. 10)."""
        tfs = {"plume": fire(), "combustion": fire(), "supernova": cool_warm()}
        for name in DATASET_NAMES:
            vol = make_volume(name, (16, 16, 16))
            cam = default_camera_for(vol.shape, width=16, height=16)
            img = render_volume(vol, cam, tfs[name], step=1.0)
            assert img[..., 3].max() > 0.05, name
