import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from demosaick.cfa import (
    PATTERN_NAMES,
    bilinear_demosaick,
    data_consistency,
    make_pattern,
    mosaic,
)
from demosaick.tensor_core import ShapeError


def rng(seed=0):
    return np.random.Generator(np.random.Philox(key=seed))


class TestMakePattern:
    def test_bayer_rggb_cell(self):
        p = make_pattern("bayer_rggb")
        assert p.cell.tolist() == [[0, 1], [1, 2]]
        assert (p.cell == 1).sum() == 2

    def test_xtrans_channel_counts(self):
        p = make_pattern("xtrans")
        assert p.cell.shape == (6, 6)
        counts = [(p.cell == c).sum() for c in range(3)]
        assert counts == [8, 20, 8]

    def test_bayer_bggr_origin(self):
        assert make_pattern("bayer_bggr").channel_at(0, 0) == 2

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            make_pattern("rccb")

    @pytest.mark.parametrize("name", PATTERN_NAMES)
    def test_one_channel_per_pixel(self, name):
        mask = make_pattern(name).mask(12, 12)
        assert np.all(mask.sum(axis=2) == 1.0)

    def test_tiling(self):
        p = make_pattern("xtrans")
        for r, c in [(0, 0), (7, 3), (13, 20), (5, 11)]:
            assert p.channel_at(r, c) == p.cell[r % 6, c % 6]


class TestMosaic:
    @pytest.mark.parametrize("name", PATTERN_NAMES)
    def test_idempotent(self, name):
        x = rng(1).uniform(0, 255, size=(8, 8, 3))
        p = make_pattern(name)
        once = mosaic(x, p)
        twice = mosaic(once.data, p)
        assert np.array_equal(once.data, twice.data)

    def test_white_2x2_bayer(self):
        obs = mosaic(np.full((2, 2, 3), 255.0), make_pattern("bayer_rggb"))
        assert (obs.data != 0).sum() == 4
        assert np.all((obs.data != 0).sum(axis=2) == 1)

    @given(st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_single_nonzero_per_pixel(self, seed):
        x = rng(seed).uniform(1, 255, size=(6, 6, 3))
        for name in PATTERN_NAMES:
            obs = mosaic(x, make_pattern(name))
            assert np.all((obs.data != 0).sum(axis=2) == 1)

    def test_wrong_channels(self):
        with pytest.raises(ShapeError):
            mosaic(np.zeros((4, 4, 1)), make_pattern("bayer_rggb"))

    def test_one_mask_per_observation(self, mask_calls):
        """The observation masks its own data, so mosaicking an image and
        reading the observation's mask build the CFA mask once."""
        x = rng(6).uniform(0, 255, size=(6, 8, 3))
        obs = mosaic(x, make_pattern("xtrans"))
        assert np.array_equal(obs.data, x * obs.mask)
        assert mask_calls == [(6, 8)]


class TestDataConsistency:
    def test_zero_estimate_returns_observation(self):
        x = rng(2).uniform(0, 255, size=(4, 4, 3))
        y = mosaic(x, make_pattern("bayer_rggb"))
        assert np.array_equal(data_consistency(np.zeros_like(x), y), y.data)

    def test_exact_consistency(self):
        x = rng(3).uniform(0, 255, size=(6, 6, 3))
        y = mosaic(x, make_pattern("bayer_grbg"))
        assert np.allclose(data_consistency(x, y), x)

    def test_mask_restriction(self):
        gen = rng(4)
        u = gen.uniform(0, 255, size=(6, 6, 3))
        y = mosaic(gen.uniform(0, 255, size=(6, 6, 3)), make_pattern("bayer_rggb"))
        out = data_consistency(u, y)
        m = y.pattern.mask(6, 6)
        assert np.array_equal(out[m > 0], y.data[m > 0])
        assert np.array_equal(out[m == 0], u[m == 0])

    def test_identity_u_plus_masked_difference(self):
        gen = rng(5)
        x = gen.uniform(0, 255, size=(6, 6, 3))
        u = gen.uniform(0, 255, size=(6, 6, 3))
        p = make_pattern("bayer_rggb")
        y = mosaic(x, p)
        m = p.mask(6, 6)
        assert np.allclose(data_consistency(u, y), u + m * (x - u))

    def test_shape_mismatch(self):
        y = mosaic(np.zeros((4, 4, 3)), make_pattern("bayer_rggb"))
        with pytest.raises(ShapeError):
            data_consistency(np.zeros((6, 6, 3)), y)


class TestBilinear:
    @pytest.mark.parametrize("name", PATTERN_NAMES)
    def test_constant_image_exact(self, name):
        x = np.tile(np.array([80.0, 140.0, 200.0]), (12, 12, 1))
        out = bilinear_demosaick(mosaic(x, make_pattern(name)))
        assert np.allclose(out, x, atol=1e-10)

    def test_green_at_red_is_axial_mean(self):
        x = rng(6).uniform(0, 255, size=(8, 8, 3))
        obs = mosaic(x, make_pattern("bayer_rggb"))
        out = bilinear_demosaick(obs)
        # (2, 2) is a red pixel in RGGB; its green neighbors are axial
        g = obs.data[:, :, 1]
        expected = (g[1, 2] + g[3, 2] + g[2, 1] + g[2, 3]) / 4.0
        assert np.isclose(out[2, 2, 1], expected)

    def test_linear_ramp_exact_interior(self):
        rows = np.arange(10)[:, None, None].astype(float)
        cols = np.arange(10)[None, :, None].astype(float)
        x = np.concatenate([10 + 2 * rows + 0 * cols] * 3, axis=2) + np.array([0.0, 5.0, 9.0])
        x = x + 3 * cols
        out = bilinear_demosaick(mosaic(x, make_pattern("bayer_rggb")))
        assert np.allclose(out[2:-2, 2:-2], x[2:-2, 2:-2], atol=1e-10)
