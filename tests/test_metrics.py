import math

import numpy as np
import pytest

from demosaick.metrics import linrgb_to_srgb, psnr
from demosaick.tensor_core import ShapeError


class TestPsnr:
    def test_unit_error_value(self):
        a = np.zeros((4, 4, 3))
        b = np.ones((4, 4, 3))
        # 10 log10(255^2 / 1) = 48.1308 dB
        assert np.isclose(psnr(a, b), 48.13080361, atol=1e-7)

    def test_full_scale_error_is_zero_db(self):
        a = np.zeros((2, 2, 3))
        b = np.full((2, 2, 3), 255.0)
        assert np.isclose(psnr(a, b), 0.0, atol=1e-12)

    def test_identical_is_infinite(self):
        a = np.full((3, 3, 3), 17.0)
        assert psnr(a, a) == math.inf

    def test_symmetry(self):
        gen = np.random.Generator(np.random.Philox(key=0))
        a = gen.uniform(0, 255, size=(5, 5, 3))
        b = gen.uniform(0, 255, size=(5, 5, 3))
        assert psnr(a, b) == psnr(b, a)

    def test_custom_peak(self):
        a = np.zeros((2, 2, 1))
        b = np.ones((2, 2, 1))
        assert np.isclose(psnr(a, b, peak=1.0), 0.0)

    def test_overflowing_error_is_numeric_failure(self):
        a = np.zeros((2, 2, 3))
        with np.errstate(over="ignore"), pytest.raises(FloatingPointError, match="overflows"):
            psnr(a, np.full_like(a, 1e200))

    def test_nan_error_is_nan(self):
        b = np.zeros((2, 2, 3))
        b[0, 0, 0] = np.nan
        assert math.isnan(psnr(np.zeros_like(b), b))

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            psnr(np.zeros((2, 2, 3)), np.zeros((3, 3, 3)))


class TestSrgb:
    def test_endpoints(self):
        out = linrgb_to_srgb(np.array([0.0, 255.0]))
        assert np.allclose(out, [0.0, 255.0], atol=1e-10)

    def test_linear_segment(self):
        u = 0.001  # below the 0.0031308 knee
        out = linrgb_to_srgb(np.array([u * 255.0]))
        assert np.isclose(out[0], 12.92 * u * 255.0, atol=1e-10)

    def test_power_segment_mid_gray(self):
        # linear 0.18 maps to about 0.4613 under the standard curve
        out = linrgb_to_srgb(np.array([0.18 * 255.0])) / 255.0
        expected = 1.055 * 0.18 ** (1.0 / 2.4) - 0.055
        assert np.isclose(out[0], expected, atol=1e-12)
        assert np.isclose(out[0], 0.46135613, atol=1e-6)

    def test_knee_continuity(self):
        knee = 0.0031308 * 255.0
        below = linrgb_to_srgb(np.array([knee - 1e-9]))
        above = linrgb_to_srgb(np.array([knee + 1e-9]))
        # the two branches of the standard curve agree to ~3e-5 (in [0,1])
        assert abs(above[0] - below[0]) < 1e-2

    def test_monotone(self):
        x = np.linspace(0.0, 255.0, 1000)
        y = linrgb_to_srgb(x)
        assert np.all(np.diff(y) > 0)

    def test_clips_out_of_range(self):
        out = linrgb_to_srgb(np.array([-10.0, 300.0]))
        assert np.allclose(out, [0.0, 255.0], atol=1e-10)
