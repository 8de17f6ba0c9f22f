"""Image quality metrics and the sRGB transfer curve."""
from __future__ import annotations

import math

import numpy as np

from .tensor_core import ShapeError

_SRGB_KNEE = 0.0031308


def psnr(a: np.ndarray, b: np.ndarray, peak: float = 255.0) -> float:
    """10 log10(peak^2 / MSE) over all pixels and channels; inf if equal,
    NaN if the MSE is NaN. An MSE that overflows to +inf raises
    FloatingPointError."""
    if a.shape != b.shape:
        raise ShapeError(f"shape mismatch: {a.shape} vs {b.shape}")
    mse = float(((a - b) ** 2).mean())
    if mse == 0.0:
        return math.inf
    if mse == math.inf:
        raise FloatingPointError("mean squared error overflows")
    return 10.0 * math.log10(peak ** 2 / mse)


def linrgb_to_srgb(image: np.ndarray) -> np.ndarray:
    """Standard sRGB transfer curve applied channel-wise.

    Input is interpreted on [0, 255] (clipped first), output is rescaled
    back to [0, 255]. No chromatic adaptation matrix is applied.
    """
    u = np.clip(image, 0.0, 255.0) / 255.0
    lo = 12.92 * u
    hi = 1.055 * np.power(np.maximum(u, _SRGB_KNEE), 1.0 / 2.4) - 0.055
    return np.where(u <= _SRGB_KNEE, lo, hi) * 255.0
