"""Color-filter-array patterns, the mosaic operator, data consistency and
the bilinear baseline.

A pattern is a small periodic cell of channel indices (0=R, 1=G, 2=B); the
mosaic operator keeps exactly one channel per pixel and zeroes the rest.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .tensor_core import ShapeError, _pad_reflect, check_image

R, G, B = 0, 1, 2

_BAYER_CELLS = {
    "bayer_rggb": [[R, G], [G, B]],
    "bayer_grbg": [[G, R], [B, G]],
    "bayer_gbrg": [[G, B], [R, G]],
    "bayer_bggr": [[B, G], [G, R]],
}

# Standard Fujifilm X-Trans 6x6 cell: 20 green, 8 red, 8 blue.
_XTRANS_CELL = [
    [G, B, R, G, R, B],
    [R, G, G, B, G, G],
    [B, G, G, R, G, G],
    [G, R, B, G, B, R],
    [B, G, G, R, G, G],
    [R, G, G, B, G, G],
]

PATTERN_NAMES = tuple(sorted(_BAYER_CELLS)) + ("xtrans",)


@dataclass(frozen=True)
class CfaPattern:
    name: str
    cell: np.ndarray  # (period_h, period_w) of channel indices

    @property
    def period_h(self) -> int:
        return self.cell.shape[0]

    @property
    def period_w(self) -> int:
        return self.cell.shape[1]

    def channel_at(self, row: int, col: int) -> int:
        return int(self.cell[row % self.period_h, col % self.period_w])

    def mask(self, height: int, width: int) -> np.ndarray:
        """Binary (H, W, 3) mask: 1 where the channel is sampled."""
        tiled = np.tile(
            self.cell,
            (
                -(-height // self.period_h),
                -(-width // self.period_w),
            ),
        )[:height, :width]
        return (tiled[:, :, None] == np.arange(3)).astype(np.float64)


@dataclass(frozen=True)
class MosaicObservation:
    """3-channel tensor with unsampled entries exactly zero, plus the
    pattern that produced it and the noise level of the measurements.

    ``data`` is masked on construction, so a 3-channel image or a
    one-channel raw mosaic (broadcast to 3 channels) may be passed as is;
    masking data that is already masked changes no bit."""

    data: np.ndarray
    pattern: CfaPattern
    sigma: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "data", self.data * self.mask)

    @cached_property
    def mask(self) -> np.ndarray:
        """The pattern's (H, W, 3) mask at the data's size, built once (on
        construction, to mask the data) and shared read-only by every
        later reader."""
        m = self.pattern.mask(self.data.shape[0], self.data.shape[1])
        m.flags.writeable = False
        return m


def make_pattern(kind: str) -> CfaPattern:
    if kind in _BAYER_CELLS:
        cell = np.array(_BAYER_CELLS[kind], dtype=np.int64)
    elif kind == "xtrans":
        cell = np.array(_XTRANS_CELL, dtype=np.int64)
    else:
        raise ValueError(f"unknown CFA pattern {kind!r}; choose from {PATTERN_NAMES}")
    return CfaPattern(name=kind, cell=cell)


def mosaic(image: np.ndarray, pattern: CfaPattern, sigma: float = 0.0) -> MosaicObservation:
    """Apply the diagonal binary mosaic operator M to a 3-channel image."""
    check_image(image)
    if image.shape[2] != 3:
        raise ShapeError(f"mosaic expects 3 channels, got {image.shape[2]}")
    return MosaicObservation(data=image, pattern=pattern, sigma=sigma)


def data_consistency(u: np.ndarray, y: MosaicObservation) -> np.ndarray:
    """(I - M) u + y: sampled positions from y, the rest from u."""
    if u.shape != y.data.shape:
        raise ShapeError(f"shape mismatch: {u.shape} vs {y.data.shape}")
    return np.where(y.mask > 0, y.data, u)


def bilinear_demosaick(y: MosaicObservation) -> np.ndarray:
    """Normalized-convolution interpolation of the missing samples.

    For Bayer patterns a 3x3 window reproduces the classic bilinear
    kernels exactly; for sparser patterns (X-Trans red/blue) the window
    grows until every pixel sees at least one sample of the channel.
    """
    data, mask = y.data, y.mask
    out = np.empty_like(data)
    for c in range(3):
        out[:, :, c] = _interpolate_channel(data[:, :, c], mask[:, :, c])
    return out


def _interpolate_channel(values: np.ndarray, mask: np.ndarray) -> np.ndarray:
    # patterns are at most 6x6 periodic, so a small window always suffices
    for half in range(1, 9):
        num = _box_sum(values[:, :, None], half)[:, :, 0]
        den = _box_sum(mask[:, :, None], half)[:, :, 0]
        if np.all(den > 0):
            interp = num / den
            return np.where(mask > 0, values, interp)
    raise ValueError("channel has no samples to interpolate from")


def _box_sum(x: np.ndarray, half: int) -> np.ndarray:
    xp = _pad_reflect(x, half)
    out = np.zeros_like(x)
    k = 2 * half + 1
    for i in range(k):
        for j in range(k):
            out += xp[i : i + x.shape[0], j : j + x.shape[1]]
    return out
