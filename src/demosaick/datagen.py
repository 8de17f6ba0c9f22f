"""Synthetic training images with natural-image-like statistics.

Each image is a shared luminance field (gradients, random rectangles and
soft blobs) modulated per channel by smooth gain/offset fields. Edges are
therefore aligned across channels, so the green channel's denser sampling
carries information about red and blue detail; bilinear interpolation has
visible edge artifacts while learned reconstruction does not."""
from __future__ import annotations

import numpy as np


def _luminance_field(gen, height: int, width: int) -> np.ndarray:
    rows = np.linspace(0.0, 1.0, height)[:, None]
    cols = np.linspace(0.0, 1.0, width)[None, :]
    lum = gen.uniform(60, 190) + rows * gen.uniform(-60, 60) + cols * gen.uniform(-60, 60)

    for _ in range(int(gen.integers(5, 10))):
        h = int(gen.integers(height // 8, height // 2))
        w = int(gen.integers(width // 8, width // 2))
        r = int(gen.integers(0, height - h + 1))
        c = int(gen.integers(0, width - w + 1))
        lum[r : r + h, c : c + w] = gen.uniform(20, 235)

    yy = np.arange(height)[:, None]
    xx = np.arange(width)[None, :]
    for _ in range(int(gen.integers(1, 4))):
        cy, cx = gen.uniform(0, height), gen.uniform(0, width)
        rad = gen.uniform(4, height / 3)
        lum = lum + gen.uniform(-50, 50) * np.exp(
            -((yy - cy) ** 2 + (xx - cx) ** 2) / (2 * rad ** 2)
        )
    return lum


def _smooth_field(gen, height: int, width: int, lo: float, hi: float) -> np.ndarray:
    rows = np.linspace(0.0, 1.0, height)[:, None]
    cols = np.linspace(0.0, 1.0, width)[None, :]
    f = gen.uniform(lo, hi) + rows * gen.uniform(-0.5, 0.5) * (hi - lo) \
        + cols * gen.uniform(-0.5, 0.5) * (hi - lo)
    return np.clip(f, lo, hi)


# The smallest image size: blob radii are drawn from [4, height / 3] and
# rectangle widths from [width // 8, width // 2).
MIN_HEIGHT, MIN_WIDTH = 12, 2


def check_size(height: int, width: int) -> None:
    """Raise ``ValueError`` unless a synthetic image can have this size."""
    if height < MIN_HEIGHT or width < MIN_WIDTH:
        raise ValueError(f"synthetic images are at least {MIN_HEIGHT} px high and "
                         f"{MIN_WIDTH} px wide, got {height}x{width}")


def synthetic_image(seed: int, height: int = 64, width: int = 64) -> np.ndarray:
    check_size(height, width)
    gen = np.random.Generator(np.random.Philox(key=seed))
    lum = _luminance_field(gen, height, width)
    img = np.empty((height, width, 3))
    for c in range(3):
        gain = _smooth_field(gen, height, width, 0.55, 1.0)
        offset = _smooth_field(gen, height, width, -20.0, 20.0)
        img[:, :, c] = gain * lum + offset
    return np.clip(img, 0.0, 255.0)


# Image i of a dataset drawn with seed s is synthetic_image(s * SEED_STRIDE + i).
SEED_STRIDE = 100003


def check_seed(seed: int, count: int) -> None:
    """Raise ``ValueError`` unless the keys of a ``count``-image dataset
    drawn with ``seed`` are all Philox keys, in [0, 2^128)."""
    if not 0 <= seed * SEED_STRIDE <= 2 ** 128 - count:
        raise ValueError(f"image keys seed * {SEED_STRIDE} + i must lie in [0, 2^128), "
                         f"got seed {seed} for {count} images")


def make_dataset(count: int, seed: int = 0, height: int = 64, width: int = 64) -> list:
    """List of (name, image) pairs, compatible with the training pipeline."""
    check_seed(seed, count)
    return [
        (f"synth_{i:04d}.ppm", synthetic_image(seed * SEED_STRIDE + i, height, width))
        for i in range(count)
    ]
