"""Reproducible synthetic sensor noise.

Sampling uses numpy's Philox counter-based generator, so a given (seed,
image shape) always yields the same noise field regardless of platform or
thread count. Outputs are never clipped here; clipping is the consumer's
choice so the noise statistics stay exact.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

IID_GAUSSIAN = "iid_gaussian"
HETEROSCEDASTIC = "heteroscedastic"


@dataclass(frozen=True)
class NoiseSpec:
    kind: str = IID_GAUSSIAN
    sigma: float = 0.0          # iid std, intensity units
    a_shot: float = 0.0         # heteroscedastic: var = a_shot * x + b_read
    b_read: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.kind not in (IID_GAUSSIAN, HETEROSCEDASTIC):
            raise ValueError(f"unknown noise kind {self.kind!r}")
        for name in ("sigma", "a_shot", "b_read"):
            value = getattr(self, name)
            if not 0.0 <= value < math.inf:
                raise ValueError(f"noise {name} must be finite and non-negative, got {value!r}")
        if not 0 <= self.seed < 2**128:  # the range of a Philox key
            raise ValueError(f"noise seed must be in [0, 2**128), got {self.seed!r}")


def standard_normal_field(shape, seed: int) -> np.ndarray:
    """Deterministic standard-normal field from a counter-based stream."""
    gen = np.random.Generator(np.random.Philox(key=seed))
    return gen.standard_normal(shape)


def add_noise(image: np.ndarray, spec: NoiseSpec) -> np.ndarray:
    g = standard_normal_field(image.shape, spec.seed)
    if spec.kind == IID_GAUSSIAN:
        if spec.sigma == 0.0:
            return image.copy()
        return image + spec.sigma * g
    if np.any(image < 0):
        raise ValueError("heteroscedastic noise requires non-negative intensities")
    std = np.sqrt(spec.a_shot * image + spec.b_read)
    return image + std * g
