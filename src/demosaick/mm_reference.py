"""Reference majorization-minimization math on small instances.

These routines exist as oracles for the cascade: the exact variational
objective, its quadratic surrogate around a point (constant included, so
the touching condition holds exactly), and the closed-form MM iteration
for a quadratic prior phi(x) = lam * ||x||^2.
"""
from __future__ import annotations

import numpy as np

from .cfa import MosaicObservation


def objective_value(x: np.ndarray, y: MosaicObservation, sigma: float, lam: float) -> float:
    """Q(x) = ||y - M x||^2 / (2 sigma^2) + lam ||x||^2."""
    m = y.mask
    fid = float(((y.data - m * x) ** 2).sum()) / (2.0 * sigma ** 2)
    return fid + lam * float((x ** 2).sum())


def majorizer_gap(x: np.ndarray, x0: np.ndarray, y: MosaicObservation,
                  sigma: float, alpha: float) -> float:
    """d(x, x0) = (x - x0)^T (alpha I - M) (x - x0) / (2 sigma^2)."""
    m = y.mask
    d = x - x0
    return float(((alpha - m) * d ** 2).sum()) / (2.0 * sigma ** 2)


def surrogate_value(x: np.ndarray, x0: np.ndarray, y: MosaicObservation,
                    sigma: float, alpha: float, lam: float) -> float:
    """Quadratic surrogate around x0, written in denoising form:

        alpha/(2 sigma^2) ||x - z||^2 + lam ||x||^2 + c,

    with z = x0 + M(y - M x0)/alpha (the exact completion of squares;
    it reduces to the familiar z = y + (I - M) x0 as alpha -> 1) and c
    chosen so that the surrogate equals the objective at x = x0. With
    this z the identity surrogate = objective + majorizer_gap holds for
    every x, so majorization for alpha > 1 is exact, not approximate.
    """
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    m = y.mask
    z = x0 + m * (y.data - m * x0) / alpha
    c = (alpha - 1.0) / (2.0 * alpha * sigma ** 2) * float(((y.data - m * x0) ** 2).sum())
    quad = alpha / (2.0 * sigma ** 2) * float(((x - z) ** 2).sum())
    return quad + lam * float((x ** 2).sum()) + c


def mm_reference_iterate(y: MosaicObservation, sigma: float, alpha: float,
                         lam: float, steps: int):
    """Exact MM iteration for the quadratic prior: each surrogate is
    minimized in closed form, x_{t+1} = z_t / (1 + 2 lam sigma^2 / alpha).

    Returns the list [x^(0), ..., x^(steps)] starting from x^(0) = y.
    """
    if alpha <= 1:
        raise ValueError("alpha must exceed 1 for a valid majorizer")
    if lam < 0:
        raise ValueError("lam must be non-negative")
    m = y.mask
    shrink = 1.0 + 2.0 * lam * sigma ** 2 / alpha
    x = y.data.copy()
    iterates = [x]
    for _ in range(steps):
        z = x + m * (y.data - m * x) / alpha
        x = z / shrink
        iterates.append(x)
    return iterates
