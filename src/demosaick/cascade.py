"""K-step unrolled cascade with extrapolation and noise-level continuation.

Each step extrapolates the two most recent estimates, re-imposes the
observed CFA samples and runs the shared residual denoiser at that step's
noise level. The backward pass sweeps the stored trajectory in reverse,
accumulating gradients for the shared denoiser parameters, the
extrapolation weights and the noise schedule.

The denoiser's filters are shared by all K steps, so each pass
materializes them once; the backward pass sums the K steps' filter
gradients and takes them back through the materialization once.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cfa import MosaicObservation, data_consistency
from .resdnet import (
    ResDNetParams,
    denoiser_banks,
    filter_grads,
    resdnet_backward,
    resdnet_forward,
)
from .tensor_core import ShapeError


@dataclass
class CascadeParams:
    denoiser: ResDNetParams   # shared across all steps
    w: np.ndarray             # extrapolation weights, length K
    sigmas: np.ndarray        # per-step noise levels, length K

    def __post_init__(self):
        self.w = np.asarray(self.w, dtype=np.float64)
        self.sigmas = np.asarray(self.sigmas, dtype=np.float64)
        if self.w.shape != self.sigmas.shape or self.w.ndim != 1:
            raise ShapeError("w and sigmas must be 1-D vectors of equal length")

    @property
    def steps(self) -> int:
        return len(self.w)

    def flatten(self) -> dict:
        out = self.denoiser.flatten()
        out["cascade.w"] = self.w
        out["cascade.sigmas"] = self.sigmas
        return out

    @classmethod
    def from_flat(cls, flat: dict, depth: int) -> "CascadeParams":
        den = ResDNetParams.from_flat(flat, depth)
        return cls(denoiser=den, w=flat["cascade.w"], sigmas=flat["cascade.sigmas"])


@dataclass
class Trajectory:
    """Per-step intermediates kept for backpropagation through time."""

    states: list        # x^(0) ... x^(K+1), length K + 2
    caches: list        # denoiser caches, length K
    observation: MosaicObservation


def init_schedule(K: int, sigma_max: float, sigma_min: float):
    """Extrapolation weights w_i = (i-1)/(i+2) and a geometric noise
    schedule from sigma_max down to sigma_min."""
    if K < 1:
        raise ValueError("K must be >= 1")
    if not (sigma_max >= sigma_min > 0):
        raise ValueError("need sigma_max >= sigma_min > 0")
    i = np.arange(1, K + 1, dtype=np.float64)
    w = (i - 1) / (i + 2)
    if K == 1:
        sigmas = np.array([float(sigma_max)])
    else:
        sigmas = sigma_max * (sigma_min / sigma_max) ** ((i - 1) / (K - 1))
    return w, sigmas


def demosaick_forward(y: MosaicObservation, params: CascadeParams):
    """Run the cascade. Returns (estimate, trajectory)."""
    x_prev = np.zeros_like(y.data)
    x_cur = y.data.copy()
    states = [x_prev, x_cur]
    caches = []
    banks = denoiser_banks(params.denoiser)
    for i in range(params.steps):
        u = x_cur + params.w[i] * (x_cur - x_prev)
        z = data_consistency(u, y)
        x_next, cache = resdnet_forward(z, float(params.sigmas[i]), params.denoiser, banks)
        caches.append(cache)
        states.append(x_next)
        x_prev, x_cur = x_cur, x_next
    traj = Trajectory(states=states, caches=caches, observation=y)
    return x_cur, traj


def demosaick_backward(grad: np.ndarray, traj: Trajectory, params: CascadeParams):
    """BPTT over the trajectory. Returns a flat gradient dict matching
    ``CascadeParams.flatten()``."""
    K = params.steps
    if len(traj.states) != K + 2:
        raise ShapeError("trajectory does not match cascade length")
    y = traj.observation
    keep = 1.0 - y.pattern.mask(grad.shape[0], grad.shape[1])  # (I - M)

    banks = denoiser_banks(params.denoiser)
    summed = {}
    g_w = np.zeros(K)
    g_sig = np.zeros(K)

    g_cur = grad          # d loss / d x^(i+1)
    g_prev = np.zeros_like(grad)  # d loss / d x^(i)
    for i in reversed(range(K)):
        g_z, step_grads, g_sigma = resdnet_backward(
            g_cur, traj.caches[i], params.denoiser, banks
        )
        for k, v in step_grads.items():
            if k in summed:
                summed[k] += v
            else:
                summed[k] = v
        g_sig[i] = g_sigma
        g_u = keep * g_z
        diff = traj.states[i + 1] - traj.states[i]
        g_w[i] = float((g_u * diff).sum())
        # u = x^(i) + w_i (x^(i) - x^(i-1))
        g_xi = g_prev + (1.0 + params.w[i]) * g_u
        g_xim1 = -params.w[i] * g_u
        g_cur, g_prev = g_xi, g_xim1
    param_grads = filter_grads(summed, params.denoiser)
    param_grads["cascade.w"] = g_w
    param_grads["cascade.sigmas"] = g_sig
    return param_grads
