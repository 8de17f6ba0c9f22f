"""Residual denoising network: forward pass, exact analytic backward pass,
normalized filter parametrization and the variance-aware projection layer.

The network estimates the noise realization, rescales it so its l2 norm is
at most eps = exp(gamma) * sigma * sqrt(N - 1), subtracts it from the input
and clips to [0, 255]. All trainable tensors live in ResDNetParams;
gradients are returned as a flat {name: array} dict: ``resdnet_backward``
gives each layer's materialized-filter gradient, and ``filter_grads``
turns those into the ``ResDNetParams.flatten`` entries.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .tensor_core import (
    FilterBank,
    ShapeError,
    clip,
    clip_backward,
    conv2d,
    conv2d_backward,
    conv_transpose2d,
    conv_transpose2d_backward,
    prelu,
    prelu_backward,
)

_NORM_TOL = 1e-12


class DegenerateFilterError(ValueError):
    """Raised when a raw filter is constant and cannot be normalized."""


# ---------------------------------------------------------------------------
# filter parametrization


def materialize_weights(u: np.ndarray, s) -> np.ndarray:
    """Effective filter v = s * (u - mean(u)) / ||u - mean(u)||_2.

    For a 4-D bank (out, in, kh, kw) each output-channel filter is
    normalized independently with its own scale s[o]; a 1-D u is treated
    as a single filter with scalar s.
    """
    u = np.asarray(u, dtype=np.float64)
    s = np.asarray(s, dtype=np.float64)
    if u.ndim == 1:
        axes = (0,)
    else:
        axes = tuple(range(1, u.ndim))
    w0 = u - u.mean(axis=axes, keepdims=True)
    norm = np.sqrt((w0 ** 2).sum(axis=axes, keepdims=True))
    if np.any(norm <= _NORM_TOL):
        raise DegenerateFilterError("constant raw filter cannot be normalized")
    return np.reshape(s, norm.shape) * w0 / norm


def materialize_weights_backward(grad_v: np.ndarray, u: np.ndarray, s):
    """Gradients of materialize_weights w.r.t. (u, s)."""
    u = np.asarray(u, dtype=np.float64)
    s = np.asarray(s, dtype=np.float64)
    axes = (0,) if u.ndim == 1 else tuple(range(1, u.ndim))
    w0 = u - u.mean(axis=axes, keepdims=True)
    norm = np.sqrt((w0 ** 2).sum(axis=axes, keepdims=True))
    sr = np.reshape(s, norm.shape)
    dot = (grad_v * w0).sum(axis=axes, keepdims=True)
    g_s = np.reshape(dot / norm, s.shape)
    g_w0 = sr / norm * (grad_v - w0 * dot / norm ** 2)
    g_u = g_w0 - g_w0.mean(axis=axes, keepdims=True)
    return g_u, g_s


# ---------------------------------------------------------------------------
# projection layer


def project_noise(e: np.ndarray, sigma: float, gamma: float) -> np.ndarray:
    """l2 projection of the residual onto the ball of radius
    eps = exp(gamma) * sigma * sqrt(N - 1), N = element count of e."""
    if sigma < 0:
        raise ValueError("sigma must be non-negative")
    eps = math.exp(gamma) * sigma * math.sqrt(e.size - 1)
    n = float(np.sqrt((e ** 2).sum()))
    if n <= eps:
        return e.copy()
    return (eps / n) * e


def project_noise_backward(grad_out: np.ndarray, e: np.ndarray, sigma: float, gamma: float):
    """Gradients of project_noise w.r.t. (e, gamma, sigma).

    At the branch point ||e|| == eps the interior branch is used.
    """
    eps = math.exp(gamma) * sigma * math.sqrt(e.size - 1)
    n = float(np.sqrt((e ** 2).sum()))
    if n <= eps:
        return grad_out.copy(), 0.0, 0.0
    dot = float((grad_out * e).sum())
    g_e = (eps / n) * (grad_out - e * (dot / n ** 2))
    dir_dot = dot / n  # <grad, e/||e||>
    g_gamma = dir_dot * eps
    g_sigma = dir_dot * math.exp(gamma) * math.sqrt(e.size - 1)
    return g_e, g_gamma, g_sigma


# ---------------------------------------------------------------------------
# parameters


def block_name(i: int) -> str:
    """Name of the i-th nonlinear block's layer in flat dicts and banks."""
    return f"block{i:02d}"


@dataclass
class ConvParams:
    u: np.ndarray      # raw filters (out, in, kh, kw)
    s: np.ndarray      # per-filter scales (out,)
    bias: np.ndarray

    def bank(self) -> FilterBank:
        return FilterBank(materialize_weights(self.u, self.s), self.bias)


@dataclass
class BlockParams(ConvParams):
    kappa: np.ndarray = field(default=None)  # PReLU slopes, one per channel


@dataclass
class ResDNetParams:
    depth: int                    # D; the network has 2*D nonlinear blocks
    head: ConvParams              # 5x5, 3 -> F
    blocks: list                  # 2*D BlockParams, 3x3, F -> F
    tail: ConvParams              # transposed 5x5 bank (F, 3, 5, 5), bias (3,)
    gamma: float = 0.0

    @property
    def num_filters(self) -> int:
        return self.head.u.shape[0]

    def convs(self) -> dict:
        """The 2D + 2 convolution layers by name: head, block00..., tail."""
        blocks = {block_name(i): blk for i, blk in enumerate(self.blocks)}
        return {"head": self.head, **blocks, "tail": self.tail}

    def flatten(self) -> dict:
        out = {}
        for name, conv in self.convs().items():
            out[f"{name}.u"], out[f"{name}.s"], out[f"{name}.bias"] = conv.u, conv.s, conv.bias
            if isinstance(conv, BlockParams):
                out[f"{name}.kappa"] = conv.kappa
        out["gamma"] = np.asarray(self.gamma, dtype=np.float64)
        return out

    @classmethod
    def from_flat(cls, flat: dict, depth: int) -> "ResDNetParams":
        head = ConvParams(flat["head.u"], flat["head.s"], flat["head.bias"])
        blocks = []
        for i in range(2 * depth):
            p = block_name(i)
            blocks.append(
                BlockParams(flat[f"{p}.u"], flat[f"{p}.s"], flat[f"{p}.bias"], flat[f"{p}.kappa"])
            )
        tail = ConvParams(flat["tail.u"], flat["tail.s"], flat["tail.bias"])
        gamma = float(np.asarray(flat["gamma"]).ravel()[0])
        return cls(depth=depth, head=head, blocks=blocks, tail=tail, gamma=gamma)


@dataclass
class DenoiseCache:
    """Intermediates of one forward pass, as needed by the backward pass."""

    x: np.ndarray
    sigma: float
    block_pre: list        # input of each PReLU (len 2D)
    block_act: list        # output of each PReLU = conv input (len 2D)
    tail_in: np.ndarray
    residual: np.ndarray   # tail output, before projection
    pre_clip: np.ndarray


def init_resdnet(
    depth: int,
    seed: int,
    num_filters: int = 64,
    head_kernel: int = 5,
    block_kernel: int = 3,
    channels: int = 3,
) -> ResDNetParams:
    """He-style initialization: raw filters ~ N(0, 2/fan_in), scales set to
    the actual centered-filter norms (so materialized filters equal the raw
    centered draw), PReLU slopes 0.25, biases and gamma zero."""
    if depth < 1:
        raise ValueError("depth must be >= 1")
    gen = np.random.Generator(np.random.Philox(key=seed))

    def draw(out_ch, in_ch, k):
        fan_in = in_ch * k * k
        u = gen.normal(0.0, math.sqrt(2.0 / fan_in), size=(out_ch, in_ch, k, k))
        w0 = u - u.mean(axis=(1, 2, 3), keepdims=True)
        s = np.sqrt((w0 ** 2).sum(axis=(1, 2, 3)))
        return u, s

    hu, hs = draw(num_filters, channels, head_kernel)
    head = ConvParams(hu, hs, np.zeros(num_filters))
    blocks = []
    for _ in range(2 * depth):
        bu, bs = draw(num_filters, num_filters, block_kernel)
        blocks.append(
            BlockParams(bu, bs, np.zeros(num_filters), np.full(num_filters, 0.25))
        )
    tu, ts = draw(num_filters, channels, head_kernel)
    tail = ConvParams(tu, ts, np.zeros(channels))
    return ResDNetParams(depth=depth, head=head, blocks=blocks, tail=tail, gamma=0.0)


# ---------------------------------------------------------------------------
# forward / backward


def denoiser_banks(params: ResDNetParams) -> dict:
    """Every layer's FilterBank by name (see ``ResDNetParams.convs``),
    materialized once, so a cascade pass can share them across its steps."""
    return {name: conv.bank() for name, conv in params.convs().items()}


def filter_grads(grads: dict, params: ResDNetParams) -> dict:
    """Replace each ``<layer>.weights`` gradient in ``grads`` (w.r.t. the
    materialized filters) by the gradients of that layer's raw filters and
    scales, ``<layer>.u`` and ``<layer>.s``."""
    convs = params.convs()
    out = {}
    for key, g in grads.items():
        layer, _, kind = key.rpartition(".")
        if kind == "weights":
            conv = convs[layer]
            out[f"{layer}.u"], out[f"{layer}.s"] = materialize_weights_backward(g, conv.u, conv.s)
        else:
            out[key] = g
    return out


def resdnet_forward(x: np.ndarray, sigma: float, params: ResDNetParams, banks=None):
    """Denoise ``x`` assuming noise level ``sigma``. Returns (output, cache).

    ``banks`` is ``denoiser_banks(params)``, passed by a caller that reuses
    it; when omitted it is built here. The output is the same either way."""
    if x.ndim != 3 or x.shape[2] != params.head.u.shape[1]:
        raise ShapeError(f"expected (H, W, {params.head.u.shape[1]}) input, got {x.shape}")
    if sigma < 0:
        raise ValueError("sigma must be non-negative")
    if banks is None:
        banks = denoiser_banks(params)
    h = conv2d(x, banks["head"])
    block_pre, block_act = [], []
    for pair in range(params.depth):
        p = h
        for j in (0, 1):
            i = 2 * pair + j
            block_pre.append(h)
            a = prelu(h, params.blocks[i].kappa)
            block_act.append(a)
            h = conv2d(a, banks[block_name(i)])
        h = p + h
    tail_in = h
    r = conv_transpose2d(h, banks["tail"])
    rp = project_noise(r, sigma, params.gamma)
    pre = x - rp
    out = clip(pre, 0.0, 255.0)
    cache = DenoiseCache(
        x=x,
        sigma=sigma,
        block_pre=block_pre,
        block_act=block_act,
        tail_in=tail_in,
        residual=r,
        pre_clip=pre,
    )
    return out, cache


def resdnet_backward(grad_out: np.ndarray, cache: DenoiseCache, params: ResDNetParams,
                     banks: dict):
    """Reverse-mode pass through the filters ``banks`` (``denoiser_banks(params)``).
    Returns (grad_input, grad_params, grad_sigma).

    grad_params holds each layer's ``<layer>.weights`` gradient (w.r.t. its
    materialized filters) in place of ``<layer>.u`` and ``<layer>.s``, so a
    caller that sums it over several passes takes the sum through
    ``filter_grads`` once."""
    if grad_out.shape != cache.x.shape:
        raise ShapeError("grad_out shape does not match forward output")
    grads = {}
    g_pre = clip_backward(grad_out, cache.pre_clip, 0.0, 255.0)
    g_x = g_pre.copy()
    g_rp = -g_pre
    g_r, g_gamma, g_sigma = project_noise_backward(
        g_rp, cache.residual, cache.sigma, params.gamma
    )
    grads["gamma"] = np.asarray(g_gamma)

    g_h, grads["tail.weights"], grads["tail.bias"] = conv_transpose2d_backward(
        g_r, cache.tail_in, banks["tail"]
    )

    for pair in reversed(range(params.depth)):
        g_p = g_h  # shortcut branch
        for j in (1, 0):
            i = 2 * pair + j
            p = block_name(i)
            g_a, grads[f"{p}.weights"], grads[f"{p}.bias"] = conv2d_backward(
                g_h, cache.block_act[i], banks[p]
            )
            g_h, grads[f"{p}.kappa"] = prelu_backward(
                g_a, cache.block_pre[i], params.blocks[i].kappa
            )
        g_h = g_h + g_p

    g_in, grads["head.weights"], grads["head.bias"] = conv2d_backward(g_h, cache.x, banks["head"])
    g_x = g_x + g_in
    return g_x, grads, g_sigma


# ---------------------------------------------------------------------------
# parameter audit


def parameter_breakdown(depth: int = 5, num_filters: int = 64, steps: int = 10,
                        head_kernel: int = 5, block_kernel: int = 3,
                        channels: int = 3) -> dict:
    """Per-group trainable-scalar counts.

    The denoiser total counts raw filters, per-filter scales, biases, PReLU
    slopes and gamma; the cascade's extrapolation weights and noise schedule
    are listed separately.
    """
    f, c = num_filters, channels
    head = {
        "head.u": f * c * head_kernel ** 2,
        "head.s": f,
        "head.bias": f,
    }
    per_block = f * f * block_kernel ** 2 + 3 * f  # u + s + bias + kappa
    blocks = {"blocks.total": 2 * depth * per_block}
    tail = {
        "tail.u": f * c * head_kernel ** 2,
        "tail.s": f,
        "tail.bias": c,
    }
    groups = {**head, **blocks, **tail, "gamma": 1}
    denoiser_total = sum(groups.values())
    groups["denoiser_total"] = denoiser_total
    groups["cascade.w"] = steps
    groups["cascade.sigmas"] = steps
    groups["total_with_schedule"] = denoiser_total + 2 * steps
    return groups
