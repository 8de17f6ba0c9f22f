"""Residual denoising network: forward pass, exact analytic backward pass,
normalized filter parametrization and the variance-aware projection layer.

The network is one local map and one global step, each with its adjoint.
``residual`` (the head, 2D blocks and transposed tail) estimates the noise
realization; each output pixel sees a bounded window of the input.
The global step then rescales that estimate so its l2 norm is at most
eps = exp(gamma) * sigma * sqrt(N - 1), subtracts it from the input and
clips to [0, 255]. One function runs both for two callers: ``denoise``
returns the estimate and keeps nothing, so inference holds a few F-channel
arrays at a time (a paper-scale cascade peaks at about 2.2-2.5 KiB per
pixel); ``resdnet_forward`` also keeps what ``residual`` hands its ``keep``,
each PReLU's input and the tail input: 2D + 1 F-channel arrays
((2D + 1) * F * H * W * 8 bytes, about 22 MiB for a 64x64 patch at D=5,
F=64). ``resdnet_backward`` runs the clip's and projection's adjoints,
then ``residual_backward``. Each block layer is one ``conv2d`` call that
applies its PReLU while it pads (``slopes=``); its ``conv2d_backward``
applies it again to the kept input the same way, so no PReLU output is
kept or computed apart.
All trainable tensors live in ResDNetParams; its depth D is read from its
2D blocks. ``layer_shapes(D, F)`` is the one statement of every array's
shape: ``init_resdnet`` draws from it, ``parameter_breakdown`` sums it and
``load_model`` checks files against it. Each layer materializes its filters
on first use (``ConvParams.bank``), shared by every later pass over the
same parameters. Gradients are a flat {name: array} dict of each layer's
materialized-filter gradient; ``filter_grads`` turns those into the
``ResDNetParams.flatten`` entries.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

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
    prelu_backward,
)

_NORM_TOL = 1e-12

HEAD_KERNEL = 5    # head and tail filter size
BLOCK_KERNEL = 3   # nonlinear block filter size
CHANNELS = 3       # RGB input and output


class DegenerateFilterError(ValueError):
    """Raised when a raw filter is constant and cannot be normalized."""


# ---------------------------------------------------------------------------
# filter parametrization


def _centre(u: np.ndarray):
    """(w0, norm, axes): u less its mean and the l2 norm of that, each over
    one filter's axes; a 1-D u is one filter."""
    axes = (0,) if u.ndim == 1 else tuple(range(1, u.ndim))
    w0 = u - u.mean(axis=axes, keepdims=True)
    return w0, np.sqrt((w0 ** 2).sum(axis=axes, keepdims=True)), axes


def materialize_weights(u: np.ndarray, s) -> np.ndarray:
    """Effective filter v = s * (u - mean(u)) / ||u - mean(u)||_2.

    For a 4-D bank (out, in, kh, kw) each output-channel filter is
    normalized independently with its own scale s[o]; a 1-D u is treated
    as a single filter with scalar s.
    """
    w0, norm, _ = _centre(np.asarray(u, dtype=np.float64))
    if np.any(norm <= _NORM_TOL):
        raise DegenerateFilterError("constant raw filter cannot be normalized")
    return np.reshape(np.asarray(s, dtype=np.float64), norm.shape) * w0 / norm


def materialize_weights_backward(grad_v: np.ndarray, u: np.ndarray, s):
    """Gradients of materialize_weights w.r.t. (u, s)."""
    s = np.asarray(s, dtype=np.float64)
    w0, norm, axes = _centre(np.asarray(u, dtype=np.float64))
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
    """Name of the i-th nonlinear block's layer in flat dicts and gradients."""
    return f"block{i:02d}"


@dataclass(frozen=True)
class ConvParams:
    """One convolution layer's parameters. Frozen because ``bank`` is
    cached: build a new instance (``dataclasses.replace``) to change a
    field, and do not write into the arrays."""

    u: np.ndarray      # raw filters (out, in, kh, kw)
    s: np.ndarray      # per-filter scales (out,)
    bias: np.ndarray

    @cached_property
    def bank(self) -> FilterBank:
        """The layer's FilterBank, materialized on first use and shared by
        every later pass over these parameters."""
        return FilterBank(materialize_weights(self.u, self.s), self.bias)


@dataclass(frozen=True)
class BlockParams(ConvParams):
    kappa: np.ndarray  # PReLU slopes, one per channel


@dataclass
class ResDNetParams:
    head: ConvParams              # 3 -> F; every shape is in layer_shapes
    blocks: list                  # 2*D BlockParams, F -> F
    tail: ConvParams              # transposed, F -> 3
    gamma: float = 0.0

    @property
    def depth(self) -> int:
        """D, read from the blocks: the network has 2*D nonlinear blocks."""
        return len(self.blocks) // 2

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
    def from_flat(cls, flat: dict) -> "ResDNetParams":
        """The model whose ``flatten`` is ``flat``: blocks are read from
        ``block00`` on for as long as their keys are present, in pairs, so
        an odd count raises KeyError for the missing partner."""
        head = ConvParams(flat["head.u"], flat["head.s"], flat["head.bias"])
        blocks = []
        while f"{block_name(len(blocks))}.u" in flat or len(blocks) % 2:
            p = block_name(len(blocks))
            blocks.append(BlockParams(*(flat[f"{p}.{k}"] for k in ("u", "s", "bias", "kappa"))))
        tail = ConvParams(flat["tail.u"], flat["tail.s"], flat["tail.bias"])
        gamma = float(np.asarray(flat["gamma"]).ravel()[0])
        return cls(head=head, blocks=blocks, tail=tail, gamma=gamma)


@dataclass
class DenoiseCache:
    """What ``resdnet_backward`` needs of one ``resdnet_forward`` pass.

    ``kept`` holds, in order, the input of each of the 2D PReLUs and then
    the tail's input: (2D + 1) * F * H * W * 8 bytes, about 22 MiB for a
    64x64 patch at D=5, F=64. The backward pass applies each PReLU again
    inside its layer's ``conv2d_backward``, which costs no convolution, and
    recomputes the pre-clip output from ``x`` and ``residual``. Inference
    (``denoise``) builds no cache."""

    x: np.ndarray
    sigma: float
    kept: list             # each PReLU's input (2D), then the tail's input
    residual: np.ndarray   # tail output, before projection


def layer_shapes(depth: int, num_filters: int) -> dict:
    """{flat name: shape} of every trainable array of a D-deep, F-filter
    network, in ``flatten`` order: the one statement of each layer's
    filter shape, bias length and PReLU slopes. ``gamma`` is one scalar,
    stored as shape (1,)."""
    f, outer = num_filters, (num_filters, CHANNELS, HEAD_KERNEL, HEAD_KERNEL)
    shapes = {"head.u": outer, "head.s": (f,), "head.bias": (f,)}
    for i in range(2 * depth):
        p = block_name(i)
        shapes.update({f"{p}.u": (f, f, BLOCK_KERNEL, BLOCK_KERNEL), f"{p}.s": (f,),
                       f"{p}.bias": (f,), f"{p}.kappa": (f,)})
    return {**shapes, "tail.u": outer, "tail.s": (f,), "tail.bias": (CHANNELS,), "gamma": (1,)}


def init_resdnet(depth: int, seed: int, num_filters: int = 64) -> ResDNetParams:
    """He-style initialization: raw filters ~ N(0, 2/fan_in), scales set to
    the actual centered-filter norms (so materialized filters equal the raw
    centered draw), PReLU slopes 0.25, biases and gamma zero."""
    if depth < 1:
        raise ValueError("depth must be >= 1")
    gen = np.random.Generator(np.random.Philox(key=seed))
    flat = {}
    for name, shape in layer_shapes(depth, num_filters).items():
        layer, _, kind = name.rpartition(".")
        if kind == "u":
            u = gen.normal(0.0, math.sqrt(2.0 / math.prod(shape[1:])), size=shape)
            w0 = u - u.mean(axis=(1, 2, 3), keepdims=True)
            flat[name], flat[f"{layer}.s"] = u, np.sqrt((w0 ** 2).sum(axis=(1, 2, 3)))
        elif kind != "s":  # each layer's scales are set with its filters
            flat[name] = np.full(shape, 0.25 if kind == "kappa" else 0.0)
    return ResDNetParams.from_flat(flat)


# ---------------------------------------------------------------------------
# forward / backward


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


def residual(x: np.ndarray, params: ResDNetParams, keep=lambda h: None) -> np.ndarray:
    """The local map: head, the 2D blocks with a shortcut around each pair,
    and the transposed tail. Returns the noise estimate r; each PReLU's
    input and then the tail's input are handed to ``keep`` as they are
    made, and dropped unless ``keep`` holds on to them."""
    h = conv2d(x, params.head.bank)
    for pair in range(params.depth):
        p = h
        for blk in params.blocks[2 * pair : 2 * pair + 2]:
            keep(h)
            h = conv2d(h, blk.bank, slopes=blk.kappa)
        h += p
    keep(h)
    return conv_transpose2d(h, params.tail.bank)


def residual_backward(g_r: np.ndarray, cache: DenoiseCache, params: ResDNetParams):
    """Adjoint of ``residual`` at ``cache``'s input: (g_x, grads), grads as
    in ``resdnet_backward`` without ``gamma``."""
    grads = {}
    g_h, grads["tail.weights"], grads["tail.bias"] = conv_transpose2d_backward(
        g_r, cache.kept[-1], params.tail.bank
    )
    layers = [(block_name(i), blk, pre)
              for i, (blk, pre) in enumerate(zip(params.blocks, cache.kept))]
    for pair in reversed(range(params.depth)):
        g_p = g_h  # shortcut branch
        for p, blk, pre in reversed(layers[2 * pair : 2 * pair + 2]):
            g_a, grads[f"{p}.weights"], grads[f"{p}.bias"] = conv2d_backward(
                g_h, pre, blk.bank, slopes=blk.kappa
            )
            g_h, grads[f"{p}.kappa"] = prelu_backward(g_a, pre, blk.kappa)
        g_h += g_p
    g_x, grads["head.weights"], grads["head.bias"] = conv2d_backward(
        g_h, cache.x, params.head.bank
    )
    return g_x, grads


def _denoised(x: np.ndarray, sigma: float, params: ResDNetParams, keep=lambda h: None):
    """Check the input, run ``residual`` (handing ``keep`` what it keeps),
    subtract the projected residual and clip. Returns (output, residual)."""
    if x.ndim != 3 or x.shape[2] != params.head.u.shape[1]:
        raise ShapeError(f"expected (H, W, {params.head.u.shape[1]}) input, got {x.shape}")
    if sigma < 0:
        raise ValueError("sigma must be non-negative")
    r = residual(x, params, keep)
    return clip(x - project_noise(r, sigma, params.gamma), 0.0, 255.0), r


def denoise(x: np.ndarray, sigma: float, params: ResDNetParams) -> np.ndarray:
    """Denoise ``x`` assuming noise level ``sigma``: subtract the projected
    ``residual`` and clip. Keeps nothing for a backward pass, so it holds
    only a few F-channel arrays at a time."""
    return _denoised(x, sigma, params)[0]


def resdnet_forward(x: np.ndarray, sigma: float, params: ResDNetParams):
    """``denoise`` that also keeps what ``resdnet_backward`` needs. Returns
    (output, cache); the output is ``denoise``'s, bit for bit."""
    kept = []
    out, r = _denoised(x, sigma, params, kept.append)
    return out, DenoiseCache(x=x, sigma=sigma, kept=kept, residual=r)


def resdnet_backward(grad_out: np.ndarray, cache: DenoiseCache, params: ResDNetParams):
    """Reverse-mode pass. Returns (grad_input, grad_params, grad_sigma).

    grad_params holds each layer's ``<layer>.weights`` gradient (w.r.t. its
    materialized filters) in place of ``<layer>.u`` and ``<layer>.s``, so a
    caller that sums it over several passes takes the sum through
    ``filter_grads`` once."""
    if grad_out.shape != cache.x.shape:
        raise ShapeError("grad_out shape does not match forward output")
    # the pre-clip output, recomputed bit for bit as the forward pass made it
    pre = cache.x - project_noise(cache.residual, cache.sigma, params.gamma)
    g_pre = clip_backward(grad_out, pre, 0.0, 255.0)
    g_r, g_gamma, g_sigma = project_noise_backward(
        -g_pre, cache.residual, cache.sigma, params.gamma
    )
    g_in, grads = residual_backward(g_r, cache, params)
    grads["gamma"] = np.asarray(g_gamma)
    return g_pre + g_in, grads, g_sigma


# ---------------------------------------------------------------------------
# parameter audit


def parameter_breakdown(depth: int = 5, num_filters: int = 64, steps: int = 10) -> dict:
    """Per-group trainable-scalar counts, summed from ``layer_shapes``.

    The denoiser total counts raw filters, per-filter scales, biases, PReLU
    slopes and gamma; the cascade's extrapolation weights and noise schedule
    are listed separately.
    """
    groups = {}
    for name, shape in layer_shapes(depth, num_filters).items():
        group = "blocks.total" if name.startswith("block") else name
        groups[group] = groups.get(group, 0) + math.prod(shape)
    groups["denoiser_total"] = sum(groups.values())
    groups["cascade.w"] = groups["cascade.sigmas"] = steps
    groups["total_with_schedule"] = groups["denoiser_total"] + 2 * steps
    return groups
