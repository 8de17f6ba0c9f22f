"""Low-level image-tensor kernels with hand-written adjoints.

Images are numpy arrays of shape (H, W, C), float64 by default. Every
forward op here is a pure function; the matching ``*_backward`` function
implements the exact adjoint (reverse-mode gradient) given the gradient of
the loss w.r.t. the op's output and the cached forward inputs.

Convolutions use the correlation convention (no kernel flip) and reflexive
padding so the spatial size is always preserved. All four convolution
kernels (conv2d, conv_transpose2d and their backward passes) are one
lowering: ``_im2col`` turns the padded image into a matrix of k x k
patches, one row per pixel, so each kernel is a matrix product with the
(k*k*in, out) filter matrix. ``_col2im`` is the exact adjoint of that
product and works channel-major: one GEMM gives, for every patch offset
(i, j), a (C, H*Wp) block laid out on rows of the padded width Wp, so the
block is added to the flat (C, Hp*Wp) padded grid as one contiguous slice
at offset i*Wp + j; the grid is then transposed back and its border folded
onto the pixels it mirrors.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class ShapeError(ValueError):
    """Raised when tensor/filter shapes are inconsistent."""


class DimensionError(ValueError):
    """Raised when a padding or size precondition is violated."""


def check_image(x: np.ndarray) -> np.ndarray:
    if x.ndim != 3:
        raise ShapeError(f"expected (H, W, C) array, got shape {x.shape}")
    return x


@dataclass(frozen=True)
class FilterBank:
    """A bank of convolution filters.

    weights has shape (out_channels, in_channels, k, k) with k odd; bias
    has length out_channels for the forward direction and length
    in_channels when the bank is used by conv_transpose2d.
    """

    weights: np.ndarray
    bias: np.ndarray

    def __post_init__(self):
        if self.weights.ndim != 4:
            raise ShapeError(f"filter weights must be 4-D, got {self.weights.shape}")
        kh, kw = self.weights.shape[2:]
        if kh != kw or kh % 2 == 0:
            raise ShapeError(f"kernel must be square with odd size, got {kh}x{kw}")

    @property
    def out_channels(self) -> int:
        return self.weights.shape[0]

    @property
    def in_channels(self) -> int:
        return self.weights.shape[1]


# ---------------------------------------------------------------------------
# reflexive padding


def _pad_reflect(x: np.ndarray, pad: int) -> np.ndarray:
    if pad == 0:
        return x
    return np.pad(x, ((pad, pad), (pad, pad), (0, 0)), mode="reflect")


def _pad_reflect_adjoint(gp: np.ndarray, n_h: int, n_w: int, pad: int) -> np.ndarray:
    """Adjoint of ``_pad_reflect``: per axis, keep the centre and add each
    border row (then column) onto the one it mirrors."""
    if pad == 0:
        return gp.copy()
    rows = np.pad(np.arange(n_h), pad, mode="reflect")
    cols = np.pad(np.arange(n_w), pad, mode="reflect")
    tmp = gp[pad : pad + n_h].copy()
    for i in [*range(pad), *range(pad + n_h, n_h + 2 * pad)]:
        tmp[rows[i]] += gp[i]
    out = tmp[:, pad : pad + n_w].copy()
    for j in [*range(pad), *range(pad + n_w, n_w + 2 * pad)]:
        out[:, cols[j]] += tmp[:, j]
    return out


def reflexive_pad(x: np.ndarray, pad: int) -> np.ndarray:
    """Mirror-pad by ``pad`` pixels on every side (edge pixel not repeated)."""
    check_image(x)
    if pad < 0:
        raise ValueError("pad must be non-negative")
    for n in x.shape[:2]:
        # size-1 axes degenerate to replication; larger axes must be able
        # to mirror without wrapping
        if n > 1 and pad >= n:
            raise DimensionError(
                f"pad {pad} too large for {x.shape[0]}x{x.shape[1]} image"
            )
    return _pad_reflect(x, pad)


def reflexive_pad_backward(grad_out: np.ndarray, input_shape: tuple, pad: int) -> np.ndarray:
    return _pad_reflect_adjoint(grad_out, input_shape[0], input_shape[1], pad)


# ---------------------------------------------------------------------------
# convolution: im2col + GEMM (Chellapilla, Puri & Simard, 2006)


def _im2col(x: np.ndarray, k: int) -> np.ndarray:
    """(H, W, C) -> (H*W, k*k*C): row h*W + w is the k x k patch of the
    reflexive-padded input centred on pixel (h, w), in (i, j, c) order."""
    H, W, C = x.shape
    xp = _pad_reflect(x, (k - 1) // 2)
    s0, s1, s2 = xp.strides
    patches = np.lib.stride_tricks.as_strided(
        xp, (H, W, k, k, C), (s0, s1, s0, s1, s2), writeable=False
    )
    return patches.reshape(H * W, k * k * C)


def _col2im(y: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Adjoint of ``_im2col(., k) @ _filter_matrix(w)``: (H, W, out) ->
    (H, W, in), for (out, in, k, k) filters.

    The GEMM runs on ``y`` widened with zero columns to the padded width
    Wp, so the entry of pixel (h, v) for patch offset (i, j) lands on the
    flat padded index (h + i)*Wp + v + j: each offset is one contiguous
    (C, H*Wp) add, and the zero columns wrap onto the next row as zeros."""
    H, W, _ = y.shape
    C, k = w.shape[1], w.shape[2]
    pad = (k - 1) // 2
    Wp, n = W + 2 * pad, H * (W + 2 * pad)
    yw = np.zeros((H, Wp, y.shape[2]), dtype=y.dtype)
    yw[:, :W] = y
    cols = (_filter_matrix(w) @ yw.reshape(n, -1).T).reshape(k, k, C, n)
    gp = np.zeros((C, n + 2 * pad * (Wp + 1)), dtype=cols.dtype)
    for i in range(k):
        for j in range(k):
            gp[:, i * Wp + j : i * Wp + j + n] += cols[i, j]
    gp = gp[:, : n + 2 * pad * Wp].reshape(C, H + 2 * pad, Wp).transpose(1, 2, 0)
    return _pad_reflect_adjoint(gp, H, W, pad)


def _filter_matrix(w: np.ndarray) -> np.ndarray:
    """(out, in, k, k) filters -> (k*k*in, out) matrix for ``_im2col`` rows."""
    return w.transpose(2, 3, 1, 0).reshape(-1, w.shape[0])


def _filter_matrix_adjoint(m: np.ndarray, shape: tuple) -> np.ndarray:
    """(k*k*in, out) matrix -> (out, in, k, k) filters."""
    out, cin, k, _ = shape
    return m.reshape(k, k, cin, out).transpose(3, 2, 0, 1)


def conv2d(x: np.ndarray, filters: FilterBank) -> np.ndarray:
    """Same-size correlation with implicit reflexive padding, plus bias."""
    check_image(x)
    w = filters.weights
    if x.shape[2] != filters.in_channels:
        raise ShapeError(
            f"input has {x.shape[2]} channels, filters expect {filters.in_channels}"
        )
    y = _im2col(x, w.shape[2]) @ _filter_matrix(w)
    return y.reshape(x.shape[0], x.shape[1], -1) + filters.bias


def conv2d_backward(grad_out: np.ndarray, x: np.ndarray, filters: FilterBank):
    """Gradients of conv2d w.r.t. (input, weights, bias)."""
    w = filters.weights
    k = w.shape[2]
    if grad_out.shape != (x.shape[0], x.shape[1], w.shape[0]):
        raise ShapeError("grad_out shape does not match conv2d output")
    g = grad_out.reshape(-1, w.shape[0])
    gw = _filter_matrix_adjoint(_im2col(x, k).T @ g, w.shape)
    gb = grad_out.sum(axis=(0, 1))
    return _col2im(grad_out, w), gw, gb


def conv_transpose2d(x: np.ndarray, filters: FilterBank) -> np.ndarray:
    """Adjoint of the reflexive-pad-then-correlate map, plus a bias of
    length in_channels. Spatial size is preserved; channels go from
    out_channels to in_channels."""
    check_image(x)
    w = filters.weights
    if x.shape[2] != filters.out_channels:
        raise ShapeError(
            f"input has {x.shape[2]} channels, transposed filters expect "
            f"{filters.out_channels}"
        )
    if filters.bias.shape != (filters.in_channels,):
        raise ShapeError("conv_transpose2d bias must have length in_channels")
    return _col2im(x, w) + filters.bias


def conv_transpose2d_backward(grad_out: np.ndarray, x: np.ndarray, filters: FilterBank):
    """Gradients of conv_transpose2d w.r.t. (input, weights, bias).

    Because the forward is the adjoint of conv2d, the input gradient is a
    plain (bias-free) conv2d and the weight gradient is the conv2d
    weight-gradient GEMM with the roles of input and output swapped.
    """
    w = filters.weights
    if grad_out.shape != (x.shape[0], x.shape[1], filters.in_channels):
        raise ShapeError("grad_out shape does not match conv_transpose2d output")
    cols = _im2col(grad_out, w.shape[2])
    gx = (cols @ _filter_matrix(w)).reshape(x.shape)
    gw = _filter_matrix_adjoint(cols.T @ x.reshape(-1, x.shape[2]), w.shape)
    gb = grad_out.sum(axis=(0, 1))
    return gx, gw, gb


# ---------------------------------------------------------------------------
# pointwise ops


def prelu(x: np.ndarray, slopes: np.ndarray) -> np.ndarray:
    """max(0, x) + slopes[c] * min(0, x), per channel."""
    check_image(x)
    slopes = np.asarray(slopes)
    if slopes.shape != (x.shape[2],):
        raise ShapeError(
            f"slopes length {slopes.shape} does not match {x.shape[2]} channels"
        )
    return np.maximum(x, 0.0) + slopes * np.minimum(x, 0.0)


def prelu_backward(grad_out: np.ndarray, x: np.ndarray, slopes: np.ndarray):
    """Gradients of prelu w.r.t. (input, slopes)."""
    if grad_out.shape != x.shape:
        raise ShapeError("grad_out shape does not match prelu input")
    gx = np.where(x > 0, grad_out, slopes * grad_out)
    gk = (np.minimum(x, 0.0) * grad_out).sum(axis=(0, 1))
    return gx, gk


def clip(x: np.ndarray, lo: float, hi: float) -> np.ndarray:
    if lo >= hi:
        raise ValueError(f"clip bounds require lo < hi, got [{lo}, {hi}]")
    return np.clip(x, lo, hi)


def clip_backward(grad_out: np.ndarray, x: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """Pass-through strictly inside (lo, hi); zero at and beyond the bounds."""
    if grad_out.shape != x.shape:
        raise ShapeError("grad_out shape does not match clip input")
    inside = (x > lo) & (x < hi)
    return np.where(inside, grad_out, 0.0)
