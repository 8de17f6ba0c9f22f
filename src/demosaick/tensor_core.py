"""Low-level image-tensor kernels with hand-written adjoints.

Images are numpy arrays of shape (H, W, C), float64 by default. Every
forward op here is a pure function; the matching ``*_backward`` function
implements the exact adjoint (reverse-mode gradient) given the gradient of
the loss w.r.t. the op's output and the cached forward inputs.

Convolutions use the correlation convention (no kernel flip) and reflexive
padding so the spatial size is always preserved. One cached map of
border rows per axis, numpy's ``reflect`` mode in closed form (period
2(n - 1); a 1-px axis replicates), drives both the pad and its adjoint,
so one pair serves every size. The pad copies the centre, then each
border column and row; the adjoint copies the centre and adds each border
row, then each border column, onto the one it copies, first to last.

All four convolution kernels (conv2d, conv_transpose2d and their backward
passes) are one lowering: ``_im2col`` turns the padded image into a matrix
of k x k patches, one row per pixel, so each kernel is a matrix product
with the (k*k*in, out) filter matrix. ``_col2im`` is the exact adjoint of
that product: one GEMM gives, for every patch offset (i, j) and channel,
a row holding the H image rows at the padded width Wp, zero-extended to
the length L of one padded grid plus the largest offset. So each offset
is one flat add over all channels onto C padded grids of length L, at
i*Wp + j; the grids are then transposed back and their border folded
onto the pixels it mirrors. Biases are added in place.

A large convolution splits its patch copy and its ``cols @ filters`` GEMM
into contiguous bands of image rows, one per CPU the process may run on:
the calling thread runs the first band and a pool of worker threads the
others, each filling its rows of buffers the caller allocated. BLAS sums
each row of a large product in the same order whichever rows it is
given, so the result is bitwise the same at any CPU count. A call with
less than ``_MIN_WORK`` multiply-adds (or copied bytes) per band, a
one-CPU process (``taskset -c 0``) and every sum over pixels (the weight
gradients, ``_col2im``'s adds) stay in one band, which is the plain
numpy expression; the pool starts on the first split.
"""
from __future__ import annotations

import os
import threading
from dataclasses import dataclass
from functools import lru_cache

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


@lru_cache(maxsize=None)
def _border_rows(n: int, pad: int) -> tuple:
    """(padded row, centre row it copies) for the 2*pad border rows of an
    axis of n rows padded by ``pad`` on each end, first to last. This is
    numpy's ``reflect`` mode in closed form: the padded rows repeat the
    centre with period 2(n - 1), so a pad wider than the axis reflects
    again, and a 1-px axis (period 1) replicates. An empty axis has
    nothing to mirror and raises ``DimensionError``."""
    if n < 1:
        raise DimensionError(f"cannot reflect-pad an empty axis by {pad}")
    p = max(2 * (n - 1), 1)
    rows = []
    for i in (*range(pad), *range(pad + n, n + 2 * pad)):
        m = (i - pad) % p
        rows.append((i, min(m, p - m)))
    return tuple(rows)


def _pad_reflect(x: np.ndarray, pad: int) -> np.ndarray:
    """Mirror-pad (H, W, C) by ``pad`` on every side (edge pixel not
    repeated): a copy of the centre, then each border column of the
    centre rows, then each border row."""
    if pad == 0:
        return x
    H, W, C = x.shape
    rows, cols = _border_rows(H, pad), _border_rows(W, pad)
    xp = np.empty((H + 2 * pad, W + 2 * pad, C), dtype=x.dtype)
    xp[pad : pad + H, pad : pad + W] = x
    for j, c in cols:
        xp[pad : pad + H, j] = x[:, c]
    for i, r in rows:
        xp[i] = xp[pad + r]
    return xp


def _pad_reflect_adjoint(gp: np.ndarray, n_h: int, n_w: int, pad: int) -> np.ndarray:
    """Adjoint of ``_pad_reflect``: a copy of the centre rows plus each
    border row, first to last, added onto the row it copies; then the same
    along the columns. Returns a C-contiguous array."""
    if pad == 0:
        return gp.copy()
    rows, cols = _border_rows(n_h, pad), _border_rows(n_w, pad)
    g = gp[pad : pad + n_h].copy()
    for i, r in rows:
        g[r] += gp[i]
    out = g[:, pad : pad + n_w].copy()
    for j, c in cols:
        out[:, c] += g[:, j]
    return out


# ---------------------------------------------------------------------------
# row bands over the CPUs


# Multiply-adds (or copied bytes) a band must hold before a call splits.
# OpenBLAS sums a product over a subset of rows in another order when it
# takes its small-matrix path (M*N*K <= 1e6); bands of at least half this
# never do. A copied byte takes about as long as a multiply-add. A
# desk-scale layer (F=8, 32x32: 0.6M of either) stays one band.
_MIN_WORK = 1 << 22

_pool = None
_pool_lock = threading.Lock()


def _cpu_count() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _band_pool():
    """The worker threads of ``_in_bands``, started on the first split."""
    global _pool
    with _pool_lock:
        if _pool is None:
            from concurrent.futures import ThreadPoolExecutor

            _pool = ThreadPoolExecutor(max(_cpu_count() - 1, 1),
                                       thread_name_prefix="demosaick-band")
        return _pool


def _forget_pool() -> None:
    """In a forked child: the parent's workers do not exist there, so a
    band queued on their pool would never run. The next split starts a
    pool of the child's own."""
    global _pool, _pool_lock
    _pool, _pool_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


def _band_count(rows: int, work: int) -> int:
    """min(CPUs, rows, work // _MIN_WORK), at least 1. A call of one band
    runs the plain numpy expression: desk-scale training ran about 10%
    slower through the preallocated banded form."""
    n = min(rows, work // _MIN_WORK)
    return min(n, _cpu_count()) if n > 1 else 1


def _in_bands(fn, rows: int, n: int) -> None:
    """Run ``fn(lo, hi)`` over n contiguous bands [lo, hi) covering
    range(rows), of sizes that differ by at most one row. The caller runs
    the first band and waits for the rest. ``fn`` must only fill slices of
    buffers the caller allocated, and call nothing that submits to the
    pool: a caller's own band never waits on the pool, so callers on many
    threads cannot deadlock it."""
    bounds = [rows * i // n for i in range(n + 1)]
    pool = _band_pool()
    futures = [pool.submit(fn, lo, hi) for lo, hi in zip(bounds[1:-1], bounds[2:])]
    try:
        fn(0, bounds[1])
    finally:
        for f in futures:
            f.result()


# ---------------------------------------------------------------------------
# convolution: im2col + GEMM (Chellapilla, Puri & Simard, 2006)


def _im2col(x: np.ndarray, k: int) -> np.ndarray:
    """(H, W, C) -> (H*W, k*k*C): row h*W + w is the k x k patch of the
    reflexive-padded input centred on pixel (h, w), in (i, j, c) order."""
    H, W, C = x.shape
    xp = np.ascontiguousarray(_pad_reflect(x, (k - 1) // 2))
    s0, s1, s2 = xp.strides
    patches = np.ndarray((H, W, k, k, C), xp.dtype, xp, 0, (s0, s1, s0, s1, s2))
    n = _band_count(H, H * W * k * k * C * xp.itemsize)
    if n == 1:
        return patches.reshape(H * W, k * k * C)
    cols = np.empty((H * W, k * k * C), xp.dtype)
    out = cols.reshape(patches.shape)
    _in_bands(lambda lo, hi: np.copyto(out[lo:hi], patches[lo:hi]), H, n)
    return cols


def _cols_matmul(cols: np.ndarray, m: np.ndarray, H: int) -> np.ndarray:
    """``cols @ m`` for the (H*W, K) patch matrix of an H-row image, in
    bands of image rows. numpy runs a product with one row or one column
    as a matrix-vector product, whose sums follow the row offset, so such
    a product stays one band."""
    (M, K), N = cols.shape, m.shape[1]
    W = M // H if H else 0
    n = _band_count(H, M * K * N) if min(W, N) > 1 else 1
    if n == 1:
        return cols @ m
    y = np.empty((M, N), dtype=np.result_type(cols, m))
    _in_bands(lambda lo, hi: np.matmul(cols[lo * W : hi * W], m, out=y[lo * W : hi * W]), H, n)
    return y


def _col2im(y: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Adjoint of ``_im2col(., k) @ _filter_matrix(w)``: (H, W, out) ->
    (H, W, in), for (out, in, k, k) filters.

    The GEMM runs on ``y`` widened with zero columns to the padded width
    Wp, so the entry of pixel (h, v) for patch offset (i, j) lands on the
    flat padded index (h + i)*Wp + v + j. Each channel's row of the GEMM
    output, and of the grid, is L = n + reach long, with zeros past n, so
    each offset is one flat add over all channels. Its zeros land on the
    same channel's tail or the next channel's grid and change no bit: a
    sum that starts at +0.0 is never -0.0."""
    H, W, _ = y.shape
    C, k = w.shape[1], w.shape[2]
    pad = (k - 1) // 2
    Wp, n = W + 2 * pad, H * (W + 2 * pad)
    reach = 2 * pad * (Wp + 1)
    L = n + reach
    yw = np.zeros((H, Wp, y.shape[2]), dtype=y.dtype)
    yw[:, :W] = y
    cols = np.empty((k * k * C, L), dtype=np.result_type(y, w))
    np.matmul(_filter_matrix(w), yw.reshape(n, -1).T, out=cols[:, :n])
    cols[:, n:] = 0.0
    cols = cols.reshape(k * k, C * L)
    gp = np.zeros(C * L + reach, dtype=cols.dtype)
    for i in range(k):
        for j in range(k):
            gp[i * Wp + j : i * Wp + j + C * L] += cols[i * k + j]
    gp = gp[: C * L].reshape(C, L)[:, : n + 2 * pad * Wp]
    gp = gp.reshape(C, H + 2 * pad, Wp).transpose(1, 2, 0)
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
    H, W, _ = x.shape
    y = _cols_matmul(_im2col(x, w.shape[2]), _filter_matrix(w), H).reshape(H, W, -1)
    y += filters.bias
    return y


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
    y = _col2im(x, w)
    y += filters.bias
    return y


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
    gx = _cols_matmul(cols, _filter_matrix(w), x.shape[0]).reshape(x.shape)
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
    out = np.minimum(x, 0.0)
    out *= slopes
    out += np.maximum(x, 0.0)
    return out


def prelu_backward(grad_out: np.ndarray, x: np.ndarray, slopes: np.ndarray):
    """Gradients of prelu w.r.t. (input, slopes).

    The input gradient is ``grad_out`` times a per-pixel factor, 1 where
    x > 0 and slopes[c] elsewhere (a -0.0 slope gives a +0.0 factor)."""
    if grad_out.shape != x.shape:
        raise ShapeError("grad_out shape does not match prelu input")
    pos = x > 0
    factor = ~pos * slopes
    factor += pos
    gx = grad_out * factor
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
