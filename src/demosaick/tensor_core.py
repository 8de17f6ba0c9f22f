"""Low-level image-tensor kernels with hand-written adjoints.

Images are numpy arrays of shape (H, W, C), float64 by default. Every
forward op here is a pure function; the matching ``*_backward`` function
implements the exact adjoint (reverse-mode gradient) given the gradient of
the loss w.r.t. the op's output and the cached forward inputs.

Convolutions use the correlation convention (no kernel flip) and reflexive
padding so the spatial size is always preserved. One cached map of
border rows per axis, numpy's ``reflect`` mode in closed form (period
2(n - 1); a 1-px axis replicates), drives both the pad and its adjoint,
so one pair serves every size. One function writes every padded buffer,
with or without a PReLU in front (``_pad_reflect``): its centre rows, in
bands, each band with its border columns, then the border rows. The
adjoint copies the centre and adds each border row, then each border
column, onto the one it copies, first to last.

All four convolution kernels (conv2d, conv_transpose2d and their backward
passes) are one lowering: the k x k patches of the padded image, one row
per pixel, times the (k*k*in, out) filter matrix. conv2d never builds that
(H*W, k*k*in) patch matrix: ``_patch_matmul`` copies it in tiles of whole
image rows, about ``_TILE_BYTES`` each, and multiplies each tile into its
rows of the output while it is still in cache. The weight gradients, whose
sums run over every pixel, and the transposed backward, which multiplies
the same patches twice, take the whole matrix from ``_im2col``.
``_col2im`` is the exact adjoint of the product: one GEMM gives, for every
patch offset (i, j) and channel, a row holding the H image rows at the
padded width Wp, zero-extended to the length L of one padded grid plus the
largest offset. So each offset is one flat add over all channels onto C
padded grids of length L, at i*Wp + j; the grids are then transposed back
and their border folded onto the pixels it mirrors. Biases are added in
place.

``conv2d`` and ``conv2d_backward`` take the slopes of a PReLU applied to
their input (``slopes=``), so a network block, a PReLU and then a
convolution, writes its activation straight into the padded buffer and
no activation array is stored or copied.

A large convolution splits its work into contiguous bands, one per CPU
the process may run on: the calling thread runs the first band and a pool
of worker threads the others, each filling its part of buffers the caller
allocated; conv2d's bands of image rows also copy their tiles into one
buffer each. The pad of every convolution's input (with its PReLU, if
any) and ``_im2col``'s patch copy split over image rows, and so does
``prelu_backward``. Every other GEMM (both weight gradients, the
transposed backward's and col2im's) splits over the rows of its left
matrix: pixels, or for the weight gradients and col2im the k*k*in
filter-matrix rows, so no sum over pixels moves. col2im's adds split
over contiguous ranges of the flat grid, each taking every offset's add
in order.

Importing this module sets numpy's bundled OpenBLAS to one thread, and
that setting holds for the whole process: the bands are the package's
threads, and with several BLAS threads some whole products change bits
with the thread count. A numpy built on another BLAS is left as it is. BLAS sums
each row of a large product in the same order whichever rows it is given
only on some shapes, so a product splits, and conv2d tiles, only when its
right factor's columns fill whole 8-column blocks (``_COL_BLOCK``); each
band of a split holds ``_MIN_WORK`` multiply-adds, and each conv2d tile
``_MIN_WORK // 2``. Under those rules every split scanned on OpenBLAS
0.3.31's x86-64 kernels with one BLAS thread had the bits of one product,
and so does every test and benchmark workload at any CPU count; another
BLAS build or CPU may block its products differently. Each kernel has one
form at every size: a call with less than ``_MIN_WORK`` multiply-adds (or
copied or added bytes) per band, or in a one-CPU process (``taskset -c
0``), runs it as one band on the calling thread, and the pool starts on
the first split. The pad adjoint, the bias adds, ``clip`` and its
adjoint, and ``prelu`` called alone always run as one band.

Importing this module also makes glibc's malloc keep the heap memory it
frees, for the whole process (``_keep_freed_heap``): the mmap threshold
is fixed at 32 MiB and the heap is never trimmed. Every convolution
allocates and frees buffers of a few MB; with glibc's defaults they went
back to the kernel and the next call faulted them in again, about 1,500
minor faults per 64x80 64-channel conv2d and 330 per desk-scale
denoiser forward and backward pass. With the setting a warmed-up loop of
either takes next to none, and no computed bit changes. The cost is that
memory freed after a peak stays mapped until the process exits, so its
RSS stays at its high-water mark; arrays of 32 MiB or more are still
mapped fresh and unmapped when freed. Another C library is left as it
is.
"""
from __future__ import annotations

import ctypes
import os
import threading
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

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
    nothing to mirror: padding it raises ``DimensionError``."""
    if n < 1 and pad:
        raise DimensionError(f"cannot reflect-pad an empty axis by {pad}")
    p = max(2 * (n - 1), 1)
    rows = []
    for i in (*range(pad), *range(pad + n, n + 2 * pad)):
        m = (i - pad) % p
        rows.append((i, min(m, p - m)))
    return tuple(rows)


def _pad_reflect(x: np.ndarray, pad: int, slopes: np.ndarray | None = None,
                 n: int = 1) -> np.ndarray:
    """Mirror-pad (H, W, C) by ``pad`` on every side (edge pixel not
    repeated) into a new C-contiguous buffer; with ``slopes``, pad
    ``prelu(x, slopes)``. Each of n bands of image rows writes its centre
    rows, then their border columns; then the border rows are copied. A
    centre row is a copy of x's, or max(x, 0) plus slopes * min(x, 0),
    formed in its rows of a scratch array of x's shape. ``prelu`` is the
    call with no pad."""
    H, W, C = x.shape
    rows, cols = _border_rows(H, pad), _border_rows(W, pad)
    if slopes is not None:
        slopes = _check_slopes(x, slopes)
        scratch = np.empty(x.shape, np.result_type(x, 0.0))
    xp = np.empty((H + 2 * pad, W + 2 * pad, C), x.dtype if slopes is None else scratch.dtype)

    def band(lo, hi):
        band_rows = xp[pad + lo : pad + hi]
        centre = band_rows[:, pad : pad + W]
        if slopes is None:
            centre[...] = x[lo:hi]
        else:
            t = scratch[lo:hi]
            np.minimum(x[lo:hi], 0.0, out=t)
            t *= slopes
            np.maximum(x[lo:hi], 0.0, out=centre)
            centre += t
        for j, c in cols:
            band_rows[:, j] = band_rows[:, pad + c]

    _in_bands(band, H, n)
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


# Multiply-adds (or copied or added bytes) a band must hold before a call
# splits. OpenBLAS sums a product over a subset of rows in another order
# when it takes its small-matrix path (M*N*K <= 1e6); bands of at least
# half this never do. A copied byte takes about as long as a multiply-add.
# A desk-scale layer (F=8, 32x32: 0.6M of either) stays one band.
_MIN_WORK = 1 << 22

# Rules found by scanning band splits against one band on OpenBLAS 0.3.31's
# Haswell dgemm kernel; another build or CPU may block its products
# differently. A product whose right factor's columns end in a part of an
# 8-column block got other bits in a few rows when run in bands of rows
# (75 x 64 @ 64 x 2109 split at row 37: rows 36 and 72). Products of whole
# blocks, or of less than one, split at any row, were bitwise one band.
_COL_BLOCK = 8

# Bytes of patches conv2d copies and multiplies at once, in whole image
# rows: half of a 2 MiB per-core L2, so the GEMM reads the tile from cache.
# On a 2-vCPU Xeon a 64x80 64-channel layer took 7.4 ms (one BLAS thread,
# two bands; median of 60 interleaved calls) with 256 KiB or 1 MiB tiles,
# 9.0 ms with 4 MiB tiles, 9.4 ms with one tile per band and 10.2 ms
# through the whole patch matrix.
_TILE_BYTES = 1 << 20

_pool = None
_pool_lock = threading.Lock()


def _one_blas_thread() -> None:
    """Set numpy's bundled OpenBLAS to one thread, for the whole process,
    through the library's own setter (as threadpoolctl does). It runs on
    import, so every product of the process runs on the one setting, and
    no thread is inside a GEMM while it changes. A numpy without that
    library is left as it is."""
    for lib in Path(np.__file__).parent.with_name("numpy.libs").glob("*openblas*"):
        set_threads = getattr(ctypes.CDLL(str(lib)), "scipy_openblas_set_num_threads64_", None)
        if set_threads is not None:
            set_threads(1)


_one_blas_thread()

# mallopt(3) parameters of glibc's <malloc.h>
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
# glibc's dynamic mmap threshold stops rising here on 64-bit
# (DEFAULT_MMAP_THRESHOLD_MAX), and mallopt accepts no larger value
_MMAP_THRESHOLD = 32 << 20


def _keep_freed_heap(libc) -> None:
    """Keep the heap memory ``libc``'s malloc frees mapped for reuse, for
    the whole process: set ``M_MMAP_THRESHOLD`` to 32 MiB and, only if that
    succeeds (returns 1), ``M_TRIM_THRESHOLD`` to -1, "never trim". Set
    alone, the trim threshold would freeze glibc's dynamic mmap threshold
    where it stands (128 KiB at start) and map every larger array fresh.
    A library without ``mallopt`` is left as it is."""
    mallopt = getattr(libc, "mallopt", None)
    if mallopt is None:
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    if mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD) == 1:
        mallopt(_M_TRIM_THRESHOLD, -1)


if os.name == "posix":
    _keep_freed_heap(ctypes.CDLL(None))


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
    """min(CPUs, rows, work // _MIN_WORK), at least 1."""
    n = min(rows, work // _MIN_WORK)
    return min(n, _cpu_count()) if n > 1 else 1


def _in_bands(fn, rows: int, n: int) -> None:
    """Run ``fn(lo, hi)`` over n contiguous bands [lo, hi) covering
    range(rows), of sizes that differ by at most one row. The caller runs
    the first band and waits for the rest; one band runs inline and never
    touches the pool. Its users are ``_patch_matmul`` (conv2d's tiled
    product), ``_im2col``'s patch copy, ``_pad_reflect`` (the padded
    buffer and any PReLU written into it), ``_rows_matmul`` (every other
    convolution GEMM), ``_col2im``'s adds and ``prelu_backward``. ``fn``
    must write its results only into slices of buffers the caller
    allocated, and call nothing that submits to the pool: a caller's own
    band never waits on the pool, so callers on many threads cannot
    deadlock it."""
    if n == 1:
        fn(0, rows)
        return
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


def _im2col(x: np.ndarray, k: int, slopes: np.ndarray | None = None) -> np.ndarray:
    """(H, W, C) -> (H*W, k*k*C): row h*W + w is the k x k patch of the
    reflexive-padded input centred on pixel (h, w), in (i, j, c) order;
    with ``slopes``, of ``prelu(x, slopes)``, written into the padded
    buffer. The pad and the patch copy run in bands of image rows."""
    H, W, C = x.shape
    n = _band_count(H, H * W * k * k * C * x.itemsize)
    xp = _pad_reflect(x, (k - 1) // 2, slopes, n)
    cols = np.empty((H * W, k * k * C), xp.dtype)
    patches = _patches(xp, k)
    out = cols.reshape(patches.shape)
    _in_bands(lambda lo, hi: np.copyto(out[lo:hi], patches[lo:hi]), H, n)
    return cols


def _patches(xp: np.ndarray, k: int) -> np.ndarray:
    """(H, W, k, k, C) view of the k x k patches of a C-contiguous padded
    (H + k - 1, W + k - 1, C) array."""
    s0, s1, s2 = xp.strides
    H, W = xp.shape[0] - k + 1, xp.shape[1] - k + 1
    return np.ndarray((H, W, k, k, xp.shape[2]), xp.dtype, xp, 0, (s0, s1, s0, s1, s2))


def _whole_blocks(n_cols: int) -> bool:
    """Whether a product with this many columns may split over its rows:
    they fill whole ``_COL_BLOCK`` blocks, or number 2 to 7. numpy runs a
    one-column product as a matrix-vector product, whose sums follow the
    row offset."""
    return n_cols % _COL_BLOCK == 0 or 1 < n_cols < _COL_BLOCK


def _patch_matmul(x: np.ndarray, k: int, slopes: np.ndarray | None,
                  filter_matrix: np.ndarray) -> np.ndarray:
    """``_im2col(x, k, slopes) @ filter_matrix`` as (H*W, out), without the
    patch matrix. Each band of image rows copies tiles of whole image rows
    of patches into a buffer of its own and multiplies each tile into its
    rows of the result while the tile is still in cache (the partial
    im2col of Anderson et al., arXiv:1709.03395). A tile holds about
    ``_TILE_BYTES`` of patches, at least one image row and at least
    ``_MIN_WORK // 2`` multiply-adds (below that OpenBLAS's small-matrix
    path sums in another order); a band's tiles differ by at most one row.
    A product whose columns do not fill whole blocks is one tile of every
    row, as one band."""
    H, W, C = x.shape
    K, N = filter_matrix.shape
    pad = (k - 1) // 2
    row = W * K  # patch-matrix entries per image row
    if _whole_blocks(N) and row * N > 0:
        n = _band_count(H, H * row * N)
        tile = max(_TILE_BYTES // (row * x.itemsize), -(-(_MIN_WORK // 2) // (row * N)))
    else:
        n, tile = 1, max(H, 1)
    xp = _pad_reflect(x, pad, slopes, n)
    patches = _patches(xp, k)
    out = np.empty((H * W, N), np.result_type(xp, filter_matrix))

    def band(lo, hi):
        t = max((hi - lo) // tile, 1)
        cols = np.empty((-(-(hi - lo) // t) * W, K), xp.dtype)
        for i in range(t):
            a, b = lo + (hi - lo) * i // t, lo + (hi - lo) * (i + 1) // t
            part = cols[: (b - a) * W]
            np.copyto(part.reshape(b - a, W, k, k, C), patches[a:b])
            np.matmul(part, filter_matrix, out=out[a * W : b * W])

    _in_bands(band, H, n)
    return out


def _rows_matmul(a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """``a @ b``, into ``out`` if given, in bands of ``a``'s rows, each band
    writing its rows of the result. Every output element is one row of
    ``a`` against one column of ``b``, so no sum moves. It splits only
    when ``b``'s columns fill whole blocks (``_whole_blocks``), in as
    many bands as ``_band_count`` gives every other kernel."""
    (M, K), N = a.shape, b.shape[1]
    n = _band_count(M, M * K * N) if _whole_blocks(N) else 1
    if out is None:
        out = np.empty((M, N), dtype=np.result_type(a, b))
    _in_bands(lambda lo, hi: np.matmul(a[lo:hi], b, out=out[lo:hi]), M, n)
    return out


def _col2im(y: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Adjoint of ``_im2col(., k) @ _filter_matrix(w)``: (H, W, out) ->
    (H, W, in), for (out, in, k, k) filters.

    The GEMM runs on ``y`` widened with zero columns to the padded width
    Wp, so the entry of pixel (h, v) for patch offset (i, j) lands on the
    flat padded index (h + i)*Wp + v + j. Each channel's row of the GEMM
    output, and of the grid, is L = n + reach long, with zeros past n, so
    each offset is one flat add over all channels. Its zeros land on the
    same channel's tail or the next channel's grid and change no bit: a
    sum that starts at +0.0 is never -0.0. A large grid splits into
    contiguous ranges, each taking every offset's add in the same order."""
    H, W, _ = y.shape
    C, k = w.shape[1], w.shape[2]
    pad = (k - 1) // 2
    Wp, n = W + 2 * pad, H * (W + 2 * pad)
    reach = 2 * pad * (Wp + 1)
    L = n + reach
    yw = np.zeros((H, Wp, y.shape[2]), dtype=y.dtype)
    yw[:, :W] = y
    cols = np.empty((k * k * C, L), dtype=np.result_type(y, w))
    _rows_matmul(_filter_matrix(w), yw.reshape(n, -1).T, out=cols[:, :n])
    del yw
    cols[:, n:] = 0.0
    cols = cols.reshape(k * k, C * L)
    gp = np.zeros(C * L + reach, dtype=cols.dtype)

    def add(lo, hi):
        for i in range(k):
            for j in range(k):
                off = i * Wp + j
                a, b = max(lo, off), min(hi, off + C * L)
                if a < b:
                    gp[a:b] += cols[i * k + j, a - off : b - off]

    _in_bands(add, gp.size, _band_count(gp.size, cols.nbytes))
    del cols
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


def conv2d(x: np.ndarray, filters: FilterBank, *, slopes: np.ndarray | None = None) -> np.ndarray:
    """Same-size correlation with implicit reflexive padding, plus bias;
    with ``slopes``, the correlation of ``prelu(x, slopes)``."""
    check_image(x)
    w = filters.weights
    if x.shape[2] != filters.in_channels:
        raise ShapeError(
            f"input has {x.shape[2]} channels, filters expect {filters.in_channels}"
        )
    H, W, _ = x.shape
    y = _patch_matmul(x, w.shape[2], slopes, _filter_matrix(w)).reshape(H, W, -1)
    y += filters.bias
    return y


def conv2d_backward(grad_out: np.ndarray, x: np.ndarray, filters: FilterBank, *,
                    slopes: np.ndarray | None = None):
    """Gradients of conv2d w.r.t. (input, weights, bias). With ``slopes``,
    ``x`` is the input of the PReLU that conv2d applied and the first
    gradient is w.r.t. the PReLU's output."""
    w = filters.weights
    k = w.shape[2]
    if grad_out.shape != (x.shape[0], x.shape[1], w.shape[0]):
        raise ShapeError("grad_out shape does not match conv2d output")
    g = grad_out.reshape(-1, w.shape[0])
    gw = _filter_matrix_adjoint(_rows_matmul(_im2col(x, k, slopes).T, g), w.shape)
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
    gx = _rows_matmul(cols, _filter_matrix(w)).reshape(x.shape)
    gw = _filter_matrix_adjoint(_rows_matmul(cols.T, x.reshape(-1, x.shape[2])), w.shape)
    gb = grad_out.sum(axis=(0, 1))
    return gx, gw, gb


# ---------------------------------------------------------------------------
# pointwise ops


def _check_slopes(x: np.ndarray, slopes) -> np.ndarray:
    slopes = np.asarray(slopes)
    if slopes.shape != (x.shape[2],):
        raise ShapeError(
            f"slopes length {slopes.shape} does not match {x.shape[2]} channels"
        )
    return slopes


def prelu(x: np.ndarray, slopes: np.ndarray) -> np.ndarray:
    """max(0, x) + slopes[c] * min(0, x), per channel (``_pad_reflect``)."""
    return _pad_reflect(check_image(x), 0, slopes)


def prelu_backward(grad_out: np.ndarray, x: np.ndarray, slopes: np.ndarray):
    """Gradients of prelu w.r.t. (input, slopes).

    The input gradient is ``grad_out`` times a per-pixel factor, 1 where
    x > 0 and slopes[c] elsewhere (a -0.0 slope gives a +0.0 factor). Bands
    of image rows write their rows of the input gradient and of the
    product whose sum over pixels is the slope gradient; that sum is one
    call on the whole product. Both arrays take the layout numpy gives a
    ufunc of ``x`` and ``grad_out`` (C order unless both share another),
    which sets the order of that sum. Its work is the bytes read and
    written."""
    if grad_out.shape != x.shape:
        raise ShapeError("grad_out shape does not match prelu input")
    dtypes = (None, None, np.result_type(grad_out, slopes), np.result_type(x, 0.0, grad_out))
    gx, product = np.nditer((x, grad_out, None, None), ["zerosize_ok"],
                            [["readonly"]] * 2 + [["writeonly", "allocate"]] * 2,
                            op_dtypes=dtypes).operands[2:]

    def band(lo, hi):
        g, v = grad_out[lo:hi], x[lo:hi]
        pos = v > 0
        factor = ~pos * slopes
        factor += pos
        np.multiply(g, factor, out=gx[lo:hi])
        np.multiply(np.minimum(v, 0.0), g, out=product[lo:hi])

    _in_bands(band, x.shape[0], _band_count(x.shape[0], 4 * x.nbytes))
    return gx, product.sum(axis=(0, 1))


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
