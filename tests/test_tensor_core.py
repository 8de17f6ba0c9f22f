import multiprocessing
import os
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from demosaick import tensor_core
from demosaick.gradcheck import check_tensor_ops
from demosaick.tensor_core import (
    DimensionError,
    FilterBank,
    ShapeError,
    _col2im,
    _im2col,
    _pad_reflect,
    _pad_reflect_adjoint,
    clip,
    clip_backward,
    conv2d,
    conv2d_backward,
    conv_transpose2d,
    conv_transpose2d_backward,
    prelu,
    prelu_backward,
)


def rng(seed=0):
    return np.random.Generator(np.random.Philox(key=seed))


# every size up to 8x8 and every pad up to 8, the widest _box_sum window
PAD_SIZES = [(h, w, pad) for h in range(1, 9) for w in range(1, 9) for pad in range(9)]


class TestReflexivePad:
    def test_row_example(self):
        x = np.array([1.0, 2.0, 3.0]).reshape(1, 3, 1)
        padded = _pad_reflect(x, 1)
        assert padded[1, :, 0].tolist() == [2.0, 1.0, 2.0, 3.0, 2.0]

    def test_constant_image(self):
        x = np.full((4, 5, 2), 7.0)
        assert np.all(_pad_reflect(x, 2) == 7.0)

    def test_pad_zero_identity(self):
        x = rng().normal(size=(4, 4, 3))
        assert np.array_equal(_pad_reflect(x, 0), x)

    def test_adjoint_identity_every_accepted_size(self):
        """<pad(a), b> = <a, adjoint(b)> wherever the pad stays inside the
        axis it reflects (pad < n, or an axis of one pixel)."""
        gen = rng(9)
        for n_h, n_w, pad in PAD_SIZES:
            if any(n > 1 and pad >= n for n in (n_h, n_w)):
                continue
            a = gen.normal(size=(n_h, n_w, 2))
            b = gen.normal(size=(n_h + 2 * pad, n_w + 2 * pad, 2))
            lhs = (_pad_reflect(a, pad) * b).sum()
            rhs = (a * _pad_reflect_adjoint(b, n_h, n_w, pad)).sum()
            assert abs(lhs - rhs) <= 1e-12 * (abs(lhs) + 1.0), (n_h, n_w, pad)

    def test_adjoint_identity_pad_beyond_axis(self):
        """conv2d pads an image narrower than its kernel radius by pad >= n,
        which the pad serves by reflecting again (in rounds of at most n - 1
        rows, as np.pad does); the adjoint must follow."""
        gen = rng(10)
        for n_h, n_w, pad in PAD_SIZES:
            if pad == 0 or pad < min(n_h, n_w):
                continue
            a = gen.normal(size=(n_h, n_w, 2))
            b = gen.normal(size=(n_h + 2 * pad, n_w + 2 * pad, 2))
            lhs = (_pad_reflect(a, pad) * b).sum()
            rhs = (a * _pad_reflect_adjoint(b, n_h, n_w, pad)).sum()
            assert abs(lhs - rhs) <= 1e-12 * (abs(lhs) + 1.0), (n_h, n_w, pad)


# np.pad's reflect mode and the index-map fold, kept as the reference: the
# kernels run the fold's order with a cached map in place of np.pad.


def _np_pad(x, pad):
    return np.pad(x, ((pad, pad), (pad, pad), (0, 0)), mode="reflect")


def _index_map_fold(gp, n_h, n_w, pad):
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


def test_pad_matches_np_pad_bitwise():
    gen = rng(12)
    for h, w, pad in PAD_SIZES:
        for c in (1, 3):
            x = gen.normal(size=(h, w, c))
            got, want = _pad_reflect(x, pad), _np_pad(x, pad)
            assert np.array_equal(_bits(got), _bits(want)), (h, w, pad, c)


def test_pad_adjoint_matches_index_map_fold():
    """Bitwise equal to the reference fold, pad >= n included, on the
    channel-major transposed layout ``_col2im`` passes."""
    gen = rng(13)
    for h, w, pad in PAD_SIZES:
        for c in (1, 3):
            gp = gen.normal(size=(c, h + 2 * pad, w + 2 * pad)).transpose(1, 2, 0)
            got = _pad_reflect_adjoint(gp, h, w, pad)
            assert got.flags.c_contiguous
            assert np.array_equal(_bits(got), _bits(_index_map_fold(gp, h, w, pad))), (h, w, pad, c)


@pytest.mark.parametrize("h,w", [(0, 4), (4, 0), (0, 0)])
def test_empty_axis_is_rejected(h, w):
    """An empty axis has nothing to mirror: both kernels raise, as np.pad
    does, and a zero pad passes the image through, as np.pad does."""
    x = np.zeros((h, w, 2))
    for pad in (1, 2, 8):
        gp = np.zeros((h + 2 * pad, w + 2 * pad, 2))
        for call in (lambda: _pad_reflect(x, pad), lambda: _pad_reflect_adjoint(gp, h, w, pad)):
            with pytest.raises(DimensionError):
                call()
    assert _pad_reflect(x, 0).shape == _pad_reflect_adjoint(x, h, w, 0).shape == (h, w, 2)


@pytest.mark.parametrize("h,w,cin,cout,k", [(1, 1, 1, 2, 3), (7, 5, 2, 3, 1), (2, 3, 3, 4, 5),
                                            (32, 32, 8, 8, 3)])
def test_kernels_return_c_contiguous(h, w, cin, cout, k):
    """A transposed result has the right values but is summed in another
    order downstream (the bias gradient), which moves trained models in
    the last bit. ``_pad_reflect_adjoint`` is checked with its reference."""
    gen = rng(14)
    x, y = gen.normal(size=(h, w, cin)), gen.normal(size=(h, w, cout))
    weights = gen.normal(size=(cout, cin, k, k))
    fwd, tr = FilterBank(weights, np.zeros(cout)), FilterBank(weights, np.zeros(cin))
    results = {
        "_col2im": _col2im(y, weights),
        "conv2d": conv2d(x, fwd),
        "conv2d_backward": conv2d_backward(y, x, fwd)[0],
        "conv_transpose2d": conv_transpose2d(y, tr),
        "conv_transpose2d_backward": conv_transpose2d_backward(x, y, tr)[0],
    }
    for name, a in results.items():
        assert a.flags.c_contiguous, name


@pytest.mark.parametrize("kh,kw", [(3, 5), (4, 4)])
def test_filter_bank_needs_square_odd_kernel(kh, kw):
    with pytest.raises(ShapeError):
        FilterBank(np.zeros((2, 1, kh, kw)), np.zeros(2))


class TestConv2d:
    def test_constant_input_zero_mean_kernel(self):
        x = np.full((6, 6, 1), 3.0)
        w = rng(1).normal(size=(2, 1, 3, 3))
        w -= w.mean(axis=(1, 2, 3), keepdims=True)
        out = conv2d(x, FilterBank(w, np.zeros(2)))
        assert np.allclose(out, 0.0, atol=1e-12)

    def test_single_pixel_average(self):
        x = np.array([[[5.0]]])
        fb = FilterBank(np.full((1, 1, 3, 3), 1.0 / 9.0), np.zeros(1))
        assert np.allclose(conv2d(x, fb), 5.0)

    def test_matches_naive_quadruple_loop(self):
        gen = rng(2)
        x = gen.normal(size=(4, 4, 2))
        w = gen.normal(size=(3, 2, 3, 3))
        b = gen.normal(size=3)
        out = conv2d(x, FilterBank(w, b))
        xp = _pad_reflect(x, 1)
        expected = np.zeros((4, 4, 3))
        for yy in range(4):
            for xx in range(4):
                for o in range(3):
                    acc = b[o]
                    for c in range(2):
                        for i in range(3):
                            for j in range(3):
                                acc += w[o, c, i, j] * xp[yy + i, xx + j, c]
                    expected[yy, xx, o] = acc
        assert np.allclose(out, expected, atol=1e-12)

    def test_channel_mismatch(self):
        with pytest.raises(ShapeError):
            conv2d(np.zeros((4, 4, 2)), FilterBank(np.zeros((1, 3, 3, 3)), np.zeros(1)))

    def test_preserves_spatial_size(self):
        x = rng(3).normal(size=(5, 7, 2))
        fb = FilterBank(rng(4).normal(size=(4, 2, 5, 5)), np.zeros(4))
        assert conv2d(x, fb).shape == (5, 7, 4)


class TestConvTranspose2d:
    def test_adjoint_identity(self):
        gen = rng(5)
        for _ in range(5):
            a = gen.normal(size=(6, 6, 2))
            b = gen.normal(size=(6, 6, 3))
            w = gen.normal(size=(3, 2, 3, 3))
            ka = conv2d(a, FilterBank(w, np.zeros(3)))
            ktb = conv_transpose2d(b, FilterBank(w, np.zeros(2)))
            assert abs((ka * b).sum() - (a * ktb).sum()) < 1e-10

    def test_zero_input(self):
        fb = FilterBank(rng(6).normal(size=(4, 3, 5, 5)), np.zeros(3))
        out = conv_transpose2d(np.zeros((5, 5, 4)), fb)
        assert np.all(out == 0.0)

    def test_one_by_one_kernel_channel_mixing(self):
        gen = rng(7)
        x = gen.normal(size=(4, 4, 3))
        w = gen.normal(size=(3, 2, 1, 1))
        out = conv_transpose2d(x, FilterBank(w, np.zeros(2)))
        expected = x @ w[:, :, 0, 0]
        assert np.allclose(out, expected, atol=1e-12)

    def test_channel_mismatch(self):
        with pytest.raises(ShapeError):
            conv_transpose2d(np.zeros((4, 4, 2)), FilterBank(np.zeros((3, 1, 3, 3)), np.zeros(1)))


# The sliding-window einsum kernels the im2col lowering replaced, with the
# index-map reflexive pad and its np.add.at adjoint, kept as the reference.


def _ref_index(n, pad):
    idx = np.arange(-pad, n + pad)
    if n == 1:
        return np.zeros_like(idx)
    idx = np.mod(idx, 2 * n - 2)
    return np.where(idx >= n, 2 * n - 2 - idx, idx)


def _ref_pad(x, pad):
    return x[_ref_index(x.shape[0], pad)][:, _ref_index(x.shape[1], pad)]


def _ref_pad_adjoint(gp, n_h, n_w, pad):
    out = np.zeros((n_h, n_w, gp.shape[2]))
    np.add.at(out, np.ix_(_ref_index(n_h, pad), _ref_index(n_w, pad)), gp)
    return out


def _ref_patches(xp, k):
    """(H, W, k, k, C) sliding windows of a padded (H + k - 1, W + k - 1, C) array."""
    view = np.lib.stride_tricks.sliding_window_view(xp, (k, k), axis=(0, 1))
    return view.transpose(0, 1, 3, 4, 2)


def _ref_input_grad(gy, w):
    """Full correlation with the flipped kernel: the adjoint of the unpadded
    correlation, on the padded input grid."""
    k = w.shape[2]
    gz = np.pad(gy, ((k - 1, k - 1), (k - 1, k - 1), (0, 0)))
    return np.einsum("hwijo,ocij->hwc", _ref_patches(gz, k), w[:, :, ::-1, ::-1])


def _ref_kernels(x, y, w, b, bt):
    """The 8 outputs of conv2d, conv2d_backward(y, x), conv_transpose2d(y)
    and conv_transpose2d_backward(x, y), with x of in and y of out channels."""
    k = w.shape[2]
    pad = (k - 1) // 2
    px = _ref_patches(_ref_pad(x, pad), k)
    gx = _ref_pad_adjoint(_ref_input_grad(y, w), x.shape[0], x.shape[1], pad)
    return [
        np.einsum("hwijc,ocij->hwo", px, w) + b,
        gx,
        np.einsum("hwijc,hwo->ocij", px, y),
        y.sum(axis=(0, 1)),
        gx + bt,
        np.einsum("hwijc,ocij->hwo", px, w),
        np.einsum("hwijc,hwo->ocij", px, y),
        x.sum(axis=(0, 1)),
    ]


@pytest.mark.parametrize(
    "h,w,cin,cout,k",
    [(1, 1, 1, 1, 3), (2, 3, 2, 3, 5), (5, 7, 3, 4, 5), (7, 5, 2, 3, 1),
     (3, 1, 2, 2, 5), (64, 64, 64, 64, 3),
     # the desk-scale block and the paper-scale head/tail (64 -> 3 through
     # conv_transpose2d) on a non-square image
     (32, 32, 8, 8, 3), (48, 96, 3, 64, 5)],
)
def test_kernels_match_einsum_reference(h, w, cin, cout, k):
    gen = rng(h * 100 + w)
    x = gen.normal(size=(h, w, cin))
    y = gen.normal(size=(h, w, cout))
    weights = gen.normal(size=(cout, cin, k, k))
    b, bt = gen.normal(size=cout), gen.normal(size=cin)
    got = [
        conv2d(x, FilterBank(weights, b)),
        *conv2d_backward(y, x, FilterBank(weights, b)),
        conv_transpose2d(y, FilterBank(weights, bt)),
        *conv_transpose2d_backward(x, y, FilterBank(weights, bt)),
    ]
    for i, (a, ref) in enumerate(zip(got, _ref_kernels(x, y, weights, b, bt))):
        assert a.shape == ref.shape, i
        assert np.abs(a - ref).max() <= 1e-12 * np.abs(ref).max(), i


# The channel-major col2im the flat all-channel adds replaced, kept as the
# reference: one (C, H*Wp) slice add per patch offset onto a (C, L) grid.


def _channel_major_col2im(y, w):
    H, W, _ = y.shape
    C, k = w.shape[1], w.shape[2]
    pad = (k - 1) // 2
    Wp, n = W + 2 * pad, H * (W + 2 * pad)
    yw = np.zeros((H, Wp, y.shape[2]), dtype=y.dtype)
    yw[:, :W] = y
    cols = (w.transpose(2, 3, 1, 0).reshape(-1, w.shape[0]) @ yw.reshape(n, -1).T)
    cols = cols.reshape(k, k, C, n)
    gp = np.zeros((C, n + 2 * pad * (Wp + 1)), dtype=cols.dtype)
    for i in range(k):
        for j in range(k):
            gp[:, i * Wp + j : i * Wp + j + n] += cols[i, j]
    gp = gp[:, : n + 2 * pad * Wp].reshape(C, H + 2 * pad, Wp).transpose(1, 2, 0)
    return _index_map_fold(gp, H, W, pad)


# 1-px axes, axes narrower than the pad, the desk and paper layers, and
# one paper-size image
COL2IM_SHAPES = [
    (h, w, f, c, k)
    for h, w in [(1, 1), (1, 6), (5, 1), (2, 3), (7, 4), (9, 13)]
    for k in (1, 3, 5)
    for f, c in [(8, 8), (8, 3), (3, 8), (64, 64), (64, 3)]
] + [(64, 80, 64, 64, 3), (64, 80, 64, 3, 5)]


@pytest.mark.parametrize("h,w,f,c,k", COL2IM_SHAPES)
def test_col2im_matches_channel_major_reference_bitwise(h, w, f, c, k):
    """Values and sign bits: the extra adds of +0.0 past each channel's
    GEMM row land on running sums that start at +0.0, which never turn
    into -0.0, so they change no bit."""
    gen = rng(h * 10000 + w * 100 + f + c + k)
    y = gen.normal(size=(h, w, f))
    y.flat[::5] = -0.0
    weights = gen.normal(size=(f, c, k, k))
    weights.flat[::3] = -0.0
    got, want = _col2im(y, weights), _channel_major_col2im(y, weights)
    assert got.shape == want.shape == (h, w, c)
    assert np.array_equal(_bits(got), _bits(want))


@pytest.mark.parametrize("k", [1, 3])
def test_im2col_of_a_non_contiguous_view(k):
    """The patch view is built on the padded buffer, which must be
    C-contiguous; at k = 1 the pad returns the input itself."""
    x = rng(15).normal(size=(6, 5, 4))
    view = x.transpose(1, 0, 2)
    assert not view.flags.c_contiguous
    assert np.array_equal(_im2col(view, k), _im2col(np.ascontiguousarray(view), k))


class TestPrelu:
    def test_point_examples(self):
        x = np.array([[[3.0, -2.0]]])
        out = prelu(x, np.array([0.25, 0.25]))
        assert out[0, 0, 0] == 3.0
        assert out[0, 0, 1] == -0.5

    @given(st.floats(-100, 100, allow_nan=False))
    @settings(max_examples=30, deadline=None)
    def test_unit_slope_is_identity(self, v):
        x = np.full((2, 2, 1), v)
        assert np.array_equal(prelu(x, np.ones(1)), x)

    def test_slope_length_mismatch(self):
        with pytest.raises(ShapeError):
            prelu(np.zeros((2, 2, 2)), np.ones(3))


# The np.where PReLU kernels the in-place forward and the factor-form
# backward replaced, kept as the reference.


def _ref_prelu(x, slopes):
    return np.maximum(x, 0.0) + slopes * np.minimum(x, 0.0)


def _ref_prelu_backward(grad_out, x, slopes):
    gx = np.where(x > 0, grad_out, slopes * grad_out)
    gk = (np.minimum(x, 0.0) * grad_out).sum(axis=(0, 1))
    return gx, gk


def _bits(a):
    return a.view(np.int64)


@pytest.mark.parametrize("h,w,c", [(1, 1, 1), (3, 5, 2), (8, 8, 8), (7, 4, 17),
                                   (32, 32, 3), (64, 64, 64)])
def test_prelu_kernels_match_where_reference(h, w, c):
    gen = rng(h * 1000 + w * 10 + c)
    x = gen.normal(size=(h, w, c))
    x.flat[::3] = 0.0
    x.flat[1::5] = -0.0
    grad = gen.normal(size=(h, w, c))
    grad.flat[::7] = -0.0
    slopes = gen.uniform(-1.0, 1.0, size=c)
    slopes[::2] = 0.0  # +0.0 only: a -0.0 slope gives a +0.0 input gradient
    for s in (slopes, np.abs(slopes), 0.0 - np.abs(slopes)):
        assert np.array_equal(_bits(prelu(x, s)), _bits(_ref_prelu(x, s)))
        got, want = prelu_backward(grad, x, s), _ref_prelu_backward(grad, x, s)
        for a, b in zip(got, want):
            assert a.shape == b.shape
            assert np.array_equal(_bits(a), _bits(b))


class TestClip:
    @pytest.mark.parametrize("value,expected", [(300.0, 255.0), (-4.0, 0.0), (128.0, 128.0)])
    def test_examples(self, value, expected):
        assert clip(np.array([[[value]]]), 0.0, 255.0)[0, 0, 0] == expected

    def test_bad_bounds(self):
        with pytest.raises(ValueError):
            clip(np.zeros((1, 1, 1)), 5.0, 5.0)

    def test_gradient_zero_when_saturated(self):
        g = clip_backward(np.ones((1, 1, 1)), np.array([[[300.0]]]), 0.0, 255.0)
        assert g[0, 0, 0] == 0.0


def test_forward_ops_pure():
    gen = rng(8)
    x = gen.normal(size=(5, 5, 2))
    fb = FilterBank(gen.normal(size=(2, 2, 3, 3)), gen.normal(size=2))
    assert np.array_equal(conv2d(x, fb), conv2d(x, fb))
    assert np.array_equal(prelu(x, np.array([0.1, 0.2])), prelu(x, np.array([0.1, 0.2])))


def test_finite_difference_all_ops():
    errs = check_tensor_ops(seed=0)
    for name, err in errs.items():
        assert err < 1e-6, f"{name}: {err}"


# ---------------------------------------------------------------------------
# row bands over the CPUs

# (out, in, k) of the paper's layers: conv2d of the 3 -> 64 5x5 head and of
# the 64 -> 64 3x3 blocks; conv_transpose2d_backward of the 64 -> 3 5x5 tail
# (its GEMM runs on im2col of the 3-channel gradient)
PAPER_FILTERS = [(64, 3, 5), (64, 64, 3)]
# the last has fewer rows than bands
BAND_SIZES = [(64, 64), (48, 96), (37, 53), (2, 2048)]


def _banded_kernels(x, y, weights):
    """conv2d and its backward, and the transposed backward, on x of in and
    y of out channels."""
    fwd = FilterBank(weights, np.linspace(-1.0, 1.0, weights.shape[0]))
    tr = FilterBank(weights, np.linspace(-1.0, 1.0, weights.shape[1]))
    return [conv2d(x, fwd), *conv2d_backward(y, x, fwd), *conv_transpose2d_backward(x, y, tr)]


@pytest.mark.parametrize("h,w", BAND_SIZES)
@pytest.mark.parametrize("cout,cin,k", PAPER_FILTERS)
def test_row_bands_are_bitwise_one_band(cpus, h, w, cout, cin, k):
    """Every output of the split kernels at 2, 3 and 4 CPUs has the bits
    of the one-CPU run, and the GEMMs did split."""
    gen = rng(h * w + cin)
    x, y = gen.normal(size=(h, w, cin)), gen.normal(size=(h, w, cout))
    weights = gen.normal(size=(cout, cin, k, k))
    serial = cpus(1)
    want = _banded_kernels(x, y, weights)
    assert serial.tasks == 0
    for n in (2, 3, 4):
        pool = cpus(n)
        before = pool.tasks
        got = _banded_kernels(x, y, weights)
        assert pool.tasks > before, n
        for i, (a, b) in enumerate(zip(got, want)):
            assert a.shape == b.shape, (n, i)
            assert np.array_equal(_bits(a), _bits(b)), (n, i)


def test_one_column_product_stays_one_band(cpus):
    """numpy runs a one-column product as a matrix-vector product, whose
    sums follow the row offset, so it stays one band; a two-column one
    splits. Both hold 2**23 multiply-adds, two bands' worth, and the odd
    width puts the second band at an odd row."""
    width = 466_037
    cols = rng(16).normal(size=(2 * width, 9))
    for n_out in (1, 2):
        m = rng(n_out).normal(size=(9, n_out))
        cpus(1)
        want = tensor_core._cols_matmul(cols, m, 2)
        pool = cpus(2)
        got = tensor_core._cols_matmul(cols, m, 2)
        assert np.array_equal(_bits(got), _bits(want)), n_out
        assert (pool.tasks > 0) == (n_out > 1)


def _traced_peak(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_row_bands_allocate_nothing_more(cpus):
    """Workers fill slices of the buffers the caller allocated, in the
    one-band order: padded input and patch matrix, then the patch matrix,
    filter matrix and output. The traced peak is the larger of the two
    sums, up to a few Python objects, far less than one band of a buffer."""
    gen = rng(17)
    x, y = gen.normal(size=(64, 64, 64)), gen.normal(size=(64, 64, 64))
    fb = FilterBank(gen.normal(size=(64, 64, 3, 3)), np.zeros(64))
    padded, patches, filters, out = 66 * 66 * 64 * 8, 4096 * 576 * 8, 576 * 64 * 8, 4096 * 64 * 8
    bound = max(padded + patches, patches + filters + out) + 16 * 1024
    calls = [lambda: conv2d(x, fb), lambda: conv_transpose2d_backward(x, y, fb)]
    for call in calls:  # start the pool and the interned numpy state
        cpus(2)
        call()
    for n in (1, 2):
        cpus(n)
        for i, call in enumerate(calls):
            assert _traced_peak(call) <= bound, (n, i)


def test_desk_scale_call_starts_no_thread(cpus, monkeypatch):
    """A desk-scale layer (F=8, 32x32) stays one band on any CPU count: it
    creates no pool and starts no thread."""
    monkeypatch.setattr(tensor_core, "_pool", None)
    monkeypatch.setattr(tensor_core, "_band_pool", lambda: pytest.fail("pool requested"))
    monkeypatch.setattr(tensor_core, "_cpu_count", lambda: 4)
    threads = threading.active_count()
    gen = rng(18)
    x, y = gen.normal(size=(32, 32, 8)), gen.normal(size=(32, 32, 8))
    fb = FilterBank(gen.normal(size=(8, 8, 3, 3)), np.zeros(8))
    _banded_kernels(x, y, fb.weights)
    conv_transpose2d(y, fb)
    assert tensor_core._pool is None
    assert threading.active_count() == threads


def _split_in_child(x, fb, want, results):
    results.put(bool(np.array_equal(_bits(conv2d(x, fb)), _bits(want))))


def test_forked_child_splits_on_a_pool_of_its_own(monkeypatch):
    """A child forked after the pool started has none of its threads; its
    first split starts a new pool instead of queueing on the dead one."""
    monkeypatch.setattr(tensor_core, "_cpu_count", lambda: 2)
    gen = rng(19)
    x = gen.normal(size=(64, 64, 64))
    fb = FilterBank(gen.normal(size=(64, 64, 3, 3)), np.zeros(64))
    want = conv2d(x, fb)
    assert tensor_core._pool is not None
    ctx = multiprocessing.get_context("fork")
    results = ctx.SimpleQueue()
    child = ctx.Process(target=_split_in_child, args=(x, fb, want, results))
    child.start()
    child.join(60)
    if child.is_alive():
        child.kill()
        pytest.fail("the forked child's split never finished")
    assert child.exitcode == 0 and results.get() is True


def test_import_starts_no_pool():
    """Importing the package imports no executor machinery; the pool and
    ``concurrent.futures`` come with the first split."""
    src = str(Path(tensor_core.__file__).resolve().parents[1])
    code = "import sys, demosaick; print('concurrent.futures' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=120, check=True)
    assert out.stdout.strip() == "False"
