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

# (out, in, k) of the paper's layers: the 3 -> 64 5x5 head and the 64 -> 64
# 3x3 blocks, which also give the transposed 64 -> 3 5x5 tail and its
# backward (whose GEMMs run on im2col of the 3-channel gradient)
PAPER_FILTERS = [(64, 3, 5), (64, 64, 3)]
# the last has fewer rows than bands
BAND_SIZES = [(64, 64), (48, 96), (37, 53), (2, 2048)]


def _slopes(c):
    """c PReLU slopes with negative, -0.0 and +0.0 entries."""
    s = np.linspace(-0.75, 0.5, c)
    s[::3] = -0.0
    s[1::4] = 0.0
    return s


def _kernel_calls(x, y, weights):
    """{name: call returning its outputs} of conv2d and its backward, each
    also through a PReLU (``slopes=``), of the transposed convolution and
    its backward, and of prelu_backward, on x of in and y of out channels."""
    fwd = FilterBank(weights, np.linspace(-1.0, 1.0, weights.shape[0]))
    tr = FilterBank(weights, np.linspace(-1.0, 1.0, weights.shape[1]))
    s_in, s_out = _slopes(x.shape[2]), _slopes(y.shape[2])
    pre = np.flip(y, 0) - 0.25  # a PReLU input of y's shape
    pre.flat[::7] = -0.0
    return {
        "conv2d": lambda: [conv2d(x, fwd)],
        "conv2d_prelu": lambda: [conv2d(x, fwd, slopes=s_in)],
        "conv2d_backward": lambda: list(conv2d_backward(y, x, fwd)),
        "conv2d_backward_prelu": lambda: list(conv2d_backward(y, x, fwd, slopes=s_in)),
        "conv_transpose2d": lambda: [conv_transpose2d(y, tr)],
        "conv_transpose2d_backward": lambda: list(conv_transpose2d_backward(x, y, tr)),
        "prelu_backward": lambda: list(prelu_backward(y, pre, s_out)),
    }


def _banded_kernels(x, y, weights):
    """Every output of the calls of ``_kernel_calls``."""
    return [a for call in _kernel_calls(x, y, weights).values() for a in call()]


# The calls that stay one band on 37x53: the 3-channel tail's
# conv_transpose2d, whose col2im GEMM has 37 * 57 columns (not whole
# 8-column blocks) and whose adds hold 1.4 MB, and prelu_backward on 64
# channels, which reads and writes 4.0 MB.
ONE_BAND = {(37, 53, 3, "conv_transpose2d"), (37, 53, 3, "prelu_backward"),
            (37, 53, 64, "prelu_backward")}


@pytest.mark.parametrize("h,w", BAND_SIZES)
@pytest.mark.parametrize("cout,cin,k", PAPER_FILTERS)
def test_row_bands_are_bitwise_one_band(cpus, h, w, cout, cin, k):
    """Every output of each call at 2, 3 and 4 CPUs has the bits of the
    one-CPU run, and each call did split."""
    gen = rng(h * w + cin)
    x, y = gen.normal(size=(h, w, cin)), gen.normal(size=(h, w, cout))
    calls = _kernel_calls(x, y, gen.normal(size=(cout, cin, k, k)))
    serial = cpus(1)
    want = {name: call() for name, call in calls.items()}
    assert serial.tasks == 0
    for n in (2, 3, 4):
        pool = cpus(n)
        for name, call in calls.items():
            before = pool.tasks
            got = call()
            assert (pool.tasks > before) != ((h, w, cin, name) in ONE_BAND), (n, name)
            for i, (a, b) in enumerate(zip(got, want[name])):
                assert a.shape == b.shape, (n, name, i)
                assert np.array_equal(_bits(a), _bits(b)), (n, name, i)


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
        want = tensor_core._rows_matmul(cols, m)
        pool = cpus(2)
        got = tensor_core._rows_matmul(cols, m)
        assert np.array_equal(_bits(got), _bits(want)), n_out
        assert (pool.tasks > 0) == (n_out > 1)


@pytest.mark.parametrize("depth,n_cols,splits", [(64, 2109, False), (64, 2112, True),
                                                 (2048, 63, False), (2048, 64, True)])
def test_product_splits_in_whole_column_blocks(cpus, depth, n_cols, splits):
    """A product of 75 rows, as col2im's GEMM of the 3-channel 5x5 layers
    (k*k*C filter-matrix rows times the padded grid's columns): with more
    than 8 columns it splits only as whole 8-column blocks (2109 columns
    split at row 37 changed the bits of rows 36 and 72; 63 columns did
    with two BLAS threads). Each holds 2**23 multiply-adds or more, two
    bands' worth, and has the bits of one band."""
    gen = rng(21)
    a, b = gen.normal(size=(75, depth)), gen.normal(size=(depth, n_cols))
    cpus(1)
    want = tensor_core._rows_matmul(a, b)
    pool = cpus(2)
    got = tensor_core._rows_matmul(a, b)
    assert np.array_equal(_bits(got), _bits(want))
    assert (pool.tasks > 0) == splits


def test_one_filter_weight_gradient_stays_one_band(cpus):
    """The weight-gradient GEMM of a one-filter layer, the transposed
    (k*k*in, H*W) patch matrix times the (H*W, 1) output gradient, is a
    one-column product: it stays one band, and conv2d_backward is bitwise
    its one-CPU run; with two filters the same GEMM splits."""
    gen = rng(20)
    x = gen.normal(size=(64, 128, 64))
    cpus(1)
    patches = _im2col(x, 3).T
    for n_out in (1, 2):
        g = gen.normal(size=(64 * 128, n_out))
        fb = FilterBank(gen.normal(size=(n_out, 64, 3, 3)), np.zeros(n_out))
        cpus(1)
        want = [tensor_core._rows_matmul(patches, g),
                *conv2d_backward(g.reshape(64, 128, n_out), x, fb)]
        pool = cpus(2)
        before = pool.tasks
        got = [tensor_core._rows_matmul(patches, g)]
        assert (pool.tasks > before) == (n_out > 1), n_out
        got += conv2d_backward(g.reshape(64, 128, n_out), x, fb)
        for i, (a, b) in enumerate(zip(got, want)):
            assert np.array_equal(_bits(a), _bits(b)), (n_out, i)


@pytest.mark.parametrize("rows,splits", [(24, False), (63, False), (64, True), (75, True)])
def test_deep_product_splits_in_bands_of_min_rows(cpus, rows, splits):
    """A weight gradient's transposed patch matrix times a 16-column output
    gradient of a 200x201 patch: with two BLAS threads, 24 rows split at
    row 12 changed the bits of every row. Bands hold 32 rows or more, so
    fewer than 64 rows stay one band; each has the bits of one band."""
    gen = rng(22)
    a, b = gen.normal(size=(200 * 201, rows)).T, gen.normal(size=(200 * 201, 16))
    cpus(1)
    want = tensor_core._rows_matmul(a, b)
    pool = cpus(2)
    got = tensor_core._rows_matmul(a, b)
    assert np.array_equal(_bits(got), _bits(want))
    assert (pool.tasks > 0) == splits


def test_small_layer_on_a_large_patch_is_bitwise_one_band(cpus):
    """The 3x3 block layers of a three-filter model trained on 322-px
    patches: each weight gradient is a 27-row product over 103,684 pixels.
    Split in bands of 13 and 14 rows, both had other bits with two BLAS
    threads; both backward passes, and every other call of
    ``_kernel_calls``, now have the bits of the one-CPU run."""
    gen = rng(23)
    x, y = gen.normal(size=(322, 322, 3)), gen.normal(size=(322, 322, 3))
    calls = _kernel_calls(x, y, gen.normal(size=(3, 3, 3, 3)))
    cpus(1)
    want = {name: call() for name, call in calls.items()}
    cpus(2)
    for name, call in calls.items():
        for i, (a, b) in enumerate(zip(call(), want[name])):
            assert np.array_equal(_bits(a), _bits(b)), (name, i)


@pytest.mark.parametrize("f", [12, 100])
def test_odd_filter_count_is_bitwise_one_band(cpus, f):
    """A 3x3 F -> F layer whose filter count is not a multiple of 8: its
    F-column GEMMs stay one band, and every output of each call at 2, 3
    and 4 CPUs has the bits of the one-CPU run."""
    gen = rng(24 + f)
    x, y = gen.normal(size=(64, 64, f)), gen.normal(size=(64, 64, f))
    calls = _kernel_calls(x, y, gen.normal(size=(f, f, 3, 3)))
    cpus(1)
    want = {name: call() for name, call in calls.items()}
    for n in (2, 3, 4):
        cpus(n)
        for name, call in calls.items():
            for i, (a, b) in enumerate(zip(call(), want[name])):
                assert np.array_equal(_bits(a), _bits(b)), (n, name, i)


def _tile_rows(monkeypatch):
    """The rows of the left matrix of every ``np.matmul`` call made."""
    rows, matmul = [], np.matmul

    def counted(a, *args, **kwargs):
        rows.append(a.shape[0])
        return matmul(a, *args, **kwargs)

    monkeypatch.setattr(np, "matmul", counted)
    return rows


@pytest.mark.parametrize("h,w", [(37, 53), (2, 2048), (1, 4096)])
@pytest.mark.parametrize("cout,cin,k,fused", [(64, 64, 3, False), (64, 64, 3, True),
                                              (64, 3, 5, False), (12, 12, 3, False),
                                              (100, 100, 3, False)])
def test_tile_edges_are_bitwise_one_product(cpus, monkeypatch, h, w, cout, cin, k, fused):
    """conv2d with a tile budget of 1 and 3 image rows of patches, at 1 to
    4 CPUs, has the bits of one product of the whole patch matrix. Tiles
    are whole image rows covering the image, each of at least _MIN_WORK //
    2 multiply-adds and fewer than twice the rows of the budget or that
    floor; a 2048- or 4096-px row alone exceeds the budget. The head's 5x5
    3 -> 64 layer still splits. 12 and 100 filters, which do not fill
    whole 8-column blocks, stay one product in one band."""
    gen = rng(28 + h + cin)
    x = gen.normal(size=(h, w, cin))
    fb = FilterBank(gen.normal(size=(cout, cin, k, k)), gen.normal(size=cout))
    s = _slopes(cin) if fused else None
    want = (_im2col(x, k, s) @ tensor_core._filter_matrix(fb.weights)).reshape(h, w, cout)
    want += fb.bias
    row_work = w * k * k * cin * cout
    least = -(-(tensor_core._MIN_WORK // 2) // row_work)
    whole = cout % 8 == 0
    tiles = _tile_rows(monkeypatch)
    for budget in (1, 3):
        monkeypatch.setattr(tensor_core, "_TILE_BYTES", budget * w * k * k * cin * 8)
        for n in (1, 2, 3, 4):
            pool = cpus(n)
            before = pool.tasks
            tiles.clear()
            got = conv2d(x, fb, slopes=s)
            assert np.array_equal(_bits(got), _bits(want)), (budget, n)
            assert (pool.tasks > before) == (whole and n > 1 and h > 1), (budget, n)
            if not whole:
                assert tiles == [h * w], (budget, n)
                continue
            assert sum(tiles) == h * w and all(t % w == 0 for t in tiles), (budget, n)
            assert all(t // w * row_work >= tensor_core._MIN_WORK // 2 for t in tiles)
            assert max(tiles) // w < 2 * max(budget, least), (budget, n)
            split = pool.tasks > before or h >= 2 * max(budget, least)
            assert (len(tiles) > 1) == split, (budget, n)


@pytest.mark.parametrize("view", [False, True])
@pytest.mark.parametrize("k,h,w", [(1, 128, 128), (3, 64, 96)])
def test_fused_prelu_is_bitwise_the_unfused_composition(cpus, monkeypatch, k, h, w, view):
    """conv2d and conv2d_backward with ``slopes`` have the bits of the same
    call on ``prelu(x, slopes)``, and prelu_backward those of its one-CPU
    run, at 1 to 4 CPUs: slopes and inputs with zeros of both signs, a 1x1
    kernel (no pad) and a non-contiguous input view. From 2 CPUs the
    activation is written in bands and ``prelu`` is never called."""
    gen = rng(25 + k)
    base = gen.normal(size=(w, h, 64) if view else (h, w, 64))
    base.flat[::11] = 0.0
    base.flat[5::13] = -0.0
    x = base.transpose(1, 0, 2) if view else base
    assert x.flags.c_contiguous != view
    g = gen.normal(size=(h, w, 64))
    s = _slopes(64)
    fb = FilterBank(gen.normal(size=(64, 64, k, k)), gen.normal(size=64))
    cpus(1)
    act = prelu(x, s)
    want = [conv2d(act, fb), *conv2d_backward(g, act, fb), *prelu_backward(g, x, s)]
    for n in (1, 2, 3, 4):
        pool = cpus(n)
        if n > 1:
            monkeypatch.setattr(tensor_core, "prelu", lambda *_: pytest.fail("prelu called"))
        before = pool.tasks
        got = [conv2d(x, fb, slopes=s), *conv2d_backward(g, x, fb, slopes=s),
               *prelu_backward(g, x, s)]
        assert (pool.tasks > before) == (n > 1), n
        for i, (a, b) in enumerate(zip(got, want)):
            assert a.shape == b.shape, (n, i)
            assert np.array_equal(_bits(a), _bits(b)), (n, i)


def test_conv2d_rejects_slopes_of_the_wrong_length(cpus):
    """The activation written in bands checks its slopes as ``prelu``
    does."""
    x = rng(26).normal(size=(64, 64, 64))
    fb = FilterBank(np.zeros((64, 64, 3, 3)), np.zeros(64))
    for n in (1, 2):
        cpus(n)
        with pytest.raises(ShapeError):
            conv2d(x, fb, slopes=np.ones(63))


def _traced_peak(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_row_bands_allocate_nothing_more(cpus):
    """Workers fill slices of the buffers the caller allocated, in the
    one-band order, and conv2d's bands a tile buffer each. conv2d holds at
    most the filter matrix, padded input, output and one tile of patches
    per band (with ``slopes``, before the output and tiles, the PReLU's
    scratch of the input's size), never the (H*W, k*k*C) patch matrix. The
    transposed backward holds at most the padded input and patch matrix,
    then the patch matrix, filter matrix and output; conv2d_backward and
    conv_transpose2d at most the patch matrix, col2im's (k*k*C, L) GEMM
    buffer and its grid. The traced peak is that sum, and at 2 CPUs the
    peak of the one-CPU run plus conv2d's second tile, up to a few Python
    objects: far less than one band of a buffer."""
    gen = rng(17)
    x, y = gen.normal(size=(64, 64, 64)), gen.normal(size=(64, 64, 64))
    fb = FilterBank(gen.normal(size=(64, 64, 3, 3)), np.zeros(64))
    padded, patches, filters, out = 66 * 66 * 64 * 8, 4096 * 576 * 8, 576 * 64 * 8, 4096 * 64 * 8
    # 1 MiB holds 3 image rows of patches; a 64- or 32-row band takes tiles
    # of 3 or 4 rows
    tile, scratch = 4 * 64 * 576 * 8, 64 * 64 * 64 * 8
    reach = 2 * 67  # the largest patch offset on the 66-px padded width
    L = 64 * 66 + reach
    col2im, grid = 576 * L * 8, (64 * L + reach) * 8
    slack = 16 * 1024
    lowered = max(padded + patches, patches + filters + out)

    def tiled(n):
        return filters + padded + max(out + n * tile, scratch)

    calls = {
        "conv2d": (lambda: conv2d(x, fb), tiled),
        "conv2d_prelu": (lambda: conv2d(x, fb, slopes=_slopes(64)), tiled),
        "conv_transpose2d_backward": (lambda: conv_transpose2d_backward(x, y, fb),
                                      lambda n: lowered),
        "conv2d_backward": (lambda: conv2d_backward(y, x, fb),
                            lambda n: patches + col2im + grid),
        "conv_transpose2d": (lambda: conv_transpose2d(y, fb), lambda n: patches + col2im + grid),
    }
    assert tiled(2) < patches
    for call, _ in calls.values():  # start the pool and the interned numpy state
        cpus(2)
        call()
    peaks = {}
    for n in (1, 2):
        cpus(n)
        for name, (call, bound) in calls.items():
            peaks[n, name] = _traced_peak(call)
            assert peaks[n, name] <= bound(n) + slack, (n, name)
    for name in calls:
        more = tile if name in ("conv2d", "conv2d_prelu") else 0
        assert peaks[2, name] <= peaks[1, name] + more + slack, name


def test_col2im_frees_its_buffers_before_it_needs_no_more(cpus):
    """col2im drops the widened input once its GEMM has run, and its (k*k*C,
    L) buffer once the adds have run. So a 64 -> 64 conv_transpose2d at
    64x64 peaks during that GEMM, at the buffer, the widened input and the
    filter matrix (22.5 MB; 28.8 MB while both lived through the fold),
    above the buffer and grid of the adds; conv2d_backward holds its weight
    gradient too. At 1 and 2 CPUs, up to a few Python objects."""
    gen = rng(27)
    x, y = gen.normal(size=(64, 64, 64)), gen.normal(size=(64, 64, 64))
    fb = FilterBank(gen.normal(size=(64, 64, 3, 3)), np.zeros(64))
    reach = 2 * 67  # the largest patch offset on the 66-px padded width
    L = 64 * 66 + reach
    col2im, grid = 576 * L * 8, (64 * L + reach) * 8
    widened, filters = 64 * 66 * 64 * 8, 576 * 64 * 8
    peak = max(col2im + widened + filters, col2im + grid)
    slack = 16 * 1024
    gw = filters  # the weight gradient has the filter matrix's size
    calls = {
        "conv_transpose2d": (lambda: conv_transpose2d(y, fb), peak),
        "conv2d_backward": (lambda: conv2d_backward(y, x, fb), peak + gw),
        "conv2d_backward_prelu": (lambda: conv2d_backward(y, x, fb, slopes=_slopes(64)),
                                  peak + gw),
    }
    for call, _ in calls.values():  # start the pool and the interned numpy state
        cpus(2)
        call()
    for n in (1, 2):
        cpus(n)
        for name, (call, bound) in calls.items():
            assert _traced_peak(call) <= bound + slack, (n, name)


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
