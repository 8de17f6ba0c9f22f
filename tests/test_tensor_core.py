import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from demosaick.gradcheck import check_tensor_ops
from demosaick.tensor_core import (
    DimensionError,
    FilterBank,
    ShapeError,
    clip,
    clip_backward,
    conv2d,
    conv2d_backward,
    conv_transpose2d,
    conv_transpose2d_backward,
    prelu,
    reflexive_pad,
    reflexive_pad_backward,
)


def rng(seed=0):
    return np.random.Generator(np.random.Philox(key=seed))


class TestReflexivePad:
    def test_row_example(self):
        x = np.array([1.0, 2.0, 3.0]).reshape(1, 3, 1)
        padded = reflexive_pad(x, 1)
        assert padded[1, :, 0].tolist() == [2.0, 1.0, 2.0, 3.0, 2.0]

    def test_constant_image(self):
        x = np.full((4, 5, 2), 7.0)
        assert np.all(reflexive_pad(x, 2) == 7.0)

    def test_pad_zero_identity(self):
        x = rng().normal(size=(4, 4, 3))
        assert np.array_equal(reflexive_pad(x, 0), x)

    def test_pad_too_large(self):
        with pytest.raises(DimensionError):
            reflexive_pad(np.zeros((3, 3, 1)), 3)

    def test_adjoint_identity_every_accepted_size(self):
        gen = rng(9)
        for n_h in range(1, 9):
            for n_w in range(1, 9):
                for pad in range(6):
                    if any(n > 1 and pad >= n for n in (n_h, n_w)):
                        continue
                    a = gen.normal(size=(n_h, n_w, 2))
                    b = gen.normal(size=(n_h + 2 * pad, n_w + 2 * pad, 2))
                    lhs = (reflexive_pad(a, pad) * b).sum()
                    rhs = (a * reflexive_pad_backward(b, a.shape, pad)).sum()
                    assert abs(lhs - rhs) <= 1e-12 * (abs(lhs) + 1.0), (n_h, n_w, pad)


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
        xp = reflexive_pad(x, 1)
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
