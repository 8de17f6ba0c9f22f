import math
import struct
import zlib
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from demosaick import resdnet
from demosaick.gradcheck import check_resdnet, max_rel_error, numerical_gradient
from demosaick.modelfile import ModelFormatError, load_model, save_model
from demosaick.resdnet import (
    DegenerateFilterError,
    ResDNetParams,
    init_resdnet,
    materialize_weights,
    parameter_breakdown,
    project_noise,
    project_noise_backward,
    resdnet_backward,
    resdnet_forward,
    residual,
    residual_backward,
)
from demosaick.tensor_core import FilterBank


def rng(seed=0):
    return np.random.Generator(np.random.Philox(key=seed))


class TestMaterializeWeights:
    def test_vector_example(self):
        v = materialize_weights(np.array([1.0, 2.0, 3.0]), 2.0)
        assert np.allclose(v, [-math.sqrt(2), 0.0, math.sqrt(2)])

    @given(st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_zero_mean_and_norm(self, seed):
        gen = rng(seed)
        u = gen.normal(size=(4, 3, 3, 3))
        s = gen.uniform(-2, 2, size=4)
        v = materialize_weights(u, s)
        means = v.mean(axis=(1, 2, 3))
        norms = np.sqrt((v ** 2).sum(axis=(1, 2, 3)))
        assert np.all(np.abs(means) < 1e-10)
        assert np.all(np.abs(norms - np.abs(s)) < 1e-10)

    def test_zero_scale(self):
        v = materialize_weights(np.array([1.0, 2.0, 3.0]), 0.0)
        assert np.all(v == 0.0)

    def test_constant_filter_rejected(self):
        with pytest.raises(DegenerateFilterError):
            materialize_weights(np.full((1, 1, 3, 3), 5.0), np.ones(1))


class TestProjectNoise:
    def test_shrinks_to_ball(self):
        e = np.zeros((1, 2, 2))
        e[0, 0, 0] = 10.0
        # sigma chosen so eps = 5 for N = 4
        sigma = 5.0 / math.sqrt(3)
        out = project_noise(e, sigma, 0.0)
        assert np.isclose(np.linalg.norm(out), 5.0)
        assert np.allclose(out, e / 2.0)

    def test_interior_fixed_point(self):
        e = np.zeros((1, 2, 2))
        e[0, 0, 0] = 3.0
        sigma = 5.0 / math.sqrt(3)
        assert np.array_equal(project_noise(e, sigma, 0.0), e)

    def test_radius_formula(self):
        # sigma 15, gamma 0, N = 4 -> eps = 15 sqrt(3)
        e = np.ones((1, 2, 2)) * 1000.0
        out = project_noise(e, 15.0, 0.0)
        assert np.isclose(np.linalg.norm(out), 15.0 * math.sqrt(3))

    @given(st.integers(0, 2 ** 32 - 1), st.floats(0.1, 30.0))
    @settings(max_examples=30, deadline=None)
    def test_norm_bound_and_direction(self, seed, sigma):
        e = rng(seed).normal(size=(4, 4, 3)) * 10
        out = project_noise(e, sigma, 0.3)
        eps = math.exp(0.3) * sigma * math.sqrt(e.size - 1)
        assert np.linalg.norm(out) <= eps + 1e-9
        scale = np.linalg.norm(out) / np.linalg.norm(e)
        assert np.allclose(out, scale * e, atol=1e-9)

    def test_radius_linear_in_sigma(self):
        e = rng(1).normal(size=(4, 4, 3)) * 1e4
        norms = [np.linalg.norm(project_noise(e, s, 0.1)) / s for s in (1.0, 5.0, 25.0)]
        assert np.allclose(norms, norms[0])

    def test_gamma_gradient_zero_inside_ball(self):
        e = np.full((2, 2, 3), 0.01)
        g = np.ones_like(e)
        _, g_gamma, g_sigma = project_noise_backward(g, e, 100.0, 0.0)
        assert g_gamma == 0.0 and g_sigma == 0.0


class TestInit:
    def test_block_count(self):
        p = init_resdnet(5, seed=0, num_filters=8)
        assert len(p.blocks) == 10

    def test_same_seed_identical(self):
        a = init_resdnet(2, seed=7, num_filters=8).flatten()
        b = init_resdnet(2, seed=7, num_filters=8).flatten()
        for k in a:
            assert np.array_equal(a[k], b[k])

    def test_init_matches_plain_he(self):
        # scales equal centered-filter norms, so v = u - mean(u) at init
        p = init_resdnet(1, seed=3, num_filters=8)
        v = materialize_weights(p.head.u, p.head.s)
        centered = p.head.u - p.head.u.mean(axis=(1, 2, 3), keepdims=True)
        assert np.allclose(v, centered, atol=1e-12)

    def test_kappa_and_gamma_defaults(self):
        p = init_resdnet(1, seed=0, num_filters=4)
        assert np.all(p.blocks[0].kappa == 0.25)
        assert p.gamma == 0.0

    def test_bad_depth(self):
        with pytest.raises(ValueError):
            init_resdnet(0, seed=0)


class TestDerivedDepth:
    """The depth is read from the blocks, so a model's blocks, its forward
    pass and its model file cannot disagree about it."""

    def test_extended_blocks_set_the_depth(self, tmp_path):
        p = init_resdnet(1, seed=3, num_filters=4)
        p.blocks = p.blocks + init_resdnet(1, seed=4, num_filters=4).blocks
        assert p.depth == 2
        _, cache = resdnet_forward(rng(8).uniform(0, 255, size=(6, 6, 3)), 5.0, p)
        assert len(cache.block_pre) == 4
        save_model(p, tmp_path / "d.rdnc")
        back = load_model(tmp_path / "d.rdnc")
        assert back.depth == 2
        a, b = p.flatten(), back.flatten()
        assert list(a) == list(b)
        for k in a:
            assert np.array_equal(np.float32(a[k]), np.float32(b[k])), k

    @pytest.mark.parametrize("header_depth", [1, 2])
    def test_odd_block_count_is_rejected(self, tmp_path, header_depth):
        p = init_resdnet(2, seed=5, num_filters=4)
        p.blocks = p.blocks[:3]  # block00-block02, no partner for block02
        path = tmp_path / "odd.rdnc"
        save_model(p, path)
        raw = bytearray(path.read_bytes())
        struct.pack_into("<I", raw, 8, header_depth)
        struct.pack_into("<I", raw, len(raw) - 4, zlib.crc32(raw[:-4]))
        path.write_bytes(bytes(raw))
        with pytest.raises(ModelFormatError, match="block03"):
            load_model(path)

    def test_from_flat_needs_block_pairs(self):
        flat = init_resdnet(2, seed=5, num_filters=4).flatten()
        odd = {k: v for k, v in flat.items() if not k.startswith("block03.")}
        with pytest.raises(KeyError, match="block03.u"):
            ResDNetParams.from_flat(odd)
        assert ResDNetParams.from_flat(flat).depth == 2


class TestParameterCount:
    def test_paper_configuration_total(self):
        groups = parameter_breakdown(depth=5, num_filters=64, steps=10)
        assert groups["denoiser_total"] == 380356

    def test_breakdown_sums(self):
        groups = parameter_breakdown(depth=5, num_filters=64, steps=10)
        parts = (
            groups["head.u"] + groups["head.s"] + groups["head.bias"]
            + groups["blocks.total"]
            + groups["tail.u"] + groups["tail.s"] + groups["tail.bias"]
            + groups["gamma"]
        )
        assert parts == groups["denoiser_total"]
        assert groups["total_with_schedule"] == groups["denoiser_total"] + 20

    def test_matches_instantiated_network(self):
        p = init_resdnet(2, seed=0, num_filters=8)
        actual = sum(np.asarray(v).size for v in p.flatten().values())
        assert actual == parameter_breakdown(depth=2, num_filters=8)["denoiser_total"]


class TestForward:
    def test_zero_tail_passes_input_through(self):
        p = init_resdnet(1, seed=0, num_filters=8)
        p.tail = replace(p.tail, s=np.zeros_like(p.tail.s))
        x = rng(2).uniform(10, 240, size=(8, 8, 3))
        out, cache = resdnet_forward(x, 5.0, p)
        assert np.allclose(out, np.clip(x, 0, 255))
        assert np.allclose(cache.residual, 0.0)

    def test_output_range(self):
        p = init_resdnet(1, seed=1, num_filters=8)
        x = rng(3).uniform(-50, 300, size=(8, 8, 3))
        out, _ = resdnet_forward(x, 10.0, p)
        assert out.min() >= 0.0 and out.max() <= 255.0

    def test_projection_bound_on_residual(self):
        p = init_resdnet(1, seed=4, num_filters=8)
        sigma = 3.0
        x = rng(5).uniform(0, 255, size=(8, 8, 3))
        out, cache = resdnet_forward(x, sigma, p)
        eps = math.exp(p.gamma) * sigma * math.sqrt(x.size - 1)
        assert np.linalg.norm(x - cache.pre_clip) <= eps + 1e-9

    def test_deterministic(self):
        p = init_resdnet(1, seed=6, num_filters=8)
        x = rng(7).uniform(0, 255, size=(8, 8, 3))
        a, _ = resdnet_forward(x, 4.0, p)
        b, _ = resdnet_forward(x, 4.0, p)
        assert np.array_equal(a, b)

    def test_wrong_channels(self):
        p = init_resdnet(1, seed=0, num_filters=8)
        with pytest.raises(Exception):
            resdnet_forward(np.zeros((8, 8, 2)), 1.0, p)


class TestLocalMapAndGlobalStep:
    """``resdnet_forward`` is ``residual`` followed by the projection,
    subtraction and clip, and ``residual_backward`` is the adjoint of
    ``residual``; each on both projection branches."""

    @staticmethod
    def net():
        return init_resdnet(2, seed=21, num_filters=4), rng(22).uniform(20, 235, size=(8, 8, 3))

    @pytest.mark.parametrize("sigma,projected", [(2.0, True), (1e4, False)])
    def test_forward_is_residual_then_global_step(self, sigma, projected):
        p, x = self.net()
        out, cache = resdnet_forward(x, sigma, p)
        r, block_pre, tail_in = residual(x, p)
        eps = math.exp(p.gamma) * sigma * math.sqrt(x.size - 1)
        assert (np.linalg.norm(r) > eps) == projected
        pre = x - project_noise(r, sigma, p.gamma)
        want = {"out": np.clip(pre, 0.0, 255.0), "x": x, "residual": r, "pre_clip": pre,
                "tail_in": tail_in, **{f"block_pre{i}": a for i, a in enumerate(block_pre)}}
        got = {"out": out, "x": cache.x, "residual": cache.residual, "pre_clip": cache.pre_clip,
               "tail_in": cache.tail_in,
               **{f"block_pre{i}": a for i, a in enumerate(cache.block_pre)}}
        assert got.keys() == want.keys() and cache.sigma == sigma
        for name, a in want.items():
            assert got[name].tobytes() == a.tobytes(), name

    @pytest.mark.parametrize("sigma", [2.0, 1e4])
    def test_residual_backward_matches_finite_differences(self, sigma):
        p, x = self.net()
        c = rng(23).uniform(-1, 1, size=x.shape)
        g_x, grads = residual_backward(c, resdnet_forward(x, sigma, p)[1], p)

        def loss(xin, params):
            return float((c * residual(xin, params)[0]).sum())

        def block01_materialized_as(w):
            blk = replace(p.blocks[1])
            blk.__dict__["bank"] = FilterBank(w, blk.bias)  # in place of the cached one
            return replace(p, blocks=[p.blocks[0], blk, *p.blocks[2:]])

        w = p.blocks[1].bank.weights.copy()
        assert max_rel_error(g_x, numerical_gradient(lambda a: loss(a, p), x.copy())) < 1e-4
        numeric = numerical_gradient(lambda a: loss(x, block01_materialized_as(a)), w)
        assert max_rel_error(grads["block01.weights"], numeric) < 1e-4


class TestBackward:
    def test_finite_difference_projected_branch(self):
        errs = check_resdnet(seed=0)
        for name, err in errs.items():
            assert err < 1e-4, f"{name}: {err}"

    def test_finite_difference_interior_branch(self):
        errs = check_resdnet(seed=0, interior=True)
        for name, err in errs.items():
            assert err < 1e-4, f"{name}: {err}"

    def test_zero_grad_out(self):
        p = init_resdnet(1, seed=8, num_filters=8)
        x = rng(9).uniform(20, 230, size=(8, 8, 3))
        _, cache = resdnet_forward(x, 5.0, p)
        g_x, grads, g_sigma = resdnet_backward(np.zeros_like(x), cache, p)
        assert np.all(g_x == 0.0) and g_sigma == 0.0
        assert all(np.all(np.asarray(g) == 0.0) for g in grads.values())

    def test_recomputed_activations_equal_forward_ones(self, monkeypatch):
        """The backward pass recomputes each PReLU output from the cached
        input; each must equal, bit for bit, the one the forward pass fed
        to that block's conv2d."""
        p = init_resdnet(2, seed=11, num_filters=6)
        p.blocks = [replace(blk, kappa=rng(12 + i).uniform(-0.5, 0.5, size=6))
                    for i, blk in enumerate(p.blocks)]
        x = rng(16).uniform(0, 255, size=(9, 7, 3))
        acts, fed, grad_fed = [], [], []

        def recording(store, fn):
            def wrapper(*args):
                out = fn(*args)
                store.append((args, out))
                return out
            return wrapper

        monkeypatch.setattr(resdnet, "prelu", recording(acts, resdnet.prelu))
        monkeypatch.setattr(resdnet, "conv2d", recording(fed, resdnet.conv2d))
        monkeypatch.setattr(resdnet, "conv2d_backward",
                            recording(grad_fed, resdnet.conv2d_backward))
        _, cache = resdnet_forward(x, 5.0, p)
        forward_acts = [out for _, out in acts]
        block_inputs = [args[0] for args, _ in fed[1:]]  # fed[0] is the head
        assert all(a is b for a, b in zip(block_inputs, forward_acts, strict=True))
        acts.clear()
        resdnet_backward(rng(17).normal(size=x.shape), cache, p)
        recomputed = [out for _, out in acts]
        block_inputs = [args[1] for args, _ in grad_fed[:-1]]  # grad_fed[-1] is the head
        assert all(a is b for a, b in zip(block_inputs, recomputed, strict=True))
        assert len(recomputed) == len(forward_acts) == 2 * p.depth
        for want, got in zip(forward_acts, reversed(recomputed)):
            assert np.array_equal(want.view(np.int64), got.view(np.int64))

    def test_gradients_are_bitwise_at_any_cpu_count(self, cpus):
        """Every convolution of a paper-width block (F=64, 48x48) splits at 2
        CPUs, and the whole backward pass, all of its splits composed,
        returns the bits of the one-CPU run."""
        p = init_resdnet(1, seed=18, num_filters=64)
        x = rng(19).uniform(0, 255, size=(48, 48, 3))
        g = rng(20).normal(size=x.shape)
        cpus(1)
        _, cache = resdnet_forward(x, 10.0, p)
        want_x, want, want_sigma = resdnet_backward(g, cache, p)
        pool = cpus(2)
        before = pool.tasks
        got_x, got, got_sigma = resdnet_backward(g, cache, p)
        assert pool.tasks > before
        assert np.array_equal(got_x.view(np.int64), want_x.view(np.int64))
        assert np.asarray(got_sigma).view(np.int64) == np.asarray(want_sigma).view(np.int64)
        assert got.keys() == want.keys()
        for name, a in got.items():
            assert np.array_equal(np.asarray(a).view(np.int64),
                                  np.asarray(want[name]).view(np.int64)), name

    def test_prelu_kappa_grad_zero_for_positive_input(self):
        from demosaick.tensor_core import prelu_backward

        x = np.abs(rng(10).normal(size=(4, 4, 2))) + 0.1
        _, gk = prelu_backward(np.ones_like(x), x, np.array([0.25, 0.25]))
        assert np.all(gk == 0.0)
