from dataclasses import replace

import numpy as np
import pytest

from demosaick.cascade import (
    CascadeParams,
    demosaick,
    demosaick_backward,
    demosaick_forward,
    init_schedule,
)
from demosaick.cfa import CfaPattern, MosaicObservation, data_consistency, make_pattern, mosaic
from demosaick import resdnet
from demosaick.gradcheck import check_cascade
from demosaick.resdnet import init_resdnet, resdnet_forward


def rng(seed=0):
    return np.random.Generator(np.random.Philox(key=seed))


class TestInitSchedule:
    def test_extrapolation_weights_k10(self):
        w, _ = init_schedule(10, 15.0, 1.0)
        expected = [0, 1 / 4, 2 / 5, 1 / 2, 4 / 7, 5 / 8, 2 / 3, 7 / 10, 8 / 11, 3 / 4]
        assert np.allclose(w, expected, atol=0, rtol=0)

    def test_sigma_endpoints(self):
        _, sigmas = init_schedule(10, 15.0, 1.0)
        assert sigmas[0] == 15.0
        assert np.isclose(sigmas[-1], 1.0, atol=1e-12)

    def test_sigma_second_value_geometric(self):
        _, sigmas = init_schedule(10, 15.0, 1.0)
        # frozen from the geometric-progression formula 15 * 15^(-1/9)
        assert np.isclose(sigmas[1], 15.0 * 15.0 ** (-1.0 / 9.0))
        assert np.isclose(sigmas[1], 11.10233819, atol=1e-7)

    def test_k1_single_sigma(self):
        w, sigmas = init_schedule(1, 12.0, 1.0)
        assert w.tolist() == [0.0]
        assert sigmas.tolist() == [12.0]

    def test_log_spacing_property(self):
        _, sigmas = init_schedule(7, 20.0, 2.0)
        ratios = sigmas[1:] / sigmas[:-1]
        assert np.allclose(ratios, ratios[0])

    def test_invalid_ranges(self):
        with pytest.raises(ValueError):
            init_schedule(0, 15.0, 1.0)
        with pytest.raises(ValueError):
            init_schedule(5, 1.0, 15.0)
        with pytest.raises(ValueError):
            init_schedule(5, 15.0, 0.0)


def _small_cascade(steps=3, seed=0, shift_w=0.0):
    den = init_resdnet(1, seed=seed, num_filters=8)
    w, sigmas = init_schedule(steps, 15.0, 1.0)
    return CascadeParams(denoiser=den, w=w + shift_w, sigmas=sigmas)


class TestForward:
    def test_single_step_matches_denoiser(self):
        cp = _small_cascade(steps=1, seed=1)
        clean = rng(2).uniform(0, 255, size=(8, 8, 3))
        y = mosaic(clean, make_pattern("bayer_rggb"))
        est, _ = demosaick_forward(y, cp)
        # w_1 = 0 so u = x^(1) = y.data and the step denoises (I-M)u + y
        direct, _ = resdnet_forward(data_consistency(y.data, y), float(cp.sigmas[0]), cp.denoiser)
        assert np.array_equal(est, direct)

    def test_identity_denoiser_keeps_samples(self):
        cp = _small_cascade(steps=4, seed=3)
        cp.denoiser.tail = replace(cp.denoiser.tail, s=np.zeros_like(cp.denoiser.tail.s))
        clean = rng(4).uniform(10, 240, size=(8, 8, 3))
        y = mosaic(clean, make_pattern("bayer_rggb"))
        est, traj = demosaick_forward(y, cp)
        m = y.pattern.mask(8, 8)
        assert np.allclose(est[m > 0], clean[m > 0])
        for state in traj.states[2:]:
            assert np.allclose(state[m > 0], clean[m > 0])

    def test_trajectory_lengths(self):
        cp = _small_cascade(steps=3)
        y = mosaic(rng(5).uniform(0, 255, size=(8, 8, 3)), make_pattern("bayer_rggb"))
        est, traj = demosaick_forward(y, cp)
        assert len(traj.states) == 5  # K + 2
        assert len(traj.caches) == 3
        assert np.array_equal(traj.states[-1], est)

    def test_output_range(self):
        cp = _small_cascade(steps=3, seed=6)
        y = mosaic(rng(7).uniform(0, 255, size=(12, 12, 3)), make_pattern("xtrans"))
        est, _ = demosaick_forward(y, cp)
        assert est.min() >= 0.0 and est.max() <= 255.0

    def test_deterministic(self):
        cp = _small_cascade(steps=2, seed=8)
        y = mosaic(rng(9).uniform(0, 255, size=(8, 8, 3)), make_pattern("bayer_rggb"))
        a, _ = demosaick_forward(y, cp)
        b, _ = demosaick_forward(y, cp)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("pattern,h,w", [("bayer_rggb", 8, 8), ("xtrans", 13, 7),
                                             ("bayer_gbrg", 2, 3)])
    def test_inference_equals_forward_bitwise(self, pattern, h, w):
        cp = _small_cascade(steps=4, seed=14, shift_w=0.1)
        y = mosaic(rng(15).uniform(0, 255, size=(h, w, 3)), make_pattern(pattern))
        assert np.array_equal(demosaick(y, cp).view(np.int64),
                              demosaick_forward(y, cp)[0].view(np.int64))


class TestBackward:
    def test_finite_difference_bptt(self):
        errs = check_cascade(seed=0, steps=3)
        for name, err in errs.items():
            assert err < 1e-4, f"{name}: {err}"

    def test_first_weight_gradient_uses_observation(self):
        cp = _small_cascade(steps=2, seed=10, shift_w=0.2)
        clean = rng(11).uniform(20, 230, size=(8, 8, 3))
        y = mosaic(clean, make_pattern("bayer_rggb"))
        est, traj = demosaick_forward(y, cp)
        # x^(1) - x^(0) = y.data by initialization
        assert np.array_equal(traj.states[1] - traj.states[0], y.data)

    def test_zero_grad(self):
        cp = _small_cascade(steps=2, seed=12)
        y = mosaic(rng(13).uniform(20, 230, size=(8, 8, 3)), make_pattern("bayer_rggb"))
        _, traj = demosaick_forward(y, cp)
        grads = demosaick_backward(np.zeros((8, 8, 3)), traj, cp)
        assert all(np.all(np.asarray(g) == 0.0) for g in grads.values())


class TestSharedFilters:
    """A parameter set materializes the shared filters once, not per step
    or per pass."""

    @staticmethod
    def _setup(depth=2, steps=3):
        den = init_resdnet(depth, seed=14, num_filters=4)
        w, sigmas = init_schedule(steps, 15.0, 1.0)
        cp = CascadeParams(denoiser=den, w=w + 0.1, sigmas=sigmas)
        y = mosaic(rng(15).uniform(20, 230, size=(10, 12, 3)), make_pattern("xtrans"))
        return cp, y

    def test_materialized_once_per_pass(self, monkeypatch):
        cp, y = self._setup()
        calls = {"forward": 0, "backward": 0}

        def counting(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)
            return wrapper

        monkeypatch.setattr(resdnet, "materialize_weights",
                            counting("forward", resdnet.materialize_weights))
        monkeypatch.setattr(resdnet, "materialize_weights_backward",
                            counting("backward", resdnet.materialize_weights_backward))
        n_banks = 2 * cp.denoiser.depth + 2
        _, traj = demosaick_forward(y, cp)
        assert calls == {"forward": n_banks, "backward": 0}
        demosaick_backward(np.ones((10, 12, 3)), traj, cp)
        assert calls == {"forward": n_banks, "backward": n_banks}

    def test_backward_equals_sum_of_step_gradients(self):
        cp, y = self._setup()
        _, traj = demosaick_forward(y, cp)
        grad = rng(16).normal(size=(10, 12, 3))
        got = demosaick_backward(grad, traj, cp)

        # the BPTT sweep with each step's gradients taken through the
        # materialization on its own, then summed
        keep = 1.0 - y.pattern.mask(10, 12)
        want = {k: np.zeros_like(v) for k, v in cp.denoiser.flatten().items()}
        g_cur, g_prev = grad, np.zeros_like(grad)
        for i in reversed(range(cp.steps)):
            g_z, step, _ = resdnet.resdnet_backward(g_cur, traj.caches[i], cp.denoiser)
            for k, v in resdnet.filter_grads(step, cp.denoiser).items():
                want[k] += v
            g_u = keep * g_z
            g_cur, g_prev = g_prev + (1.0 + cp.w[i]) * g_u, -cp.w[i] * g_u
        assert set(got) == set(want) | {"cascade.w", "cascade.sigmas"}
        for k, v in want.items():
            assert np.abs(got[k] - v).max() <= 1e-12 * np.abs(v).max(), k


def test_mask_built_once_per_observation(monkeypatch):
    """A forward plus backward pass builds the observation's CFA mask at
    most once, and gives the same result as rebuilding it on every read."""
    cp = _small_cascade(steps=4, seed=17, shift_w=0.1)
    pattern = make_pattern("xtrans")
    data = rng(18).uniform(0, 255, size=(12, 10, 3)) * pattern.mask(12, 10)
    grad = rng(19).normal(size=data.shape)

    def run():
        est, traj = demosaick_forward(MosaicObservation(data, pattern, 5.0), cp)
        return [est, *demosaick_backward(grad, traj, cp).values()]

    with monkeypatch.context() as m:
        m.setattr(MosaicObservation, "mask",
                  property(lambda y: y.pattern.mask(*y.data.shape[:2])))
        want = run()

    calls = []
    build = CfaPattern.mask

    def counting(self, height, width):
        calls.append((height, width))
        return build(self, height, width)

    monkeypatch.setattr(CfaPattern, "mask", counting)
    got = run()
    assert len(calls) <= 1
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert np.array_equal(np.asarray(a).view(np.int64), np.asarray(b).view(np.int64))
