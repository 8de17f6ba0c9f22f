import numpy as np
import pytest

from demosaick.cascade import init_schedule
from demosaick.datagen import make_dataset
from demosaick.resdnet import ResDNetParams, init_resdnet
from demosaick.tensor_core import ShapeError
from demosaick.training import (
    AdamState,
    TrainConfig,
    adam_step,
    center_crop,
    loss,
    pretrain_denoiser,
    sample_patches,
    split_dataset,
    train_joint,
)


def rng(seed=0):
    return np.random.Generator(np.random.Philox(key=seed))


class TestLoss:
    def test_l1_example(self):
        pred = np.array([3.0, -4.0])
        value, grad = loss(pred, np.zeros(2), "l1")
        assert value == 3.5
        assert np.array_equal(grad, [0.5, -0.5])

    def test_mse_example(self):
        pred = np.array([3.0, -4.0])
        value, grad = loss(pred, np.zeros(2), "mse")
        assert value == 12.5
        assert np.array_equal(grad, [3.0, -4.0])

    def test_l1_grad_entries(self):
        gen = rng(1)
        pred = gen.normal(size=(4, 4, 3))
        target = gen.normal(size=(4, 4, 3))
        _, grad = loss(pred, target, "l1")
        assert set(np.round(grad * pred.size, 12).ravel()) <= {-1.0, 0.0, 1.0}

    def test_zero_at_match(self):
        x = rng(2).normal(size=(3, 3))
        for kind in ("l1", "mse"):
            value, grad = loss(x, x, kind)
            assert value == 0.0 and np.all(grad == 0.0)

    def test_bad_inputs(self):
        with pytest.raises(ShapeError):
            loss(np.zeros(2), np.zeros(3), "l1")
        with pytest.raises(ValueError):
            loss(np.zeros(2), np.zeros(2), "huber")


class TestAdam:
    def test_zero_grad_identity(self):
        params = {"a": rng(3).normal(size=(4,))}
        state = AdamState.for_params(params)
        out = adam_step(params, {"a": np.zeros(4)}, state, lr=0.1)
        assert np.array_equal(out["a"], params["a"])

    def test_first_step_magnitude(self):
        # with bias correction the first update is ~lr * sign(grad)
        params = {"a": np.zeros(3)}
        grads = {"a": np.array([1.0, -2.0, 0.5])}
        state = AdamState.for_params(params)
        out = adam_step(params, grads, state, lr=0.01)
        assert np.allclose(out["a"], [-0.01, 0.01, -0.01], atol=1e-7)

    def test_weight_decay_pulls_to_zero(self):
        params = {"a": np.array([10.0])}
        state = AdamState.for_params(params)
        out = adam_step(params, {"a": np.zeros(1)}, state, lr=0.1, weight_decay=1.0)
        assert out["a"][0] < 10.0

    def test_deterministic(self):
        def run():
            params = {"a": np.linspace(-1, 1, 5)}
            state = AdamState.for_params(params)
            for t in range(10):
                grads = {"a": np.sin(params["a"] + t)}
                params = adam_step(params, grads, state, lr=0.05)
            return params["a"]

        assert np.array_equal(run(), run())


class TestDataPipeline:
    def test_split_ratio(self):
        items = [(f"im{i:02d}", np.zeros((8, 8, 3))) for i in range(10)]
        train, val = split_dataset(items)
        assert len(train) == 8 and len(val) == 2
        assert [n for n, _ in val] == ["im08", "im09"]

    def test_split_sorted_by_name(self):
        items = [("b", np.zeros((4, 4, 3))), ("a", np.zeros((4, 4, 3))),
                 ("c", np.zeros((4, 4, 3)))]
        train, val = split_dataset(items)
        assert [n for n, _ in train] == ["a", "b"]
        assert [n for n, _ in val] == ["c"]

    def test_split_empty(self):
        with pytest.raises(ValueError):
            split_dataset([])

    def test_sample_shapes_and_determinism(self):
        images = make_dataset(4, seed=1, height=40, width=40)
        a = sample_patches(images, 6, 16, rng(5))
        b = sample_patches(images, 6, 16, rng(5))
        assert len(a) == 6
        assert all(p.shape == (16, 16, 3) for p in a)
        assert all(np.array_equal(x, y) for x, y in zip(a, b))

    def test_sample_skips_small_images(self):
        images = [("small", np.zeros((4, 4, 3))), ("big", np.ones((32, 32, 3)))]
        with pytest.warns(UserWarning):
            patches = sample_patches(images, 8, 16, rng(6))
        assert all(np.all(p == 1.0) for p in patches)

    def test_sample_all_too_small(self):
        with pytest.raises(ValueError), pytest.warns(UserWarning):
            sample_patches([("s", np.zeros((4, 4, 3)))], 2, 16, rng(7))

    def test_center_crop(self):
        img = np.arange(36, dtype=float).reshape(6, 6, 1)
        crop = center_crop(img, 2)
        assert np.array_equal(crop[:, :, 0], [[14, 15], [20, 21]])


class TestConfig:
    def test_from_dict_roundtrip(self):
        cfg = TrainConfig.from_dict({"lr": 0.5, "epochs": 3})
        assert cfg.lr == 0.5 and cfg.epochs == 3
        assert cfg.patch_size == 32

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError):
            TrainConfig.from_dict({"learning_rate": 0.5})


SMOKE = TrainConfig(
    patch_size=16,
    batch_size=2,
    epochs=1,
    steps_per_epoch=3,
    lr=1e-3,
    depth=1,
    num_filters=4,
    steps=2,
    seed=0,
)


class TestPretrain:
    def test_zero_epochs_returns_init(self):
        cfg = TrainConfig(**{**SMOKE.__dict__, "epochs": 0})
        images = make_dataset(6, seed=2, height=32, width=32)
        params, rows = pretrain_denoiser(images, cfg)
        init = init_resdnet(cfg.depth, cfg.seed, cfg.num_filters)
        a, b = params.flatten(), init.flatten()
        assert all(np.array_equal(a[k], b[k]) for k in a)
        assert rows == []

    def test_smoke_updates_and_logs(self):
        images = make_dataset(6, seed=3, height=32, width=32)
        params, rows = pretrain_denoiser(images, SMOKE)
        init = init_resdnet(SMOKE.depth, SMOKE.seed, SMOKE.num_filters)
        assert not np.array_equal(params.flatten()["head.u"], init.flatten()["head.u"])
        # 3 training rows + 1 validation row
        assert len(rows) == 4
        assert np.isfinite(rows[-1][3])

    def test_deterministic(self):
        images = make_dataset(6, seed=4, height=32, width=32)
        a, _ = pretrain_denoiser(images, SMOKE)
        b, _ = pretrain_denoiser(images, SMOKE)
        fa, fb = a.flatten(), b.flatten()
        assert all(np.array_equal(fa[k], fb[k]) for k in fa)

    def test_checkpoint_written(self, tmp_path):
        from demosaick.modelfile import load_model

        images = make_dataset(6, seed=7, height=32, width=32)
        cfg = TrainConfig(**{
            **SMOKE.__dict__,
            "checkpoint_every": 2,
            "checkpoint_path": str(tmp_path / "ckpt.rdnc"),
        })
        pretrain_denoiser(images, cfg)
        ckpt = load_model(tmp_path / "ckpt.rdnc")
        assert isinstance(ckpt, ResDNetParams)
        assert ckpt.depth == cfg.depth


class TestJoint:
    def test_smoke_trains_schedule(self):
        images = make_dataset(6, seed=5, height=32, width=32)
        init = init_resdnet(SMOKE.depth, SMOKE.seed, SMOKE.num_filters)
        params, rows = train_joint(images, init, SMOKE)
        w0, s0 = init_schedule(SMOKE.steps, SMOKE.sigma_max, SMOKE.sigma_min)
        # extrapolation weights and noise schedule receive gradient too
        assert not np.array_equal(params.sigmas, s0)
        assert np.all(params.sigmas >= 1e-3)
        assert len(rows) == 4
        assert np.isfinite(rows[-1][3])

    def test_log_csv_written(self, tmp_path):
        images = make_dataset(6, seed=6, height=32, width=32)
        cfg = TrainConfig(**{**SMOKE.__dict__, "log_path": str(tmp_path / "log.csv")})
        init = init_resdnet(cfg.depth, cfg.seed, cfg.num_filters)
        train_joint(images, init, cfg)
        text = (tmp_path / "log.csv").read_text().splitlines()
        assert text[0] == "step,lr,loss,val_psnr"
        assert len(text) == 5

    def test_checkpoint_written(self, tmp_path):
        from demosaick.modelfile import load_model

        images = make_dataset(6, seed=7, height=32, width=32)
        cfg = TrainConfig(**{
            **SMOKE.__dict__,
            "checkpoint_every": 2,
            "checkpoint_path": str(tmp_path / "ckpt.rdnc"),
        })
        init = init_resdnet(cfg.depth, cfg.seed, cfg.num_filters)
        train_joint(images, init, cfg)
        ckpt = load_model(tmp_path / "ckpt.rdnc")
        assert ckpt.steps == cfg.steps
