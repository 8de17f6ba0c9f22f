import numpy as np
import pytest

from demosaick import resdnet
from demosaick.cascade import init_schedule
from demosaick.cli import main
from demosaick.datagen import make_dataset
from demosaick.pnm import write_image
from demosaick.resdnet import ResDNetParams, init_resdnet
from demosaick.tensor_core import ShapeError
from demosaick.training import (
    SIGMA_FLOOR,
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
        train, val = split_dataset(items, 8)
        assert len(train) == 8 and len(val) == 2
        assert [n for n, _ in val] == ["im08", "im09"]

    def test_split_sorted_by_name(self):
        items = [("b", np.zeros((4, 4, 3))), ("a", np.zeros((4, 4, 3))),
                 ("c", np.zeros((4, 4, 3)))]
        train, val = split_dataset(items, 4)
        assert [n for n, _ in train] == ["a", "b"]
        assert [n for n, _ in val] == ["c"]

    def test_split_empty(self):
        with pytest.raises(ValueError):
            split_dataset([], 1)

    def test_one_image_dataset_is_rejected(self, tmp_path, capsys):
        """One image leaves nothing to train on once one is held out to
        validate: the split says so, and so does ``pretrain --data``."""
        with pytest.raises(ValueError, match="one to train on and one to validate on"):
            split_dataset([("a", np.zeros((4, 4, 3)))], 4)
        write_image(tmp_path / "only.ppm", make_dataset(1, seed=1, height=32, width=32)[0][1])
        assert main(["pretrain", "--data", str(tmp_path)]) == 2
        assert "one to train on and one to validate on" in capsys.readouterr().err

    def test_sample_shapes_and_determinism(self):
        images = make_dataset(4, seed=1, height=40, width=40)
        a = sample_patches(images, 6, 16, rng(5))
        b = sample_patches(images, 6, 16, rng(5))
        assert len(a) == 6
        assert all(p.shape == (16, 16, 3) for p in a)
        assert all(np.array_equal(x, y) for x, y in zip(a, b))

    def test_split_drops_small_images(self):
        items = [("big1", np.ones((32, 16, 3))), ("small", np.zeros((15, 32, 3))),
                 ("big0", np.ones((16, 16, 3))), ("tiny", np.zeros((4, 4, 3)))]
        with pytest.warns(UserWarning, match="2 image.* smaller than the 16x16 patch: small, tiny"):
            train, val = split_dataset(items, 16)
        assert [n for n, _ in train] == ["big0"] and [n for n, _ in val] == ["big1"]

    def test_split_all_too_small(self):
        items = [("a", np.zeros((4, 4, 3))), ("b", np.zeros((40, 40, 3)))]
        with pytest.raises(ValueError, match="two images of at least 16x16 px.*got 1"), \
                pytest.warns(UserWarning, match="smaller than the 16x16 patch: a"):
            split_dataset(items, 16)

    def test_split_never_validates_on_a_small_image(self):
        """An image smaller than the patch, last by name, is not held out:
        its centre crop would be smaller than the patch."""
        items = [*make_dataset(4, seed=1, height=40, width=40),
                 ("zz.ppm", make_dataset(1, seed=2, height=20, width=20)[0][1])]
        with pytest.warns(UserWarning, match="zz.ppm"):
            train, val = split_dataset(items, 32)
        assert [n for n, _ in train] == [n for n, _ in items[:3]]
        assert [n for n, _ in val] == [items[3][0]]

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

    @pytest.mark.parametrize("key", ["lr", "weight_decay", "sigma_lo", "sigma_hi",
                                     "sigma_max", "sigma_min", "train_sigma"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_float_rejected(self, key, value):
        with pytest.raises(ValueError, match=repr(key)):
            TrainConfig.from_dict({key: value})

    @pytest.mark.parametrize("key", ["weight_decay", "sigma_lo", "train_sigma"])
    def test_negative_noise_level_or_decay_rejected(self, key):
        assert getattr(TrainConfig.from_dict({key: 0.0}), key) == 0.0
        with pytest.raises(ValueError, match=repr(key)):
            TrainConfig.from_dict({key: -1e-9})

    @pytest.mark.parametrize("value", [0.0, -0.0, -1e-9, 5e-324, SIGMA_FLOOR * 0.999])
    def test_pretraining_noise_level_must_be_positive(self, value):
        """At sigma_hi = 0 every pretraining patch is noise-free: the
        projection radius is 0, so every gradient is 0 and nothing trains.
        At the smallest positive float, 5e-324, the noise rounds away and
        the same holds, so sigma_hi must be at least SIGMA_FLOOR."""
        assert TrainConfig.from_dict({"sigma_hi": SIGMA_FLOOR}).sigma_hi == SIGMA_FLOOR
        with pytest.raises(ValueError, match=f"'sigma_hi' must be at least {SIGMA_FLOOR}"):
            TrainConfig.from_dict({"sigma_hi": value})


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


@pytest.mark.parametrize("phase", ["pretrain", "joint"])
def test_nan_validation_score_is_a_numeric_failure(phase):
    """A NaN learning rate makes every parameter NaN after the first Adam
    step; the epoch's NaN validation PSNR raises rather than keeping that
    model as the best one."""
    cfg = TrainConfig(patch_size=16, batch_size=1, epochs=1, steps_per_epoch=1,
                      lr=float("nan"), depth=1, num_filters=4, steps=2)
    images = make_dataset(5, seed=9, height=24, width=24)
    with pytest.raises(FloatingPointError, match="epoch 1"), np.errstate(invalid="ignore"):
        if phase == "pretrain":
            pretrain_denoiser(images, cfg)
        else:
            train_joint(images, init_resdnet(cfg.depth, cfg.seed, cfg.num_filters), cfg)


@pytest.mark.parametrize("phase", ["pretrain", "joint"])
def test_filters_materialized_once_per_parameter_set(phase, monkeypatch):
    """Each parameter set the loop visits, the initial one and one per Adam
    step, materializes its 2D + 2 filter banks once: every patch of the
    batch and the validation pass share them."""
    cfg = TrainConfig(**{**SMOKE.__dict__, "epochs": 2})
    images = make_dataset(6, seed=8, height=32, width=32)
    calls = []
    build = resdnet.materialize_weights

    def counting(u, s):
        calls.append(1)
        return build(u, s)

    monkeypatch.setattr(resdnet, "materialize_weights", counting)
    if phase == "pretrain":
        pretrain_denoiser(images, cfg)
    else:
        train_joint(images, init_resdnet(cfg.depth, cfg.seed, cfg.num_filters), cfg)
    assert len(calls) == (2 * cfg.depth + 2) * (cfg.epochs * cfg.steps_per_epoch + 1)
