import numpy as np
import pytest

from demosaick.cascade import CascadeParams, init_schedule
from demosaick.cfa import make_pattern, mosaic
from demosaick.cli import main
from demosaick.config import parse_config_file
from demosaick.datagen import make_dataset
from demosaick.modelfile import load_model, save_model
from demosaick.pnm import read_image, write_image
from demosaick.resdnet import init_resdnet


def rng(seed=0):
    return np.random.Generator(np.random.Philox(key=seed))


@pytest.fixture
def clean_ppm(tmp_path):
    img = np.round(rng(1).uniform(0, 255, size=(8, 8, 3)))
    path = tmp_path / "clean.ppm"
    write_image(path, img)
    return path, img


@pytest.fixture
def cascade_model(tmp_path):
    den = init_resdnet(1, seed=2, num_filters=4)
    w, sigmas = init_schedule(2, 15.0, 1.0)
    path = tmp_path / "model.rdnc"
    save_model(CascadeParams(denoiser=den, w=w, sigmas=sigmas), path)
    return path


@pytest.fixture
def denoiser_model(tmp_path):
    path = tmp_path / "denoiser.rdnc"
    save_model(init_resdnet(1, seed=2, num_filters=4), path)
    return path


class TestConfigFile:
    def test_parse_types_and_comments(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text(
            "# header comment\n"
            "lr = 0.01\n"
            "epochs = 3  # inline\n"
            "pattern = bayer_gbrg\n"
            "flag = true\n"
            "\n"
        )
        values = parse_config_file(path)
        assert values == {"lr": 0.01, "epochs": 3, "pattern": "bayer_gbrg", "flag": True}

    def test_missing_equals(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("just words\n")
        with pytest.raises(ValueError):
            parse_config_file(path)


class TestMosaicCommand:
    def test_noise_free_roundtrip(self, clean_ppm, tmp_path):
        path, img = clean_ppm
        out = tmp_path / "obs.npy"
        assert main(["mosaic", str(path), "--out", str(out)]) == 0
        obs = read_image(out)
        expected = mosaic(img, make_pattern("bayer_rggb")).data
        assert np.array_equal(obs, expected)

    def test_noise_config_overrides_flags(self, clean_ppm, tmp_path):
        path, img = clean_ppm
        cfg = tmp_path / "n.cfg"
        cfg.write_text("noise.kind = iid_gaussian\nnoise.sigma = 5\nnoise.seed = 9\n")
        out = tmp_path / "obs.npy"
        assert main(["mosaic", str(path), "--config", str(cfg), "--out", str(out)]) == 0
        obs = read_image(out)
        clean_obs = mosaic(img, make_pattern("bayer_rggb")).data
        assert not np.array_equal(obs, clean_obs)

    def test_rejects_gray_input(self, tmp_path):
        path = tmp_path / "g.pgm"
        write_image(path, np.zeros((4, 4, 1)))
        assert main(["mosaic", str(path)]) == 2


class TestReconstructionCommands:
    def test_bilinear(self, clean_ppm, tmp_path):
        path, img = clean_ppm
        obs = tmp_path / "obs.npy"
        main(["mosaic", str(path), "--out", str(obs)])
        out = tmp_path / "est.ppm"
        assert main(["bilinear", str(obs), "--out", str(out)]) == 0
        est = read_image(out)
        assert est.shape == img.shape

    def test_demosaick_with_model(self, clean_ppm, cascade_model, tmp_path):
        path, _ = clean_ppm
        obs = tmp_path / "obs.npy"
        main(["mosaic", str(path), "--out", str(obs)])
        out = tmp_path / "est.npy"
        code = main(["demosaick", str(obs), "--model", str(cascade_model), "--out", str(out)])
        assert code == 0
        est = read_image(out)
        assert est.min() >= 0.0 and est.max() <= 255.0

    def test_denoiser_checkpoint_is_rejected(self, clean_ppm, denoiser_model, tmp_path, capsys):
        path, _ = clean_ppm
        obs = tmp_path / "obs.npy"
        main(["mosaic", str(path), "--out", str(obs)])
        assert main(["demosaick", str(obs), "--model", str(denoiser_model),
                     "--out", str(tmp_path / "est.ppm")]) == 2
        assert f"{denoiser_model} is a denoiser checkpoint" in capsys.readouterr().err
        # the denoiser alone still runs from such a file
        assert main(["denoise", str(path), "--model", str(denoiser_model), "--sigma", "5",
                     "--out", str(tmp_path / "den.npy")]) == 0

    def test_denoise(self, clean_ppm, cascade_model, tmp_path):
        path, _ = clean_ppm
        out = tmp_path / "den.npy"
        code = main(["denoise", str(path), "--model", str(cascade_model),
                     "--sigma", "5", "--out", str(out)])
        assert code == 0
        assert read_image(out).shape == (8, 8, 3)

    def test_missing_model_is_usage_error(self, clean_ppm):
        path, _ = clean_ppm
        assert main(["demosaick", str(path)]) == 1

    def test_denoise_without_model_is_usage_error(self, clean_ppm):
        path, _ = clean_ppm
        assert main(["denoise", str(path), "--sigma", "5"]) == 1

    def test_nonexistent_model_file(self, clean_ppm, tmp_path):
        path, _ = clean_ppm
        assert main(["demosaick", str(path), "--model", str(tmp_path / "no.rdnc")]) == 2

    def test_corrupt_model_file(self, clean_ppm, tmp_path):
        path, _ = clean_ppm
        bad = tmp_path / "bad.rdnc"
        bad.write_bytes(b"NOPE" + b"\x00" * 16)
        assert main(["demosaick", str(path), "--model", str(bad)]) == 2

    def test_non_finite_input_is_numeric_failure(self, tmp_path):
        obs = tmp_path / "nan.npy"
        data = np.zeros((8, 8, 3))
        data[0, 0, 0] = np.nan
        np.save(obs, data)
        assert main(["bilinear", str(obs)]) == 3


class TestEvalCommand:
    @pytest.fixture
    def eval_dir(self, tmp_path):
        d = tmp_path / "eval"
        d.mkdir()
        for i in range(3):
            img = np.round(rng(10 + i).uniform(0, 255, size=(8, 8, 3)))
            write_image(d / f"im{i}_truth.ppm", img)
            obs = mosaic(img, make_pattern("bayer_rggb")).data
            np.save(d / f"im{i}_input.npy", obs)
        return d

    def test_bilinear_table_and_csv(self, eval_dir, tmp_path, capsys):
        out = tmp_path / "scores.csv"
        code = main(["eval", str(eval_dir), "--method", "bilinear", "--out", str(out)])
        assert code == 0
        printed = capsys.readouterr().out
        assert "psnr_linrgb" in printed and "mean" in printed
        lines = out.read_text().splitlines()
        assert lines[0] == "image,psnr_linrgb,psnr_srgb,runtime_s"
        assert len(lines) == 5  # header + 3 images + mean

    def test_threads_match_serial(self, eval_dir, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["eval", str(eval_dir), "--method", "bilinear", "--out", str(a)])
        main(["eval", str(eval_dir), "--method", "bilinear", "--out", str(b), "--threads", "3"])

        def scores(path):
            return [line.rsplit(",", 1)[0] for line in path.read_text().splitlines()]

        assert scores(a) == scores(b)

    def test_model_method(self, eval_dir, cascade_model):
        assert main(["eval", str(eval_dir), "--model", str(cascade_model)]) == 0

    def test_model_method_without_model_is_usage_error(self, eval_dir):
        assert main(["eval", str(eval_dir)]) == 1
        assert main(["eval", str(eval_dir), "--method", "model"]) == 1

    def test_model_method_rejects_denoiser_checkpoint(self, eval_dir, denoiser_model, capsys):
        assert main(["eval", str(eval_dir), "--method", "model",
                     "--model", str(denoiser_model)]) == 2
        assert f"{denoiser_model} is a denoiser checkpoint" in capsys.readouterr().err

    def test_empty_directory(self, tmp_path):
        d = tmp_path / "empty"
        d.mkdir()
        assert main(["eval", str(d), "--method", "bilinear"]) == 2

    def test_missing_observation(self, tmp_path):
        d = tmp_path / "half"
        d.mkdir()
        write_image(d / "x_truth.ppm", np.zeros((4, 4, 3)))
        assert main(["eval", str(d), "--method", "bilinear"]) == 2


class TestTrainingCommands:
    @pytest.fixture
    def data_dir(self, tmp_path):
        d = tmp_path / "data"
        d.mkdir()
        for name, img in make_dataset(6, seed=4, height=32, width=32):
            write_image(d / name, img)
        return d

    @pytest.fixture
    def train_cfg(self, tmp_path):
        cfg = tmp_path / "train.cfg"
        cfg.write_text(
            "patch_size = 16\n"
            "batch_size = 2\n"
            "epochs = 1\n"
            "steps_per_epoch = 2\n"
            "lr = 0.001\n"
            "depth = 1\n"
            "num_filters = 4\n"
            "steps = 2\n"
        )
        return cfg

    def test_pretrain_then_train(self, data_dir, train_cfg, tmp_path):
        den = tmp_path / "den.rdnc"
        code = main(["pretrain", "--data", str(data_dir), "--config", str(train_cfg),
                     "--out", str(den)])
        assert code == 0
        assert load_model(den).depth == 1

        cas = tmp_path / "cas.rdnc"
        code = main(["train", "--data", str(data_dir), "--config", str(train_cfg),
                     "--model", str(den), "--out", str(cas)])
        assert code == 0
        assert load_model(cas).steps == 2

    def test_unknown_config_key(self, data_dir, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("learning_rate = 0.1\n")
        assert main(["pretrain", "--data", str(data_dir), "--config", str(cfg)]) == 2

    @pytest.mark.parametrize("command", ["pretrain", "train"])
    def test_phase_config_key_is_rejected(self, data_dir, train_cfg, tmp_path, capsys,
                                          command):
        cfg = tmp_path / "phase.cfg"
        cfg.write_text(train_cfg.read_text() + "phase = joint\n")
        out = tmp_path / "never.rdnc"
        assert main([command, "--data", str(data_dir), "--config", str(cfg),
                     "--out", str(out)]) == 2
        assert "subcommand" in capsys.readouterr().err
        assert not out.exists()


class TestMiscCommands:
    def test_params_reference_configuration(self, capsys):
        assert main(["params"]) == 0
        out = capsys.readouterr().out
        assert "380356" in out
        assert "deviation 0.0000%" in out

    def test_params_other_configuration(self, capsys):
        assert main(["params", "--depth", "1", "--filters", "4"]) == 0
        assert "denoiser_total" in capsys.readouterr().out

    def test_unknown_subcommand_is_usage_error(self, capsys):
        assert main(["frobnicate"]) == 1

    def test_missing_required_argument(self, capsys):
        assert main(["pretrain"]) == 1

    @pytest.mark.parametrize("argv", [
        ["gradcheck", "--pattern", "xtrans"],
        ["pretrain", "--data", "images", "--seed", "3"],
        ["params", "--threads", "2"],
        ["demosaick", "obs.npy", "--model", "cascade.rdnc", "--sigma", "5"],
    ])
    def test_flag_the_command_does_not_read_is_usage_error(self, argv, capsys):
        assert main(argv) == 1
        assert "unrecognized arguments" in capsys.readouterr().err
