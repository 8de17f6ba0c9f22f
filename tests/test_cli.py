from pathlib import Path

import numpy as np
import pytest

from demosaick import gradcheck as gc
from demosaick.cascade import CascadeParams, init_schedule
from demosaick.cfa import make_pattern, mosaic
from demosaick.cli import _eval_pairs, _read_observation, main
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
        assert values == {"lr": 0.01, "epochs": 3, "pattern": "bayer_gbrg", "flag": "true"}

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

    @pytest.mark.parametrize("kind", ["iid_gaussian", "heteroscedastic"])
    @pytest.mark.parametrize("flag,value", [
        ("--sigma", "inf"), ("--sigma", "nan"), ("--a-shot", "inf"), ("--a-shot", "nan"),
        ("--b-read", "inf"), ("--b-read", "nan"), ("--seed", "-1"), ("--seed", str(2 ** 128)),
    ])
    def test_bad_noise_flag_is_data_error_naming_it(self, clean_ppm, tmp_path, capsys,
                                                     kind, flag, value):
        """A non-finite noise level, or a seed outside a Philox key's
        [0, 2**128), is rejected before any noise is drawn."""
        path, _ = clean_ppm
        out = tmp_path / "obs.npy"
        assert main(["mosaic", str(path), "--noise-kind", kind, f"{flag}={value}",
                     "--out", str(out)]) == 2
        assert flag in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("line", ["noise.sigma = inf", "noise.a_shot = nan",
                                      "noise.b_read = -1.0", "noise.seed = -1"])
    def test_bad_noise_key_is_data_error_naming_it(self, clean_ppm, tmp_path, capsys, line):
        """A config key overrides its flag, so the message names the key."""
        path, _ = clean_ppm
        cfg = tmp_path / "n.cfg"
        cfg.write_text(f"noise.kind = heteroscedastic\n{line}\n")
        assert main(["mosaic", str(path), "--config", str(cfg), "--sigma", "1",
                     "--out", str(tmp_path / "obs.npy")]) == 2
        assert line.split(" ")[0] + ":" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["mosaic", "pretrain"])
    @pytest.mark.parametrize("line", ["noise.sigma = true", "noise.seed = 1.9",
                                      "noise.sigmaa = 5"])
    def test_noise_key_of_wrong_type_or_name_is_data_error(self, clean_ppm, tmp_path,
                                                           capsys, command, line):
        """Every command that reads the config checks its noise keys: a
        value of the wrong type is not cast, and an unknown key is not
        ignored."""
        path, _ = clean_ppm
        cfg = tmp_path / "n.cfg"
        cfg.write_text(f"{line}\n")
        args = [str(path)] if command == "mosaic" else ["--data", str(tmp_path)]
        out = tmp_path / "out"
        assert main([command, *args, "--config", str(cfg), "--out", str(out)]) == 2
        assert line.split(" ")[0] in capsys.readouterr().err
        assert not out.exists()


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

    def test_denoise_rejects_infinite_sigma(self, clean_ppm, cascade_model, tmp_path, capsys):
        """An infinite noise level would make the projection radius infinite,
        so the residual would never be projected."""
        path, _ = clean_ppm
        out = tmp_path / "den.npy"
        assert main(["denoise", str(path), "--model", str(cascade_model), "--sigma", "inf",
                     "--out", str(out)]) == 2
        assert "--sigma" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("suffix", [".pgm", ".npy"])
    @pytest.mark.parametrize("command", ["bilinear", "demosaick"])
    def test_one_channel_raw_mosaic(self, clean_ppm, cascade_model, tmp_path, command, suffix):
        """A one-channel raw mosaic reconstructs exactly like the
        3-channel observation it stands for."""
        _, img = clean_ppm
        obs = mosaic(img, make_pattern("bayer_rggb")).data
        raw, full = tmp_path / f"raw{suffix}", tmp_path / "full.npy"
        write_image(raw, obs.sum(axis=2, keepdims=True))
        np.save(full, obs)
        model = ["--model", str(cascade_model)] if command == "demosaick" else []
        ests = []
        for path in (raw, full):
            out = tmp_path / f"est_{path.stem}.npy"
            assert main([command, str(path), *model, "--out", str(out)]) == 0
            ests.append(read_image(out))
        assert np.array_equal(ests[0], ests[1])

    @pytest.mark.parametrize("channels", [3, 1])
    def test_one_mask_per_observation(self, tmp_path, mask_calls, channels):
        """Reading an observation and its mask builds the CFA mask once; a
        one-channel raw mosaic is broadcast to 3 masked channels."""
        data = rng(7).uniform(0, 255, size=(6, 8, channels))
        path = tmp_path / "obs.npy"
        np.save(path, data)
        obs = _read_observation(path, "xtrans")
        assert np.array_equal(obs.data, data * obs.mask)
        assert mask_calls == [(6, 8)]

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

    # Images smaller than the 5x5 head kernel pad by as much as or more than
    # their size (several mirror rounds; a 1-px axis replicates). Bilinear
    # needs a sample of every channel inside its widest window.
    @pytest.mark.parametrize("pattern,no_samples", [
        ("bayer_rggb", {(1, 1), (1, 6), (6, 1)}),
        ("xtrans", {(1, 1)}),
    ])
    def test_tiny_and_odd_images(self, cascade_model, tmp_path, capsys, pattern, no_samples):
        for h, w in [(1, 1), (1, 6), (6, 1), (2, 2), (2, 3), (3, 5), (7, 2)]:
            obs = tmp_path / f"obs_{h}x{w}.npy"
            np.save(obs, mosaic(rng(h * 10 + w).uniform(0, 255, size=(h, w, 3)),
                                make_pattern(pattern)).data)
            out = tmp_path / f"est_{h}x{w}.npy"
            assert main(["demosaick", str(obs), "--pattern", pattern, "--model",
                         str(cascade_model), "--out", str(out)]) == 0, (h, w)
            est = np.load(out)
            assert est.shape == (h, w, 3)
            assert np.all(np.isfinite(est)) and est.min() >= 0.0 and est.max() <= 255.0
            capsys.readouterr()
            code = main(["bilinear", str(obs), "--pattern", pattern, "--out", str(out)])
            if (h, w) in no_samples:
                assert code == 2, (h, w)
                assert "channel has no samples to interpolate from" in capsys.readouterr().err
            else:
                assert code == 0, (h, w)

    # An empty axis cannot be mirror-padded: a data error, not a hang.
    def test_empty_images_are_data_errors(self, cascade_model, tmp_path, capsys):
        paths = []
        for h, w in [(0, 4), (4, 0)]:
            paths.append(tmp_path / f"empty_{h}x{w}.npy")
            np.save(paths[-1], np.zeros((h, w)))
        paths.append(tmp_path / "empty.pgm")
        paths[-1].write_bytes(b"P5\n0 4\n255\n")
        for path in paths:
            for argv in (["demosaick", str(path), "--model", str(cascade_model)],
                         ["bilinear", str(path)]):
                capsys.readouterr()
                assert main(argv + ["--out", str(tmp_path / "est.npy")]) == 2, argv
                assert "cannot reflect-pad an empty axis" in capsys.readouterr().err

    def test_non_finite_input_is_numeric_failure(self, tmp_path):
        obs = tmp_path / "nan.npy"
        data = np.zeros((8, 8, 3))
        data[0, 0, 0] = np.nan
        np.save(obs, data)
        assert main(["bilinear", str(obs)]) == 3

    @pytest.mark.parametrize("array,message", [
        (np.zeros(16), "shape (16,)"),
        (np.zeros((4, 4, 3), dtype=complex), "dtype complex128"),
        (np.zeros((4, 4, 2)), "shape (4, 4, 2)"),
        (np.zeros((4, 4, 3, 1)), "shape (4, 4, 3, 1)"),
    ])
    def test_npy_needs_image_shape_and_real_dtype(self, tmp_path, capsys, array, message):
        obs = tmp_path / "obs.npy"
        np.save(obs, array)
        assert main(["bilinear", str(obs), "--out", str(tmp_path / "est.npy")]) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("damage", ["empty", "header", "npz"])
    def test_malformed_npy_is_data_error(self, tmp_path, capsys, damage):
        """An empty .npy file, one whose header dict lost its closing
        parenthesis, and a .npz archive named .npy are data errors naming
        the file, not tracebacks."""
        obs, npz = tmp_path / "obs.npy", tmp_path / "obs.npz"
        np.save(obs, np.zeros((4, 4, 3)))
        np.savez(npz, obs=np.zeros((4, 4, 3)))
        damaged = {"empty": b"", "npz": npz.read_bytes(),
                   "header": obs.read_bytes().replace(b"(4, 4, 3)", b"(4, 4, 3 ")}
        obs.write_bytes(damaged[damage])
        assert main(["bilinear", str(obs), "--out", str(tmp_path / "est.npy")]) == 2
        assert f"data error: {obs}:" in capsys.readouterr().err


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

    def test_model_threads_match_serial(self, tmp_path, cpus):
        """Paper-width layers (F=64) split their convolutions into row
        bands while three images run at once; the scores are the serial
        run's. Each caller runs its own first band and no band submits
        work, so callers cannot deadlock the shared band pool."""
        d = tmp_path / "eval"
        d.mkdir()
        for i in range(3):
            img = np.round(rng(20 + i).uniform(0, 255, size=(48, 48, 3)))
            write_image(d / f"im{i}_truth.ppm", img)
            np.save(d / f"im{i}_input.npy", mosaic(img, make_pattern("bayer_rggb")).data)
        model = tmp_path / "model.rdnc"
        w, sigmas = init_schedule(2, 15.0, 1.0)
        save_model(CascadeParams(init_resdnet(1, seed=2, num_filters=64), w, sigmas), model)
        pool = cpus(2)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out, threads in ((a, "1"), (b, "3")):
            assert main(["eval", str(d), "--model", str(model), "--out", str(out),
                         "--threads", threads]) == 0
        assert pool.tasks > 0

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

    @pytest.mark.parametrize("method", ["bilinear", "model"])
    def test_empty_image_is_data_error(self, tmp_path, cascade_model, method):
        d = tmp_path / "empty"
        d.mkdir()
        (d / "x_truth.ppm").write_bytes(b"P6\n4 0\n255\n")
        np.save(d / "x_input.npy", np.zeros((0, 4)))
        assert main(["eval", str(d), "--method", method, "--model", str(cascade_model)]) == 2

    def test_overflowing_error_is_numeric_failure(self, tmp_path, capsys):
        d = tmp_path / "huge"
        d.mkdir()
        np.save(d / "x_truth.npy", np.zeros((6, 6, 3)))
        np.save(d / "x_input.npy", np.full((6, 6, 3), 1e200))
        assert main(["eval", str(d), "--method", "bilinear"]) == 3
        assert "mean squared error overflows" in capsys.readouterr().err

    def test_pairs_come_from_one_listing(self, tmp_path, monkeypatch):
        """Each truth file pairs with the first-sorted ``<base>_input.*``
        name of one directory listing, whatever the number of pairs."""
        d = tmp_path / "pairs"
        d.mkdir()
        for name in ("a_truth.ppm", "a_input.png", "a_input.npy", "a_input.x_truth.ppm",
                     "a_input.x_input.npy", "b_truth.ppm", "b_input.npy", "c_input.npy"):
            (d / name).touch()
        listings, iterdir = [], Path.iterdir
        monkeypatch.setattr(Path, "iterdir", lambda path: listings.append(path) or iterdir(path))
        assert [(base, truth.name, obs.name) for base, truth, obs in _eval_pairs(d)] == [
            ("a_input.x", "a_input.x_truth.ppm", "a_input.x_input.npy"),
            ("a", "a_truth.ppm", "a_input.npy"),
            ("b", "b_truth.ppm", "b_input.npy"),
        ]
        assert listings == [d]

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

    @pytest.mark.parametrize("depth_line", [pytest.param("", id="no-depth-key"),
                                            pytest.param("depth = 1\n", id="depth-1")])
    def test_train_takes_depth_from_model(self, data_dir, tmp_path, depth_line):
        """`train --model` keeps every block of the denoiser it is given,
        whatever the config says about depth."""
        den = tmp_path / "den.rdnc"
        save_model(init_resdnet(2, seed=3, num_filters=4), den)
        cfg = tmp_path / "train.cfg"
        cfg.write_text("patch_size = 16\nbatch_size = 1\nepochs = 1\nsteps_per_epoch = 1\n"
                       "steps = 2\n" + depth_line)
        cas = tmp_path / "cas.rdnc"
        assert main(["train", "--data", str(data_dir), "--config", str(cfg),
                     "--model", str(den), "--out", str(cas)]) == 0
        assert load_model(cas).denoiser.depth == 2

    @pytest.mark.parametrize("line", [
        "epochs = abc", "epochs = 1.5", "epochs = true", "lr = x", "pattern = 3",
        "batch_size = 0", "steps_per_epoch = -1", "patch_size = 0", "num_filters = 0",
        "lr_decay_every = -1", "checkpoint_every = -1",
        "lr = nan", "lr = inf", "train_sigma = -5.0", "sigma_lo = -1.0",
        "lr = 0.0", "lr = -1.0", "sigma_lo = 20.0", "seed = -1",
        "depth = 0", f"seed = {2 ** 128 - 1}", "steps = 0", "sigma_min = 0.0",
        "sigma_max = 0.5", "sigma_hi = 0.0", "sigma_hi = 5e-324", "pattern = foo",
        "checkpoint_every = 1", "checkpoint_path = ckpt.rdnc",
    ])
    def test_malformed_config_value_is_data_error(self, data_dir, train_cfg, tmp_path, capsys,
                                                  line):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(train_cfg.read_text() + line + "\n")
        out = tmp_path / "never.rdnc"
        assert main(["pretrain", "--data", str(data_dir), "--config", str(cfg),
                     "--out", str(out)]) == 2
        assert repr(line.split()[0]) in capsys.readouterr().err
        assert not out.exists()

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

    @pytest.mark.parametrize("argv", [
        ["params", "--depth", "-1"],
        ["params", "--depth", "0"],
        ["params", "--filters", "-3"],
        ["params", "--steps", "0"],
        ["params", "--steps", "ten"],
        ["eval", "testset", "--method", "bilinear", "--threads", "0"],
        ["eval", "testset", "--method", "bilinear", "--threads", "-5"],
    ])
    def test_non_positive_size_is_usage_error(self, argv, capsys):
        assert main(argv) == 1
        assert "must be a positive integer" in capsys.readouterr().err

    @pytest.mark.parametrize("seed,code", [(-1, 2), (0, 0), (2 ** 128 - 2, 0), (2 ** 128 - 1, 2)])
    def test_gradcheck_seed_range(self, seed, code, capsys, monkeypatch):
        """``gradcheck --seed`` takes [0, 2^128 - 2], since its models are
        keyed with seed + 1; a seed outside is a data error naming the flag."""
        seeds = []
        monkeypatch.setattr(gc, "run_all", lambda seed: seeds.append(seed) or {})
        assert main(["gradcheck", "--seed", str(seed)]) == code
        assert seeds == ([seed] if code == 0 else [])
        if code:
            assert "--seed" in capsys.readouterr().err
