import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from demosaick.cascade import CascadeParams, init_schedule
from demosaick.datagen import make_dataset, synthetic_image
from demosaick.modelfile import load_model, save_model
from demosaick.pnm import write_image
from demosaick.resdnet import ResDNetParams, init_resdnet

ROOT = Path(__file__).resolve().parents[1]


def _no_data(*args, **kwargs):
    raise AssertionError("the script made data before checking its inputs")


# the ids keep these checks' names from when each phase had a script of its own
@pytest.mark.parametrize("phase", [pytest.param(["pretrain"], id="run_pretrain-args0"),
                                   pytest.param(["joint", "--init", "missing.rdnc"],
                                                id="run_joint-args1")])
@pytest.mark.parametrize("flag,value,key", [("--epochs", "0", "'epochs'"),
                                            ("--steps-per-epoch", "-3", "'steps_per_epoch'"),
                                            ("--data-seed", "-1", "--data-seed"),
                                            ("--images", "1", "--images")])
def test_experiment_script_checks_its_config(load, monkeypatch, capsys, phase, flag, value, key):
    """Both phases of the experiment script build their configs through
    ``TrainConfig.from_dict``, check ``--data-seed`` with
    ``datagen.check_seed`` and need two ``--images``: a value they reject is a
    usage error (exit 2) naming the key or flag, before any data is made or
    model read."""
    module = load("scripts/experiment.py")
    monkeypatch.setattr(module, "make_dataset", _no_data)
    with pytest.raises(SystemExit) as exc:
        module.main([*phase, flag, value])
    assert exc.value.code == 2
    assert key in capsys.readouterr().err


@pytest.mark.parametrize("content", [None, b"", b"RDNC\x02\x00"], ids=["missing", "empty", "truncated"])
def test_run_joint_checks_its_init_file(load, monkeypatch, capsys, tmp_path, content):
    """A missing or malformed ``--init`` file is a usage error (exit 2)
    naming the flag, before any data is made."""
    init = tmp_path / "denoiser.rdnc"
    if content is not None:
        init.write_bytes(content)
    module = load("scripts/experiment.py")
    monkeypatch.setattr(module, "make_dataset", _no_data)
    with pytest.raises(SystemExit) as exc:
        module.main(["joint", "--init", str(init)])
    assert exc.value.code == 2
    assert "--init" in capsys.readouterr().err


def test_run_joint_trains_the_denoiser_of_a_cascade_init(load, tmp_path):
    """A cascade file given to ``--init`` trains from its denoiser, as
    ``demosaick train --model`` does."""
    denoiser = init_resdnet(1, 0, 4)
    save_model(denoiser, tmp_path / "denoiser.rdnc")
    save_model(CascadeParams(denoiser, *init_schedule(3, 15.0, 1.0)), tmp_path / "cascade.rdnc")
    for name in ("denoiser", "cascade"):
        load("scripts/experiment.py").main([
            "joint", "--init", str(tmp_path / f"{name}.rdnc"),
            "--out", str(tmp_path / f"{name}_out.rdnc"),
            "--log", str(tmp_path / f"{name}_log.csv"), "--images", "2", "--epochs", "1",
            "--steps-per-epoch", "1", "--cascade-steps", "1"])
    assert (tmp_path / "denoiser_out.rdnc").read_bytes() == (tmp_path / "cascade_out.rdnc").read_bytes()


def test_pretrain_writes_a_loadable_denoiser(load, tmp_path):
    """A tiny pretraining run returns a finite held-out gain and writes a
    denoiser file of the depth and filter count asked for."""
    out = tmp_path / "denoiser.rdnc"
    measured = load("scripts/experiment.py").main([
        "pretrain", "--out", str(out), "--log", str(tmp_path / "log.csv"), "--images", "2",
        "--epochs", "1", "--steps-per-epoch", "1", "--depth", "1", "--filters", "4"])
    assert set(measured) == {"train_s", "gain_db"} and math.isfinite(measured["gain_db"])
    denoiser = load_model(out)
    assert isinstance(denoiser, ResDNetParams)
    assert (denoiser.depth, denoiser.head.u.shape[0]) == (1, 4)


@pytest.mark.parametrize("argv", [["experiment.py", "pretrain"], ["experiment.py", "joint"],
                                  ["make_dataset.py"]], ids=" ".join)
def test_script_runs_as_a_program(argv):
    """Each script starts as a program: ``--help`` exits 0."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run([sys.executable, str(ROOT / "scripts" / argv[0]), *argv[1:], "--help"],
                          env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("usage:")


@pytest.mark.parametrize("flag,value", [("--count", "0"), ("--count", "-2"),
                                        ("--size", "8"), ("--size", "11"), ("--seed", "-1")])
def test_make_dataset_rejects_empty_or_too_small_sets(load, capsys, tmp_path, flag, value):
    """A count below 1, a size below the synthetic images' minimum or a
    seed whose image keys are not Philox keys is a usage error (exit 2)
    naming the flag, before the directory is made."""
    out = tmp_path / "images"
    with pytest.raises(SystemExit) as exc:
        load("scripts/make_dataset.py").main([str(out), flag, value])
    assert exc.value.code == 2
    assert flag in capsys.readouterr().err
    assert not out.exists()


def test_make_dataset_writes_the_smallest_images(load, tmp_path):
    out = tmp_path / "images"
    load("scripts/make_dataset.py").main([str(out), "--count", "2", "--size", "12"])
    for name, image in make_dataset(2, 7, 12, 12):
        write_image(tmp_path / name, image)
        assert (out / name).read_bytes() == (tmp_path / name).read_bytes()


@pytest.mark.parametrize("height,width", [(11, 64), (64, 1), (0, 0)])
def test_synthetic_image_names_its_minimum_size(height, width):
    with pytest.raises(ValueError, match="at least 12 px high and 2 px wide"):
        synthetic_image(0, height, width)
