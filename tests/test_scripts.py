import pytest

from demosaick.cascade import CascadeParams, init_schedule
from demosaick.datagen import make_dataset, synthetic_image
from demosaick.modelfile import save_model
from demosaick.pnm import write_image
from demosaick.resdnet import init_resdnet


def _no_data(*args, **kwargs):
    raise AssertionError("the script made data before checking its inputs")


@pytest.mark.parametrize("script,args", [("run_pretrain", []),
                                         ("run_joint", ["--init", "missing.rdnc"])])
@pytest.mark.parametrize("flag,value,key", [("--epochs", "0", "'epochs'"),
                                            ("--steps-per-epoch", "-3", "'steps_per_epoch'"),
                                            ("--data-seed", "-1", "--data-seed"),
                                            ("--images", "1", "--images")])
def test_experiment_script_checks_its_config(load, monkeypatch, capsys, script, args, flag,
                                             value, key):
    """The experiment scripts build their configs through
    ``TrainConfig.from_dict``, check ``--data-seed`` with
    ``datagen.check_seed`` and need two ``--images``: a value they reject is a
    usage error (exit 2) naming the key or flag, before any data is made or
    model read."""
    module = load(f"scripts/{script}.py")
    monkeypatch.setattr(module, "make_dataset", _no_data)
    with pytest.raises(SystemExit) as exc:
        module.main([*args, flag, value])
    assert exc.value.code == 2
    assert key in capsys.readouterr().err


@pytest.mark.parametrize("content", [None, b"", b"RDNC\x02\x00"], ids=["missing", "empty", "truncated"])
def test_run_joint_checks_its_init_file(load, monkeypatch, capsys, tmp_path, content):
    """A missing or malformed ``--init`` file is a usage error (exit 2)
    naming the flag, before any data is made."""
    init = tmp_path / "denoiser.rdnc"
    if content is not None:
        init.write_bytes(content)
    module = load("scripts/run_joint.py")
    monkeypatch.setattr(module, "make_dataset", _no_data)
    with pytest.raises(SystemExit) as exc:
        module.main(["--init", str(init)])
    assert exc.value.code == 2
    assert "--init" in capsys.readouterr().err


def test_run_joint_trains_the_denoiser_of_a_cascade_init(load, tmp_path):
    """A cascade file given to ``--init`` trains from its denoiser, as
    ``demosaick train --model`` does."""
    denoiser = init_resdnet(1, 0, 4)
    save_model(denoiser, tmp_path / "denoiser.rdnc")
    save_model(CascadeParams(denoiser, *init_schedule(3, 15.0, 1.0)), tmp_path / "cascade.rdnc")
    for name in ("denoiser", "cascade"):
        load("scripts/run_joint.py").main([
            "--init", str(tmp_path / f"{name}.rdnc"), "--out", str(tmp_path / f"{name}_out.rdnc"),
            "--log", str(tmp_path / f"{name}_log.csv"), "--images", "2", "--epochs", "1",
            "--steps-per-epoch", "1", "--cascade-steps", "1"])
    assert (tmp_path / "denoiser_out.rdnc").read_bytes() == (tmp_path / "cascade_out.rdnc").read_bytes()


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
