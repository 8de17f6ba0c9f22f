import importlib.util
from pathlib import Path

import pytest

from demosaick.datagen import make_dataset, synthetic_image
from demosaick.pnm import write_image

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("script,args", [("run_pretrain", []),
                                         ("run_joint", ["--init", "missing.rdnc"])])
@pytest.mark.parametrize("flag,value,key", [("--epochs", "0", "'epochs'"),
                                            ("--steps-per-epoch", "-3", "'steps_per_epoch'")])
def test_experiment_script_checks_its_config(capsys, script, args, flag, value, key):
    """The experiment scripts build their configs through
    ``TrainConfig.from_dict``: a value it rejects is a usage error (exit 2)
    naming the key, before any data is made or model read."""
    with pytest.raises(SystemExit) as exc:
        _load(script).main([*args, flag, value])
    assert exc.value.code == 2
    assert key in capsys.readouterr().err


@pytest.mark.parametrize("flag,value", [("--count", "0"), ("--count", "-2"),
                                        ("--size", "8"), ("--size", "11"), ("--seed", "-1")])
def test_make_dataset_rejects_empty_or_too_small_sets(capsys, tmp_path, flag, value):
    """A count below 1, a size below the synthetic images' minimum or a
    seed whose image keys are not Philox keys is a usage error (exit 2)
    naming the flag, before the directory is made."""
    out = tmp_path / "images"
    with pytest.raises(SystemExit) as exc:
        _load("make_dataset").main([str(out), flag, value])
    assert exc.value.code == 2
    assert flag in capsys.readouterr().err
    assert not out.exists()


def test_make_dataset_writes_the_smallest_images(tmp_path):
    out = tmp_path / "images"
    _load("make_dataset").main([str(out), "--count", "2", "--size", "12"])
    for name, image in make_dataset(2, 7, 12, 12):
        write_image(tmp_path / name, image)
        assert (out / name).read_bytes() == (tmp_path / name).read_bytes()


@pytest.mark.parametrize("height,width", [(11, 64), (64, 1), (0, 0)])
def test_synthetic_image_names_its_minimum_size(height, width):
    with pytest.raises(ValueError, match="at least 12 px high and 2 px wide"):
        synthetic_image(0, height, width)
