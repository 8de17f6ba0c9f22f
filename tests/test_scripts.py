import importlib.util
from pathlib import Path

import pytest

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
