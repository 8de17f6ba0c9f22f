"""The training-config contract, as a property: whatever value a config
file gives any of up to three keys, either ``TrainConfig.from_dict``
raises a ``ValueError`` that names a key it was given, or
``pretrain_denoiser`` and then ``train_joint`` log finite rows (see
``_finite_rows``) or raise ``FloatingPointError``. Unless a drawn key
says otherwise, each runs one step at D=1, F=2, batch 1 on 16-px images,
logging and checkpointing under the test's ``tmp_path``.

Each key's values are drawn as valid (from a small range, so that a run
takes milliseconds) or as an edge value (see ``value``), as a config file
can give them.
"""
import math
from dataclasses import fields

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from demosaick.cfa import PATTERN_NAMES
from demosaick.datagen import make_dataset
from demosaick.training import SIGMA_FLOOR, TrainConfig, pretrain_denoiser, train_joint

IMAGES = make_dataset(3, seed=5, height=16, width=16)
BASE = {"patch_size": 16, "batch_size": 1, "epochs": 1, "steps_per_epoch": 1,
        "steps": 1, "depth": 1, "num_filters": 2, "log_path": "log.csv",
        "checkpoint_every": 1, "checkpoint_path": "ckpt.rdnc"}
TINY = 5e-324  # the smallest positive float

VALID = {
    "patch_size": st.integers(1, 16), "batch_size": st.integers(1, 2),
    "epochs": st.integers(1, 2), "steps_per_epoch": st.integers(1, 2),
    "steps": st.integers(1, 2), "depth": st.integers(1, 2), "num_filters": st.integers(1, 2),
    "lr_decay_every": st.integers(0, 2), "checkpoint_every": st.integers(0, 2),
    "seed": st.integers(0, 2 ** 128 - 2),
    "lr": st.floats(TINY, 1.0), "weight_decay": st.floats(0.0, 1.0),
    "sigma_lo": st.floats(0.0, 50.0), "sigma_hi": st.floats(SIGMA_FLOOR, 50.0),
    "sigma_max": st.floats(TINY, 50.0), "sigma_min": st.floats(TINY, 50.0),
    "train_sigma": st.floats(0.0, 50.0),
    "pattern": st.sampled_from(PATTERN_NAMES),
    "log_path": st.sampled_from(["", "log.csv"]),
    "checkpoint_path": st.sampled_from(["", "ckpt.rdnc"]),
}
KINDS = {f.name: f.type for f in fields(TrainConfig) if f.name != "phase"}
assert set(VALID) == set(KINDS)

ZERO_MINIMUM = ("lr_decay_every", "checkpoint_every", "seed")  # every other int key: 1
WRONG_TYPE = {"int": st.sampled_from([1.5, "1", True]),
              "float": st.sampled_from(["1.0", False]),
              "str": st.sampled_from([1, 2.5, True])}


def value(key):
    """A valid value of ``key`` or one of its edge values: a boundary (each
    minimum and the value just below it; a float minimum of 0 may be
    exclusive, as for ``lr``, so the smallest positive float too), a
    negative, a non-finite, an integer beyond float range or a wrong-type
    value."""
    kind = KINDS[key]
    low = 0 if key in ZERO_MINIMUM else 1
    edges = {"int": [st.sampled_from([low, low - 1]), st.integers(-(2 ** 130), -1)],
             "float": [st.sampled_from([0.0, -TINY, TINY, 10 ** 400, -10 ** 400]),
                       st.floats(-1e300, -TINY)],
             "str": [st.just("")]}[kind]
    edges += [WRONG_TYPE[kind], st.sampled_from([math.nan, math.inf, -math.inf])]
    if key == "seed":
        edges.append(st.sampled_from([2 ** 128 - 2, 2 ** 128 - 1]))
    return st.one_of(VALID[key], st.one_of(*edges))


VALUES = {key: value(key) for key in KINDS}
CONFIGS = st.lists(st.sampled_from(sorted(KINDS)), max_size=3, unique=True).flatmap(
    lambda keys: st.fixed_dictionaries({k: VALUES[k] for k in keys}))


def _finite_rows(rows, epochs):
    """Finite steps, rates and losses, and one finite validation PSNR per
    epoch. A sigma_hi below SIGMA_FLOOR, whose noise could round away and
    validate at +inf, is rejected."""
    assert all(np.isfinite([step, lr, loss]).all() for step, lr, loss, _ in rows)
    validation = [val for *_, val in rows if not np.isnan(val)]
    assert len(validation) == epochs and np.isfinite(validation).all()


@settings(derandomize=True, max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(drawn=CONFIGS)
def test_config_value_is_rejected_by_key_or_trains(tmp_path, drawn):
    values = {**BASE, **drawn}
    for key in ("log_path", "checkpoint_path"):
        if isinstance(values.get(key), str) and values[key]:
            values[key] = str(tmp_path / values[key])
    try:
        cfg = TrainConfig.from_dict(values)
    except ValueError as err:
        assert any(repr(key) in str(err) for key in drawn), str(err)
        return
    try:
        den, rows = pretrain_denoiser(IMAGES, cfg)
        _finite_rows(rows, cfg.epochs)
        cas, rows = train_joint(IMAGES, den, cfg)
        _finite_rows(rows, cfg.epochs)
    except FloatingPointError:
        return
    assert cas.steps == cfg.steps and cas.denoiser.depth == cfg.depth
