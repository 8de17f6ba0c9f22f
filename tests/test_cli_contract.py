"""The CLI's float flags, as a property: whatever values ``mosaic`` gets
for ``--sigma``, ``--a-shot`` and ``--b-read``, or ``denoise`` for
``--sigma``, the command exits 0 with a finite output file, 2 with a
message naming a flag it was given, or 3 (a numeric failure). Each runs
on one 8x8 image; ``denoise`` runs a D=1, F=2 denoiser.

Values are drawn as valid (a small range), zero, negative, infinite, NaN
or huge, as a command line can give them.
"""
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from demosaick.cli import main
from demosaick.modelfile import save_model
from demosaick.pnm import read_image, write_image
from demosaick.resdnet import init_resdnet

TINY = 5e-324  # the smallest positive float
FLOATS = st.one_of(
    st.floats(0.0, 50.0),
    st.sampled_from([0.0, -0.0, -TINY, math.inf, -math.inf, math.nan, 1e308, -1e308]),
    st.floats(-1e300, -TINY),
    st.floats(1e150, 1e308),
)
MOSAIC_FLAGS = ("--sigma", "--a-shot", "--b-read")


def contract_settings(examples):
    return settings(derandomize=True, max_examples=examples, deadline=None,
                    suppress_health_check=[HealthCheck.function_scoped_fixture])


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    d = tmp_path_factory.mktemp("cli_contract")
    image, model = d / "clean.ppm", d / "denoiser.rdnc"
    write_image(image, np.round(np.random.default_rng(1).uniform(0, 255, size=(8, 8, 3))))
    save_model(init_resdnet(1, seed=2, num_filters=2), model)
    return image, model, d / "out.npy"


def _check_contract(argv, flags, out, capsys):
    """Run ``argv`` and check its exit code against the contract."""
    out.unlink(missing_ok=True)
    capsys.readouterr()
    code = main([*argv, "--out", str(out)])
    err = capsys.readouterr().err
    assert code in (0, 2, 3), (code, err)
    if code == 0:
        assert np.isfinite(read_image(out)).all()
    elif code == 2:
        assert any(flag in err for flag in flags), err


@contract_settings(200)
@given(kind=st.sampled_from(["iid_gaussian", "heteroscedastic"]),
       drawn=st.dictionaries(st.sampled_from(MOSAIC_FLAGS), FLOATS, min_size=1))
def test_mosaic_noise_flags_work_or_fail_by_contract(inputs, capsys, kind, drawn):
    image, _, out = inputs
    flags = [f"{flag}={value!r}" for flag, value in drawn.items()]
    _check_contract(["mosaic", str(image), "--noise-kind", kind, *flags], drawn, out, capsys)


@contract_settings(60)
@given(sigma=FLOATS)
def test_denoise_sigma_works_or_fails_by_contract(inputs, capsys, sigma):
    image, model, out = inputs
    _check_contract(["denoise", str(image), "--model", str(model), f"--sigma={sigma!r}"],
                    ["--sigma"], out, capsys)
