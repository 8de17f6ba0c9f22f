import importlib.util
from pathlib import Path

import pytest

DIGEST = Path(__file__).resolve().parents[1] / "scripts" / "digest.py"


@pytest.fixture(scope="module")
def digest():
    """``scripts/digest.py``, loaded from its file."""
    spec = importlib.util.spec_from_file_location("digest", DIGEST)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("part", ["init", "params", "cli_denoise", "train", "desk"])
def test_digest_repeats_within_one_process(digest, part):
    """The desk-scale digests print the same lines on a second run; the
    gradcheck and paper-scale parts are left to the script itself."""
    first = getattr(digest, part)()
    assert first == getattr(digest, part)()
    assert len({name for name, _ in first}) == len(first)
    assert all(len(sha) == 64 for _, sha in first)
