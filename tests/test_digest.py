import pytest


@pytest.mark.parametrize("part", ["init", "params", "cli_denoise", "train", "desk"])
def test_digest_repeats_within_one_process(load, part):
    """The desk-scale digests of ``scripts/digest.py`` print the same lines
    on a second run; the gradcheck and paper-scale parts are left to the
    script itself."""
    digest = load("scripts/digest.py")
    first = getattr(digest, part)()
    assert first == getattr(digest, part)()
    assert len({name for name, _ in first}) == len(first)
    assert all(len(sha) == 64 for _, sha in first)
