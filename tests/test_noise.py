import numpy as np
import pytest

from demosaick.noise import HETEROSCEDASTIC, IID_GAUSSIAN, NoiseSpec, add_noise


def test_sigma_zero_identity():
    x = np.random.default_rng(0).uniform(0, 255, size=(8, 8, 3))
    out = add_noise(x, NoiseSpec(kind=IID_GAUSSIAN, sigma=0.0, seed=5))
    assert np.array_equal(out, x)


def test_same_seed_identical():
    x = np.full((16, 16, 3), 100.0)
    spec = NoiseSpec(kind=IID_GAUSSIAN, sigma=7.0, seed=42)
    assert np.array_equal(add_noise(x, spec), add_noise(x, spec))


def test_different_seed_differs():
    x = np.full((8, 8, 3), 100.0)
    a = add_noise(x, NoiseSpec(sigma=7.0, seed=1))
    b = add_noise(x, NoiseSpec(sigma=7.0, seed=2))
    assert not np.array_equal(a, b)


def test_iid_empirical_std():
    x = np.full((1000, 1000, 1), 128.0)  # 10^6 samples
    out = add_noise(x, NoiseSpec(sigma=15.0, seed=7))
    std = (out - x).std()
    assert 14.95 <= std <= 15.05


def test_iid_empirical_mean():
    n = 10 ** 6
    x = np.full((1000, 1000, 1), 50.0)
    out = add_noise(x, NoiseSpec(sigma=15.0, seed=8))
    assert abs((out - x).mean()) < 3 * 15.0 / np.sqrt(n)


def test_heteroscedastic_variance():
    for level in (10.0, 100.0):
        x = np.full((1000, 1000, 1), level)
        spec = NoiseSpec(kind=HETEROSCEDASTIC, a_shot=0.5, b_read=4.0, seed=9)
        var = (add_noise(x, spec) - x).var()
        expected = 0.5 * level + 4.0
        assert abs(var - expected) / expected < 0.01


def test_heteroscedastic_rejects_negative_intensity():
    with pytest.raises(ValueError):
        add_noise(np.full((2, 2, 1), -1.0), NoiseSpec(kind=HETEROSCEDASTIC, a_shot=1.0))


def test_invalid_spec():
    with pytest.raises(ValueError):
        NoiseSpec(kind="poisson")
    with pytest.raises(ValueError):
        NoiseSpec(sigma=-1.0)


@pytest.mark.parametrize("field", ["sigma", "a_shot", "b_read"])
@pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
def test_non_finite_level_is_rejected_by_name(field, value):
    with pytest.raises(ValueError, match=f"noise {field} must be finite"):
        NoiseSpec(kind=HETEROSCEDASTIC, **{field: value})


@pytest.mark.parametrize("seed", [-1, 2 ** 128])
def test_seed_outside_a_philox_key_is_rejected_by_name(seed):
    with pytest.raises(ValueError, match="noise seed"):
        NoiseSpec(sigma=1.0, seed=seed)
    NoiseSpec(seed=2 ** 128 - 1)


def test_output_not_clipped():
    x = np.zeros((100, 100, 1))
    out = add_noise(x, NoiseSpec(sigma=20.0, seed=3))
    assert (out < 0).any()
