import struct

import numpy as np
import pytest

from demosaick.cascade import CascadeParams, init_schedule
from demosaick.modelfile import MAGIC, ModelFormatError, load_model, save_model
from demosaick.resdnet import ResDNetParams, init_resdnet


def small_cascade(seed=0, steps=3):
    den = init_resdnet(1, seed=seed, num_filters=4)
    w, sigmas = init_schedule(steps, 15.0, 1.0)
    return CascadeParams(denoiser=den, w=w, sigmas=sigmas)


def test_denoiser_roundtrip(tmp_path):
    params = init_resdnet(2, seed=1, num_filters=4)
    path = tmp_path / "d.rdnc"
    save_model(params, path)
    back = load_model(path)
    assert isinstance(back, ResDNetParams)
    assert back.depth == 2
    a, b = params.flatten(), back.flatten()
    assert set(a) == set(b)
    for k in a:
        assert np.array_equal(np.asarray(a[k], dtype=np.float32), np.asarray(b[k], dtype=np.float32))


def test_cascade_roundtrip(tmp_path):
    params = small_cascade(seed=2)
    path = tmp_path / "c.rdnc"
    save_model(params, path)
    back = load_model(path)
    assert isinstance(back, CascadeParams)
    assert back.steps == 3
    assert np.allclose(back.w, params.w, atol=1e-7)
    assert np.allclose(back.sigmas, params.sigmas, atol=1e-6)


def test_double_save_byte_identical(tmp_path):
    params = small_cascade(seed=3)
    p1, p2 = tmp_path / "a.rdnc", tmp_path / "b.rdnc"
    save_model(params, p1)
    save_model(load_model(p1), p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_header_fields(tmp_path):
    params = small_cascade(seed=4, steps=5)
    path = tmp_path / "h.rdnc"
    save_model(params, path)
    raw = path.read_bytes()
    assert raw[:4] == MAGIC
    version, depth, steps, count = struct.unpack_from("<IIII", raw, 4)
    assert (version, depth, steps) == (1, 1, 5)
    assert count == len(params.flatten())


def test_bad_magic(tmp_path):
    path = tmp_path / "bad.rdnc"
    path.write_bytes(b"XXXX" + b"\x00" * 16)
    with pytest.raises(ModelFormatError) as exc:
        load_model(path)
    assert exc.value.offset == 0


def test_bad_version(tmp_path):
    path = tmp_path / "v.rdnc"
    path.write_bytes(MAGIC + struct.pack("<IIII", 99, 1, 0, 0))
    with pytest.raises(ModelFormatError) as exc:
        load_model(path)
    assert exc.value.offset == 4


def test_truncated_payload(tmp_path):
    params = init_resdnet(1, seed=5, num_filters=4)
    path = tmp_path / "t.rdnc"
    save_model(params, path)
    raw = path.read_bytes()
    path.write_bytes(raw[:-10])
    with pytest.raises(ModelFormatError) as exc:
        load_model(path)
    assert exc.value.offset is not None


def test_depth_without_its_arrays(tmp_path):
    path = tmp_path / "d.rdnc"
    save_model(init_resdnet(1, seed=7, num_filters=4), path)
    raw = bytearray(path.read_bytes())
    struct.pack_into("<I", raw, 8, 2)  # header says depth 2, arrays hold depth 1
    path.write_bytes(bytes(raw))
    with pytest.raises(ModelFormatError, match="block02"):
        load_model(path)


def test_arrays_beyond_header_depth(tmp_path):
    path = tmp_path / "d.rdnc"
    save_model(init_resdnet(2, seed=7, num_filters=4), path)
    raw = bytearray(path.read_bytes())
    struct.pack_into("<I", raw, 8, 1)  # header says depth 1, arrays hold depth 2
    path.write_bytes(bytes(raw))
    with pytest.raises(ModelFormatError, match="unexpected array 'block02.u'"):
        load_model(path)


def test_trailing_bytes_rejected(tmp_path):
    params = init_resdnet(1, seed=6, num_filters=4)
    path = tmp_path / "x.rdnc"
    save_model(params, path)
    path.write_bytes(path.read_bytes() + b"\x00\x00\x00\x00")
    with pytest.raises(ModelFormatError):
        load_model(path)


def test_unserializable_type():
    with pytest.raises(TypeError):
        save_model({"w": np.zeros(3)}, "/tmp/never-written.rdnc")
