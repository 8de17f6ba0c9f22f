import struct
import zlib

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from demosaick.cascade import CascadeParams, init_schedule
from demosaick.modelfile import MAGIC, ModelFormatError, load_model, save_model
from demosaick.resdnet import ResDNetParams, init_resdnet, layer_shapes


def reseal(raw: bytearray) -> bytes:
    """Replace the checksum trailer of an edited version-2 file, so the
    check under test is reached."""
    struct.pack_into("<I", raw, len(raw) - 4, zlib.crc32(raw[:-4]))
    return bytes(raw)


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
    assert (version, depth, steps) == (2, 1, 5)
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
    path.write_bytes(reseal(raw))
    with pytest.raises(ModelFormatError, match="block02"):
        load_model(path)


def test_arrays_beyond_header_depth(tmp_path):
    path = tmp_path / "d.rdnc"
    save_model(init_resdnet(2, seed=7, num_filters=4), path)
    raw = bytearray(path.read_bytes())
    struct.pack_into("<I", raw, 8, 1)  # header says depth 1, arrays hold depth 2
    path.write_bytes(reseal(raw))
    with pytest.raises(ModelFormatError, match="unexpected array 'block02.u'"):
        load_model(path)


def test_trailing_bytes_rejected(tmp_path):
    params = init_resdnet(1, seed=6, num_filters=4)
    path = tmp_path / "x.rdnc"
    save_model(params, path)
    path.write_bytes(path.read_bytes() + b"\x00\x00\x00\x00")
    with pytest.raises(ModelFormatError):
        load_model(path)


def test_checksum_trailer(tmp_path):
    path = tmp_path / "c.rdnc"
    save_model(small_cascade(seed=8), path)
    raw = path.read_bytes()
    assert struct.unpack_from("<I", raw, len(raw) - 4)[0] == zlib.crc32(raw[:-4])


def test_every_sampled_byte_flip_is_rejected(tmp_path):
    """A flipped byte anywhere, header, payload or trailer, raises instead
    of loading silently changed weights."""
    path = tmp_path / "f.rdnc"
    save_model(small_cascade(seed=9, steps=2), path)
    raw = path.read_bytes()
    gen = np.random.Generator(np.random.Philox(key=10))
    offsets = gen.choice(len(raw), size=200, replace=False)
    for offset, xor in zip(offsets, gen.integers(1, 256, size=200)):
        bad = bytearray(raw)
        bad[offset] ^= int(xor)
        path.write_bytes(bytes(bad))
        with pytest.raises(ModelFormatError):
            load_model(path)


def test_checksum_mismatch_is_a_data_error(tmp_path, capsys):
    from demosaick.cli import main

    path = tmp_path / "m.rdnc"
    save_model(small_cascade(seed=11), path)
    raw = bytearray(path.read_bytes())
    raw[len(raw) // 2] ^= 0x40
    path.write_bytes(bytes(raw))
    obs = tmp_path / "obs.npy"
    np.save(obs, np.zeros((4, 4, 3)))
    out = tmp_path / "o.npy"
    assert main(["demosaick", str(obs), "--model", str(path), "--out", str(out)]) == 2
    assert "checksum mismatch" in capsys.readouterr().err


def test_version_1_file_loads_unchanged(tmp_path):
    """A file in the format before the checksum trailer: version 1, no
    trailer."""
    params = small_cascade(seed=12)
    path = tmp_path / "v2.rdnc"
    save_model(params, path)
    raw = bytearray(path.read_bytes()[:-4])
    struct.pack_into("<I", raw, 4, 1)
    old = tmp_path / "v1.rdnc"
    old.write_bytes(bytes(raw))
    back = load_model(old)
    assert isinstance(back, CascadeParams)
    a, b = load_model(path).flatten(), back.flatten()
    assert set(a) == set(b)
    for k in a:
        assert np.array_equal(a[k], b[k]), k


def test_unserializable_type():
    with pytest.raises(TypeError):
        save_model({"w": np.zeros(3)}, "/tmp/never-written.rdnc")


def write_arrays(path, arrays: dict, depth: int, steps: int) -> None:
    """A version-2 file of ``arrays`` (any rank, 0 included) under the given
    header, with a valid checksum."""
    raw = bytearray(MAGIC + struct.pack("<IIII", 2, depth, steps, len(arrays)))
    for name, arr in arrays.items():
        data = np.asarray(arr, dtype="<f4")
        raw += struct.pack(f"<I{len(name)}sI{data.ndim}I", len(name), name.encode(),
                           data.ndim, *data.shape)
        raw += data.tobytes()
    path.write_bytes(bytes(raw + struct.pack("<I", zlib.crc32(raw))))


@pytest.mark.parametrize("steps,edit,name", [
    pytest.param(7, {}, "cascade.w", id="header-K-7-over-3-weights"),
    pytest.param(3, {"head.bias": np.zeros(1)}, "head.bias", id="head-bias-1"),
    pytest.param(3, {"block00.bias": np.zeros(1)}, "block00.bias", id="block-bias-1"),
    pytest.param(3, {"gamma": np.zeros(3)}, "gamma", id="gamma-3"),
    pytest.param(3, {"head.u": np.arange(108.0).reshape(4, 3, 3, 3)}, "head.u", id="head-u-3x3"),
    pytest.param(3, {"gamma": np.zeros(0)}, "gamma", id="gamma-empty"),
    pytest.param(3, {"head.u": np.float64(1.0)}, "head.u", id="head-u-rank-0"),
    pytest.param(3, {k: np.zeros(s) for k, s in layer_shapes(1, 0).items()}, "head.u",
                 id="zero-filters"),
])
def test_array_shape_disagreeing_with_the_model_is_rejected(tmp_path, capsys, steps, edit,
                                                            name):
    """Every array's shape is checked against the model its blocks and
    head give, and the weights' length against the header's steps: each
    of these files, with a valid checksum, is a data error."""
    path = tmp_path / "m.rdnc"
    arrays = {**small_cascade(seed=13).flatten(), "gamma": np.zeros(1)}  # gamma as saved
    write_arrays(path, {**arrays, **edit}, depth=1, steps=steps)
    with pytest.raises(ModelFormatError, match=repr(name)):
        load_model(path)

    from demosaick.cli import main

    obs, out = tmp_path / "obs.npy", tmp_path / "o.npy"
    np.save(obs, np.full((6, 6, 3), 100.0))
    assert main(["demosaick", str(obs), "--model", str(path), "--out", str(out)]) == 2
    assert repr(name) in capsys.readouterr().err
    assert not out.exists()


def test_huge_header_depth_fails_at_once(tmp_path, monkeypatch):
    """The table of expected shapes is sized by the arrays the file holds,
    never by a header field, so a header depth of 2**32 - 1 is rejected at
    once instead of building a table that deep."""
    import demosaick.modelfile as modelfile

    table = modelfile.layer_shapes

    def bounded(depth, num_filters):
        assert depth <= 2, f"expected-shape table sized to depth {depth}"
        return table(depth, num_filters)

    monkeypatch.setattr(modelfile, "layer_shapes", bounded)
    path = tmp_path / "d.rdnc"
    arrays = {**init_resdnet(1, seed=14, num_filters=4).flatten(), "gamma": np.zeros(1)}
    write_arrays(path, arrays, depth=2**32 - 1, steps=0)
    with pytest.raises(ModelFormatError, match="no array 'block02.u' for depth 4294967295"):
        load_model(path)



# a header field kept (None), one off its saved value, or any 32-bit value
_FIELD = st.one_of(st.none(), st.sampled_from([-1, 1]), st.integers(0, 2**32 - 1))


@pytest.mark.parametrize("steps", [0, 3])
@settings(derandomize=True, max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(fields=st.tuples(_FIELD, _FIELD, _FIELD, _FIELD))
def test_mutated_header_is_rejected_or_read_as_written(tmp_path, steps, fields):
    """A saved D=1, F=2 model (a plain denoiser at K = 0) with its version,
    D, K and array count rewritten and the checksum recomputed either
    raises ``ModelFormatError`` or loads as a model whose depth and steps
    are the header's."""
    den = init_resdnet(1, seed=15, num_filters=2)
    path = tmp_path / "m.rdnc"
    save_model(CascadeParams(den, *init_schedule(steps, 15.0, 1.0)) if steps else den, path)
    raw = bytearray(path.read_bytes())
    header = list(struct.unpack_from("<IIII", raw, 4))
    for i, field in enumerate(fields):
        if field in (-1, 1):
            header[i] = (header[i] + field) % 2**32
        elif field is not None:
            header[i] = field
    struct.pack_into("<IIII", raw, 4, *header)
    path.write_bytes(reseal(raw))
    try:
        model = load_model(path)
    except ModelFormatError:
        return
    _, depth, header_steps, _ = header
    if isinstance(model, CascadeParams):
        assert (model.denoiser.depth, model.steps) == (depth, header_steps)
    else:
        assert (model.depth, 0) == (depth, header_steps)
