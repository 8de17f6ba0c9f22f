import gc
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from demosaick.pnm import FormatError, read_image, write_image


def rng(seed=0):
    return np.random.Generator(np.random.Philox(key=seed))


def test_ppm_roundtrip_8bit(tmp_path):
    img = np.round(rng(1).uniform(0, 255, size=(5, 7, 3)))
    path = tmp_path / "x.ppm"
    write_image(path, img)
    assert np.array_equal(read_image(path), img)


def test_pgm_roundtrip_8bit(tmp_path):
    img = np.round(rng(2).uniform(0, 255, size=(4, 6, 1)))
    path = tmp_path / "x.pgm"
    write_image(path, img)
    assert np.array_equal(read_image(path), img)


def test_roundtrip_16bit_precision(tmp_path):
    img = rng(3).uniform(0, 255, size=(4, 4, 3))
    path = tmp_path / "x.ppm"
    write_image(path, img, bitdepth=16)
    back = read_image(path)
    # quantization step is 255/65535
    assert np.allclose(back, img, atol=255.0 / 65535.0)


def test_npy_roundtrip_exact(tmp_path):
    img = rng(4).uniform(-10, 300, size=(3, 3, 3))
    path = tmp_path / "x.npy"
    write_image(path, img)
    assert np.array_equal(read_image(path), img)


def test_npy_2d_gets_channel_axis(tmp_path):
    path = tmp_path / "x.npy"
    np.save(path, np.ones((4, 5)))
    assert read_image(path).shape == (4, 5, 1)


def test_header_comments(tmp_path):
    path = tmp_path / "c.pgm"
    path.write_bytes(b"P5\n# a comment\n2 2\n# another\n255\n\x00\x7f\xff\x01")
    img = read_image(path)
    assert img.shape == (2, 2, 1)
    assert img[0, 1, 0] == 127.0


def test_16bit_read_is_scaled(tmp_path):
    path = tmp_path / "w.pgm"
    payload = np.array([0, 65535, 32768, 100], dtype=">u2").tobytes()
    path.write_bytes(b"P5\n2 2\n65535\n" + payload)
    img = read_image(path)
    assert img[0, 0, 0] == 0.0
    assert img[0, 1, 0] == 255.0
    assert np.isclose(img[1, 0, 0], 32768 * 255.0 / 65535.0)


def test_bad_magic(tmp_path):
    path = tmp_path / "bad.ppm"
    path.write_bytes(b"P3\n2 2\n255\n")
    with pytest.raises(FormatError):
        read_image(path)


@pytest.mark.parametrize("maxval", [0, 65536])
def test_maxval_out_of_range(tmp_path, maxval):
    path = tmp_path / "m.pgm"
    path.write_bytes(b"P5\n2 2\n%d\n" % maxval + b"\x00" * 8)
    with pytest.raises(FormatError, match="maxval"):
        read_image(path)


def test_truncated_pixels(tmp_path):
    path = tmp_path / "short.ppm"
    path.write_bytes(b"P6\n2 2\n255\n\x00\x01")
    with pytest.raises(FormatError):
        read_image(path)


def test_truncated_header(tmp_path):
    path = tmp_path / "h.ppm"
    path.write_bytes(b"P6\n2")
    with pytest.raises(FormatError):
        read_image(path)


@pytest.fixture(scope="module")
def valid_files(tmp_path_factory):
    """{name: bytes} of one valid file of each kind read_image takes."""
    d = tmp_path_factory.mktemp("valid")
    img = np.round(rng(5).uniform(0, 255, size=(6, 7, 3)))
    for name, bits in (("rgb8.ppm", 8), ("rgb16.ppm", 16), ("gray8.pgm", 8),
                       ("gray16.pgm", 16), ("rgb.npy", 8)):
        write_image(d / name, img[:, :, :1] if name.endswith(".pgm") else img, bitdepth=bits)
    return {path.name: path.read_bytes() for path in d.iterdir()}


@given(name=st.sampled_from(["rgb8.ppm", "rgb16.ppm", "gray8.pgm", "gray16.pgm", "rgb.npy"]),
       edits=st.lists(st.tuples(st.integers(0, 2 ** 16), st.integers(0, 255)),
                      min_size=1, max_size=4),
       keep=st.none() | st.integers(0, 2 ** 16))
@settings(max_examples=1500, deadline=None, derandomize=True)
def test_mutated_files_read_or_are_format_errors(tmp_path_factory, valid_files, name, edits,
                                                 keep):
    """A valid file with 1-4 bytes replaced, or cut to its first ``keep``
    bytes, reads as an (H, W, C) float64 image or raises FormatError."""
    raw = bytearray(valid_files[name])
    for pos, byte in edits:
        raw[pos % len(raw)] = byte
    path = tmp_path_factory.getbasetemp() / f"mutated{name[-4:]}"
    path.write_bytes(bytes(raw if keep is None else raw[:keep % len(raw)]))
    try:
        img = read_image(path)
    except FormatError:
        return
    assert img.dtype == np.float64 and img.ndim == 3 and img.shape[2] in (1, 3)


def test_write_clips(tmp_path):
    path = tmp_path / "clip.pgm"
    write_image(path, np.array([[[-5.0], [300.0]]]))
    img = read_image(path)
    assert img[0, 0, 0] == 0.0 and img[0, 1, 0] == 255.0


def test_write_bad_channels(tmp_path):
    with pytest.raises(FormatError):
        write_image(tmp_path / "x.ppm", np.zeros((2, 2, 2)))


def test_write_bad_bitdepth(tmp_path):
    with pytest.raises(ValueError):
        write_image(tmp_path / "x.ppm", np.zeros((2, 2, 3)), bitdepth=12)


class _Finalized:
    def __del__(self):
        pass


def test_npy_reads_on_many_threads(tmp_path):
    """Four threads read one .npy file while making cyclic garbage whose
    finalizers run mid-parse: every read succeeds (without the lock in
    ``read_image``, CPython 3.11 raised SystemError from np.load's header
    parse)."""
    path = tmp_path / "a.npy"
    np.save(path, np.zeros((4, 4, 3)))
    errors = []

    def work():
        for _ in range(2000):
            junk = [_Finalized() for _ in range(50)]
            for j in junk:
                j.self = j
            del junk
            try:
                read_image(path)
            except SystemError as exc:
                errors.append(exc)

    threshold, interval = gc.get_threshold(), sys.getswitchinterval()
    gc.set_threshold(10, 1, 1)
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        gc.set_threshold(*threshold)
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
