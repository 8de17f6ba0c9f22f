"""Binary PGM/PPM image I/O plus raw float dumps (.npy).

All reads return float64 arrays of shape (H, W, C) scaled to [0, 255]
(16-bit files are divided by maxval and multiplied by 255). Grayscale
files come back with C = 1. A .npy array must be (H, W), (H, W, 1) or
(H, W, 3) of bool, integer or float dtype; it is read unscaled. A file that
cannot be read as one of these raises FormatError naming the file.
"""
from __future__ import annotations

import re
import threading
import tokenize
import zipfile
from pathlib import Path

import numpy as np


class FormatError(ValueError):
    pass


_MAGIC_CHANNELS = {b"P5": 1, b"P6": 3}

# np.load parses each .npy header with ast.literal_eval. CPython 3.11's AST
# constructor keeps one recursion count for all threads: when a garbage
# collection runs a finalizer mid-parse and another thread parses meanwhile,
# the first raises SystemError. `eval --threads` reads files on several
# threads, so .npy reads take this lock.
_NPY_LOCK = threading.Lock()

# What np.load raises on a malformed file: EOFError on an empty one,
# tokenize.TokenError on a header dict it cannot tokenize, BadZipFile on a
# broken zip archive (the .npz magic), and ValueError on anything else.
_NPY_ERRORS = (EOFError, tokenize.TokenError, zipfile.BadZipFile, ValueError)


def read_image(path) -> np.ndarray:
    path = Path(path)
    if path.suffix == ".npy":
        try:
            with _NPY_LOCK:
                arr = np.load(path)
        except _NPY_ERRORS as exc:
            raise FormatError(f"{path}: not a readable .npy array: {exc}") from exc
        if not isinstance(arr, np.ndarray):  # np.load opens a zip archive as an NpzFile
            arr.close()
            raise FormatError(f"{path}: a .npz archive, not a .npy array")
        if arr.ndim not in (2, 3) or arr.shape[2:] not in ((), (1,), (3,)):
            raise FormatError(f"{path}: shape {arr.shape} is not (H, W), (H, W, 1) or (H, W, 3)")
        if arr.dtype.kind not in "biuf":
            raise FormatError(f"{path}: dtype {arr.dtype} is not bool, integer or float")
        if arr.ndim == 2:
            arr = arr[:, :, None]
        return arr.astype(np.float64)
    raw = path.read_bytes()
    return _parse_pnm(raw, path)


def _parse_pnm(raw: bytes, path) -> np.ndarray:
    magic = raw[:2]
    if magic not in _MAGIC_CHANNELS:
        raise FormatError(f"{path}: not a binary PGM/PPM file (magic {magic!r})")
    channels = _MAGIC_CHANNELS[magic]
    # header: magic, width, height, maxval separated by whitespace/comments
    tokens = []
    pos = 2
    while len(tokens) < 3:
        m = re.match(rb"(?:\s+|#[^\n]*\n)*(\d+)", raw[pos:])
        if not m:
            raise FormatError(f"{path}: truncated header")
        tokens.append(int(m.group(1)))
        pos += m.end()
    width, height, maxval = tokens
    if not 0 < maxval <= 65535:
        raise FormatError(f"{path}: maxval {maxval} outside 1..65535")
    pos += 1  # single whitespace after maxval
    dtype = np.dtype(">u2") if maxval > 255 else np.dtype("u1")
    count = width * height * channels
    if len(raw) - pos < count * dtype.itemsize:
        raise FormatError(f"{path}: truncated pixel data at offset {pos}")
    data = np.frombuffer(raw, dtype=dtype, count=count, offset=pos)
    img = data.reshape(height, width, channels).astype(np.float64)
    return img * (255.0 / maxval)


def write_image(path, image: np.ndarray, bitdepth: int = 8) -> None:
    """Write (H, W, 1|3) data in [0, 255] as binary PGM/PPM, or dump raw
    float64 when the path ends in .npy."""
    path = Path(path)
    if image.ndim == 2:
        image = image[:, :, None]
    if path.suffix == ".npy":
        np.save(path, image.astype(np.float64))
        return
    if image.shape[2] == 1:
        magic = b"P5"
    elif image.shape[2] == 3:
        magic = b"P6"
    else:
        raise FormatError(f"cannot write {image.shape[2]}-channel image as PNM")
    if bitdepth == 8:
        maxval, dtype = 255, np.dtype("u1")
    elif bitdepth == 16:
        maxval, dtype = 65535, np.dtype(">u2")
    else:
        raise ValueError("bitdepth must be 8 or 16")
    scaled = np.clip(image, 0.0, 255.0) * (maxval / 255.0)
    pixels = np.round(scaled).astype(dtype)
    header = b"%s\n%d %d\n%d\n" % (magic, image.shape[1], image.shape[0], maxval)
    path.write_bytes(header + pixels.tobytes())
