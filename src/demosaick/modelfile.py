"""Binary model serialization.

Layout (all integers unsigned 32-bit little-endian, floats 32-bit LE):

    magic "RDNC" | version | depth D | steps K | array count
    then per array: name length | name bytes (utf-8) | rank | dims... | payload

K = 0 marks a plain denoiser checkpoint without extrapolation weights or a
noise schedule. Round trips are bit-exact at 32-bit precision.
"""
from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

from .cascade import CascadeParams
from .resdnet import ResDNetParams

MAGIC = b"RDNC"
VERSION = 1


class ModelFormatError(ValueError):
    def __init__(self, message: str, offset: int | None = None):
        if offset is not None:
            message = f"{message} (at byte offset {offset})"
        super().__init__(message)
        self.offset = offset


def _params_to_arrays(params) -> tuple[dict, int, int]:
    if isinstance(params, CascadeParams):
        return params.flatten(), params.denoiser.depth, params.steps
    if isinstance(params, ResDNetParams):
        return params.flatten(), params.depth, 0
    raise TypeError(f"cannot serialize {type(params).__name__}")


def save_model(params, path) -> None:
    arrays, depth, steps = _params_to_arrays(params)
    out = bytearray()
    out += MAGIC
    out += struct.pack("<IIII", VERSION, depth, steps, len(arrays))
    for name, arr in arrays.items():
        data = np.ascontiguousarray(arr, dtype="<f4")
        enc = name.encode("utf-8")
        out += struct.pack("<I", len(enc)) + enc
        out += struct.pack("<I", data.ndim)
        out += struct.pack(f"<{data.ndim}I", *data.shape)
        out += data.tobytes()
    Path(path).write_bytes(bytes(out))


def load_model(path):
    """Load a model file; returns CascadeParams (K > 0) or ResDNetParams."""
    raw = Path(path).read_bytes()
    if raw[:4] != MAGIC:
        raise ModelFormatError(f"bad magic {raw[:4]!r}", offset=0)
    pos = 4

    def take(fmt):
        nonlocal pos
        size = struct.calcsize(fmt)
        if pos + size > len(raw):
            raise ModelFormatError("truncated file", offset=pos)
        vals = struct.unpack_from(fmt, raw, pos)
        pos += size
        return vals

    version, depth, steps, count = take("<IIII")
    if version != VERSION:
        raise ModelFormatError(f"unsupported format version {version}", offset=4)
    arrays = {}
    for _ in range(count):
        (nlen,) = take("<I")
        if pos + nlen > len(raw):
            raise ModelFormatError("truncated array name", offset=pos)
        name = raw[pos : pos + nlen].decode("utf-8")
        pos += nlen
        (rank,) = take("<I")
        dims = take(f"<{rank}I") if rank else ()
        n = int(np.prod(dims, dtype=np.int64)) if rank else 1
        nbytes = 4 * n
        if pos + nbytes > len(raw):
            raise ModelFormatError(f"truncated payload for {name!r}", offset=pos)
        data = np.frombuffer(raw, dtype="<f4", count=n, offset=pos).reshape(dims)
        pos += nbytes
        arrays[name] = data.astype(np.float64)
    if pos != len(raw):
        raise ModelFormatError("trailing bytes after last array", offset=pos)
    try:
        if steps == 0:
            params = ResDNetParams.from_flat(arrays, depth)
        else:
            params = CascadeParams.from_flat(arrays, depth)
    except KeyError as exc:
        raise ModelFormatError(f"no array {exc.args[0]!r} for depth {depth}") from exc
    expected = params.flatten()
    for name in arrays:
        if name not in expected:
            raise ModelFormatError(f"unexpected array {name!r} for depth {depth}")
    return params
