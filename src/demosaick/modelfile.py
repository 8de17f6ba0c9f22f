"""Binary model serialization.

Layout (all integers unsigned 32-bit little-endian, floats 32-bit LE):

    magic "RDNC" | version | depth D | steps K | array count
    then per array: name length | name bytes (utf-8) | rank | dims... | payload
    then the zlib CRC-32 of every byte before it

K = 0 marks a plain denoiser checkpoint without extrapolation weights or a
noise schedule. The model is built from the arrays alone, and a header
depth D that disagrees with its blocks is rejected. Round trips are
bit-exact at 32-bit precision. Version 1 files, written before the
checksum trailer, are still read; a version 2 file whose checksum does
not match is rejected.
"""
from __future__ import annotations

import struct
import zlib
from pathlib import Path

import numpy as np

from .cascade import CascadeParams
from .resdnet import ResDNetParams, block_name

MAGIC = b"RDNC"
VERSION = 2


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
    out += struct.pack("<I", zlib.crc32(out))
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
    if version not in (1, VERSION):
        raise ModelFormatError(f"unsupported format version {version}", offset=4)
    if version == VERSION:
        end = len(raw) - 4
        if end < pos:
            raise ModelFormatError("truncated file", offset=len(raw))
        if zlib.crc32(raw[:end]) != struct.unpack_from("<I", raw, end)[0]:
            raise ModelFormatError("checksum mismatch", offset=end)
        raw = raw[:end]
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
        params = (CascadeParams if steps else ResDNetParams).from_flat(arrays)
    except KeyError as exc:
        raise ModelFormatError(f"no array {exc.args[0]!r} for depth {depth}") from exc
    expected, found, _ = _params_to_arrays(params)
    if found < depth:
        raise ModelFormatError(f"no array '{block_name(2 * found)}.u' for depth {depth}")
    if found > depth:
        raise ModelFormatError(f"unexpected array '{block_name(2 * depth)}.u' for depth {depth}")
    for name in arrays:
        if name not in expected:
            raise ModelFormatError(f"unexpected array {name!r} for depth {depth}")
    return params
