"""Binary model serialization.

Layout (all integers unsigned 32-bit little-endian, floats 32-bit LE):

    magic "RDNC" | version | depth D | steps K | array count
    then per array: name length | name bytes (utf-8) | rank | dims... | payload
    then the zlib CRC-32 of every byte before it

K = 0 marks a plain denoiser checkpoint without extrapolation weights or a
noise schedule. Every array's name and shape is checked against
``layer_shapes`` at the depth its blocks give and the filter count of
``head.u``, plus ``cascade.w`` and ``cascade.sigmas`` of length K when
K > 0; a missing, extra or misshapen array, or a header D that disagrees
with the blocks, is rejected, as is a file with no filters. No header
field sizes the check, so a huge D fails at once. Round trips are
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
from .resdnet import ResDNetParams, block_name, layer_shapes

MAGIC = b"RDNC"
VERSION = 2


class ModelFormatError(ValueError):
    def __init__(self, message: str, offset: int | None = None):
        if offset is not None:
            message = f"{message} (at byte offset {offset})"
        super().__init__(message)
        self.offset = offset


def save_model(params, path) -> None:
    if isinstance(params, CascadeParams):
        depth, steps = params.denoiser.depth, params.steps
    elif isinstance(params, ResDNetParams):
        depth, steps = params.depth, 0
    else:
        raise TypeError(f"cannot serialize {type(params).__name__}")
    arrays = params.flatten()
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
    pairs = 0  # the table is sized by the arrays present, never by a header field
    while f"{block_name(2 * pairs)}.u" in arrays:
        pairs += 1
    head = np.shape(arrays.get("head.u"))
    expected = layer_shapes(pairs, head[0] if head else 0)
    if steps:
        expected.update({"cascade.w": (steps,), "cascade.sigmas": (steps,)})
    for name in expected:
        if name not in arrays:
            raise ModelFormatError(f"no array {name!r} for depth {depth}")
    if pairs != depth:
        raise ModelFormatError(f"{'unexpected' if pairs > depth else 'no'} array "
                               f"'{block_name(2 * min(pairs, depth))}.u' for depth {depth}")
    for name, arr in arrays.items():
        if name not in expected:
            raise ModelFormatError(f"unexpected array {name!r} for depth {depth}")
        if arr.shape != expected[name]:
            raise ModelFormatError(f"array {name!r} has shape {arr.shape}, "
                                   f"expected {expected[name]}")
    if not expected["head.u"][0]:
        raise ModelFormatError("array 'head.u' has no filters")
    return (CascadeParams if steps else ResDNetParams).from_flat(arrays)
