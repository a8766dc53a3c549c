"""LLTN raw tensor container: the on-disk format for checkpoints and blobs.

Layout: magic "LLTN", u32 version=1, u32 rank, u64 dims[rank], then the
row-major float64 payload. All integers and floats little-endian.

Also home to the atomic temp-file-and-rename writes every output file of the
package goes through.
"""

from __future__ import annotations

import json
import os
import struct
from pathlib import Path

import numpy as np

MAGIC = b"LLTN"
VERSION = 1


class LltnError(IOError):
    """Malformed or truncated LLTN container."""


def dumps(arr: np.ndarray) -> bytes:
    arr = np.asarray(arr, dtype=np.float64)  # ascontiguousarray would promote 0-d to 1-d
    header = MAGIC + struct.pack("<II", VERSION, arr.ndim)
    dims = struct.pack(f"<{arr.ndim}Q", *arr.shape) if arr.ndim else b""
    payload = arr.astype("<f8", copy=False).tobytes(order="C")
    return header + dims + payload


def loads(data: bytes) -> np.ndarray:
    if len(data) < 12 or data[:4] != MAGIC:
        raise LltnError("not an LLTN container (bad magic)")
    version, rank = struct.unpack("<II", data[4:12])
    if version != VERSION:
        raise LltnError(f"unsupported LLTN version {version}")
    offset = 12 + 8 * rank
    if len(data) < offset:
        raise LltnError("truncated LLTN container (incomplete dims)")
    dims = struct.unpack(f"<{rank}Q", data[12:offset]) if rank else ()
    count = 1
    for d in dims:
        count *= d
    expected = offset + 8 * count
    if len(data) != expected:
        raise LltnError(
            f"truncated or oversized LLTN container: expected {expected} bytes, got {len(data)}"
        )
    arr = np.frombuffer(data, dtype="<f8", count=count, offset=offset)
    return arr.reshape(dims).astype(np.float64, copy=True)


def atomic_write(path, data: bytes) -> None:
    """Write `data` to a sibling temp file, then rename it over `path`, so a
    reader sees either the old file or the complete new one."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_bytes(data)
    os.replace(tmp, path)


def write_json(path, obj) -> None:
    """Atomic write of `obj` as JSON: indent 2, sorted keys, trailing newline.
    A NaN or infinite float raises ValueError, since JSON has neither."""
    atomic_write(path, (json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n").encode())


def write(path, arr: np.ndarray) -> None:
    """Atomic write of one tensor."""
    atomic_write(path, dumps(arr))


def read(path) -> np.ndarray:
    return loads(Path(path).read_bytes())
