"""Binary container for named tensors, used by checkpoints and dataset files.

Layout: 4-byte magic ``BNT1``, then zero or more records of
``u16 name_len | name (UTF-8) | u8 dtype_code | u8 rank | rank * u32 dims |
payload`` with all integers and payloads little-endian, payloads row-major.
Dtype codes: 0 = float32, 1 = uint32.
"""

from __future__ import annotations

import os
import struct
import tempfile

import numpy as np

MAGIC = b"BNT1"

_DTYPE_FOR_CODE = {0: np.dtype("<f4"), 1: np.dtype("<u4")}
_CODE_FOR_DTYPE = {np.dtype(np.float32): 0, np.dtype(np.uint32): 1}

# Anything past this is a corrupt header, not a real tensor.
_MAX_ELEMENTS = 1 << 40


class FormatError(ValueError):
    """Raised on bad magic, unknown dtype, bad rank/dims, or truncated payload."""


def atomic_write_bytes(path: str, data: bytes) -> None:
    """Write a file fully or not at all (temp file + rename)."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def atomic_write_text(path: str, text: str) -> None:
    atomic_write_bytes(path, text.encode("utf-8"))


def _encode_tensor(name: str, array: np.ndarray) -> bytes:
    dtype = np.dtype(array.dtype)
    if dtype not in _CODE_FOR_DTYPE:
        raise FormatError(f"unsupported dtype {dtype} for tensor {name!r}")
    if array.ndim == 0:
        raise FormatError(f"rank-0 tensor {name!r} not representable")
    if array.ndim > 255:
        raise FormatError(f"rank {array.ndim} exceeds format limit")
    name_bytes = name.encode("utf-8")
    if len(name_bytes) > 0xFFFF:
        raise FormatError(f"tensor name too long ({len(name_bytes)} bytes)")
    for dim in array.shape:
        if dim >= 1 << 32:
            raise FormatError(f"dimension {dim} overflows u32 in tensor {name!r}")
    parts = [
        struct.pack("<H", len(name_bytes)),
        name_bytes,
        struct.pack("<BB", _CODE_FOR_DTYPE[dtype], array.ndim),
        struct.pack(f"<{array.ndim}I", *array.shape),
        np.ascontiguousarray(array, dtype=dtype).tobytes(),
    ]
    return b"".join(parts)


def write_tensors(path: str, tensors: dict[str, np.ndarray]) -> None:
    """Serialize ``tensors`` to ``path`` atomically, in dict order."""
    blob = [MAGIC]
    for name, array in tensors.items():
        blob.append(_encode_tensor(name, np.asarray(array)))
    atomic_write_bytes(path, b"".join(blob))


def read_tensors(path: str) -> dict[str, np.ndarray]:
    """Read every named tensor from ``path``; raises FormatError on damage."""
    with open(path, "rb") as fh:
        data = memoryview(fh.read())  # slices share the bytes: one copy per payload
    if data[:4] != MAGIC:
        raise FormatError(f"bad magic in {path!r}")
    out: dict[str, np.ndarray] = {}
    offset = 4
    total = len(data)

    def need(n: int, what: str) -> memoryview:
        nonlocal offset
        if offset + n > total:
            raise FormatError(f"truncated {what} at offset {offset} in {path!r}")
        chunk = data[offset : offset + n]
        offset += n
        return chunk

    while offset < total:
        (name_len,) = struct.unpack("<H", need(2, "name length"))
        name = str(need(name_len, "name"), "utf-8")
        code, rank = struct.unpack("<BB", need(2, "dtype/rank"))
        if code not in _DTYPE_FOR_CODE:
            raise FormatError(f"unknown dtype code {code} for tensor {name!r}")
        if rank == 0:
            raise FormatError(f"rank-0 tensor {name!r} rejected")
        dims = struct.unpack(f"<{rank}I", need(4 * rank, "dims"))
        count = 1
        for dim in dims:
            count *= dim
        if count > _MAX_ELEMENTS:
            raise FormatError(f"dimension overflow in tensor {name!r}: {dims}")
        dtype = _DTYPE_FOR_CODE[code]
        payload = need(count * dtype.itemsize, f"payload of {name!r}")
        out[name] = np.frombuffer(payload, dtype=dtype).reshape(dims).copy()
    return out
