"""Binary container for named tensors, used by checkpoints and dataset files.

Layout: 4-byte magic ``BNT1``, then zero or more records of
``u16 name_len | name (UTF-8) | u8 dtype_code | u8 rank | rank * u32 dims |
payload`` with all integers and payloads little-endian, payloads row-major.
Dtype codes: 0 = float32, 1 = uint32.

Neither direction copies a payload: ``write_tensors`` checks every tensor,
then writes each header and a byte view of each array into the temp file of
``atomic_write_bytes`` (the one temp-and-rename path, which text files use
too). On the way in, one parser reads the headers and checks each against the
file's size before any payload is read. ``read_headers`` stops there,
``read_tensors`` reads each payload straight into a new array, and
``read_row_blocks`` reads tensors a block of rows at a time into reused
buffers.
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass

import numpy as np

MAGIC = b"BNT1"

_DTYPE_FOR_CODE = {0: np.dtype("<f4"), 1: np.dtype("<u4")}
_CODE_FOR_DTYPE = {np.dtype(np.float32): 0, np.dtype(np.uint32): 1}

# Anything past this is a corrupt header, not a real tensor.
_MAX_ELEMENTS = 1 << 40


class FormatError(ValueError):
    """Raised on bad magic, unknown dtype, bad rank/dims, or truncated payload."""


def atomic_write_bytes(path: str, parts) -> None:
    """Write the buffers of the iterable ``parts`` to ``path`` in order, fully
    or not at all (temp file + rename). Each is written as it is, with no
    joined copy, and a generator's next part is made only after the last one
    is written. The file gets the mode a plain ``open`` gives: 0666 less the
    umask (``tempfile.mkstemp`` would make it 0600)."""
    tmp = os.path.join(os.path.dirname(os.path.abspath(path)),
                       f".tmp-{os.urandom(8).hex()}~")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "wb") as fh:
            for part in parts:
                fh.write(part)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def atomic_write_text(path: str, text) -> None:
    """Write ``text`` as UTF-8: a str, or an iterable of str pieces, each
    encoded only when its turn comes."""
    pieces = [text] if isinstance(text, str) else text
    atomic_write_bytes(path, (piece.encode("utf-8") for piece in pieces))


def _encode_tensor(name: str, array: np.ndarray) -> tuple[bytes, memoryview]:
    """A tensor's record: its header bytes and a byte view of its payload."""
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
    header = (struct.pack("<H", len(name_bytes)) + name_bytes
              + struct.pack(f"<BB{array.ndim}I", _CODE_FOR_DTYPE[dtype], array.ndim,
                            *array.shape))
    return header, _bytes_of(np.ascontiguousarray(array))


def _bytes_of(array: np.ndarray) -> memoryview:
    """A flat byte view of a C-contiguous array (also when it has no values)."""
    return memoryview(array.reshape(-1)).cast("B")


def write_tensors(path: str, tensors: dict[str, np.ndarray]) -> None:
    """Serialize ``tensors`` to ``path`` atomically, in dict order.

    Every tensor is checked before the file is opened; then each header and
    each payload goes straight into the file, without a copy of the payload.
    """
    parts = [MAGIC]
    for name, array in tensors.items():
        parts.extend(_encode_tensor(name, np.asarray(array)))
    atomic_write_bytes(path, parts)


@dataclass(frozen=True)
class TensorHeader:
    """One record's header: the tensor's name, dtype and shape, and the file
    offset at which its payload starts."""

    name: str
    dtype: np.dtype
    shape: tuple[int, ...]
    offset: int

    @property
    def row_bytes(self) -> int:
        """Payload bytes per index of the leading dimension."""
        return self.dtype.itemsize * math.prod(self.shape[1:])


def _parse_headers(fh, path: str) -> list[TensorHeader]:
    """Every record's header, each checked against the file's size; the
    payloads are skipped, not read."""
    total = os.fstat(fh.fileno()).st_size
    if fh.read(4) != MAGIC:
        raise FormatError(f"bad magic in {path!r}")
    offset = 4

    def need(n: int, what: str) -> int:
        nonlocal offset
        if offset + n > total:
            raise FormatError(f"truncated {what} at offset {offset} in {path!r}")
        offset += n
        return n

    headers = []
    while offset < total:
        (name_len,) = struct.unpack("<H", fh.read(need(2, "name length")))
        name = str(fh.read(need(name_len, "name")), "utf-8")
        code, rank = struct.unpack("<BB", fh.read(need(2, "dtype/rank")))
        if code not in _DTYPE_FOR_CODE:
            raise FormatError(f"unknown dtype code {code} for tensor {name!r}")
        if rank == 0:
            raise FormatError(f"rank-0 tensor {name!r} rejected")
        dims = struct.unpack(f"<{rank}I", fh.read(need(4 * rank, "dims")))
        count = math.prod(dims)
        if count > _MAX_ELEMENTS:
            raise FormatError(f"dimension overflow in tensor {name!r}: {dims}")
        dtype = _DTYPE_FOR_CODE[code]
        headers.append(TensorHeader(name, dtype, dims, offset))
        need(count * dtype.itemsize, f"payload of {name!r}")
        fh.seek(offset)
    return headers


def _read_into(fh, array: np.ndarray, offset: int, path: str, name: str) -> None:
    """Fill the C-contiguous ``array`` with the payload bytes at ``offset``."""
    fh.seek(offset)
    if fh.readinto(_bytes_of(array)) != array.nbytes:
        raise FormatError(f"truncated payload of {name!r} in {path!r}")


def read_headers(path: str) -> dict[str, TensorHeader]:
    """Every tensor's header, checked against the file's size; no payload is read."""
    with open(path, "rb") as fh:
        return {header.name: header for header in _parse_headers(fh, path)}


def read_tensors(path: str) -> dict[str, np.ndarray]:
    """Read every named tensor from ``path``; raises FormatError on damage.

    Each payload is read straight into its own (writable) array, after the
    headers say that the file holds all of them.
    """
    out: dict[str, np.ndarray] = {}
    with open(path, "rb") as fh:
        for header in _parse_headers(fh, path):
            array = np.empty(header.shape, dtype=header.dtype)
            _read_into(fh, array, header.offset, path, header.name)
            out[header.name] = array
    return out


def read_row_blocks(path: str, headers: list[TensorHeader], rows: int):
    """Yield the payloads of ``headers`` (tensors of ``path`` that share their
    leading dimension) ``rows`` leading indices at a time, one array per
    tensor. Each block is read into one buffer per tensor that the next block
    reuses, so a block is valid only until the next one is asked for."""
    n = headers[0].shape[0]
    buffers = [np.empty((min(rows, n), *h.shape[1:]), dtype=h.dtype) for h in headers]
    with open(path, "rb") as fh:
        for start in range(0, n, rows):
            block = [buffer[:n - start] for buffer in buffers]
            for header, array in zip(headers, block):
                _read_into(fh, array, header.offset + start * header.row_bytes, path,
                           header.name)
            yield block
