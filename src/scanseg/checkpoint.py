"""Binary parameter checkpoints.

Layout (all integers little-endian):

    magic   8 bytes  b"SSEGCKPT"
    version u32      format version, currently 1
    count   u32      number of parameters
    count * manifest entries:
        name_len u16, name utf-8 bytes, ndim u8, ndim * extent u32
    payload: concatenated float64 little-endian values, one block per
    manifest entry in manifest order

The manifest order is the module registration order, which is
deterministic, so save -> load round-trips bitwise.  Names that are not
UTF-8, mismatched names or shapes, NaN or infinite values, truncation, or
trailing bytes all raise ``CheckpointError``; messages quote names with
``repr``, so they stay on one line whatever bytes a name holds.
"""

from __future__ import annotations

import struct

import numpy as np

from .autodiff import Tensor
from .errors import CheckpointError

MAGIC = b"SSEGCKPT"
VERSION = 1


def save_params(named_params: list[tuple[str, Tensor]], path: str) -> None:
    chunks = [MAGIC, struct.pack("<II", VERSION, len(named_params))]
    for name, p in named_params:
        raw = name.encode("utf-8")
        chunks.append(struct.pack("<H", len(raw)))
        chunks.append(raw)
        chunks.append(struct.pack("<B", p.data.ndim))
        chunks.append(struct.pack(f"<{p.data.ndim}I", *p.data.shape))
    for _, p in named_params:
        chunks.append(np.ascontiguousarray(p.data, dtype="<f8").tobytes())
    with open(path, "wb") as fh:
        fh.write(b"".join(chunks))


def _read(buf: bytes, offset: int, n: int, what: str) -> tuple[bytes, int]:
    if offset + n > len(buf):
        raise CheckpointError(
            f"checkpoint truncated while reading {what} at byte {offset}")
    return buf[offset:offset + n], offset + n


def load_params(named_params: list[tuple[str, Tensor]], path: str) -> None:
    """Restore parameters in place; the file manifest must match exactly."""
    with open(path, "rb") as fh:
        buf = fh.read()
    raw, off = _read(buf, 0, len(MAGIC), "magic")
    if raw != MAGIC:
        raise CheckpointError(f"bad magic {raw!r}; not a parameter checkpoint")
    raw, off = _read(buf, off, 8, "header")
    version, count = struct.unpack("<II", raw)
    if version != VERSION:
        raise CheckpointError(
            f"checkpoint format version {version} unsupported "
            f"(expected {VERSION})")

    by_name = dict(named_params)
    if len(by_name) != len(named_params):
        raise CheckpointError("duplicate parameter names in model")
    manifest: list[tuple[str, tuple]] = []
    for _ in range(count):
        raw, off = _read(buf, off, 2, "name length")
        (name_len,) = struct.unpack("<H", raw)
        raw, off = _read(buf, off, name_len, "name")
        try:
            name = raw.decode("utf-8")
        except UnicodeDecodeError:
            raise CheckpointError(
                f"checkpoint parameter name {raw!r} is not UTF-8") from None
        raw, off = _read(buf, off, 1, "ndim")
        (ndim,) = struct.unpack("<B", raw)
        raw, off = _read(buf, off, 4 * ndim, "shape")
        shape = struct.unpack(f"<{ndim}I", raw)
        if name not in by_name:
            raise CheckpointError(
                f"checkpoint names unknown parameter {name!r}")
        if by_name[name].data.shape != shape:
            raise CheckpointError(
                f"parameter {name!r} has shape {by_name[name].data.shape} "
                f"but checkpoint stores {shape}")
        manifest.append((name, shape))

    missing = set(by_name) - {name for name, _ in manifest}
    if missing:
        raise CheckpointError(
            f"checkpoint missing parameters: {sorted(missing)}")

    values = []
    for name, shape in manifest:
        n = int(np.prod(shape)) if shape else 1
        raw, off = _read(buf, off, 8 * n, f"data of {name!r}")
        value = np.frombuffer(raw, dtype="<f8").reshape(shape)
        if bad := np.count_nonzero(~np.isfinite(value)):
            raise CheckpointError(
                f"parameter {name!r} holds {bad} NaN or infinite values")
        values.append(value.copy())
    if off != len(buf):
        raise CheckpointError(
            f"{len(buf) - off} trailing bytes after parameter payload")
    for (name, _), value in zip(manifest, values):
        by_name[name].data = value
