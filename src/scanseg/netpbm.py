"""Binary PPM (P6) and PGM (P5) readers and writers.

Writers emit the canonical header exactly — ``P6\\n<w> <h>\\n<maxval>\\n``
followed by the binary payload; 16-bit graymaps store big-endian sample
pairs as the format requires.  Readers accept standard header whitespace
and ``#`` comments and report malformed input with the file's path and the
offending byte offset.  ``read_samples`` returns a file's samples as it
stores them, and ``decode`` turns samples into float arrays in [0, 1], the
values ``read_ppm`` and ``read_pgm`` return; read(write(x)) is bitwise
exact on the quantized grid.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionError, NetpbmError

__all__ = ["write_ppm", "read_ppm", "write_pgm", "read_pgm", "read_samples",
           "decode"]

_WS = b" \t\r\n\v\f"


def _quantize(values: np.ndarray, maxval: int) -> np.ndarray:
    q = np.rint(np.clip(values, 0.0, 1.0) * maxval)
    return q.astype(np.uint16 if maxval > 255 else np.uint8)


def write_ppm(path: str, rgb: np.ndarray) -> None:
    """rgb: (3, H, W) floats in [0, 1], quantized to 8 bits."""
    rgb = np.asarray(rgb)
    if rgb.ndim != 3 or rgb.shape[0] != 3:
        raise DimensionError(f"write_ppm expects (3, H, W), got {rgb.shape}")
    _, h, w = rgb.shape
    q = _quantize(rgb, 255)
    payload = np.transpose(q, (1, 2, 0)).tobytes()  # row-major, RGB interleaved
    with open(path, "wb") as fh:
        fh.write(f"P6\n{w} {h}\n255\n".encode("ascii"))
        fh.write(payload)


def write_pgm(path: str, gray: np.ndarray, maxval: int = 255) -> None:
    """gray: (H, W) floats in [0, 1]; 16-bit samples are big-endian."""
    gray = np.asarray(gray)
    if gray.ndim != 2:
        raise DimensionError(f"write_pgm expects (H, W), got {gray.shape}")
    if not 1 <= maxval <= 65535:
        raise NetpbmError(f"maxval {maxval} outside [1, 65535]", 0)
    h, w = gray.shape
    q = _quantize(gray, maxval)
    data = q.astype(">u2").tobytes() if maxval > 255 else q.tobytes()
    with open(path, "wb") as fh:
        fh.write(f"P5\n{w} {h}\n{maxval}\n".encode("ascii"))
        fh.write(data)


def _next_token(buf: bytes, pos: int) -> tuple[bytes, int]:
    n = len(buf)
    while pos < n:
        c = buf[pos:pos + 1]
        if c == b"#":
            while pos < n and buf[pos:pos + 1] != b"\n":
                pos += 1
        elif c in _WS:
            pos += 1
        else:
            break
    if pos >= n:
        raise NetpbmError("unexpected end of header", pos)
    start = pos
    while pos < n and buf[pos:pos + 1] not in _WS and buf[pos:pos + 1] != b"#":
        pos += 1
    return buf[start:pos], pos


def _header_int(buf: bytes, pos: int, what: str) -> tuple[int, int]:
    token, new_pos = _next_token(buf, pos)
    if not token.isdigit():
        raise NetpbmError(f"invalid {what} {token!r}", pos)
    return int(token), new_pos


def _parse(buf: bytes, magic: bytes):
    got = buf[:2]
    if got != magic:
        raise NetpbmError(f"expected magic {magic!r}, got {got!r}", 0)
    w, pos = _header_int(buf, 2, "width")
    h, pos = _header_int(buf, pos, "height")
    maxval, pos = _header_int(buf, pos, "maxval")
    if not 1 <= maxval <= 65535:
        raise NetpbmError(f"maxval {maxval} outside [1, 65535]", pos)
    if pos >= len(buf) or buf[pos:pos + 1] not in _WS:
        raise NetpbmError("missing single whitespace before payload", pos)
    pos += 1
    return w, h, maxval, pos


def _payload(buf: bytes, pos: int, count: int, maxval: int) -> np.ndarray:
    width = 2 if maxval > 255 else 1
    need = count * width
    if len(buf) - pos < need:
        raise NetpbmError(
            f"payload truncated: need {need} bytes, have {len(buf) - pos}",
            len(buf))
    if len(buf) - pos > need:
        raise NetpbmError(f"{len(buf) - pos - need} trailing bytes", pos + need)
    dtype = ">u2" if width == 2 else np.uint8
    return np.frombuffer(buf[pos:pos + need], dtype=dtype)


def read_samples(path: str, magic: bytes) -> tuple[np.ndarray, int]:
    """The samples of a P6 (``magic`` b"P6") or P5 (b"P5") file exactly as
    it stores them, uint8 or, above maxval 255, big-endian uint16, laid out
    channel-first: (3, H, W) or (1, H, W), C-contiguous.  Returns them with
    the file's maxval.  A malformed file raises ``NetpbmError`` naming
    ``path``."""
    channels = 3 if magic == b"P6" else 1
    with open(path, "rb") as fh:
        buf = fh.read()
    try:
        w, h, maxval, pos = _parse(buf, magic)
        flat = _payload(buf, pos, w * h * channels, maxval)
    except NetpbmError as exc:
        raise NetpbmError(exc.message, exc.byte_offset, path) from None
    # Stored row-major with the channels interleaved.
    planes = flat.reshape(h, w, channels).transpose(2, 0, 1)
    return np.ascontiguousarray(planes), maxval


def decode(samples: np.ndarray, maxval: int) -> np.ndarray:
    """Float64 values in [0, 1] of ``samples``, in a new array of their
    shape."""
    return samples.astype(np.float64) / maxval


def read_ppm(path: str) -> np.ndarray:
    """Returns (3, H, W) floats in [0, 1]."""
    return decode(*read_samples(path, b"P6"))


def read_pgm(path: str) -> np.ndarray:
    """Returns (H, W) floats in [0, 1]."""
    return decode(*read_samples(path, b"P5"))[0]
