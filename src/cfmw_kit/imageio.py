"""Binary netpbm I/O: P6 color images.

Color images travel as H x W x 3 float64 arrays in [0, 255], stored 8-bit.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .tensor import check_finite

__all__ = [
    "write_ppm",
    "read_ppm",
]


def write_ppm(path: str | Path, pixels: np.ndarray) -> None:
    pixels = np.asarray(pixels, dtype=np.float64)
    if pixels.ndim != 3 or pixels.shape[2] != 3:
        raise ValueError(f"PPM needs an H x W x 3 array, got {pixels.shape}")
    h, w, _ = pixels.shape
    header = f"P6\n{w} {h}\n255\n".encode("ascii")
    body = np.rint(np.clip(check_finite(pixels, "image"), 0.0, 255.0)).astype(np.uint8)
    Path(path).write_bytes(header + body.tobytes(order="C"))


class _Tokens:
    """Whitespace/comment-aware header tokenizer for netpbm files."""

    def __init__(self, blob: bytes):
        self.blob = blob
        self.pos = 0

    def next(self) -> bytes:
        blob, i = self.blob, self.pos
        while i < len(blob):
            c = blob[i:i + 1]
            if c == b"#":
                while i < len(blob) and blob[i:i + 1] != b"\n":
                    i += 1
            elif c.isspace():
                i += 1
            else:
                break
        start = i
        while i < len(blob) and not blob[i:i + 1].isspace():
            i += 1
        if start == i:
            raise ValueError("truncated netpbm header")
        self.pos = i + 1  # consume the single whitespace after the token
        return blob[start:i]


def _read_header(blob: bytes, magic: bytes) -> tuple[int, int, int, _Tokens]:
    toks = _Tokens(blob)
    if toks.next() != magic:
        raise ValueError(f"expected {magic.decode()} file")
    w = int(toks.next())
    h = int(toks.next())
    maxval = int(toks.next())
    if w < 1 or h < 1:
        raise ValueError("netpbm extents must be >= 1")
    return w, h, maxval, toks


def read_ppm(path: str | Path) -> np.ndarray:
    blob = Path(path).read_bytes()
    w, h, maxval, toks = _read_header(blob, b"P6")
    if maxval != 255:
        raise ValueError("only 8-bit P6 supported")
    body = blob[toks.pos:]
    if len(body) != w * h * 3:
        raise ValueError("P6 payload size mismatch")
    return np.frombuffer(body, dtype=np.uint8).reshape(h, w, 3).astype(np.float64)
