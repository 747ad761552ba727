"""Binary netpbm I/O: P6 color images.

Color images travel as H x W x 3 float64 arrays in [0, 255], stored 8-bit.
"""

from __future__ import annotations

import re
from pathlib import Path

import numpy as np

from .tensor import check_finite

__all__ = [
    "write_ppm",
    "read_ppm",
]

# Header fields are separated by whitespace and by comments, each a "#" that
# runs to the end of its line; one whitespace byte ends maxval, then the
# payload starts. A comment must end at its newline, so that no backtracking
# reads part of a comment as a field.
_SKIP = rb"(?:\s|#[^\n]*\n)*"
_P6_HEADER = re.compile(_SKIP + rb"P6\s" + (_SKIP + rb"(\S+)\s") * 3)


def write_ppm(path: str | Path, pixels: np.ndarray) -> None:
    pixels = np.asarray(pixels, dtype=np.float64)
    if pixels.ndim != 3 or pixels.shape[2] != 3:
        raise ValueError(f"PPM needs an H x W x 3 array, got {pixels.shape}")
    h, w, _ = pixels.shape
    if h < 1 or w < 1:
        raise ValueError("netpbm extents must be >= 1")
    header = f"P6\n{w} {h}\n255\n".encode("ascii")
    body = np.clip(check_finite(pixels, "image"), 0.0, 255.0)
    np.rint(body, out=body)  # clip made a fresh array: pixels stay as they are
    Path(path).write_bytes(header + body.astype(np.uint8).tobytes(order="C"))


def read_ppm(path: str | Path) -> np.ndarray:
    blob = Path(path).read_bytes()
    header = _P6_HEADER.match(blob)
    if header is None:
        raise ValueError("expected a P6 header: P6, width, height and maxval")
    w, h, maxval = map(int, header.groups())
    if w < 1 or h < 1:
        raise ValueError("netpbm extents must be >= 1")
    if maxval != 255:
        raise ValueError("only 8-bit P6 supported")
    body = np.frombuffer(blob, np.uint8, offset=header.end())
    if body.size != w * h * 3:
        raise ValueError("P6 payload size mismatch")
    return body.reshape(h, w, 3).astype(np.float64)
