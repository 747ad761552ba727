"""Binary netpbm I/O: P6 color images, P5 masks and depth maps.

Color images travel as H x W x 3 float64 arrays in [0, 255]; masks as
H x W floats in [0, 1]; depth maps as nonnegative H x W floats. Depth is
stored 8-bit when max depth <= 1 and 16-bit (big-endian, per netpbm)
otherwise, with the physical maximum recorded in a comment line.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .tensor import check_finite

__all__ = [
    "write_ppm",
    "read_ppm",
    "write_pgm",
    "read_pgm",
    "write_mask_pgm",
    "read_mask_pgm",
    "write_depth_pgm",
    "read_depth_pgm",
]


def _quantize(arr: np.ndarray, maxval: int) -> np.ndarray:
    q = np.rint(np.clip(check_finite(arr, "image"), 0.0, maxval)).astype(np.uint16)
    return q


def write_ppm(path: str | Path, pixels: np.ndarray) -> None:
    pixels = np.asarray(pixels, dtype=np.float64)
    if pixels.ndim != 3 or pixels.shape[2] != 3:
        raise ValueError(f"PPM needs an H x W x 3 array, got {pixels.shape}")
    h, w, _ = pixels.shape
    header = f"P6\n{w} {h}\n255\n".encode("ascii")
    body = _quantize(pixels, 255).astype(np.uint8).tobytes(order="C")
    Path(path).write_bytes(header + body)


def write_pgm(path: str | Path, gray: np.ndarray, maxval: int = 255,
              comment: str | None = None) -> None:
    gray = np.asarray(gray, dtype=np.float64)
    if gray.ndim != 2:
        raise ValueError(f"PGM needs an H x W array, got {gray.shape}")
    if maxval not in (255, 65535):
        raise ValueError("maxval must be 255 or 65535")
    h, w = gray.shape
    head = "P5\n"
    if comment:
        head += f"# {comment}\n"
    head += f"{w} {h}\n{maxval}\n"
    q = _quantize(gray, maxval)
    if maxval == 255:
        body = q.astype(np.uint8).tobytes(order="C")
    else:
        body = q.astype(">u2").tobytes(order="C")
    Path(path).write_bytes(head.encode("ascii") + body)


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

    def comments_before(self) -> list[str]:
        out = []
        for line in self.blob[: self.pos].split(b"\n"):
            if line.startswith(b"#"):
                out.append(line[1:].strip().decode("ascii", "replace"))
        return out


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


def read_pgm(path: str | Path) -> tuple[np.ndarray, int, list[str]]:
    blob = Path(path).read_bytes()
    w, h, maxval, toks = _read_header(blob, b"P5")
    body = blob[toks.pos:]
    if maxval == 255:
        if len(body) != w * h:
            raise ValueError("P5 payload size mismatch")
        raw = np.frombuffer(body, dtype=np.uint8)
    elif maxval == 65535:
        if len(body) != 2 * w * h:
            raise ValueError("P5 payload size mismatch")
        raw = np.frombuffer(body, dtype=">u2")
    else:
        raise ValueError(f"unsupported P5 maxval {maxval}")
    return raw.reshape(h, w).astype(np.float64), maxval, toks.comments_before()


def write_mask_pgm(path: str | Path, mask: np.ndarray) -> None:
    """Store a [0, 1] mask as 8-bit P5."""
    mask = check_finite(np.asarray(mask, dtype=np.float64), "mask")
    write_pgm(path, np.clip(mask, 0.0, 1.0) * 255.0, maxval=255)


def read_mask_pgm(path: str | Path) -> np.ndarray:
    gray, maxval, _ = read_pgm(path)
    return gray / float(maxval)


def write_depth_pgm(path: str | Path, depth: np.ndarray) -> None:
    depth = check_finite(np.asarray(depth, dtype=np.float64), "depth")
    if np.any(depth < 0):
        raise ValueError("depth must be nonnegative")
    dmax = float(depth.max()) if depth.size else 0.0
    if dmax <= 1.0:
        write_pgm(path, depth * 255.0, maxval=255, comment=f"depth_max={1.0!r}")
    else:
        write_pgm(path, depth / dmax * 65535.0, maxval=65535, comment=f"depth_max={dmax!r}")


def read_depth_pgm(path: str | Path) -> np.ndarray:
    gray, maxval, comments = read_pgm(path)
    dmax = 1.0
    for c in comments:
        if c.startswith("depth_max="):
            dmax = float(c.split("=", 1)[1])
    return gray / float(maxval) * dmax
