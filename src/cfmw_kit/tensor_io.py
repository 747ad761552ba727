"""TSR1 binary tensor files, plain-text key=value manifests, parameter bundles.

TSR1 layout, all little-endian:

    bytes 0..3   magic ``TSR1``
    u32          rank
    rank * u32   extents
    rest         row-major float64 payload

Round-trips are bit-exact.

A parameter bundle is a directory holding one TSR1 file per array plus
``manifest.txt``: ``meta.<key>=<value>`` lines, then one
``tensor.<name>=<name>.tsr`` line per array. :func:`save_params` stores the
init fields of a parameter dataclass in field order: arrays as tensors,
nested dataclasses as ``<field>.<key>`` entries, ``int`` and ``str`` fields as
meta; a field of any other type is refused. :func:`load_params` is its inverse.
"""

from __future__ import annotations

import dataclasses
import os
import shutil
import struct
from pathlib import Path

import numpy as np

from .tensor import _init_fields

__all__ = [
    "write_tensor",
    "read_tensor",
    "write_manifest",
    "read_manifest",
    "save_params",
    "load_params",
]

MAGIC = b"TSR1"
_MANIFEST = "manifest.txt"


def write_tensor(path: str | Path, arr: np.ndarray) -> None:
    arr = np.ascontiguousarray(arr, dtype=np.float64)
    if arr.ndim == 0:
        raise ValueError("rank-0 tensors cannot be serialized")
    if any(s < 1 for s in arr.shape):
        raise ValueError(f"TSR1 extents must be >= 1, got {arr.shape}")
    header = MAGIC + struct.pack("<I", arr.ndim)
    header += struct.pack(f"<{arr.ndim}I", *arr.shape)
    Path(path).write_bytes(header + arr.astype("<f8", copy=False).tobytes(order="C"))


def read_tensor(path: str | Path) -> np.ndarray:
    blob = Path(path).read_bytes()
    if len(blob) < 8 or blob[:4] != MAGIC:
        raise ValueError("not a TSR1 tensor: bad magic")
    (rank,) = struct.unpack_from("<I", blob, 4)
    if rank == 0:
        raise ValueError("TSR1 rank must be >= 1")
    need = 8 + 4 * rank
    if len(blob) < need:
        raise ValueError("truncated TSR1 header")
    shape = struct.unpack_from(f"<{rank}I", blob, 8)
    if any(s < 1 for s in shape):
        raise ValueError(f"TSR1 extents must be >= 1, got {shape}")
    count = 1
    for s in shape:
        count *= s
    if len(blob) != need + 8 * count:
        raise ValueError("TSR1 payload size does not match extents")
    data = np.frombuffer(blob, dtype="<f8", count=count, offset=need)
    return data.astype(np.float64, copy=True).reshape(shape)


def write_manifest(path: str | Path, entries: dict[str, str]) -> None:
    """One ``key=value`` line per entry, in insertion order.

    An entry that :func:`read_manifest` would not return unchanged is refused.
    """
    lines = []
    for key, value in entries.items():
        key = str(key)
        line = f"{key}={value}"
        if (not key or "=" in key or key.startswith("#") or not line.isascii()
                or line.splitlines() != [line] or line.strip() != line):
            raise ValueError(f"manifest entry {key!r} not representable")
        lines.append(line + "\n")
    Path(path).write_text("".join(lines), encoding="ascii")


def read_manifest(path: str | Path) -> dict[str, str]:
    """The ``key=value`` entries of ``path``, skipping blanks and ``#`` comments.

    A non-ASCII byte, a line without ``=`` or a key given twice is a
    ValueError naming the file and the line.
    """
    entries: dict[str, str] = {}
    # surrogateescape keeps each non-ASCII byte in its line, so the error can
    # name the line; the line breaks are those of the plain ASCII decode.
    text = Path(path).read_bytes().decode("ascii", errors="surrogateescape")
    for lineno, line in enumerate(text.splitlines(), 1):
        if not line.isascii():
            byte = next(ord(c) - 0xDC00 for c in line if not c.isascii())
            raise ValueError(f"{path} line {lineno}: non-ASCII byte {byte:#04x}")
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"{path} line {lineno} is not key=value: {line!r}")
        key, value = line.split("=", 1)
        if key in entries:
            raise ValueError(f"{path} line {lineno}: key {key!r} given twice")
        entries[key] = value
    return entries


def _bundle_fields(cls) -> tuple[tuple[str, type], ...]:
    """Name and type of each init field of ``cls``, in field order.

    A field that is not an array, a nested dataclass, an ``int`` or a ``str``
    is refused by name: ``str`` of it would not read back as the same value.
    """
    fields = _init_fields(cls)
    for name, hint in fields:
        if hint not in (np.ndarray, int, str) and not dataclasses.is_dataclass(hint):
            raise ValueError(f"{cls.__name__}.{name} is not an array, a dataclass, an int "
                             f"or a str, so a bundle cannot store it")
    return fields


def save_params(obj, directory: str | Path) -> None:
    """Write the parameter dataclass ``obj`` as a bundle in ``directory``.

    A nested array is named ``<field>.<key>``, e.g. ``ss2d_t.col_bwd.u_c``.
    The files go to a sibling temp directory that is then renamed into place,
    so a failed save leaves nothing behind. A ``directory`` that exists and
    is not empty is refused, so stale tensors never sit beside new ones.
    """
    manifest: dict[str, str] = {}
    tensors: dict[str, np.ndarray] = {}

    def walk(obj, prefix: str) -> None:
        for name, hint in _bundle_fields(type(obj)):
            value = getattr(obj, name)
            if dataclasses.is_dataclass(hint):
                walk(value, f"{prefix}{name}.")
            elif hint is np.ndarray:
                tensors[prefix + name] = value
            else:
                manifest[f"meta.{prefix}{name}"] = str(value)

    walk(obj, "")
    directory = Path(directory)
    if directory.is_dir() and any(directory.iterdir()):
        raise ValueError(f"bundle directory {directory} exists and is not empty")
    tmp = directory.parent / f".{directory.name}.{os.getpid()}.tmp"
    tmp.mkdir(parents=True)
    try:
        for name, arr in tensors.items():
            write_tensor(tmp / f"{name}.tsr", arr)
            manifest[f"tensor.{name}"] = f"{name}.tsr"
        write_manifest(tmp / _MANIFEST, manifest)
        os.replace(tmp, directory)
    except BaseException:
        shutil.rmtree(tmp, ignore_errors=True)
        raise


def load_params(cls, directory: str | Path):
    """The ``cls`` instance stored in the bundle ``directory``, each entry used once.

    Every manifest key must be ``meta.*`` or ``tensor.*``; tensor ``name``
    must be a plain file name stored as ``<name>.tsr`` inside ``directory``.
    Meta values are cast with their field's type. An entry ``cls`` needs but
    the bundle lacks, one left over, or a meta value the cast refuses is a
    ValueError naming it in full.
    """
    directory = Path(directory)
    entries = read_manifest(directory / _MANIFEST)
    for key, value in entries.items():
        group, _, name = key.partition(".")
        if group == "tensor" and ("/" in name or "\\" in name or ".." in name
                                  or value != f"{name}.tsr"):
            raise ValueError(f"tensor {name!r} must be a plain file name stored as "
                             f"{name}.tsr, not {value!r}")
        if group not in ("meta", "tensor") or not name:
            raise ValueError(f"unknown manifest key {key!r} in {directory}")

    def build(cls, prefix: str):
        fields = {}
        for name, hint in _bundle_fields(cls):
            key = prefix + name
            entry = ("tensor." if hint is np.ndarray else "meta.") + key
            if dataclasses.is_dataclass(hint):
                fields[name] = build(hint, key + ".")
            elif entry not in entries:
                raise ValueError(f"bundle is missing {key!r}")
            elif hint is np.ndarray:
                fields[name] = read_tensor(directory / entries.pop(entry))
            else:
                value = entries.pop(entry)
                try:
                    fields[name] = hint(value)
                except ValueError:
                    raise ValueError(f"bundle meta entry {key!r} is not a valid "
                                     f"{hint.__name__}: {value!r}") from None
        return cls(**fields)

    built = build(cls, "")
    for group, kind in (("tensor.", "tensor"), ("meta.", "meta entry")):
        left = [key[len(group):] for key in entries if key.startswith(group)]
        if left:
            raise ValueError(f"bundle has unexpected {kind} {min(left)!r}")
    return built
