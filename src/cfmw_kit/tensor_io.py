"""TSR1 binary tensor files, plain-text key=value manifests, parameter bundles.

TSR1 layout, all little-endian:

    bytes 0..3   magic ``TSR1``
    u32          rank
    rank * u32   extents
    rest         row-major float64 payload

Round-trips are bit-exact.

A bundle is a directory holding one TSR1 file per named tensor plus
``manifest.txt``: ``meta.<key>=<value>`` lines, then one
``tensor.<name>=<name>.tsr`` line per tensor, each group in insertion order.
A parameter dataclass is stored field by field, in field order: arrays as
tensors, nested dataclasses as ``<field>.<key>`` entries, anything else as meta.
"""

from __future__ import annotations

import dataclasses
import os
import shutil
import struct
import typing
from pathlib import Path

import numpy as np

__all__ = [
    "tensor_to_bytes",
    "tensor_from_bytes",
    "write_tensor",
    "read_tensor",
    "write_manifest",
    "read_manifest",
    "save_bundle",
    "load_bundle",
]

MAGIC = b"TSR1"
_MANIFEST = "manifest.txt"


def tensor_to_bytes(arr: np.ndarray) -> bytes:
    arr = np.ascontiguousarray(arr, dtype=np.float64)
    if arr.ndim == 0:
        raise ValueError("rank-0 tensors cannot be serialized")
    if any(s < 1 for s in arr.shape):
        raise ValueError(f"TSR1 extents must be >= 1, got {arr.shape}")
    header = MAGIC + struct.pack("<I", arr.ndim)
    header += struct.pack(f"<{arr.ndim}I", *arr.shape)
    return header + arr.astype("<f8", copy=False).tobytes(order="C")


def tensor_from_bytes(blob: bytes) -> np.ndarray:
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


def write_tensor(path: str | Path, arr: np.ndarray) -> None:
    Path(path).write_bytes(tensor_to_bytes(arr))


def read_tensor(path: str | Path) -> np.ndarray:
    return tensor_from_bytes(Path(path).read_bytes())


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


def _tensor_file(name: str) -> str:
    """``<name>.tsr``; a name holding ``/``, ``\\`` or ``..`` could leave the bundle."""
    if not name or "/" in name or "\\" in name or ".." in name:
        raise ValueError(f"tensor name {name!r} is not a plain file name")
    return name + ".tsr"


def save_bundle(directory: str | Path, meta: dict[str, str],
                tensors: dict[str, np.ndarray]) -> None:
    """Write ``meta`` entries and named tensors as a bundle in ``directory``.

    The files go to a sibling temp directory that is then renamed into place,
    so a failed save leaves nothing behind. A ``directory`` that exists and
    is not empty is refused, so stale tensors never sit beside new ones.
    """
    directory = Path(directory)
    if directory.is_dir() and any(directory.iterdir()):
        raise ValueError(f"bundle directory {directory} exists and is not empty")
    manifest = {f"meta.{key}": value for key, value in meta.items()}
    tmp = directory.parent / f".{directory.name}.{os.getpid()}.tmp"
    tmp.mkdir(parents=True)
    try:
        for name, arr in tensors.items():
            manifest[f"tensor.{name}"] = _tensor_file(name)
            write_tensor(tmp / _tensor_file(name), arr)
        write_manifest(tmp / _MANIFEST, manifest)
        os.replace(tmp, directory)
    except BaseException:
        shutil.rmtree(tmp, ignore_errors=True)
        raise


def load_bundle(directory: str | Path) -> tuple[dict[str, str], dict[str, np.ndarray]]:
    """Read a bundle back as its ``meta`` entries and its tensors by name.

    Every manifest key must be ``meta.*`` or ``tensor.*``, and tensor
    ``name`` must be stored as ``<name>.tsr`` inside ``directory``.
    """
    directory = Path(directory)
    meta: dict[str, str] = {}
    tensors: dict[str, np.ndarray] = {}
    for key, value in read_manifest(directory / _MANIFEST).items():
        group, _, name = key.partition(".")
        if group == "meta" and name:
            meta[name] = value
        elif group == "tensor" and value == _tensor_file(name):
            tensors[name] = read_tensor(directory / value)
        elif group == "tensor":
            raise ValueError(f"tensor {name!r} must be stored as {name}.tsr, not {value!r}")
        else:
            raise ValueError(f"unknown manifest key {key!r} in {directory}")
    return meta, tensors


def _flatten(obj) -> tuple[dict[str, str], dict[str, np.ndarray]]:
    """A parameter dataclass as bundle ``meta`` entries and tensors, in field order.

    An array field is a tensor under its own name, a nested dataclass adds
    its own entries as ``<field>.<key>``, and any other field is a meta entry
    written with ``str``.
    """
    meta: dict[str, str] = {}
    tensors: dict[str, np.ndarray] = {}
    for field in dataclasses.fields(obj):
        value = getattr(obj, field.name)
        if isinstance(value, np.ndarray):
            tensors[field.name] = value
        elif dataclasses.is_dataclass(value):
            sub_meta, sub_tensors = _flatten(value)
            meta.update((f"{field.name}.{k}", v) for k, v in sub_meta.items())
            tensors.update((f"{field.name}.{k}", v) for k, v in sub_tensors.items())
        else:
            meta[field.name] = str(value)
    return meta, tensors


def _build(cls, meta: dict[str, str], tensors: dict[str, np.ndarray]):
    """Inverse of :func:`_flatten`: ``cls`` from bundle entries, each used once.

    Meta values are cast with their field's type hint. An entry ``cls`` needs
    but the bundle lacks, one left over, or a meta value the cast refuses is
    a ValueError naming it in full.
    """
    meta, tensors = dict(meta), dict(tensors)

    def take(cls, prefix: str):
        fields = {}
        for name, hint in typing.get_type_hints(cls).items():
            key = prefix + name
            pool = tensors if hint is np.ndarray else meta
            if dataclasses.is_dataclass(hint):
                fields[name] = take(hint, key + ".")
            elif key not in pool:
                raise ValueError(f"bundle is missing {key!r}")
            elif pool is tensors:
                fields[name] = pool.pop(key)
            else:
                value = pool.pop(key)
                try:
                    fields[name] = hint(value)
                except ValueError:
                    raise ValueError(f"bundle meta entry {key!r} is not a valid "
                                     f"{hint.__name__}: {value!r}") from None
        return cls(**fields)

    built = take(cls, "")
    for kind, left in (("tensor", tensors), ("meta entry", meta)):
        if left:
            raise ValueError(f"bundle has unexpected {kind} {min(left)!r}")
    return built
