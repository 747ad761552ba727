"""Dense float64 tensor primitives with deterministic, seed-stable randomness.

Every other module consumes plain ``numpy`` arrays of dtype float64 created
and validated through this one. All operations are pure: equal inputs give
bit-identical outputs on repeated calls, and no operation mutates its inputs.

Array-field contract: every frozen parameter container in the kit calls
:func:`freeze_arrays` in ``__post_init__`` before it reads a field, so each
``init`` field hinted ``np.ndarray`` is stored as a float64 array, and a NaN
or infinite entry is a ValueError naming the field; each one hinted ``int``
is a :func:`count` of at least 1. The containers check only their own shapes
and value ranges.

Overflow rule: a public numeric function returns a finite result or raises
a ValueError naming the argument; :func:`finite_step` is the one place that
silences NumPy's floating-point warnings.

Domain rule: every public size, count, length and step-index argument, every
``int`` field of a container, and every seed (any integer, taken modulo
2**64) passes through :func:`count`, which refuses a bool, a non-integer and
a value below the floor by name.

Randomness is counter-based (SplitMix64 over a 64-bit counter) with normals
produced by the Box-Muller transform, so a seed fully determines the stream
on any platform with IEEE-754 doubles.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import typing
from typing import Sequence

import numpy as np

__all__ = [
    "SeededRng",
    "randn",
    "silu",
    "sigmoid",
    "softplus",
    "check_finite",
    "count",
    "finite_step",
    "freeze_arrays",
]

_U64 = np.uint64
_GOLDEN = _U64(0x9E3779B97F4A7C15)  # SplitMix64 counter increment
_MIX1 = _U64(0xBF58476D1CE4E5B9)
_MIX2 = _U64(0x94D049BB133111EB)
_TWO_NEG53 = 2.0 ** -53


def _mix64(z: np.ndarray) -> np.ndarray:
    """SplitMix64 finalizer: bijective avalanche mix of 64-bit words, in place.

    Every step reuses ``z`` and one shift buffer, so a large draw touches no
    fresh word-sized array per step (first touches cost page faults)."""
    t = np.empty_like(z)
    z ^= np.right_shift(z, _U64(30), out=t)
    z *= _MIX1
    z ^= np.right_shift(z, _U64(27), out=t)
    z *= _MIX2
    z ^= np.right_shift(z, _U64(31), out=t)
    return z


class SeededRng:
    """Counter-based pseudo-random stream.

    Output word ``i`` is ``mix64(seed + (i + 1) * GOLDEN)`` where ``mix64`` is
    the SplitMix64 finalizer; the instance only tracks how many words have
    been consumed. Uniform doubles take the top 53 bits of a word; a draw of n
    normal variates is m = ceil(n / 2) Box-Muller pairs over 2m words: m
    radius uniforms in (0, 1], then m angle uniforms in [0, 1).

    :meth:`draws` takes the words of several draws as one block, laid out as
    successive :meth:`uniform` and :meth:`normal` calls would take them: each
    entry in turn gets its n uniform words, or its m radius words then its m
    angle words. So a batched draw and the same draws in turn give the same
    bits and leave the same ``words_consumed``.
    """

    def __init__(self, seed: int):
        self._base = _U64(count("seed", seed, None) & 0xFFFFFFFFFFFFFFFF)
        self._consumed = 0

    @property
    def words_consumed(self) -> int:
        return self._consumed

    def _raw(self, n: int) -> np.ndarray:
        idx = np.arange(self._consumed + 1, self._consumed + n + 1, dtype=np.uint64)
        self._consumed += n
        idx *= _GOLDEN
        idx += self._base
        return _mix64(idx)

    def draws(self, *spec: tuple[str, int]) -> list[np.ndarray]:
        """One float64 array per ``("uniform" | "normal", n)`` entry of ``spec``,
        from one block of words; one Box-Muller pass serves every normal entry."""
        words, starts, total = [], [], 0
        for kind, n in spec:
            if kind not in ("uniform", "normal"):
                raise ValueError(f"draw kind must be 'uniform' or 'normal', got {kind!r}")
            n = count("draw count", n, 0)
            words.append(n if kind == "uniform" else 2 * ((n + 1) // 2))
            starts.append(total)
            total += words[-1]
        top = self._raw(total)
        top >>= _U64(11)
        runs = [(s, w // 2) for (kind, _), s, w in zip(spec, starts, words) if kind == "normal"]
        pairs = _box_muller(top, runs) if runs else None
        out, first = [], 0
        for (kind, n), s, w in zip(spec, starts, words):
            if kind == "uniform":
                out.append(top[s:s + n].astype(np.float64) * _TWO_NEG53)
            else:
                out.append(pairs[first:first + n])
                first += w
        return out

    def uniform(self, n: int) -> np.ndarray:
        """n i.i.d. doubles in [0, 1)."""
        return self.draws(("uniform", n))[0]

    def normal(self, n: int) -> np.ndarray:
        """n i.i.d. standard normals via Box-Muller on uniform pairs."""
        return self.draws(("normal", n))[0]


def _box_muller(top: np.ndarray, runs: list[tuple[int, int]]) -> np.ndarray:
    """The 2 * sum(m) normals of the ``(start, m)`` runs of 53-bit words ``top``,
    each run m radius words then m angle words; a single run is read in place."""
    if len(runs) == 1:
        (start, m), = runs
        rad, ang = top[start:start + m], top[start + m:start + 2 * m]
    else:
        rad = np.concatenate([top[s:s + m] for s, m in runs])
        ang = np.concatenate([top[s + m:s + 2 * m] for s, m in runs])
    r = np.sqrt(-2.0 * np.log((rad + _U64(1)).astype(np.float64) * _TWO_NEG53))
    theta = (2.0 * np.pi) * (ang.astype(np.float64) * _TWO_NEG53)
    pairs = np.empty(2 * r.size, dtype=np.float64)
    pairs[0::2] = r * np.cos(theta)
    pairs[1::2] = r * np.sin(theta)
    return pairs


def count(name: str, value, low: int | None) -> int:
    """``value`` as an ``int``; a bool, a non-integer (an integral float too)
    or a value below ``low`` (if not None) is a ValueError naming ``name``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        floor = "" if low is None else f" >= {low}"
        raise ValueError(f"{name} must be one of the integers{floor}, got {value!r}")
    if low is not None and value < low:
        raise ValueError(f"{name} must be >= {low}, got {value!r}")
    return int(value)


def _all(mask: np.ndarray) -> bool:
    """``mask.all()`` without a reduction, whose fixed cost rules small arrays."""
    return np.count_nonzero(mask) == mask.size


def check_finite(t: np.ndarray, name: str = "tensor") -> np.ndarray:
    """Reject NaN/Inf entries; returns the array unchanged."""
    if not _all(np.isfinite(t)):
        raise ValueError(f"{name} contains non-finite values")
    return t


def finite_step(message: str, step, *args):
    """``step(*args)`` with NumPy's floating-point errors off; a non-finite entry
    in its result, or in an array of a tuple result, is ValueError(message)."""
    with np.errstate(all="ignore"):
        out = step(*args)
    if not all(_all(np.isfinite(t)) for t in (out if isinstance(out, tuple) else (out,))):
        raise ValueError(message)
    return out


@functools.cache
def _fields(cls, hint) -> tuple[str, ...]:
    hints = typing.get_type_hints(cls)
    return tuple(f.name for f in dataclasses.fields(cls) if f.init and hints[f.name] is hint)


def freeze_arrays(obj) -> None:
    """Store each ``int``-hinted init field of the frozen dataclass ``obj`` as
    a :func:`count` of at least 1, and each ``np.ndarray``-hinted one as a
    finite float64 array; either refusal is a ValueError naming its field."""
    for name in _fields(type(obj), int):
        object.__setattr__(obj, name, count(name, getattr(obj, name), 1))
    for name in _fields(type(obj), np.ndarray):
        arr = np.asarray(getattr(obj, name), dtype=np.float64)
        object.__setattr__(obj, name, check_finite(arr, name))


def randn(shape: Sequence[int], rng: SeededRng) -> np.ndarray:
    """I.i.d. standard-normal tensor, advancing ``rng`` deterministically."""
    shape = tuple(count(f"shape[{i}]", s, 1) for i, s in enumerate(shape))
    if not shape:
        raise ValueError("empty shape is not a valid tensor shape")
    return rng.normal(math.prod(shape)).reshape(shape)


def sigmoid(t: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-t)), as 1 / (1 + e) or e / (1 + e) with e = exp(-|t|) <= 1."""
    t = np.asarray(t, dtype=np.float64)
    e = np.abs(t, out=np.empty_like(t))
    np.exp(np.negative(e, out=e), out=e)
    num = np.maximum(e, t >= 0, out=np.empty_like(t))  # 1 if t >= 0, else e (<= 1 or NaN)
    e += 1.0
    return np.divide(num, e, out=num)


def silu(t: np.ndarray) -> np.ndarray:
    """SiLU activation: z * sigmoid(z)."""
    t = np.asarray(t, dtype=np.float64)
    out = sigmoid(t)
    out *= t
    return out


def softplus(t: np.ndarray) -> np.ndarray:
    """log(1 + exp(z)), overflow-safe; strictly positive output."""
    t = np.asarray(t, dtype=np.float64)
    return np.where(t > 30.0, t, np.log1p(np.exp(np.minimum(t, 30.0))))

