"""Dense float64 tensor primitives with deterministic, seed-stable randomness.

Every other module consumes plain ``numpy`` arrays of dtype float64 created
and validated through this one. All operations are pure: equal inputs give
bit-identical outputs on repeated calls, and no operation mutates its inputs.

Randomness is counter-based (SplitMix64 over a 64-bit counter) with normals
produced by the Box-Muller transform, so a seed fully determines the stream
on any platform with IEEE-754 doubles.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

__all__ = [
    "SeededRng",
    "randn",
    "silu",
    "sigmoid",
    "softplus",
    "check_finite",
]

_U64 = np.uint64
_GOLDEN = _U64(0x9E3779B97F4A7C15)  # SplitMix64 counter increment
_MIX1 = _U64(0xBF58476D1CE4E5B9)
_MIX2 = _U64(0x94D049BB133111EB)
_TWO_NEG53 = 2.0 ** -53


def _mix64(z: np.ndarray) -> np.ndarray:
    """SplitMix64 finalizer: bijective avalanche mix of a 64-bit word."""
    z = (z ^ (z >> _U64(30))) * _MIX1
    z = (z ^ (z >> _U64(27))) * _MIX2
    return z ^ (z >> _U64(31))


class SeededRng:
    """Counter-based pseudo-random stream.

    Output word ``i`` is ``mix64(seed + (i + 1) * GOLDEN)`` where ``mix64`` is
    the SplitMix64 finalizer; the instance only tracks how many words have
    been consumed. Uniform doubles take the top 53 bits of a word; normal
    variates are Box-Muller pairs over consecutive uniforms (the radius
    uniform is drawn first, then the angle uniform).
    """

    def __init__(self, seed: int):
        self._base = _U64(seed & 0xFFFFFFFFFFFFFFFF)
        self._consumed = 0

    @property
    def words_consumed(self) -> int:
        return self._consumed

    def _raw(self, n: int) -> np.ndarray:
        idx = np.arange(self._consumed + 1, self._consumed + n + 1, dtype=np.uint64)
        self._consumed += n
        return _mix64(self._base + idx * _GOLDEN)

    def uniform(self, n: int) -> np.ndarray:
        """n i.i.d. doubles in [0, 1)."""
        if n < 0:
            raise ValueError("draw count must be >= 0")
        return (self._raw(n) >> _U64(11)).astype(np.float64) * _TWO_NEG53

    def uniform_open(self, n: int) -> np.ndarray:
        """n i.i.d. doubles in (0, 1]; safe under log()."""
        if n < 0:
            raise ValueError("draw count must be >= 0")
        return ((self._raw(n) >> _U64(11)) + _U64(1)).astype(np.float64) * _TWO_NEG53

    def normal(self, n: int) -> np.ndarray:
        """n i.i.d. standard normals via Box-Muller on uniform pairs."""
        if n < 0:
            raise ValueError("draw count must be >= 0")
        if n == 0:
            return np.empty(0, dtype=np.float64)
        m = (n + 1) // 2
        u1 = self.uniform_open(m)
        u2 = self.uniform(m)
        r = np.sqrt(-2.0 * np.log(u1))
        theta = (2.0 * np.pi) * u2
        out = np.empty(2 * m, dtype=np.float64)
        out[0::2] = r * np.cos(theta)
        out[1::2] = r * np.sin(theta)
        return out[:n]


def _check_shape(shape: Sequence[int]) -> tuple[int, ...]:
    shape = tuple(int(s) for s in shape)
    if len(shape) == 0:
        raise ValueError("empty shape is not a valid tensor shape")
    if any(s < 1 for s in shape):
        raise ValueError(f"all extents must be >= 1, got {shape}")
    return shape


def check_finite(t: np.ndarray, name: str = "tensor") -> np.ndarray:
    """Reject NaN/Inf entries; returns the array unchanged."""
    if not np.all(np.isfinite(t)):
        raise ValueError(f"{name} contains non-finite values")
    return t


def randn(shape: Sequence[int], rng: SeededRng) -> np.ndarray:
    """I.i.d. standard-normal tensor, advancing ``rng`` deterministically."""
    shape = _check_shape(shape)
    n = 1
    for s in shape:
        n *= s
    return rng.normal(n).reshape(shape)


def sigmoid(t: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-t)), as 1 / (1 + e) or e / (1 + e) with e = exp(-|t|) <= 1."""
    t = np.asarray(t, dtype=np.float64)
    e = np.abs(t, out=np.empty_like(t))
    np.exp(np.negative(e, out=e), out=e)
    num = np.where(t >= 0, 1.0, e)
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

