"""Two-stream feature fusion block and its quadratic attention baseline.

The fusion block takes aligned (B, N, C) feature pairs from two image
streams, exchanges their shallow channel halves, and fuses them with gated
four-direction selective scans plus cross residuals. A deliberately minimal
single-head attention fusion over the concatenated token sequences serves as
the quadratic-cost baseline for the scaling benchmark.

Operation counting covers the fusion *mechanism* (selection projections,
scans, gating on one side; score matrix, softmax normalization, value
aggregation on the other). Token projections that both paradigms share
(norms, MLPs, Q/K/V maps) are excluded, so the counts isolate the
linear-versus-quadratic behavior being measured.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .tensor import SeededRng, check_finite, silu
from .tensor_io import _from_prefixed, _rebuild, load_bundle, save_bundle
from .ssm import OpCounter, Ss2dParams, selective_scan_mac_count, ss2d

__all__ = [
    "ModalityFeatures",
    "PatchEmbedding",
    "Mlp3",
    "FusionBlockParams",
    "AttentionFusionParams",
    "patch_embed",
    "shallow_swap",
    "fuse",
    "inject",
    "attention_fusion_baseline",
    "count_ops",
    "BenchRow",
    "scaling_benchmark",
    "fit_loglog_slope",
    "save_fusion_params",
    "load_fusion_params",
]

_LN_EPS = 1e-6


@dataclass(frozen=True)
class ModalityFeatures:
    """Aligned (B, N, C) feature pair; C must be even for the half-channel swap."""

    f_r: np.ndarray
    f_t: np.ndarray

    def __post_init__(self):
        f_r = check_finite(np.asarray(self.f_r, dtype=np.float64), "f_r")
        f_t = check_finite(np.asarray(self.f_t, dtype=np.float64), "f_t")
        if f_r.ndim != 3 or f_t.ndim != 3:
            raise ValueError("features must be (B, N, C) arrays")
        if f_r.shape != f_t.shape:
            raise ValueError(f"modality shapes differ: {f_r.shape} vs {f_t.shape}")
        if f_r.shape[2] % 2 != 0:
            raise ValueError("channel count must be even")
        object.__setattr__(self, "f_r", f_r)
        object.__setattr__(self, "f_t", f_t)

    @property
    def shape(self) -> tuple[int, int, int]:
        return self.f_r.shape


@dataclass(frozen=True)
class PatchEmbedding:
    """Patch projection with positional table and optional class token.

    ``w`` maps a row-major flattened P x P x C_in patch to a length-D token;
    ``e_pos`` has J + 1 rows (class row first) for the configured grid of J
    patches. When ``use_cls`` is false, only the last J rows are added.
    """

    patch: int
    w: np.ndarray
    e_pos: np.ndarray
    cls_token: np.ndarray
    use_cls: bool = False

    def __post_init__(self):
        if self.patch < 1:
            raise ValueError("patch size must be >= 1")
        w = check_finite(np.asarray(self.w, dtype=np.float64), "w")
        e_pos = check_finite(np.asarray(self.e_pos, dtype=np.float64), "e_pos")
        cls_token = check_finite(np.asarray(self.cls_token, dtype=np.float64), "cls_token")
        if w.ndim != 2 or e_pos.ndim != 2 or cls_token.ndim != 1:
            raise ValueError("w must be 2-D, e_pos 2-D, cls_token 1-D")
        if e_pos.shape[1] != w.shape[1] or cls_token.size != w.shape[1]:
            raise ValueError("projection width D must match e_pos and cls_token")
        object.__setattr__(self, "w", w)
        object.__setattr__(self, "e_pos", e_pos)
        object.__setattr__(self, "cls_token", cls_token)

    @property
    def d_model(self) -> int:
        return self.w.shape[1]

    @classmethod
    def random(cls, patch: int, c_in: int, d_model: int, n_patches: int,
               rng: SeededRng, use_cls: bool = False) -> "PatchEmbedding":
        k = patch * patch * c_in
        return cls(
            patch=patch,
            w=rng.normal(k * d_model).reshape(k, d_model) / math.sqrt(k),
            e_pos=rng.normal((n_patches + 1) * d_model).reshape(n_patches + 1, d_model) * 0.02,
            cls_token=rng.normal(d_model) * 0.02,
            use_cls=use_cls,
        )


def patch_embed(image: np.ndarray, pe: PatchEmbedding) -> np.ndarray:
    """Embed an (H, W, C_in) image into a (J [+1], D) token sequence.

    Each P x P x C_in patch is flattened row-major and projected by ``pe.w``;
    the class token, when enabled, is prepended before the positional rows
    are added.
    """
    image = np.asarray(image, dtype=np.float64)
    if image.ndim != 3:
        raise ValueError("image must be (H, W, C_in)")
    h, w, c_in = image.shape
    p = pe.patch
    if h % p != 0 or w % p != 0:
        raise ValueError(f"image size {h}x{w} not divisible by patch {p}")
    if pe.w.shape[0] != p * p * c_in:
        raise ValueError("projection rows must equal P*P*C_in")
    gh, gw = h // p, w // p
    n_patches = gh * gw
    if pe.e_pos.shape[0] != n_patches + 1:
        raise ValueError(f"e_pos must have {n_patches + 1} rows for this image size")
    patches = (image.reshape(gh, p, gw, p, c_in)
               .transpose(0, 2, 1, 3, 4)
               .reshape(n_patches, p * p * c_in))
    tokens = patches @ pe.w
    if pe.use_cls:
        tokens = np.vstack([pe.cls_token[None, :], tokens])
        return tokens + pe.e_pos
    return tokens + pe.e_pos[1:]


def shallow_swap(m: ModalityFeatures, residual: bool = True) -> ModalityFeatures:
    """Exchange front half-channels across streams.

    Each stream keeps its front half and takes the other stream's back half;
    with ``residual`` (the default) the swapped features are added back onto
    the originals. The residual-free variant is an involution.
    """
    half = m.shape[2] // 2
    sw_r = np.concatenate([m.f_r[..., :half], m.f_t[..., half:]], axis=2)
    sw_t = np.concatenate([m.f_t[..., :half], m.f_r[..., half:]], axis=2)
    if residual:
        sw_r = sw_r + m.f_r
        sw_t = sw_t + m.f_t
    return ModalityFeatures(f_r=sw_r, f_t=sw_t)


@dataclass(frozen=True)
class Mlp3:
    """Three linear layers C -> 2C -> 2C -> C with SiLU between layers."""

    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray
    w3: np.ndarray
    b3: np.ndarray

    def __post_init__(self):
        for name in ("w1", "b1", "w2", "b2", "w3", "b3"):
            arr = check_finite(np.asarray(getattr(self, name), dtype=np.float64), name)
            object.__setattr__(self, name, arr)
        c, h = self.w1.shape
        if (self.b1.shape != (h,) or self.w2.shape != (h, h) or self.b2.shape != (h,)
                or self.w3.shape != (h, c) or self.b3.shape != (c,)):
            raise ValueError("MLP layer shapes do not compose")

    def apply(self, x: np.ndarray) -> np.ndarray:
        h1 = silu(x @ self.w1 + self.b1)
        h2 = silu(h1 @ self.w2 + self.b2)
        return h2 @ self.w3 + self.b3

    @classmethod
    def random(cls, c: int, rng: SeededRng) -> "Mlp3":
        h = 2 * c
        return cls(
            w1=rng.normal(c * h).reshape(c, h) / math.sqrt(c),
            b1=rng.normal(h) * 0.01,
            w2=rng.normal(h * h).reshape(h, h) / math.sqrt(h),
            b2=rng.normal(h) * 0.01,
            w3=rng.normal(h * c).reshape(h, c) / math.sqrt(h),
            b3=rng.normal(c) * 0.01,
        )

    @classmethod
    def zero(cls, c: int) -> "Mlp3":
        h = 2 * c
        return cls(w1=np.zeros((c, h)), b1=np.zeros(h), w2=np.zeros((h, h)),
                   b2=np.zeros(h), w3=np.zeros((h, c)), b3=np.zeros(c))

    def to_tensors(self) -> dict[str, np.ndarray]:
        return {k: getattr(self, k) for k in ("w1", "b1", "w2", "b2", "w3", "b3")}

    @classmethod
    def from_tensors(cls, tensors: dict[str, np.ndarray]) -> "Mlp3":
        return cls(**{k: tensors[k] for k in ("w1", "b1", "w2", "b2", "w3", "b3")})


_NORMS = ("norm_scale_r", "norm_offset_r", "norm_scale_t", "norm_offset_t")
_NESTED = {"gate_r": Mlp3, "gate_t": Mlp3, "out_mlp": Mlp3,
           "ss2d_r": Ss2dParams, "ss2d_t": Ss2dParams}


@dataclass(frozen=True)
class FusionBlockParams:
    """Weights of the gated two-stream fusion block.

    The token count N is laid out on a (grid_h, grid_w) grid for the 2-D
    scans. ``residual_mode`` selects where the pre-block features re-enter:
    "crossed" adds each stream's input to the *other* stream's fused update,
    "straight" to its own.
    """

    grid_h: int
    grid_w: int
    norm_scale_r: np.ndarray
    norm_offset_r: np.ndarray
    norm_scale_t: np.ndarray
    norm_offset_t: np.ndarray
    gate_r: Mlp3
    gate_t: Mlp3
    out_mlp: Mlp3
    ss2d_r: Ss2dParams
    ss2d_t: Ss2dParams
    residual_mode: str = "crossed"

    def __post_init__(self):
        if self.grid_h < 1 or self.grid_w < 1:
            raise ValueError("grid extents must be >= 1")
        if self.residual_mode not in ("crossed", "straight"):
            raise ValueError(f"unknown residual mode {self.residual_mode!r}")
        c = self.ss2d_r.d_channels
        for name in _NORMS:
            arr = check_finite(np.asarray(getattr(self, name), dtype=np.float64), name)
            if arr.shape != (c,):
                raise ValueError(f"{name} must have shape ({c},)")
            object.__setattr__(self, name, arr)
        if self.ss2d_t.d_channels != c or self.gate_r.w1.shape[0] != c \
                or self.gate_t.w1.shape[0] != c or self.out_mlp.w1.shape[0] != c:
            raise ValueError("all block weights must share the channel count C")

    @property
    def c(self) -> int:
        return self.ss2d_r.d_channels

    @property
    def n_tokens(self) -> int:
        return self.grid_h * self.grid_w

    @classmethod
    def random(cls, c: int, n_state: int, grid_h: int, grid_w: int,
               rng: SeededRng, residual_mode: str = "crossed",
               zero_offsets: bool = False) -> "FusionBlockParams":
        """Random weights; ``zero_offsets`` zeroes every bias and norm offset
        so the block maps all-zero features to all-zero features exactly."""

        def mlp() -> Mlp3:
            m = Mlp3.random(c, rng)
            if zero_offsets:
                h = 2 * c
                m = Mlp3(w1=m.w1, b1=np.zeros(h), w2=m.w2, b2=np.zeros(h),
                         w3=m.w3, b3=np.zeros(c))
            return m

        def offset() -> np.ndarray:
            v = 0.1 * rng.normal(c)
            return np.zeros(c) if zero_offsets else v

        return cls(
            grid_h=grid_h,
            grid_w=grid_w,
            norm_scale_r=1.0 + 0.1 * rng.normal(c),
            norm_offset_r=offset(),
            norm_scale_t=1.0 + 0.1 * rng.normal(c),
            norm_offset_t=offset(),
            gate_r=mlp(),
            gate_t=mlp(),
            out_mlp=mlp(),
            ss2d_r=Ss2dParams.random(c, n_state, rng),
            ss2d_t=Ss2dParams.random(c, n_state, rng),
            residual_mode=residual_mode,
        )

    def to_tensors(self) -> dict[str, np.ndarray]:
        """Every weight tensor by role; a nested weight is named ``<field>.<key>``."""
        out = {name: getattr(self, name) for name in _NORMS}
        for name in _NESTED:
            for key, arr in getattr(self, name).to_tensors().items():
                out[f"{name}.{key}"] = arr
        return out

    @classmethod
    def from_tensors(cls, tensors: dict[str, np.ndarray], grid_h: int, grid_w: int,
                     residual_mode: str) -> "FusionBlockParams":
        """Inverse of :meth:`to_tensors`; the grid and residual mode are not tensors."""
        return cls(
            grid_h=grid_h,
            grid_w=grid_w,
            **{name: tensors[name] for name in _NORMS},
            **{name: _from_prefixed(kind.from_tensors, tensors, name)
               for name, kind in _NESTED.items()},
            residual_mode=residual_mode,
        )


def _layer_norm(x: np.ndarray, scale: np.ndarray, offset: np.ndarray) -> np.ndarray:
    mu = x.mean(axis=-1, keepdims=True)
    var = ((x - mu) ** 2).mean(axis=-1, keepdims=True)
    return (x - mu) / np.sqrt(var + _LN_EPS) * scale + offset


def fuse(m: ModalityFeatures, p: FusionBlockParams,
         counter: OpCounter | None = None) -> ModalityFeatures:
    """Gated two-stream fusion with cross residuals.

    Per stream: layer-normalize, compute the gate Z with that stream's MLP,
    run the 2-D selective scan on the normalized tokens, gate it with
    SiLU(Z); then one shared MLP maps the sum of both gated outputs, the
    pre-block features are added per ``residual_mode``, and each stream's
    input is added once more on top. Output shapes equal input shapes.
    """
    b, n, c = m.shape
    if c != p.c:
        raise ValueError(f"channel mismatch: features have {c}, params {p.c}")
    if n != p.n_tokens:
        raise ValueError(f"token count {n} does not factor into the configured "
                         f"{p.grid_h}x{p.grid_w} grid")
    out_r = np.empty_like(m.f_r)
    out_t = np.empty_like(m.f_t)
    for i in range(b):
        xr, xt = m.f_r[i], m.f_t[i]
        nr = _layer_norm(xr, p.norm_scale_r, p.norm_offset_r)
        nt = _layer_norm(xt, p.norm_scale_t, p.norm_offset_t)
        zr = p.gate_r.apply(nr)
        zt = p.gate_t.apply(nt)
        yr = ss2d(nr.reshape(p.grid_h, p.grid_w, c), p.ss2d_r, counter).reshape(n, c)
        yt = ss2d(nt.reshape(p.grid_h, p.grid_w, c), p.ss2d_t, counter).reshape(n, c)
        gyr = yr * silu(zr)
        gyt = yt * silu(zt)
        if counter is not None:
            counter.add(6 * n * c)  # SiLU (2/elem) + gate product (1/elem), both streams
        shared = p.out_mlp.apply(gyr + gyt)
        if p.residual_mode == "crossed":
            hat_r = shared + xt
            hat_t = shared + xr
        else:
            hat_r = shared + xr
            hat_t = shared + xt
        out_r[i] = xr + hat_r
        out_t[i] = xt + hat_t
    return ModalityFeatures(f_r=out_r, f_t=out_t)


def inject(backbone: dict[int, ModalityFeatures],
           fused: dict[int, ModalityFeatures]) -> dict[int, ModalityFeatures]:
    """Residual-add fused features into backbone levels 2..4, both streams.

    Levels absent from ``fused`` pass through unchanged.
    """
    allowed = {2, 3, 4}
    if not set(backbone) <= allowed or not set(fused) <= allowed:
        raise ValueError("levels must be a subset of {2, 3, 4}")
    if not set(fused) <= set(backbone):
        raise ValueError("fused levels must exist in the backbone map")
    out: dict[int, ModalityFeatures] = {}
    for level, feats in backbone.items():
        if level in fused:
            add = fused[level]
            if add.shape != feats.shape:
                raise ValueError(f"level {level} shape mismatch: "
                                 f"{feats.shape} vs {add.shape}")
            out[level] = ModalityFeatures(f_r=feats.f_r + add.f_r,
                                          f_t=feats.f_t + add.f_t)
        else:
            out[level] = feats
    return out


@dataclass(frozen=True)
class AttentionFusionParams:
    """Shared single-head projections for the attention fusion baseline."""

    w_q: np.ndarray
    w_k: np.ndarray
    w_v: np.ndarray

    def __post_init__(self):
        w_q = check_finite(np.asarray(self.w_q, dtype=np.float64), "w_q")
        w_k = check_finite(np.asarray(self.w_k, dtype=np.float64), "w_k")
        w_v = check_finite(np.asarray(self.w_v, dtype=np.float64), "w_v")
        if w_q.ndim != 2 or w_q.shape != w_k.shape:
            raise ValueError("w_q and w_k must be equal-shape (C, d_k)")
        if w_v.ndim != 2 or w_v.shape[0] != w_q.shape[0] or w_v.shape[0] != w_v.shape[1]:
            raise ValueError("w_v must be (C, C) matching the channel count")
        object.__setattr__(self, "w_q", w_q)
        object.__setattr__(self, "w_k", w_k)
        object.__setattr__(self, "w_v", w_v)

    @property
    def c(self) -> int:
        return self.w_q.shape[0]

    @property
    def d_k(self) -> int:
        return self.w_q.shape[1]

    @classmethod
    def random(cls, c: int, d_k: int, rng: SeededRng) -> "AttentionFusionParams":
        return cls(
            w_q=rng.normal(c * d_k).reshape(c, d_k) / math.sqrt(c),
            w_k=rng.normal(c * d_k).reshape(c, d_k) / math.sqrt(c),
            w_v=rng.normal(c * c).reshape(c, c) / math.sqrt(c),
        )


def attention_fusion_baseline(m: ModalityFeatures, p: AttentionFusionParams,
                              counter: OpCounter | None = None,
                              block_rows: int = 2048) -> ModalityFeatures:
    """Single-head scaled dot-product fusion over the concatenated streams.

    Both token sequences are stacked to length 2N, attended with shared
    Q/K/V projections, and split back. Row-blocked evaluation keeps memory
    at O(block_rows * N) while preserving the quadratic operation count.
    """
    b, n, c = m.shape
    if c != p.c:
        raise ValueError(f"channel mismatch: features have {c}, params {p.c}")
    scale = 1.0 / math.sqrt(p.d_k)
    out_r = np.empty_like(m.f_r)
    out_t = np.empty_like(m.f_t)
    for i in range(b):
        tokens = np.vstack([m.f_r[i], m.f_t[i]])          # (2N, C)
        q = tokens @ p.w_q
        k = tokens @ p.w_k
        v = tokens @ p.w_v
        fused = np.empty((2 * n, c))
        for r0 in range(0, 2 * n, block_rows):
            r1 = min(r0 + block_rows, 2 * n)
            scores = q[r0:r1] @ k.T
            scores *= scale
            scores -= scores.max(axis=1, keepdims=True)
            np.exp(scores, out=scores)
            inv = 1.0 / scores.sum(axis=1, keepdims=True)
            scores *= inv
            if counter is not None:
                rows = r1 - r0
                # score matmul, scale, normalize products, row reciprocals
                counter.add(rows * 2 * n * p.d_k + rows * 2 * n + rows * 2 * n + rows)
            fused[r0:r1] = scores @ v
            if counter is not None:
                counter.add((r1 - r0) * 2 * n * c)
        out_r[i] = fused[:n]
        out_t[i] = fused[n:]
    return ModalityFeatures(f_r=out_r, f_t=out_t)


def count_ops(path: str, n_tokens: int, c: int, n_state: int,
              d_k: int | None = None) -> int:
    """Exact mechanism multiply count for one fusion pass over N tokens.

    ``ss2d_fusion`` counts both streams' four directional selective scans
    plus the gating nonlinearity and product; ``attention_fusion`` counts the
    score matrix, softmax scaling/normalization, and value aggregation over
    the 2N concatenated tokens (d_k defaults to C). The scan counts are the
    reference recurrence's multiplies; they exclude the two-level scan's
    carry multiplies (see :func:`cfmw_kit.ssm.selective_scan_mac_count`).
    """
    if n_tokens < 1 or c < 1 or n_state < 1:
        raise ValueError("sizes must be positive")
    if path == "ss2d_fusion":
        return 2 * 4 * selective_scan_mac_count(n_tokens, c, n_state) + 6 * n_tokens * c
    if path == "attention_fusion":
        d_k = c if d_k is None else d_k
        n2 = 2 * n_tokens
        return n2 * n2 * d_k + n2 * n2 + n2 * n2 + n2 + n2 * n2 * c
    raise ValueError(f"unknown path {path!r}")


def _near_square_grid(n: int) -> tuple[int, int]:
    best = (1, n)
    for h in range(1, int(math.isqrt(n)) + 1):
        if n % h == 0:
            best = (h, n // h)
    return best


def fit_loglog_slope(xs, ys) -> float:
    """Least-squares slope of log(y) against log(x)."""
    lx = np.log(np.asarray(xs, dtype=np.float64))
    ly = np.log(np.asarray(ys, dtype=np.float64))
    lx = lx - lx.mean()
    return float((lx * (ly - ly.mean())).sum() / (lx * lx).sum())


@dataclass(frozen=True)
class BenchRow:
    path: str
    n_tokens: int
    c: int
    ops: int
    wall_ns: int


def _median_ns(fn, repeats: int) -> int:
    fn()  # warmup, discarded
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter_ns()
        fn()
        times.append(time.perf_counter_ns() - t0)
    times.sort()
    mid = len(times) // 2
    if len(times) % 2 == 1:
        return times[mid]
    return (times[mid - 1] + times[mid]) // 2


def scaling_benchmark(n_values, c: int, n_state: int, repeats: int,
                      seed: int, d_k: int | None = None
                      ) -> tuple[list[BenchRow], dict[str, float]]:
    """Time both fusion paths over a token-count grid, single-threaded.

    For every N the same random (1, N, C) feature pair feeds a gated-scan
    fusion block and the attention baseline; wall time is the median of
    ``repeats`` runs after one discarded warmup. Returns the rows plus
    fitted log-log slopes of ops and wall time per path.
    """
    n_values = [int(n) for n in n_values]
    if len(n_values) < 4:
        raise ValueError("benchmark grid needs at least 4 sizes")
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    d_k = c if d_k is None else d_k
    rng = SeededRng(seed)
    rows: list[BenchRow] = []
    for n in n_values:
        gh, gw = _near_square_grid(n)
        feats = ModalityFeatures(
            f_r=rng.normal(n * c).reshape(1, n, c),
            f_t=rng.normal(n * c).reshape(1, n, c),
        )
        block = FusionBlockParams.random(c, n_state, gh, gw, rng)
        attn = AttentionFusionParams.random(c, d_k, rng)
        wall_ss2d = _median_ns(lambda: fuse(feats, block), repeats)
        wall_attn = _median_ns(lambda: attention_fusion_baseline(feats, attn), repeats)
        rows.append(BenchRow("ss2d_fusion", n, c,
                             count_ops("ss2d_fusion", n, c, n_state), wall_ss2d))
        rows.append(BenchRow("attention_fusion", n, c,
                             count_ops("attention_fusion", n, c, n_state, d_k=d_k),
                             wall_attn))
    slopes: dict[str, float] = {}
    for path in ("ss2d_fusion", "attention_fusion"):
        sub = [r for r in rows if r.path == path]
        slopes[f"{path}_ops_slope"] = fit_loglog_slope(
            [r.n_tokens for r in sub], [r.ops for r in sub])
        slopes[f"{path}_wall_slope"] = fit_loglog_slope(
            [r.n_tokens for r in sub], [r.wall_ns for r in sub])
    return rows, slopes


def save_fusion_params(p: FusionBlockParams, directory: str | Path) -> None:
    """Store every weight tensor as a bundle, with the grid and residual mode as meta."""
    meta = {"grid_h": str(p.grid_h), "grid_w": str(p.grid_w),
            "residual_mode": p.residual_mode}
    save_bundle(directory, meta, p.to_tensors())


def load_fusion_params(directory: str | Path) -> FusionBlockParams:
    meta, tensors = load_bundle(directory)
    return _rebuild(tensors, lambda t: FusionBlockParams.from_tensors(
        t, int(meta["grid_h"]), int(meta["grid_w"]), meta["residual_mode"]),
        FusionBlockParams.to_tensors)
