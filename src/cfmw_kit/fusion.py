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

import numpy as np

from .tensor import SeededRng, check_finite, count, finite_step, freeze_arrays, silu
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
]

_LN_EPS = 1e-6


@dataclass(frozen=True)
class ModalityFeatures:
    """Aligned (B, N, C) feature pair; C must be even for the half-channel swap."""

    f_r: np.ndarray
    f_t: np.ndarray

    def __post_init__(self):
        freeze_arrays(self)
        f_r, f_t = self.f_r, self.f_t
        if f_r.ndim != 3 or f_t.ndim != 3:
            raise ValueError("features must be (B, N, C) arrays")
        if f_r.shape != f_t.shape:
            raise ValueError(f"modality shapes differ: {f_r.shape} vs {f_t.shape}")
        if f_r.shape[2] % 2 != 0:
            raise ValueError("channel count must be even")

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
        freeze_arrays(self)
        w, e_pos, cls_token = self.w, self.e_pos, self.cls_token
        if w.ndim != 2 or e_pos.ndim != 2 or cls_token.ndim != 1:
            raise ValueError("w must be 2-D, e_pos 2-D, cls_token 1-D")
        if e_pos.shape[1] != w.shape[1] or cls_token.size != w.shape[1]:
            raise ValueError("projection width D must match e_pos and cls_token")


def patch_embed(image: np.ndarray, pe: PatchEmbedding) -> np.ndarray:
    """Embed an (H, W, C_in) image into a (J [+1], D) token sequence.

    Each P x P x C_in patch is flattened row-major and projected by ``pe.w``;
    the class token, when enabled, is prepended before the positional rows
    are added. An image holding NaN or Inf is refused, and so is one so large
    that its embedding overflows float64.
    """
    image = check_finite(np.asarray(image, dtype=np.float64), "image")
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
    return finite_step("image is too large: its embedding overflows float64", lambda: (
        np.vstack([pe.cls_token[None, :], patches @ pe.w]) + pe.e_pos if pe.use_cls
        else patches @ pe.w + pe.e_pos[1:]))


def shallow_swap(m: ModalityFeatures, residual: bool = True) -> ModalityFeatures:
    """Exchange front half-channels across streams.

    Each stream keeps its front half and takes the other stream's back half;
    with ``residual`` (the default) the swapped features are added back onto
    the originals. The residual-free variant is an involution. Features so
    large that the residual add overflows float64 are refused.
    """
    half = m.shape[2] // 2
    sw_r = np.concatenate([m.f_r[..., :half], m.f_t[..., half:]], axis=2)
    sw_t = np.concatenate([m.f_t[..., :half], m.f_r[..., half:]], axis=2)
    if residual:
        finite_step("features are too large: the shallow swap overflows float64",
                    lambda: (np.add(sw_r, m.f_r, out=sw_r), np.add(sw_t, m.f_t, out=sw_t)))
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
        freeze_arrays(self)
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
        h = 2 * count("c", c, 1)
        w1, b1, w2, b2, w3, b3 = rng.draws(("normal", c * h), ("normal", h), ("normal", h * h),
                                           ("normal", h), ("normal", h * c), ("normal", c))
        return cls(
            w1=w1.reshape(c, h) / math.sqrt(c),
            b1=b1 * 0.01,
            w2=w2.reshape(h, h) / math.sqrt(h),
            b2=b2 * 0.01,
            w3=w3.reshape(h, c) / math.sqrt(h),
            b3=b3 * 0.01,
        )


_NORMS = ("norm_scale_r", "norm_offset_r", "norm_scale_t", "norm_offset_t")


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
        freeze_arrays(self)
        if self.residual_mode not in ("crossed", "straight"):
            raise ValueError(f"unknown residual mode {self.residual_mode!r}")
        c = self.ss2d_r.d_channels
        for name in _NORMS:
            if getattr(self, name).shape != (c,):
                raise ValueError(f"{name} must have shape ({c},)")
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
        c, n_state = count("c", c, 1), count("n_state", n_state, 1)

        def mlp() -> Mlp3:
            m = Mlp3.random(c, rng)
            if zero_offsets:
                h = 2 * c
                m = Mlp3(w1=m.w1, b1=np.zeros(h), w2=m.w2, b2=np.zeros(h),
                         w3=m.w3, b3=np.zeros(c))
            return m

        def offset(v: np.ndarray) -> np.ndarray:
            return np.zeros(c) if zero_offsets else 0.1 * v

        scale_r, offset_r, scale_t, offset_t = rng.draws(*[("normal", c)] * 4)
        return cls(
            grid_h=grid_h,
            grid_w=grid_w,
            norm_scale_r=1.0 + 0.1 * scale_r,
            norm_offset_r=offset(offset_r),
            norm_scale_t=1.0 + 0.1 * scale_t,
            norm_offset_t=offset(offset_t),
            gate_r=mlp(),
            gate_t=mlp(),
            out_mlp=mlp(),
            ss2d_r=Ss2dParams.random(c, n_state, rng),
            ss2d_t=Ss2dParams.random(c, n_state, rng),
            residual_mode=residual_mode,
        )


def _layer_norm(x: np.ndarray, scale: np.ndarray, offset: np.ndarray) -> np.ndarray:
    def norm():  # var is checked too: an infinite one would normalize to 0
        mu = x.mean(axis=-1, keepdims=True)
        var = ((x - mu) ** 2).mean(axis=-1, keepdims=True)
        return (x - mu) / np.sqrt(var + _LN_EPS) * scale + offset, var
    return finite_step("features are too large: the layer norm overflows float64", norm)[0]


def fuse(m: ModalityFeatures, p: FusionBlockParams,
         counter: OpCounter | None = None) -> ModalityFeatures:
    """Gated two-stream fusion with cross residuals.

    Per stream: layer-normalize, compute the gate Z with that stream's MLP,
    run the 2-D selective scan on the normalized tokens, gate it with
    SiLU(Z); then one shared MLP maps the sum of both gated outputs, the
    pre-block features are added per ``residual_mode``, and each stream's
    input is added once more on top. Output shapes equal input shapes.
    Features or weights so large that the layer norm, or the rest of the
    block, overflows float64 are refused.
    """
    b, n, c = m.shape
    if c != p.c:
        raise ValueError(f"channel mismatch: features have {c}, params {p.c}")
    if n != p.n_tokens:
        raise ValueError(f"token count {n} does not factor into the configured "
                         f"{p.grid_h}x{p.grid_w} grid")

    def block():
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
            res_r, res_t = (xt, xr) if p.residual_mode == "crossed" else (xr, xt)
            out_r[i] = xr + (shared + res_r)
            out_t[i] = xt + (shared + res_t)
        return out_r, out_t
    return ModalityFeatures(*finite_step(
        "features are too large: the fusion block overflows float64", block))


def inject(backbone: dict[int, ModalityFeatures],
           fused: dict[int, ModalityFeatures]) -> dict[int, ModalityFeatures]:
    """Residual-add fused features into backbone levels 2..4, both streams.

    Levels absent from ``fused`` pass through unchanged; an overflowing sum is refused.
    """
    if not all(isinstance(k, (int, np.integer)) and k in (2, 3, 4) for k in (*backbone, *fused)):
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
            out[level] = ModalityFeatures(*finite_step(
                "features are too large: the injection overflows float64",
                lambda: (feats.f_r + add.f_r, feats.f_t + add.f_t)))
        else:
            out[level] = feats
    return out


@dataclass(frozen=True)
class AttentionFusionParams:
    """Shared single-head (C, C) projections for the attention fusion baseline."""

    w_q: np.ndarray
    w_k: np.ndarray
    w_v: np.ndarray

    def __post_init__(self):
        freeze_arrays(self)
        if self.w_q.ndim != 2 or any(w.shape != (self.c, self.c)
                                     for w in (self.w_q, self.w_k, self.w_v)):
            raise ValueError("w_q, w_k and w_v must all be (C, C)")

    @property
    def c(self) -> int:
        return self.w_q.shape[0]

    @classmethod
    def random(cls, c: int, rng: SeededRng) -> "AttentionFusionParams":
        c = count("c", c, 1)
        w_q, w_k, w_v = rng.draws(*[("normal", c * c)] * 3)
        return cls(*(w.reshape(c, c) / math.sqrt(c) for w in (w_q, w_k, w_v)))


# Query rows per score block of :func:`attention_fusion_baseline`.
_ATTN_ROWS = 2048


def attention_fusion_baseline(m: ModalityFeatures, p: AttentionFusionParams) -> ModalityFeatures:
    """Single-head scaled dot-product fusion over the concatenated streams.

    Both token sequences are stacked to length 2N, attended with shared
    Q/K/V projections, and split back. The scores are evaluated in fixed
    blocks of 2048 query rows, each written into one preallocated block,
    which keeps memory at O(2048 N) while preserving the quadratic
    operation count. Features so large that the projections or scores
    overflow float64 are refused.
    """
    b, n, c = m.shape
    if c != p.c:
        raise ValueError(f"channel mismatch: features have {c}, params {p.c}")
    scale = 1.0 / math.sqrt(c)
    out_r = np.empty_like(m.f_r)
    out_t = np.empty_like(m.f_t)
    block = np.empty((min(_ATTN_ROWS, 2 * n), 2 * n))
    for i in range(b):
        tokens = np.vstack([m.f_r[i], m.f_t[i]])          # (2N, C)
        fused = np.empty((2 * n, c))

        def attend():  # a +inf score leaves NaN or Inf in fused; a -inf one is weight 0
            q = tokens @ p.w_q
            k = tokens @ p.w_k
            v = tokens @ p.w_v
            for r0 in range(0, 2 * n, _ATTN_ROWS):
                r1 = min(r0 + _ATTN_ROWS, 2 * n)
                scores = np.matmul(q[r0:r1], k.T, out=block[:r1 - r0])
                scores *= scale
                scores -= scores.max(axis=1, keepdims=True)
                np.exp(scores, out=scores)
                inv = 1.0 / scores.sum(axis=1, keepdims=True)
                scores *= inv
                np.matmul(scores, v, out=fused[r0:r1])
            return fused
        finite_step("features are too large: attention overflows float64", attend)
        out_r[i] = fused[:n]
        out_t[i] = fused[n:]
    return ModalityFeatures(f_r=out_r, f_t=out_t)


def count_ops(path: str, n_tokens: int, c: int, n_state: int) -> int:
    """Exact mechanism multiply count for one fusion pass over N tokens.

    ``ss2d_fusion`` counts both streams' four directional selective scans
    plus the gating nonlinearity and product; ``attention_fusion`` counts the
    score matrix (d_k = C), softmax scaling/normalization, and value
    aggregation over the 2N concatenated tokens. The scan counts are the
    reference recurrence's multiplies (see
    :func:`cfmw_kit.ssm.selective_scan_mac_count`).
    """
    n_tokens, c = count("n_tokens", n_tokens, 1), count("c", c, 1)
    n_state = count("n_state", n_state, 1)
    if path == "ss2d_fusion":
        return 2 * 4 * selective_scan_mac_count(n_tokens, c, n_state) + 6 * n_tokens * c
    if path == "attention_fusion":  # scores, scale, normalize, reciprocals, values
        n2 = 2 * n_tokens
        return n2 * n2 * c + n2 * n2 + n2 * n2 + n2 + n2 * n2 * c
    raise ValueError(f"unknown path {path!r}")


def _near_square_grid(n: int) -> tuple[int, int]:
    best = (1, n)
    for h in range(1, int(math.isqrt(n)) + 1):
        if n % h == 0:
            best = (h, n // h)
    return best


def fit_loglog_slope(xs, ys) -> float:
    """Least-squares slope of log(y) against log(x) over positive (x, y) pairs."""
    xs, ys = np.asarray(xs, dtype=np.float64), np.asarray(ys, dtype=np.float64)
    if xs.ndim != 1 or xs.shape != ys.shape or xs.size < 2:
        raise ValueError("xs and ys must be 1-D, of one length, at least 2")
    lx, ly = finite_step("xs and ys must be positive and finite", lambda: (np.log(xs), np.log(ys)))
    lx = lx - lx.mean()
    return float(finite_step("xs must hold two distinct values",
                             lambda: (lx * (ly - ly.mean())).sum() / (lx * lx).sum()))


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


def scaling_benchmark(n_values: list[int], c: int, n_state: int, repeats: int,
                      seed: int) -> tuple[list[BenchRow], dict[str, float]]:
    """Time both fusion paths over a token-count grid, single-threaded.

    For every N the same random (1, N, C) feature pair feeds a gated-scan
    fusion block and the attention baseline (d_k = C); wall time is the
    median of ``repeats`` runs after one discarded warmup. Returns the rows
    plus fitted log-log slopes of ops and wall time per path.
    """
    n_values = [count("n_values entry", n, 1) for n in n_values]
    if len(n_values) < 4:
        raise ValueError("benchmark grid needs at least 4 sizes")
    # n_state is refused by FusionBlockParams.random, before anything is timed
    c, repeats = count("c", c, 1), count("repeats", repeats, 1)
    rng = SeededRng(seed)
    rows: list[BenchRow] = []
    for n in n_values:
        gh, gw = _near_square_grid(n)
        f_r, f_t = rng.draws(("normal", n * c), ("normal", n * c))
        feats = ModalityFeatures(f_r=f_r.reshape(1, n, c), f_t=f_t.reshape(1, n, c))
        block = FusionBlockParams.random(c, n_state, gh, gw, rng)
        attn = AttentionFusionParams.random(c, rng)
        wall_ss2d = _median_ns(lambda: fuse(feats, block), repeats)
        wall_attn = _median_ns(lambda: attention_fusion_baseline(feats, attn), repeats)
        rows.append(BenchRow("ss2d_fusion", n, c,
                             count_ops("ss2d_fusion", n, c, n_state), wall_ss2d))
        rows.append(BenchRow("attention_fusion", n, c,
                             count_ops("attention_fusion", n, c, n_state),
                             wall_attn))
    slopes: dict[str, float] = {}
    for path in ("ss2d_fusion", "attention_fusion"):
        sub = [r for r in rows if r.path == path]
        slopes[f"{path}_ops_slope"] = fit_loglog_slope(
            [r.n_tokens for r in sub], [r.ops for r in sub])
        slopes[f"{path}_wall_slope"] = fit_loglog_slope(
            [r.n_tokens for r in sub], [r.wall_ns for r in sub])
    return rows, slopes

