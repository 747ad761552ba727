"""Reference outputs, computed independently of the ``cfmw_kit`` modules.

Nothing here imports the kit, so a change to the code being measured cannot
also move its own reference. Each function follows a convention the kit
documents:

* ``Rng``: the counter-based SplitMix64 stream (word ``i`` is
  ``mix64(seed + (i + 1) * GOLDEN)``; uniforms take the top 53 bits; normals
  are Box-Muller pairs, radius uniform in (0, 1] first, angle uniform second).
* ``fuse``: the ``fuse`` command's recipe: seeded patch projection and block
  weights, patch embedding, residual half-channel swap, and the gated fusion
  block (layer norm, SiLU-gated MLPs, four-direction selective scans with
  zero-order-hold discretization, shared MLP, crossed residuals). The eight
  directional scans of one call run together, token by token.
* ``rain``, ``snow``, ``fog``: the ``synth`` generators and compositors, as
  unquantized float images.
* ``psnr``, ``ssim``: BT.601 luminance, 99 dB PSNR cap; SSIM in the separable
  form of the 11x11 Gaussian window.
* ``mean_ap``: matches each image on its own, one IoU matrix per image and
  class; confidence ranking with ties in input order, all-point AP,
  0.50:0.05:0.95 grid.

Fused features agree with the CLI's up to rounding (1e-10), PSNR, SSIM and
mAP up to rounding or exactly, and weather images up to the 8-bit rounding.
"""

from __future__ import annotations

import math

import numpy as np

THRESHOLDS = tuple(round(0.50 + 0.05 * k, 2) for k in range(10))
LN_EPS = 1e-6
ZOH_EPS = 1e-8  # below this |z| the factor (exp(z) - 1) / z is taken as 1


# ------------------------------------------------------------ random stream

class Rng:
    """The kit's seeded stream, drawn call by call in the same order."""

    _GOLDEN = np.uint64(0x9E3779B97F4A7C15)

    def __init__(self, seed: int):
        self.seed = np.uint64(seed & 0xFFFFFFFFFFFFFFFF)
        self.used = 0

    def _top53(self, n: int) -> np.ndarray:
        z = self.seed + np.arange(self.used + 1, self.used + n + 1, dtype=np.uint64) * self._GOLDEN
        self.used += n
        z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        return (z ^ (z >> np.uint64(31))) >> np.uint64(11)

    def uniform(self, n: int) -> np.ndarray:
        return self._top53(n).astype(np.float64) * 2.0 ** -53

    def normal(self, n: int) -> np.ndarray:
        m = (n + 1) // 2
        radius = np.sqrt(-2.0 * np.log((self._top53(m) + np.uint64(1)).astype(np.float64)
                                       * 2.0 ** -53))
        angle = (2.0 * np.pi) * self.uniform(m)
        return np.stack([radius * np.cos(angle), radius * np.sin(angle)], axis=1).ravel()[:n]


# ------------------------------------------------------------------- fusion

def _silu(v: np.ndarray) -> np.ndarray:
    return v / (1.0 + np.exp(-v))


def _mlp(x: np.ndarray, layers) -> np.ndarray:
    (w1, b1), (w2, b2), (w3, b3) = layers
    return _silu(_silu(x @ w1 + b1) @ w2 + b2) @ w3 + b3


def _draw_mlp(rng: Rng, c: int):
    """C -> 2C -> 2C -> C weights; the biases are drawn, then zeroed."""
    h = 2 * c
    layers = []
    for rows, cols in ((c, h), (h, h), (h, c)):
        w = rng.normal(rows * cols).reshape(rows, cols) / math.sqrt(rows)
        rng.normal(cols)
        layers.append((w, np.zeros(cols)))
    return layers


def _draw_scan(rng: Rng, d: int, n: int) -> dict:
    sd = 1.0 / np.sqrt(d)
    return {"a": -(0.1 + 2.0 * rng.uniform(d * n).reshape(d, n)),
            "w_delta": rng.normal(d * d).reshape(d, d) * sd,
            "u_delta": rng.normal(d) * 0.5,
            "w_b": rng.normal(n * d).reshape(n, d) * sd,
            "u_b": rng.normal(n) * 0.5,
            "w_c": rng.normal(n * d).reshape(n, d) * sd,
            "u_c": rng.normal(n) * 0.5}


def _scans(seqs: list[np.ndarray], params: list[dict]) -> list[np.ndarray]:
    """Run equal-length (L, D) selective scans side by side, token by token."""
    x = np.stack(seqs)                                            # (S, L, D)
    p = {k: np.stack([q[k] for q in params]) for k in params[0]}
    pre = np.einsum("sld,sed->sle", x, p["w_delta"]) + p["u_delta"][:, None, :]
    delta = np.where(pre > 30.0, pre, np.log1p(np.exp(np.minimum(pre, 30.0))))
    b_seq = np.einsum("sld,snd->sln", x, p["w_b"]) + p["u_b"][:, None, :]
    c_seq = np.einsum("sld,snd->sln", x, p["w_c"]) + p["u_c"][:, None, :]
    s, length, d = x.shape
    h = np.zeros((s, d, p["a"].shape[2]))
    y = np.empty((s, length, d))
    block = 256
    for t0 in range(0, length, block):
        t1 = min(t0 + block, length)
        z = delta[:, t0:t1, :, None] * p["a"][:, None]             # (S, T, D, N)
        small = np.abs(z) < ZOH_EPS
        phi = np.where(small, 1.0, np.expm1(z) / np.where(small, 1.0, z))
        decay = np.exp(z)
        drive = phi * delta[:, t0:t1, :, None] * b_seq[:, t0:t1, None, :] \
            * x[:, t0:t1, :, None]
        for t in range(t1 - t0):
            h = decay[:, t] * h + drive[:, t]
            y[:, t0 + t] = np.matmul(h, c_seq[:, t0 + t, :, None])[..., 0]
    return list(y)


def _layer_norm(x: np.ndarray, scale: np.ndarray) -> np.ndarray:
    centred = x - x.mean(axis=1, keepdims=True)
    return centred / np.sqrt((centred ** 2).mean(axis=1, keepdims=True) + LN_EPS) * scale


def fuse(rgb: np.ndarray, thermal: np.ndarray, seed: int, patch: int, dim: int,
         d_state: int) -> tuple[np.ndarray, np.ndarray]:
    """Fused (1, N, C) RGB and thermal features of ``fuse`` with these flags
    (crossed residuals, residual swap, zero positional table and offsets)."""
    h, w, _ = rgb.shape
    gh, gw = h // patch, w // patch
    n, c = gh * gw, dim
    rng = Rng(seed)
    k = patch * patch * 3
    w_embed = rng.normal(k * c).reshape(k, c) / math.sqrt(k)
    scale_r = 1.0 + 0.1 * rng.normal(c)
    rng.normal(c)  # norm offset, drawn then zeroed
    scale_t = 1.0 + 0.1 * rng.normal(c)
    rng.normal(c)
    gate_r, gate_t, out_mlp = (_draw_mlp(rng, c) for _ in range(3))
    scan_r = [_draw_scan(rng, c, d_state) for _ in range(4)]
    scan_t = [_draw_scan(rng, c, d_state) for _ in range(4)]

    def embed(img):
        cells = img.astype(np.float64).reshape(gh, patch, gw, patch, 3)
        return cells.transpose(0, 2, 1, 3, 4).reshape(n, k) @ w_embed

    e_r, e_t = embed(rgb), embed(thermal)
    half = c // 2
    x_r = np.concatenate([e_r[:, :half], e_t[:, half:]], axis=1) + e_r
    x_t = np.concatenate([e_t[:, :half], e_r[:, half:]], axis=1) + e_t
    norm_r, norm_t = _layer_norm(x_r, scale_r), _layer_norm(x_t, scale_t)

    def directions(tokens):
        """Row-major and column-major orders, each forward and backward."""
        col = tokens.reshape(gh, gw, c).transpose(1, 0, 2).reshape(n, c)
        return [tokens, tokens[::-1], col, col[::-1]]

    ys = _scans(directions(norm_r) + directions(norm_t), scan_r + scan_t)

    def merge(y):
        def uncol(v):
            return v.reshape(gw, gh, c).transpose(1, 0, 2).reshape(n, c)
        return (y[0] + y[1][::-1]) + (uncol(y[2]) + uncol(y[3][::-1]))

    gated = merge(ys[:4]) * _silu(_mlp(norm_r, gate_r)) \
        + merge(ys[4:]) * _silu(_mlp(norm_t, gate_t))
    shared = _mlp(gated, out_mlp)
    return (x_r + (shared + x_t))[None], (x_t + (shared + x_r))[None]


# ------------------------------------------------------------------ weather

def _composite(img: np.ndarray, mask: np.ndarray, base: np.ndarray,
               tint=(1.0, 1.0, 1.0)) -> np.ndarray:
    overlay = np.clip(base[..., None] * np.asarray(tint), 0.0, 255.0)
    m = mask[..., None]
    return np.clip(img * (1.0 - m) + overlay * m, 0.0, 255.0)


def rain(img: np.ndarray, seed: int, density: float, angle_deg: float,
         streak_len: int) -> np.ndarray:
    """Tapered streaks splatted bilinearly onto a mask; bright gray overlay."""
    h, w, _ = img.shape
    rng = Rng(seed)
    n = int(round(density * h * w))
    xs, ys = rng.uniform(n) * w, rng.uniform(n) * h
    strength = 0.55 + 0.45 * rng.uniform(n)
    steps = np.arange(streak_len + 1)[:, None]
    px = xs + steps * math.cos(math.radians(angle_deg))
    py = ys + steps * math.sin(math.radians(angle_deg))
    weight = strength * (1.0 - 0.5 * steps / streak_len)
    x0, y0 = np.floor(px), np.floor(py)
    fx, fy = px - x0, py - y0
    mask = np.zeros(h * w)
    for dy, dx, share in ((0, 0, (1 - fx) * (1 - fy)), (0, 1, fx * (1 - fy)),
                          (1, 0, (1 - fx) * fy), (1, 1, fx * fy)):
        yy, xx = (y0 + dy).astype(np.int64), (x0 + dx).astype(np.int64)
        ok = (yy >= 0) & (yy < h) & (xx >= 0) & (xx < w)
        mask += np.bincount(yy[ok] * w + xx[ok], (weight * share)[ok], minlength=h * w)
    base = 230.0 + 25.0 * rng.uniform(h * w).reshape(h, w)
    return _composite(img, np.clip(mask, 0.0, 1.0).reshape(h, w), base)


def snow(img: np.ndarray, seed: int, density: float, r_min: float,
         r_max: float) -> np.ndarray:
    """Soft discs max-combined into a mask; bright, slightly blue overlay."""
    h, w, _ = img.shape
    rng = Rng(seed)
    n = int(round(density * h * w))
    xs, ys = rng.uniform(n) * w, rng.uniform(n) * h
    radii = r_min + (r_max - r_min) * rng.uniform(n)
    reach = int(math.ceil(r_max)) + 1
    offsets = np.arange(-reach, reach + 1)
    yy = np.floor(ys)[:, None, None].astype(np.int64) + offsets[None, :, None]
    xx = np.floor(xs)[:, None, None].astype(np.int64) + offsets[None, None, :]
    yy, xx = np.broadcast_arrays(yy, xx)
    d2 = ((xx + 0.5 - xs[:, None, None]) ** 2 + (yy + 0.5 - ys[:, None, None]) ** 2) \
        / (radii ** 2)[:, None, None]
    ok = (yy >= 0) & (yy < h) & (xx >= 0) & (xx < w)
    mask = np.zeros(h * w)
    np.maximum.at(mask, yy[ok] * w + xx[ok], np.clip(1.0 - d2[ok], 0.0, 1.0))
    base = 232.0 + 18.0 * rng.uniform(h * w).reshape(h, w)
    return _composite(img, mask.reshape(h, w), base, tint=(0.96, 0.99, 1.04))


def fog(img: np.ndarray, beta: float, l_inf: float, max_depth: float) -> np.ndarray:
    """Scattering law over a top-to-bottom depth ramp from 0 to ``max_depth``."""
    h = img.shape[0]
    depth = np.arange(h, dtype=np.float64) / (h - 1) * max_depth
    trans = np.exp(-beta * depth)[:, None, None]
    return np.clip(img * trans + l_inf * (1.0 - trans), 0.0, 255.0)


# ------------------------------------------------------------------ metrics


def psnr(x: np.ndarray, y: np.ndarray) -> float:
    mse = float(np.mean((x.astype(np.float64) - y.astype(np.float64)) ** 2))
    if mse == 0.0:
        return 99.0
    return min(10.0 * math.log10(255.0 ** 2 / mse), 99.0)


def _filter(img: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Valid-mode 2-D filter with the separable window outer(g, g)."""
    view = np.lib.stride_tricks.sliding_window_view
    rows = view(img, g.size, axis=0) @ g
    return view(rows, g.size, axis=1) @ g


def ssim(x: np.ndarray, y: np.ndarray) -> float:
    luma = np.array([0.299, 0.587, 0.114])
    gx = x.astype(np.float64) @ luma
    gy = y.astype(np.float64) @ luma
    ax = np.arange(11, dtype=np.float64) - 5.0
    g = np.exp(-(ax ** 2) / (2.0 * 1.5 ** 2))
    g /= g.sum()
    c1, c2 = (0.01 * 255.0) ** 2, (0.03 * 255.0) ** 2
    c3 = c2 / 2.0
    mu_x, mu_y = _filter(gx, g), _filter(gy, g)
    var_x = np.maximum(_filter(gx * gx, g) - mu_x ** 2, 0.0)
    var_y = np.maximum(_filter(gy * gy, g) - mu_y ** 2, 0.0)
    cov = _filter(gx * gy, g) - mu_x * mu_y
    sig_x, sig_y = np.sqrt(var_x), np.sqrt(var_y)
    lum = (2.0 * mu_x * mu_y + c1) / (mu_x ** 2 + mu_y ** 2 + c1)
    con = (2.0 * sig_x * sig_y + c2) / (var_x + var_y + c2)
    stru = (cov + c3) / (sig_x * sig_y + c3)
    return float(np.mean(lum * con * stru))


def _iou_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """IoU of every box in ``a`` (n, 4) against every box in ``b`` (m, 4)."""
    w = np.minimum(a[:, None, 2], b[None, :, 2]) - np.maximum(a[:, None, 0], b[None, :, 0])
    h = np.minimum(a[:, None, 3], b[None, :, 3]) - np.maximum(a[:, None, 1], b[None, :, 1])
    inter = np.where((w > 0) & (h > 0), w * h, 0.0)
    area_a = (a[:, 2] - a[:, 0]) * (a[:, 3] - a[:, 1])
    area_b = (b[:, 2] - b[:, 0]) * (b[:, 3] - b[:, 1])
    return inter / (area_a[:, None] + area_b[None, :] - inter)


def _ap(flags: list[bool], n_gt: int) -> float:
    """All-point AP, accumulated in the same order as the kit's."""
    if n_gt == 0:
        return 1.0 if not flags else 0.0
    ap, tp, fp, recall_prev, precision_prev = 0.0, 0, 0, 0.0, 1.0
    for is_tp in flags:
        tp, fp = tp + is_tp, fp + (not is_tp)
        recall = tp / n_gt
        ap += (recall - recall_prev) * precision_prev
        recall_prev, precision_prev = recall, tp / (tp + fp)
    return ap


def mean_ap(images) -> tuple[float, float, float]:
    """(mAP@0.50, mAP@0.75, mAP over the grid) of per-image (dets, gts).

    ``dets`` rows are ``class x1 y1 x2 y2 confidence`` and ``gts`` rows
    ``class x1 y1 x2 y2``; images are given in file-name order.
    """
    classes = sorted({int(c) for _, gts in images for c in gts[:, 0]})
    per_class = {}
    for c in classes:
        # detections in input order: image order, then file order
        dets = [(k, row) for k, (d, _) in enumerate(images) for row in d if row[0] == c]
        order = sorted(range(len(dets)), key=lambda i: -dets[i][1][5])
        gt_boxes = [gts[gts[:, 0] == c, 1:5] for _, gts in images]
        ious = [_iou_matrix(row[None, 1:5], gt_boxes[k])[0] if len(gt_boxes[k])
                else np.empty(0) for k, row in dets]
        per_class[c] = (order, [k for k, _ in dets], ious, sum(len(b) for b in gt_boxes))

    def class_ap(c: int, thr: float) -> float:
        order, image_of, ious, n_gt = per_class[c]
        matched = {}
        flags = []
        for i in order:
            taken = matched.setdefault(image_of[i], np.zeros(ious[i].size, dtype=bool))
            v = np.where(taken, -1.0, ious[i])
            j = int(np.argmax(v)) if v.size else -1
            hit = bool(j >= 0 and v[j] > 0.0 and v[j] >= thr)
            if hit:
                taken[j] = True
            flags.append(hit)
        return _ap(flags, n_gt)

    def class_mean(thr: float) -> float:
        return sum(class_ap(c, thr) for c in classes) / len(classes)

    grid = sum(class_mean(t) for t in THRESHOLDS) / len(THRESHOLDS)
    return class_mean(0.50), class_mean(0.75), grid
