"""Synthetic weather degradation: compositors and procedural generators.

Rain and snow composit a clean image against an overlay through a soft
[0, 1] mask; fog follows the atmospheric scattering law with a constant
attenuation coefficient along each viewing ray, which collapses the exact
integral form to

    out = j * exp(-beta * d) + l_inf * (1 - exp(-beta * d)).

Every compositor refuses a NaN or infinite input, naming it, and clamps to
the 8-bit [0, 255] image range. Generators are pure functions of their seeds.
"""

from __future__ import annotations

import math

import numpy as np

from .tensor import SeededRng, check_finite, count, finite_step

__all__ = [
    "apply_rain",
    "apply_snow",
    "apply_fog",
    "gen_rain",
    "gen_snow",
    "gen_depth",
    "DEPTH_MODES",
]

DEPTH_MODES = ("constant", "vertical_gradient", "radial")


def _check_image(img: np.ndarray) -> np.ndarray:
    img = np.asarray(img, dtype=np.float64)
    if img.ndim not in (2, 3):
        raise ValueError("image must be (H, W) or (H, W, C)")
    return check_finite(img, "image")


def _per_pixel(field: np.ndarray, img: np.ndarray) -> np.ndarray:
    """Broadcast an (H, W) field over the channel axis when needed."""
    field = np.asarray(field, dtype=np.float64)
    if field.shape != img.shape[:2]:
        raise ValueError(f"field shape {field.shape} does not match image {img.shape[:2]}")
    return field[..., None] if img.ndim == 3 else field


def _blend(j: np.ndarray, mask: np.ndarray, overlay: np.ndarray) -> np.ndarray:
    j = _check_image(j)
    overlay = check_finite(np.asarray(overlay, dtype=np.float64), "overlay")
    if overlay.shape != j.shape:
        raise ValueError(f"overlay shape {overlay.shape} does not match image {j.shape}")
    mask = np.asarray(mask, dtype=np.float64)
    if not np.all((mask >= 0.0) & (mask <= 1.0)):  # False for NaN too
        raise ValueError("mask values must be finite and lie in [0, 1]")
    m = _per_pixel(mask, j)
    return np.clip(j * (1.0 - m) + overlay * m, 0.0, 255.0)


def apply_rain(j: np.ndarray, m_r: np.ndarray, r: np.ndarray) -> np.ndarray:
    """out = j (1 - m_r) + r m_r, clamped to [0, 255]."""
    return _blend(j, m_r, r)


def apply_snow(j: np.ndarray, m_s: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Same blend law as rain with the snow mask and chromatic overlay."""
    return _blend(j, m_s, s)


def apply_fog(j: np.ndarray, d: np.ndarray, beta: float, l_inf: float) -> np.ndarray:
    """Atmospheric scattering with constant attenuation along each ray."""
    j = _check_image(j)
    if not 0.0 <= beta < math.inf:
        raise ValueError("attenuation coefficient must be finite and nonnegative, "
                         f"got {beta!r}")
    if not math.isfinite(l_inf):
        raise ValueError(f"airlight must be finite, got {l_inf!r}")
    d = check_finite(np.asarray(d, dtype=np.float64), "depth")
    if np.any(d < 0.0):
        raise ValueError("depth must be nonnegative")
    # Where beta * d passes the float range the product is -inf and the
    # transmission is exactly 0, pure airlight: never non-finite, never a warning.
    trans = _per_pixel(finite_step("fog transmission left float64", lambda: np.exp(-beta * d)), j)
    return np.clip(j * trans + l_inf * (1.0 - trans), 0.0, 255.0)


def gen_rain(h: int, w: int, seed: int, density: float,
             angle_deg: float = 75.0, streak_len_px: int = 12
             ) -> tuple[np.ndarray, np.ndarray]:
    """Procedural rain: anti-aliased streak mask plus a bright gray RGB overlay.

    ``density * h * w`` streak seed points are placed uniformly; each is
    drawn as a bilinearly splatted segment of ``streak_len_px`` steps at
    ``angle_deg`` from the horizontal axis (90 degrees is vertical fall).
    """
    h, w = count("image extents h", h, 1), count("image extents w", w, 1)
    if not 0.0 < density <= 1.0:
        raise ValueError("density must lie in (0, 1]")
    streak_len_px = count("streak_len_px", streak_len_px, 1)
    if not math.isfinite(angle_deg):
        raise ValueError(f"streak angle must be finite, got {angle_deg!r}")
    rng = SeededRng(seed)
    mask = np.zeros((h, w), dtype=np.float64)
    n = int(round(density * h * w))
    xs, ys, strength, base = rng.draws(*[("uniform", n)] * 3, ("uniform", h * w))
    xs *= w
    ys *= h
    strength = 0.55 + 0.45 * strength
    dx = math.cos(math.radians(angle_deg))
    dy = math.sin(math.radians(angle_deg))
    for k in range(streak_len_px + 1):
        taper = 1.0 - 0.5 * k / streak_len_px
        _splat_bilinear(mask, xs + k * dx, ys + k * dy, strength * taper)
    np.clip(mask, 0.0, 1.0, out=mask)
    base = 230.0 + 25.0 * base.reshape(h, w)  # in [230, 255]: no clip
    return mask, np.repeat(base[..., None], 3, axis=2)


def _splat_bilinear(mask: np.ndarray, px: np.ndarray, py: np.ndarray,
                    weight: np.ndarray) -> None:
    h, w = mask.shape
    x0 = np.floor(px).astype(np.int64)
    y0 = np.floor(py).astype(np.int64)
    fx = px - x0
    fy = py - y0
    for ddy, ddx, wgt in (
        (0, 0, (1 - fx) * (1 - fy)),
        (0, 1, fx * (1 - fy)),
        (1, 0, (1 - fx) * fy),
        (1, 1, fx * fy),
    ):
        yy = y0 + ddy
        xx = x0 + ddx
        ok = (yy >= 0) & (yy < h) & (xx >= 0) & (xx < w)
        np.add.at(mask, (yy[ok], xx[ok]), weight[ok] * wgt[ok])


def gen_snow(h: int, w: int, seed: int, density: float,
             radius_range: tuple[float, float] = (1.0, 3.0)
             ) -> tuple[np.ndarray, np.ndarray]:
    """Procedural snow: soft-disc flakes plus a bright, slightly blue RGB overlay."""
    h, w = count("image extents h", h, 1), count("image extents w", w, 1)
    if not 0.0 < density <= 1.0:
        raise ValueError("density must lie in (0, 1]")
    r_lo, r_hi = float(radius_range[0]), float(radius_range[1])
    if not 0.0 < r_lo <= r_hi < math.inf:
        raise ValueError("flake radius range must be finite with 0 < lo <= hi, "
                         f"got {radius_range!r}")
    if not 1e-150 <= r_lo <= r_hi <= 1e150:  # each flake divides by its radius squared
        raise ValueError(f"flake radius range must lie in [1e-150, 1e150], got {radius_range!r}")
    rng = SeededRng(seed)
    mask = np.zeros((h, w), dtype=np.float64)
    n = int(round(density * h * w))
    xs, ys, radii, base = rng.draws(*[("uniform", n)] * 3, ("uniform", h * w))
    xs *= w
    ys *= h
    radii = r_lo + (r_hi - r_lo) * radii
    for cx, cy, r in zip(xs, ys, radii):
        x_lo = max(int(math.floor(cx - r)), 0)
        x_hi = min(int(math.ceil(cx + r)) + 1, w)
        y_lo = max(int(math.floor(cy - r)), 0)
        y_hi = min(int(math.ceil(cy + r)) + 1, h)
        if x_lo >= x_hi or y_lo >= y_hi:
            continue
        yy, xx = np.mgrid[y_lo:y_hi, x_lo:x_hi]
        d2 = ((xx + 0.5 - cx) ** 2 + (yy + 0.5 - cy) ** 2) / (r * r)
        patch = np.clip(1.0 - d2, 0.0, 1.0)
        np.maximum(mask[y_lo:y_hi, x_lo:x_hi], patch,
                   out=mask[y_lo:y_hi, x_lo:x_hi])
    base = 232.0 + 18.0 * base.reshape(h, w)
    tint = np.array([0.96, 0.99, 1.04])  # slight blue cast
    return mask, np.clip(base[..., None] * tint, 0.0, 255.0)


def gen_depth(mode: str, h: int, w: int, value: float = 1.0,
              max_depth: float = 1.0) -> np.ndarray:
    """Depth maps: constant fill, top-to-bottom ramp, or distance from center."""
    h, w = count("image extents h", h, 1), count("image extents w", w, 1)
    if mode == "constant":
        if not 0.0 <= value < math.inf:
            raise ValueError(f"depth value must be finite and nonnegative, got {value!r}")
        return np.full((h, w), float(value), dtype=np.float64)
    if not 0.0 <= max_depth < math.inf:
        raise ValueError(f"max depth must be finite and nonnegative, got {max_depth!r}")
    if mode == "vertical_gradient":
        ramp = np.zeros(h) if h == 1 else np.arange(h, dtype=np.float64) / (h - 1)
        return np.repeat((ramp * max_depth)[:, None], w, axis=1)
    if mode == "radial":
        cy, cx = (h - 1) / 2.0, (w - 1) / 2.0
        yy, xx = np.mgrid[0:h, 0:w]
        dist = np.hypot(yy - cy, xx - cx)
        corner = math.hypot(cy, cx)
        if corner == 0.0:
            return np.zeros((h, w), dtype=np.float64)
        return dist / corner * max_depth
    raise ValueError(f"unknown depth mode {mode!r}")
