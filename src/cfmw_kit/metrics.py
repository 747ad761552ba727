"""Restoration and detection metrics: PSNR, SSIM, IoU/GIoU, AP and mAP.

PSNR and SSIM score 8-bit images: every pixel must lie in [0, 255], and
SSIM uses the fixed constants of Wang et al. (IEEE TIP 2004).

Boxes are (x1, y1, x2, y2) with x1 < x2 and y1 < y2 in continuous pixel
coordinates, every |coordinate| <= 1e150, and a nonzero area. Average
precision takes one (detections, ground truth) pair per image, ranks all
detections by confidence (ties keep image order, then input order), in one
sweep greedily matches each, at every IoU threshold, to the unmatched
same-class box of highest overlap in its own image, and integrates the
precision-recall curve: each recall increment times the precision before it.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Detection",
    "GroundTruthBox",
    "MeanApResult",
    "psnr",
    "ssim",
    "iou",
    "giou",
    "average_precision",
    "mean_ap",
    "DEFAULT_MAP_THRESHOLDS",
    "parse_detections",
    "parse_ground_truth",
]

PSNR_CAP_DB = 99.0

# Bound on |box coordinate|: widths, areas, unions and hulls of any two
# accepted boxes then stay finite (at most 8e300).
BOX_COORD_LIMIT = 1e150

DEFAULT_MAP_THRESHOLDS = tuple(round(0.50 + 0.05 * k, 2) for k in range(10))

# ITU BT.601 luminance weights for color -> gray reduction.
_LUMA = (0.299, 0.587, 0.114)

Box = tuple[float, float, float, float]
ImageBoxes = tuple[list["Detection"], list["GroundTruthBox"]]  # one image's boxes


def _check_box(box, name: str = "box") -> Box:
    x1, y1, x2, y2 = (float(v) for v in box)
    if not (all(abs(v) <= BOX_COORD_LIMIT for v in (x1, y1, x2, y2))
            and x1 < x2 and y1 < y2 and (x2 - x1) * (y2 - y1) > 0.0):
        raise ValueError(f"{name} is degenerate or not finite (|coordinates| <= "
                         f"{BOX_COORD_LIMIT:g}): {(x1, y1, x2, y2)}")
    return (x1, y1, x2, y2)


@dataclass(frozen=True)
class Detection:
    box: Box
    class_id: int
    confidence: float

    def __post_init__(self):
        object.__setattr__(self, "box", _check_box(self.box))
        object.__setattr__(self, "class_id", int(self.class_id))
        if not 0.0 <= self.confidence <= 1.0:
            raise ValueError(f"confidence {self.confidence} outside [0, 1]")
        object.__setattr__(self, "confidence", float(self.confidence))


@dataclass(frozen=True)
class GroundTruthBox:
    box: Box
    class_id: int

    def __post_init__(self):
        object.__setattr__(self, "box", _check_box(self.box))
        object.__setattr__(self, "class_id", int(self.class_id))


def _pixels(img, name: str) -> np.ndarray:
    """``img`` as float64, refused by ``name`` unless every pixel lies in [0, 255]
    (a NaN fails both comparisons)."""
    img = np.asarray(img, dtype=np.float64)
    if img.size == 0:
        raise ValueError(f"{name} has no pixels")
    if not (0.0 <= img.min() and img.max() <= 255.0):
        raise ValueError(f"{name} has a non-finite pixel or one outside [0, 255]")
    return img


def _to_gray(img: np.ndarray, name: str) -> np.ndarray:
    img = _pixels(img, name)
    if img.ndim == 2:
        return img
    if img.ndim == 3 and img.shape[2] == 3:
        return img[..., 0] * _LUMA[0] + img[..., 1] * _LUMA[1] + img[..., 2] * _LUMA[2]
    if img.ndim == 3 and img.shape[2] == 1:
        return img[..., 0]
    raise ValueError(f"expected gray or 3-channel image, got shape {img.shape}")


def psnr(x: np.ndarray, y: np.ndarray) -> float:
    """Peak signal-to-noise ratio in dB for 8-bit images (peak 255), capped at
    99 for (near-)identical images. Every pixel must lie in [0, 255]."""
    x = _pixels(x, "x")
    y = _pixels(y, "y")
    if x.shape != y.shape:
        raise ValueError(f"shape mismatch: {x.shape} vs {y.shape}")
    mse = float(np.mean((x - y) ** 2))
    if mse == 0.0:
        return PSNR_CAP_DB
    return min(10.0 * math.log10(255.0 ** 2 / mse), PSNR_CAP_DB)


def _gaussian_taps(size: int, sigma: float) -> np.ndarray:
    """Normalised 1-D Gaussian taps; the 2-D window is their outer product."""
    ax = np.arange(size, dtype=np.float64) - (size - 1) / 2.0
    g = np.exp(-(ax ** 2) / (2.0 * sigma ** 2))
    return g / g.sum()


# SSIM of Wang et al. (IEEE TIP 2004) on 8-bit pixels: an 11x11 Gaussian
# window with sigma 1.5, unit exponents, K1 = 0.01 and K2 = 0.03 of 255.
_SSIM_TAPS = _gaussian_taps(11, 1.5)
_C1 = (0.01 * 255.0) ** 2
_C2 = (0.03 * 255.0) ** 2
_C3 = _C2 / 2.0


def _filter(img: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Valid-mode filter with the window outer(g, g): one 1-D pass along
    axis 0, then one along axis 1, each a window view times the taps."""
    view = np.lib.stride_tricks.sliding_window_view
    return view(view(img, g.size, axis=0) @ g, g.size, axis=1) @ g


def ssim(x: np.ndarray, y: np.ndarray) -> float:
    """Mean windowed structural similarity of two 8-bit images.

    Color images are reduced to the BT.601 luminance channel; the value is
    the mean over every full stride-1 window (11x11 Gaussian, sigma 1.5) of
    the luminance / contrast / structure product, with C1 = (0.01 * 255)^2,
    C2 = (0.03 * 255)^2 and C3 = C2 / 2. The window is separable, so the
    window moments are two 1-D passes: time and memory are linear in the
    pixel count. Every pixel must lie in [0, 255]; any other, NaN and Inf
    included, is a ``ValueError`` naming its argument. On that domain every
    denominator is at least C3, so the value is finite.
    """
    gx = _to_gray(x, "x")
    gy = _to_gray(y, "y")
    if gx.shape != gy.shape:
        raise ValueError(f"shape mismatch: {gx.shape} vs {gy.shape}")
    g = _SSIM_TAPS
    if min(gx.shape) < g.size:
        raise ValueError(f"image must be at least {g.size} pixels on each side")
    mu_x, mu_y = _filter(gx, g), _filter(gy, g)
    var_x = np.maximum(_filter(gx * gx, g) - mu_x ** 2, 0.0)
    var_y = np.maximum(_filter(gy * gy, g) - mu_y ** 2, 0.0)
    cov = _filter(gx * gy, g) - mu_x * mu_y
    sig_x = np.sqrt(var_x)
    sig_y = np.sqrt(var_y)
    lum = (2.0 * mu_x * mu_y + _C1) / (mu_x ** 2 + mu_y ** 2 + _C1)
    con = (2.0 * sig_x * sig_y + _C2) / (var_x + var_y + _C2)
    stru = (cov + _C3) / (sig_x * sig_y + _C3)
    return float(np.mean(lum * con * stru))


def _intersection(a: Box, b: Box) -> float:
    w = min(a[2], b[2]) - max(a[0], b[0])
    h = min(a[3], b[3]) - max(a[1], b[1])
    return w * h if (w > 0.0 and h > 0.0) else 0.0


def _area(box: Box) -> float:
    return (box[2] - box[0]) * (box[3] - box[1])


def iou(a, b) -> float:
    """Intersection over union of two boxes, in [0, 1]."""
    a = _check_box(a, "a")
    b = _check_box(b, "b")
    inter = _intersection(a, b)
    union = _area(a) + _area(b) - inter
    return inter / union


def giou(a, b) -> float:
    """Generalized IoU: IoU minus the hull's empty fraction, in [-1, 1]."""
    a = _check_box(a, "a")
    b = _check_box(b, "b")
    inter = _intersection(a, b)
    union = _area(a) + _area(b) - inter
    hull = ((max(a[2], b[2]) - min(a[0], b[0]))
            * (max(a[3], b[3]) - min(a[1], b[1])))
    return inter / union - (hull - union) / hull


def _iou_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``iou`` of every box in ``a`` (n, 4) with every box in ``b`` (m, 4), bit
    for bit: the same float operations in the same order."""
    w = np.minimum(a[:, None, 2], b[None, :, 2]) - np.maximum(a[:, None, 0], b[None, :, 0])
    h = np.minimum(a[:, None, 3], b[None, :, 3]) - np.maximum(a[:, None, 1], b[None, :, 1])
    inter = np.where((w > 0.0) & (h > 0.0), w * h, 0.0)
    return inter / (_area(a.T)[:, None] + _area(b.T)[None, :] - inter)


def _greedy_sweep(images: list[ImageBoxes], classes: list[int],
                  grid: tuple[float, ...]) -> dict[float, list[float]]:
    """AP of each of ``classes`` at each threshold of ``grid``, from one pass
    over their detections in rank order with a taken mask per threshold."""
    if not all(0.0 < thr <= 1.0 for thr in grid):
        raise ValueError("IoU threshold must lie in (0, 1]")
    lanes, grid_arr = np.arange(len(grid)), np.array(grid, dtype=np.float64)
    n_gt = Counter(g.class_id for _, gts in images for g in gts)
    wanted = set(classes)
    matrices, taken, ranked = [], [], []
    for k, (dets, gts) in enumerate(images):
        # -1 (other class, or the last column that keeps argmax defined) never hits
        m = np.full((len(dets), len(gts) + 1), -1.0)
        np.copyto(m[:, :-1], _iou_matrix(np.reshape([d.box for d in dets], (-1, 4)),
                                         np.reshape([g.box for g in gts], (-1, 4))),
                  where=np.equal.outer([d.class_id for d in dets], [g.class_id for g in gts]))
        matrices.append(m)
        taken.append(np.zeros((len(grid), len(gts) + 1), dtype=bool))
        ranked += [(k, r, d) for r, d in enumerate(dets) if d.class_id in wanted]
    ranked.sort(key=lambda row: -row[2].confidence)  # stable: image, then input order
    hits = np.zeros((len(ranked), len(grid)), dtype=bool)
    for i, (k, r, _) in enumerate(ranked):
        row = np.where(taken[k], -1.0, matrices[k][r])
        j = row.argmax(axis=1)  # the first maximum
        np.greater_equal(row[lanes, j], grid_arr, out=hits[i])
        taken[k][lanes, j] |= hits[i]
    ranked_cls = np.array([d.class_id for _, _, d in ranked], dtype=np.int64)
    columns = {c: hits[ranked_cls == c].T for c in classes}
    return {thr: [_ap_from_flags(columns[c][t].tolist(), n_gt[c]) for c in classes]
            for t, thr in enumerate(grid)}


def _ap_from_flags(flags: list[bool], n_gt: int) -> float:
    if n_gt == 0:
        return 1.0 if not flags else 0.0
    ap = 0.0
    tp = fp = 0
    recall_prev = 0.0
    precision_prev = 1.0
    for is_tp in flags:
        if is_tp:
            tp += 1
        else:
            fp += 1
        recall = tp / n_gt
        ap += (recall - recall_prev) * precision_prev
        recall_prev = recall
        precision_prev = tp / (tp + fp)
    return ap


def average_precision(images: list[ImageBoxes], class_id: int, iou_thr: float) -> float:
    """All-point AP for one class at one IoU threshold.

    ``images`` holds one ``(detections, ground_truth)`` pair per image.
    Empty ground truth yields 1 with no detections and 0 otherwise.
    """
    return _greedy_sweep(images, [class_id], (iou_thr,))[iou_thr][0]


@dataclass(frozen=True)
class MeanApResult:
    map50: float
    map75: float
    map_mean: float


def mean_ap(images: list[ImageBoxes], thresholds=DEFAULT_MAP_THRESHOLDS) -> MeanApResult:
    """Class-mean AP at 0.50, at 0.75, and averaged over the threshold grid.

    ``images`` holds one ``(detections, ground_truth)`` pair per image. The
    class set is inferred from the ground truth; with no ground truth at all
    the result mirrors the per-class convention (1 with no detections, 0
    otherwise). One sweep matches every distinct threshold; a bad grid raises.
    """
    thresholds = tuple(thresholds)
    if not thresholds:
        raise ValueError("threshold grid must be nonempty")
    classes = sorted({g.class_id for _, gts in images for g in gts})
    aps = _greedy_sweep(images, classes, tuple(dict.fromkeys(thresholds + (0.50, 0.75))))
    if not classes:
        value = 0.0 if any(dets for dets, _ in images) else 1.0
        return MeanApResult(value, value, value)
    class_mean = {thr: sum(ap) / len(classes) for thr, ap in aps.items()}
    return MeanApResult(map50=class_mean[0.50], map75=class_mean[0.75],
                        map_mean=sum(class_mean[t] for t in thresholds) / len(thresholds))


def parse_detections(text: str) -> list[Detection]:
    """One detection per line: ``class_id x1 y1 x2 y2 confidence``; errors name the line."""
    out = []
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 6:
            raise ValueError(f"detection line {lineno} needs 6 fields: {line!r}")
        cid, x1, y1, x2, y2, conf = parts
        try:
            out.append(Detection(box=(float(x1), float(y1), float(x2), float(y2)),
                                 class_id=int(cid), confidence=float(conf)))
        except ValueError as exc:
            raise ValueError(f"detection line {lineno}: {exc}") from None
    return out


def parse_ground_truth(text: str) -> list[GroundTruthBox]:
    """One box per line: ``class_id x1 y1 x2 y2``; errors name the line."""
    out = []
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 5:
            raise ValueError(f"ground-truth line {lineno} needs 5 fields: {line!r}")
        cid, x1, y1, x2, y2 = parts
        try:
            out.append(GroundTruthBox(box=(float(x1), float(y1), float(x2), float(y2)),
                                      class_id=int(cid)))
        except ValueError as exc:
            raise ValueError(f"ground-truth line {lineno}: {exc}") from None
    return out
