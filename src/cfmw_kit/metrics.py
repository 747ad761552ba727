"""Restoration and detection metrics: PSNR, SSIM, IoU/GIoU, AP and mAP.

Boxes are (x1, y1, x2, y2) with x1 < x2 and y1 < y2 in continuous pixel
coordinates, every |coordinate| <= 1e150, and a nonzero area. Average
precision takes one (detections, ground truth) pair per image, ranks all
detections by confidence (ties keep image order, then input order), greedily
matches each to the unmatched ground-truth box of highest overlap in its own
image, and integrates the precision-recall curve over all recall increments
using the precision attained before each increment.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .tensor import check_finite

__all__ = [
    "Detection",
    "GroundTruthBox",
    "SsimParams",
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


@dataclass(frozen=True)
class SsimParams:
    """Windowed-SSIM constants: 11x11 Gaussian, sigma 1.5, unit exponents."""

    window: int = 11
    sigma: float = 1.5
    alpha: float = 1.0
    beta: float = 1.0
    gamma: float = 1.0
    dynamic_range: float = 255.0
    k1: float = 0.01
    k2: float = 0.03

    def __post_init__(self):
        w = self.window
        if isinstance(w, bool) or not isinstance(w, (int, np.integer)) or w < 1:
            raise ValueError(f"window must be an integer >= 1, got {self.window!r}")
        for name in ("sigma", "alpha", "beta", "gamma", "dynamic_range", "k1", "k2"):
            value = getattr(self, name)
            if not 0.0 < value < math.inf:
                raise ValueError(f"{name} must be finite and > 0, got {value!r}")
        # Finite, positive inputs can still under- or overflow what ssim uses.
        try:
            with np.errstate(all="ignore"):
                taps = _gaussian_taps(w, self.sigma)
            derived = {"c1": self.c1, "c2": self.c2, "c3": self.c3}
        except OverflowError as exc:
            raise ValueError(f"SSIM constants overflow with {self}") from exc
        if not np.all((taps > 0.0) & (taps < math.inf)):
            raise ValueError(f"window taps are not finite and > 0 with {self}")
        for name, value in derived.items():
            if not 0.0 < value < math.inf:
                raise ValueError(f"{name} = {value!r} is not finite and > 0 with {self}")

    @property
    def c1(self) -> float:
        return (self.k1 * self.dynamic_range) ** 2

    @property
    def c2(self) -> float:
        return (self.k2 * self.dynamic_range) ** 2

    @property
    def c3(self) -> float:
        return self.c2 / 2.0


def _to_gray(img: np.ndarray, name: str) -> np.ndarray:
    img = check_finite(np.asarray(img, dtype=np.float64), name)
    if img.ndim == 2:
        return img
    if img.ndim == 3 and img.shape[2] == 3:
        return img[..., 0] * _LUMA[0] + img[..., 1] * _LUMA[1] + img[..., 2] * _LUMA[2]
    if img.ndim == 3 and img.shape[2] == 1:
        return img[..., 0]
    raise ValueError(f"expected gray or 3-channel image, got shape {img.shape}")


def psnr(x: np.ndarray, y: np.ndarray, bits: int = 8) -> float:
    """Peak signal-to-noise ratio in dB, capped at 99 for (near-)identical images."""
    x = check_finite(np.asarray(x, dtype=np.float64), "x")
    y = check_finite(np.asarray(y, dtype=np.float64), "y")
    if x.shape != y.shape:
        raise ValueError(f"shape mismatch: {x.shape} vs {y.shape}")
    mse = float(np.mean((x - y) ** 2))
    if mse == 0.0:
        return PSNR_CAP_DB
    peak_sq = float((2 ** bits - 1) ** 2)
    return min(10.0 * math.log10(peak_sq / mse), PSNR_CAP_DB)


def _gaussian_taps(size: int, sigma: float) -> np.ndarray:
    """Normalised 1-D Gaussian taps; the 2-D window is their outer product."""
    ax = np.arange(size, dtype=np.float64) - (size - 1) / 2.0
    g = np.exp(-(ax ** 2) / (2.0 * sigma ** 2))
    return g / g.sum()


def _filter(img: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Valid-mode filter with the window outer(g, g): one 1-D pass along
    axis 0, then one along axis 1, each a window view times the taps."""
    view = np.lib.stride_tricks.sliding_window_view
    return view(view(img, g.size, axis=0) @ g, g.size, axis=1) @ g


def ssim(x: np.ndarray, y: np.ndarray, params: SsimParams | None = None) -> float:
    """Mean windowed structural similarity.

    Color images are reduced to the BT.601 luminance channel; the value is
    the mean over every full stride-1 window of the luminance / contrast /
    structure product. The Gaussian window is separable, so the window
    moments are two 1-D passes: time and memory are linear in the pixel
    count. Non-finite pixels, and a mean that is not finite (say, a
    fractional exponent on a negative structure term), raise ``ValueError``.
    """
    p = params or SsimParams()
    gx = _to_gray(x, "x")
    gy = _to_gray(y, "y")
    if gx.shape != gy.shape:
        raise ValueError(f"shape mismatch: {gx.shape} vs {gy.shape}")
    if min(gx.shape) < p.window:
        raise ValueError(f"image must be at least {p.window} pixels on each side")
    g = _gaussian_taps(p.window, p.sigma)
    mu_x, mu_y = _filter(gx, g), _filter(gy, g)
    var_x = np.maximum(_filter(gx * gx, g) - mu_x ** 2, 0.0)
    var_y = np.maximum(_filter(gy * gy, g) - mu_y ** 2, 0.0)
    cov = _filter(gx * gy, g) - mu_x * mu_y
    sig_x = np.sqrt(var_x)
    sig_y = np.sqrt(var_y)
    lum = (2.0 * mu_x * mu_y + p.c1) / (mu_x ** 2 + mu_y ** 2 + p.c1)
    con = (2.0 * sig_x * sig_y + p.c2) / (var_x + var_y + p.c2)
    stru = (cov + p.c3) / (sig_x * sig_y + p.c3)
    with np.errstate(invalid="ignore"):  # a NaN power is refused below
        for term, expo in ((lum, p.alpha), (con, p.beta), (stru, p.gamma)):
            if expo != 1.0:
                np.power(term, expo, out=term)
    value = float(np.mean(lum * con * stru))
    if not math.isfinite(value):
        raise ValueError(f"SSIM is not finite ({value}) with {p}")
    return value


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


def _ranked_ious(images: list[ImageBoxes],
                 class_id: int) -> tuple[list[np.ndarray], list[tuple[int, int, float]]]:
    """One class's IoU matrix per image (detections x ground truth), and the
    (image, row, confidence) of each of its detections in confidence order."""
    matrices, ranked = [], []
    for k, (dets, gts) in enumerate(images):
        cls_dets = [d for d in dets if d.class_id == class_id]
        cls_gts = [g.box for g in gts if g.class_id == class_id]
        matrices.append(_iou_matrix(np.reshape([d.box for d in cls_dets], (-1, 4)),
                                    np.reshape(cls_gts, (-1, 4))))
        ranked += [(k, r, d.confidence) for r, d in enumerate(cls_dets)]
    ranked.sort(key=lambda row: -row[2])  # stable: ties keep image, then input order
    return matrices, ranked


def _ap_at(matrices: list[np.ndarray], ranked: list[tuple[int, int, float]],
           iou_thr: float) -> float:
    """AP of one class at one threshold from :func:`_ranked_ious` output."""
    if not 0.0 < iou_thr <= 1.0:
        raise ValueError("IoU threshold must lie in (0, 1]")
    free = [m.copy() for m in matrices]  # a matched column is set to -1
    flags: list[bool] = []
    for k, r, _ in ranked:
        row = free[k][r]
        hit = bool(row.max(initial=0.0) >= iou_thr)  # iou_thr > 0 skips IoU 0
        if hit:
            free[k][:, np.argmax(row)] = -1.0
        flags.append(hit)
    return _ap_from_flags(flags, sum(m.shape[1] for m in matrices))


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
    return _ap_at(*_ranked_ious(images, class_id), iou_thr)


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
    otherwise). Each distinct threshold is matched once.
    """
    thresholds = tuple(thresholds)
    if not thresholds:
        raise ValueError("threshold grid must be nonempty")
    classes = sorted({g.class_id for _, gts in images for g in gts})
    if not classes:
        value = 0.0 if any(dets for dets, _ in images) else 1.0
        return MeanApResult(value, value, value)
    per_class = [_ranked_ious(images, c) for c in classes]
    class_mean = {thr: sum(_ap_at(*m, thr) for m in per_class) / len(classes)
                  for thr in dict.fromkeys(thresholds + (0.50, 0.75))}
    grid_mean = sum(class_mean[t] for t in thresholds) / len(thresholds)
    return MeanApResult(map50=class_mean[0.50], map75=class_mean[0.75],
                        map_mean=grid_mean)


def parse_detections(text: str) -> list[Detection]:
    """One detection per line: ``class_id x1 y1 x2 y2 confidence``."""
    out = []
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 6:
            raise ValueError(f"detection line {lineno} needs 6 fields: {line!r}")
        cid, x1, y1, x2, y2, conf = parts
        out.append(Detection(box=(float(x1), float(y1), float(x2), float(y2)),
                             class_id=int(cid), confidence=float(conf)))
    return out


def parse_ground_truth(text: str) -> list[GroundTruthBox]:
    """One box per line: ``class_id x1 y1 x2 y2``."""
    out = []
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 5:
            raise ValueError(f"ground-truth line {lineno} needs 5 fields: {line!r}")
        cid, x1, y1, x2, y2 = parts
        out.append(GroundTruthBox(box=(float(x1), float(y1), float(x2), float(y2)),
                                  class_id=int(cid)))
    return out
