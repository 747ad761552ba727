"""Restoration and detection metrics: PSNR, SSIM, IoU/GIoU, AP and mAP.

PSNR and SSIM score 8-bit images: every pixel must lie in [0, 255], and
SSIM uses the fixed constants of Wang et al. (IEEE TIP 2004).

Boxes are (x1, y1, x2, y2) with x1 < x2 and y1 < y2 in continuous pixel
coordinates, every |coordinate| <= 1e150, and a nonzero area. One image's
boxes are one float64 table, a row per box: ``GroundTruth`` rows are
``class_id x1 y1 x2 y2`` and ``Detections`` rows add a confidence in
[0, 1]; a class id is an integer of magnitude below 2**53, so exact in
float64. Average precision takes one (detections, ground truth) pair per
image and ranks all detections by confidence (ties keep image order, then
input order). At every IoU threshold, each detection in turn takes the
unmatched same-class box of highest overlap in its own image; that depends
only on the order within an image, so all images are matched in lockstep,
one rank per step. AP integrates the precision-recall curve: each recall
increment times the precision before it, summed left to right by rank.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .tensor import _all, freeze_arrays

__all__ = [
    "Detections",
    "GroundTruth",
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

# Bound on |class id|: every integer below it is exact in float64.
CLASS_ID_LIMIT = 2 ** 53

DEFAULT_MAP_THRESHOLDS = tuple(round(0.50 + 0.05 * k, 2) for k in range(10))

# ITU BT.601 luminance weights for color -> gray reduction.
_LUMA = (0.299, 0.587, 0.114)

Box = tuple[float, float, float, float]
ImageBoxes = tuple["Detections", "GroundTruth"]  # one image's boxes


def _check_box(box, name: str = "box") -> Box:
    x1, y1, x2, y2 = (float(v) for v in box)
    if not (all(abs(v) <= BOX_COORD_LIMIT for v in (x1, y1, x2, y2))
            and x1 < x2 and y1 < y2 and (x2 - x1) * (y2 - y1) > 0.0):
        raise ValueError(f"{name} is degenerate or not finite (|coordinates| <= "
                         f"{BOX_COORD_LIMIT:g}): {(x1, y1, x2, y2)}")
    return (x1, y1, x2, y2)


def _check_row(row: list) -> None:
    """Refuse one ``class_id x1 y1 x2 y2 [confidence]`` row by its first fault."""
    _check_box(row[1:5])
    if not (row[0] == math.trunc(row[0]) and abs(row[0]) < CLASS_ID_LIMIT):
        raise ValueError(f"class id {row[0]!r} is not an integer of magnitude below 2**53")
    if row[5:] and not 0.0 <= row[5] <= 1.0:
        raise ValueError(f"confidence {row[5]} outside [0, 1]")


@dataclass(frozen=True)
class _BoxTable:
    """One image's boxes as a float64 ``table``, a row per box: class id,
    x1 y1 x2 y2, then any further columns. Every row is checked at once; a
    bad one is refused by its index."""

    table: np.ndarray

    def __post_init__(self):
        freeze_arrays(self)
        t, low, high = self.table, self._low, self._high
        if t.size == 0:
            object.__setattr__(self, "table", t := t.reshape(0, low.size))
        if t.ndim != 2 or t.shape[1] != low.size:
            raise ValueError(f"table must be (n, {low.size}), got {t.shape}")
        ok = _all((t >= low) & (t <= high)) and _all(np.trunc(t[:, 0]) == t[:, 0])
        if ok:  # bounded coordinates: widths and areas stay finite
            w, h = t[:, 3] - t[:, 1], t[:, 4] - t[:, 2]
            ok = _all(np.minimum(w, w * h) > 0.0)
        for i, row in enumerate([] if ok else t.tolist()):
            try:
                _check_row(row)
            except ValueError as exc:
                raise ValueError(f"table row {i}: {exc}") from None

    class_id = property(lambda self: self.table[:, 0])
    boxes = property(lambda self: self.table[:, 1:5])


# Bounds on the columns of a row: class id, x1 y1 x2 y2, confidence.
_LOW = (1 - CLASS_ID_LIMIT, *(-BOX_COORD_LIMIT,) * 4, 0.0)
_HIGH = (CLASS_ID_LIMIT - 1, *(BOX_COORD_LIMIT,) * 4, 1.0)


@dataclass(frozen=True)
class GroundTruth(_BoxTable):
    """One image's ground truth: rows ``class_id x1 y1 x2 y2``."""

    _low, _high = np.array(_LOW[:5]), np.array(_HIGH[:5])
    _kind = "ground-truth"


@dataclass(frozen=True)
class Detections(_BoxTable):
    """One image's detections: rows ``class_id x1 y1 x2 y2 confidence``."""

    _low, _high = np.array(_LOW), np.array(_HIGH)
    _kind = "detection"
    confidence = property(lambda self: self.table[:, 5])


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
    """``iou`` of every box in ``a`` (n, 4) with every box in ``b`` (m, 4), or
    of each box in ``a`` with its own row of ``b`` (n or 1, m, 4); bit for
    bit: the same float operations in the same order."""
    a, b = a.T[:, :, None], np.moveaxis(b, -1, 0)
    w = np.minimum(a[2], b[2]) - np.maximum(a[0], b[0])
    h = np.minimum(a[3], b[3]) - np.maximum(a[1], b[1])
    inter = np.where((w > 0.0) & (h > 0.0), w * h, 0.0)
    return inter / (_area(a) + _area(b) - inter)


def _stack(images: list[ImageBoxes]) -> tuple[np.ndarray, ...]:
    """The tables of ``images`` stacked as :func:`_greedy_sweep` takes them."""
    dets, gts = ([pair[side].table for pair in images] for side in (0, 1))
    return (np.concatenate([np.empty((0, 6)), *dets]), np.array([len(t) for t in dets], int),
            np.concatenate([np.empty((0, 5)), *gts]), np.array([len(t) for t in gts], int))


def _greedy_sweep(dets, n_det, gts, n_gt, classes: list, grid) -> dict[float, list[float]]:
    """AP of each of ``classes`` at each threshold of ``grid``, over checked tables
    stacked in image order: image i holds ``n_det[i]`` rows of ``dets``, ``n_gt[i]`` of ``gts``.

    Step j matches the j-th ranked detection of every image at every
    threshold at once, through a taken mask per (image, threshold, box).
    Images are bucketed by ground-truth count rounded up to a power of two,
    and ordered by detection count within a bucket, so the images still
    matching at step j are a prefix of it. An IoU row spans the bucket's
    largest ground truth; -1 pads it and marks other classes and taken boxes,
    so a row with nothing left to match peaks at -1 and misses. Images with
    no ground truth (bucket 0) come first, and their detections all miss.
    """
    if not all(0.0 < thr <= 1.0 for thr in grid):
        raise ValueError("IoU threshold must lie in (0, 1]")
    d_img, g_img = (np.repeat(np.arange(len(n_gt)), n) for n in (n_det, n_gt))
    ranked = np.argsort(-dets[:, 5], kind="stable")  # ties keep image, then input order
    by_image = ranked[np.argsort(d_img[ranked], kind="stable")]
    step = np.argsort(by_image) - (np.cumsum(n_det) - n_det)[d_img]  # rank in its image
    bucket = np.frexp(n_gt)[1]  # n_gt < 2 ** bucket
    by_bucket = np.lexsort((-n_det, bucket))
    slot = np.argsort(by_bucket)
    order = np.argsort((bucket[d_img] * (len(d_img) + 1) + step) * len(n_gt) + slot[d_img])
    g_col = np.arange(len(g_img)) - (np.cumsum(n_gt) - n_gt)[g_img]
    thresholds, hits = np.array(grid), np.zeros((len(d_img), len(grid)), dtype=bool)
    lo = n_det[n_gt == 0].sum()
    # sorted(set()), not np.unique: np.unique imports numpy.ma on its first call
    for b in sorted(set(bucket[(n_det > 0) & (n_gt > 0)].tolist())):
        imgs = by_bucket[bucket[by_bucket] == b]
        n_b, w, s0 = len(imgs), int(n_gt[imgs].max()), slot[imgs[0]]
        rows, mine = order[lo:lo + n_det[imgs].sum()], bucket[g_img] == b
        pad = np.zeros((n_b, w, 5))
        pad[..., 0] = np.nan  # the class of no box
        pad[slot[g_img[mine]] - s0, g_col[mine]] = gts[mine]
        if n_b > 1:  # one image broadcasts; several gather per detection
            pad = pad[slot[d_img[rows]] - s0]
        ious = np.where(dets[rows, :1] == pad[..., 0],
                        _iou_matrix(dets[rows, 1:5], pad[..., 1:]), -1.0)
        taken = np.zeros((n_b, len(grid), w), dtype=bool)
        flat, lane, r = taken.reshape(-1), np.arange(n_b * len(grid)) * w, 0
        for a in (n_b - np.cumsum(np.bincount(n_det[imgs]))[:-1]).tolist():
            row = np.where(taken[:a], -1.0, ious[r:r + a, None])
            at = lane[:a * len(grid)] + row.argmax(axis=2).ravel()  # the first maximum
            hit = np.greater_equal(row.take(at).reshape(a, -1), thresholds,
                                   out=hits[lo + r:lo + r + a])
            flat[at] |= hit.ravel()
            r += a
        lo += r
    flags, ranked_cls = hits[np.argsort(order)[ranked]], dets[ranked, 0]
    aps = [_ap_columns(flags[ranked_cls == c], np.count_nonzero(gts[:, 0] == c))
           for c in classes]
    return {thr: [ap[t] for ap in aps] for t, thr in enumerate(grid)}


def _ap_columns(hits: np.ndarray, n_gt: int) -> list[float]:
    """AP of each column of ``hits`` (one row per detection in rank order)."""
    if n_gt == 0 or len(hits) == 0:
        return [1.0 if n_gt == len(hits) == 0 else 0.0] * hits.shape[1]
    tp = np.cumsum(hits, axis=0)
    before = tp - hits
    precision = before / np.maximum(np.arange(len(hits)), 1)[:, None]
    precision[0] = 1.0
    # np.cumsum adds left to right, as a running sum over the ranks does
    return np.cumsum((tp / n_gt - before / n_gt) * precision, axis=0)[-1].tolist()


def average_precision(images: list[ImageBoxes], class_id: int, iou_thr: float) -> float:
    """All-point AP for one class at one IoU threshold.

    ``images`` holds one ``(Detections, GroundTruth)`` pair per image.
    Empty ground truth yields 1 with no detections and 0 otherwise.
    """
    return _greedy_sweep(*_stack(images), [class_id], (iou_thr,))[iou_thr][0]


@dataclass(frozen=True)
class MeanApResult:
    map50: float
    map75: float
    map_mean: float


def mean_ap(images: list[ImageBoxes]) -> MeanApResult:
    """Class-mean AP at 0.50, at 0.75, and averaged over ``DEFAULT_MAP_THRESHOLDS``
    (0.50:0.05:0.95).

    ``images`` holds one ``(Detections, GroundTruth)`` pair per image. The
    class set is inferred from the ground truth; with no ground truth at all
    the result mirrors the per-class convention (1 with no detections, 0
    otherwise). One sweep matches every threshold of the grid.
    """
    return _mean_ap(*_stack(images))


def _mean_ap(dets, n_det, gts, n_gt) -> MeanApResult:
    """:func:`mean_ap` over the stacked tables that :func:`_greedy_sweep` takes."""
    classes = sorted(set(gts[:, 0].tolist()))
    if not classes:  # the per-class convention: 1 with no detections, else 0
        return MeanApResult(*[0.0 if len(dets) else 1.0] * 3)
    aps = _greedy_sweep(dets, n_det, gts, n_gt, classes, DEFAULT_MAP_THRESHOLDS)
    class_mean = {thr: sum(ap) / len(classes) for thr, ap in aps.items()}
    return MeanApResult(map50=class_mean[0.50], map75=class_mean[0.75],
                        map_mean=sum(class_mean.values()) / len(class_mean))


def _parse(texts: list[str], names: list[str], container):
    """``container`` of the lines of ``texts``, in order, that are not blank
    or ``#`` comments, as one float64 table, and each text's count of them.
    Every field reads as ``float()`` and the class id also as ``int()``. All
    rows are converted and checked at once; only when that fails are the lines
    walked, and the first bad one named, after its text's entry of ``names``
    when that is not empty."""
    n, kind = container._low.size, container._kind
    rows = [[r for r in map(str.split, t.splitlines()) if r and r[0][0] != "#"] for t in texts]
    flat = list(itertools.chain.from_iterable(rows))
    tokens = list(itertools.chain.from_iterable(flat))
    try:
        if set(map(len, flat)) - {n}:
            raise ValueError(f"every line needs {n} fields")
        list(map(int, tokens[::n]))
        table = np.fromiter(map(float, tokens), np.float64, len(tokens))
        return container(table.reshape(-1, n)), list(map(len, rows))
    except ValueError as exc:
        error = exc
    for name, text in zip(names, texts):
        where = f"{name}: {kind}" if name else kind
        for lineno, line in enumerate(text.splitlines(), 1):
            parts = line.split()
            if parts and not parts[0].startswith("#"):
                if len(parts) != n:
                    raise ValueError(f"{where} line {lineno} needs {n} fields: {line.strip()!r}")
                try:
                    box = [float(v) for v in parts[1:5]]
                    _check_row([int(parts[0]), *box, *map(float, parts[5:])])
                except ValueError as exc:
                    raise ValueError(f"{where} line {lineno}: {exc}") from None
    raise error


def parse_detections(text: str) -> Detections:
    """One detection per line: ``class_id x1 y1 x2 y2 confidence``; errors name the line."""
    return _parse([text], [""], Detections)[0]


def parse_ground_truth(text: str) -> GroundTruth:
    """One box per line: ``class_id x1 y1 x2 y2``; errors name the line."""
    return _parse([text], [""], GroundTruth)[0]
