"""Property tests: PSNR and SSIM over the whole 8-bit pixel range, box
overlap over the whole accepted coordinate range, and AP/mAP against a
per-class, per-threshold greedy oracle."""

import math
import warnings

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, example, given, settings, strategies as st  # noqa: E402
from hypothesis.extra import numpy as hnp  # noqa: E402

from cfmw_kit import metrics  # noqa: E402
from cfmw_kit.metrics import (  # noqa: E402
    BOX_COORD_LIMIT,
    DEFAULT_MAP_THRESHOLDS,
    Detections,
    GroundTruth,
    average_precision,
    giou,
    iou,
    mean_ap,
    psnr,
    ssim,
)

SETTINGS = settings(max_examples=400)

@st.composite
def image_pairs(draw):
    """Two same-shape (H, W) or (H, W, 3) images of pixels in [0, 255], each
    side at least the 11-pixel SSIM window."""
    h, w = draw(st.integers(11, 14)), draw(st.integers(11, 14))
    shape = (h, w, 3) if draw(st.booleans()) else (h, w)
    pixels = hnp.arrays(np.float64, shape, elements=st.floats(0.0, 255.0))
    return draw(pixels), draw(pixels)


@SETTINGS
@given(image_pairs())
def test_in_range_pixels_score_finitely(pair):
    x, y = pair
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        p, s = psnr(x, y), ssim(x, y)
    assert math.isfinite(p) and p <= 99.0
    assert math.isfinite(s) and s <= 1.0


_flat = np.full((11, 11), 9.0)


@SETTINGS
@given(pair=image_pairs(), bad=st.floats().filter(lambda v: not 0.0 <= v <= 255.0),
       where=st.integers(0, 2 ** 16), in_y=st.booleans())
@example(pair=(_flat, _flat), bad=1e200, where=0, in_y=False)
@example(pair=(_flat, _flat), bad=-1.0, where=60, in_y=True)
@example(pair=(_flat, _flat), bad=255.5, where=120, in_y=False)
def test_one_bad_pixel_is_refused_by_name(pair, bad, where, in_y):
    x, y = (im.copy() for im in pair)
    odd = y if in_y else x
    odd.flat[where % odd.size] = bad
    for metric in (psnr, ssim):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"^{'y' if in_y else 'x'} has a non-finite"):
                metric(x, y)


_coord = st.floats(-BOX_COORD_LIMIT, BOX_COORD_LIMIT, allow_nan=False)


@st.composite
def boxes(draw):
    x1, x2 = sorted((draw(_coord), draw(_coord)))
    y1, y2 = sorted((draw(_coord), draw(_coord)))
    assume(x1 < x2 and y1 < y2 and (x2 - x1) * (y2 - y1) > 0.0)
    return (x1, y1, x2, y2)


@SETTINGS
@given(boxes(), boxes())
def test_overlaps_stay_in_range(a, b):
    v, g = iou(a, b), giou(a, b)
    assert 0.0 <= v <= 1.0
    assert -1.0 <= g <= 1.0
    assert iou(a, a) == 1.0 and iou(b, b) == 1.0


@SETTINGS
@given(boxes(), boxes())
def test_accepted_boxes_keep_their_bits(a, b):
    assert GroundTruth([(0, *a)]).boxes.tolist() == [list(a)]
    m = metrics._iou_matrix(np.array([a, b]), np.array([b, a]))
    want = np.array([[iou(a, b), iou(a, a)], [iou(b, b), iou(b, a)]])
    assert m.tobytes() == want.tobytes()


def greedy_ap(images, class_id, thr):
    """AP of one class at one threshold, matched on its own: rank the class's
    detections (stable, by confidence), give each the free same-image box of
    highest IoU (the first on ties) if it reaches ``thr``, then add each
    recall increment times the precision before it."""
    ranked = sorted(((k, row) for k, (dets, _) in enumerate(images) for row in dets.table.tolist()
                     if row[0] == class_id), key=lambda kd: -kd[1][5])
    boxes = [[row[1:5] for row in gts.table.tolist() if row[0] == class_id] for _, gts in images]
    n_gt = sum(len(b) for b in boxes)
    if n_gt == 0:
        return 1.0 if not ranked else 0.0
    taken, tp, ap, recall, precision = set(), 0, 0.0, 0.0, 1.0
    for n, (k, det) in enumerate(ranked, start=1):
        free = [(iou(det[1:5], b), j) for j, b in enumerate(boxes[k]) if (k, j) not in taken]
        best, j = max(free, key=lambda c: (c[0], -c[1]), default=(0.0, None))
        if best >= thr:
            taken.add((k, j))
            tp += 1
        ap += (tp / n_gt - recall) * precision
        recall, precision = tp / n_gt, tp / n
    return ap


def greedy_map(images):
    classes = sorted({row[0] for _, gts in images for row in gts.table.tolist()})
    if not classes:
        value = 0.0 if any(len(dets.table) for dets, _ in images) else 1.0
        return value, value, value

    def class_mean(thr):
        return sum(greedy_ap(images, c, thr) for c in classes) / len(classes)

    return (class_mean(0.5), class_mean(0.75),
            sum(class_mean(t) for t in DEFAULT_MAP_THRESHOLDS) / len(DEFAULT_MAP_THRESHOLDS))


@st.composite
def grid_boxes(draw):
    """Small integer boxes: equal IoUs, and IoUs exactly on a threshold, are common."""
    x, y = draw(st.integers(0, 6)), draw(st.integers(0, 6))
    return (x, y, x + draw(st.integers(1, 4)), y + draw(st.integers(1, 4)))


def _image(max_dets=6, max_gts=5):
    """One image: detections of classes 0-2 at four confidence levels (ties
    within and across images are common), ground truth of classes 0 and 1
    only (class 2 detections have none)."""
    det_rows = st.lists(st.tuples(st.integers(0, 2), grid_boxes(),
                                  st.sampled_from([0.25, 0.5, 0.75, 1.0])), max_size=max_dets)
    gt_rows = st.lists(st.tuples(st.integers(0, 1), grid_boxes()), max_size=max_gts)
    return st.tuples(det_rows.map(lambda rows: Detections([(c, *b, s) for c, b, s in rows])),
                     gt_rows.map(lambda rows: GroundTruth([(c, *b) for c, b in rows])))


_images = st.lists(_image(), max_size=4)
_grids = st.one_of(st.just(DEFAULT_MAP_THRESHOLDS),
                   st.lists(st.sampled_from([1 / 3, 0.5, 0.6, 0.75, 1.0]),
                            min_size=1, max_size=5).map(tuple))


@SETTINGS
@given(_images, _grids)
# IoU 1/3 with both boxes: the first one is taken, so the second detection misses
@example([(Detections([(0, 1, 0, 3, 2, 0.9), (0, 0, 0, 2, 2, 0.8)]),
           GroundTruth([(0, 0, 0, 2, 2), (0, 2, 0, 4, 2)]))], (1 / 3,))
def test_one_sweep_equals_per_class_per_threshold_matching(images, grid):
    got = mean_ap(images)
    assert (got.map50, got.map75, got.map_mean) == greedy_map(images)
    for class_id in (0, 1, 2):
        for thr in grid:
            assert average_precision(images, class_id, thr) == greedy_ap(images, class_id, thr)


@SETTINGS
@given(_images, st.data())
def test_mean_ap_ignores_image_order_with_distinct_confidences(images, data):
    n_dets = sum(len(dets.table) for dets, _ in images)
    ranks = np.array(data.draw(st.permutations(range(n_dets))), dtype=np.float64)
    starts = np.cumsum([0] + [len(dets.table) for dets, _ in images])
    images = [(Detections(np.column_stack([dets.table[:, :5], (ranks[a:b] + 1) / (n_dets + 1)])),
               gts) for (dets, gts), a, b in zip(images, starts, starts[1:])]
    order = data.draw(st.permutations(range(len(images))))
    want = mean_ap(images)
    got = mean_ap([images[k] for k in order])
    assert (got.map50, got.map75, got.map_mean) == (want.map50, want.map75, want.map_mean)


# Derandomized sweep property: more and larger images than the cases above,
# so buckets of several widths and uneven detection counts meet in one call.
@settings(max_examples=150)
@given(st.lists(_image(max_dets=30, max_gts=12), min_size=1, max_size=8), _grids)
def test_lockstep_sweep_equals_greedy_oracle_on_uneven_images(images, grid):
    got = mean_ap(images)
    assert (got.map50, got.map75, got.map_mean) == greedy_map(images)
    for class_id in (0, 1, 2):
        for thr in grid:
            assert average_precision(images, class_id, thr) == greedy_ap(images, class_id, thr)


def test_ap_is_a_left_to_right_sum_over_ranked_flags_with_ties():
    # 1,200 detections of one class on 40 images, confidences in 7 levels (ties
    # everywhere), boxes that hit, miss or duplicate; AP must equal the running
    # sum over the ranked flags that the greedy oracle adds up.
    rng = np.random.default_rng(23)
    images = []
    for _ in range(40):
        gts = rng.integers(0, 40, (rng.integers(0, 25), 2)).astype(float)
        gt = np.column_stack([np.zeros(len(gts)), gts, gts + 4.0])
        picks = rng.integers(0, max(len(gts), 1), 30)
        jitter = rng.integers(-2, 3, (30, 2)).astype(float)
        xy = (gts[picks] if len(gts) else np.zeros((30, 2))) + jitter
        conf = rng.integers(1, 8, 30) / 8.0
        det = np.column_stack([np.zeros(30), xy, xy + 4.0, conf])
        images.append((Detections(det), GroundTruth(gt)))
    assert sum(len(d.table) for d, _ in images) >= 1000
    for thr in (0.3, 0.5, 0.9):
        assert average_precision(images, 0, thr) == greedy_ap(images, 0, thr)
