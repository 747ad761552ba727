import json
import math
import re
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from cfmw_kit import metrics
from cfmw_kit.metrics import (
    DEFAULT_MAP_THRESHOLDS,
    Detections,
    GroundTruth,
    average_precision,
    giou,
    iou,
    mean_ap,
    parse_detections,
    parse_ground_truth,
    psnr,
    ssim,
)
from cfmw_kit.tensor import SeededRng

GOLDEN_DIR = Path(__file__).parent / "golden"


def detections(*rows):
    """Detections from ``(box, class_id, confidence)`` tuples."""
    return Detections([(c, *box, s) for box, c, s in rows])


def ground_truth(*rows):
    """Ground truth from ``(box, class_id)`` tuples."""
    return GroundTruth([(c, *box) for box, c in rows])


def brute_force_ap(images, class_id, iou_thr):
    """Independent prefix-enumeration oracle for average precision.

    ``images`` holds one ``(Detections, GroundTruth)`` pair per image. Sorts
    every image's detections by confidence (stable: ties keep image order,
    then input order), matches each greedily to the unmatched box of its own
    image with the highest overlap, lists every prefix's (recall, precision)
    point, and accumulates recall increments times the precision attained
    before each.
    """
    ds = [(k, row) for k, (dets, _) in enumerate(images) for row in dets.table.tolist()
          if row[0] == class_id]
    ds = sorted(ds, key=lambda kd: -kd[1][5])
    gs = [[row[1:5] for row in gts.table.tolist() if row[0] == class_id] for _, gts in images]
    n_gt = sum(len(boxes) for boxes in gs)
    if not n_gt:
        return 1.0 if not ds else 0.0
    taken = set()
    points = []
    tp = 0
    for n, (k, det) in enumerate(ds, start=1):
        cands = [(iou(det[1:5], g), j) for j, g in enumerate(gs[k]) if (k, j) not in taken]
        cands = [(v, j) for v, j in cands if v >= iou_thr]
        if cands:
            best = max(cands, key=lambda c: (c[0], -c[1]))
            taken.add((k, best[1]))
            tp += 1
        points.append((tp / n_gt, tp / n))
    area = 0.0
    r_prev, p_prev = 0.0, 1.0
    for r, p in points:
        area += (r - r_prev) * p_prev
        r_prev, p_prev = r, p
    return area


class TestPsnr:
    def test_identical_capped(self):
        img = np.full((4, 4, 3), 37.0)
        assert psnr(img, img) == 99.0

    def test_zero_db(self):
        assert psnr(np.zeros((2, 2)), np.full((2, 2), 255.0)) == 0.0

    def test_quarter_mse_hand_value(self):
        y = np.zeros((2, 2))
        x = np.array([[255.0, 0.0], [0.0, 0.0]])
        assert abs(psnr(x, y) - 10.0 * math.log10(4.0)) < 1e-12
        assert abs(psnr(x, y) - 6.0206) < 1e-4

    def test_symmetry(self):
        rng = SeededRng(80)
        a = rng.uniform(48).reshape(4, 4, 3) * 255
        b = rng.uniform(48).reshape(4, 4, 3) * 255
        assert psnr(a, b) == psnr(b, a)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            psnr(np.zeros((2, 2)), np.zeros((3, 2)))


def brute_force_ssim(x, y):
    """Per-window SSIM oracle: the 2-D window outer(g, g), one window at a time,
    with the constants of Wang et al. written out."""
    c1, c2 = (0.01 * 255) ** 2, (0.03 * 255) ** 2
    c3 = c2 / 2
    luma = np.array([0.299, 0.587, 0.114])
    gx, gy = (np.asarray(im, dtype=np.float64) for im in (x, y))
    if gx.ndim == 3:
        gx, gy = gx @ luma, gy @ luma
    n = 11
    ax = np.arange(n) - (n - 1) / 2.0
    g = np.exp(-(ax ** 2) / (2.0 * 1.5 ** 2))
    kern = np.outer(g, g)
    kern /= kern.sum()
    values = []
    for i in range(gx.shape[0] - n + 1):
        for j in range(gx.shape[1] - n + 1):
            wx, wy = gx[i:i + n, j:j + n], gy[i:i + n, j:j + n]
            mx, my = np.sum(kern * wx), np.sum(kern * wy)
            vx = max(np.sum(kern * wx * wx) - mx * mx, 0.0)
            vy = max(np.sum(kern * wy * wy) - my * my, 0.0)
            cov = np.sum(kern * wx * wy) - mx * my
            sx, sy = math.sqrt(vx), math.sqrt(vy)
            lum = (2 * mx * my + c1) / (mx * mx + my * my + c1)
            con = (2 * sx * sy + c2) / (vx + vy + c2)
            stru = (cov + c3) / (sx * sy + c3)
            values.append(lum * con * stru)
    return float(np.mean(values))


class TestSsim:
    def test_identical_is_one(self):
        rng = SeededRng(81)
        img = rng.uniform(16 * 16).reshape(16, 16) * 255
        assert abs(ssim(img, img) - 1.0) < 1e-12

    def test_constant_equal_images(self):
        img = np.full((12, 12), 128.0)
        assert abs(ssim(img, img.copy()) - 1.0) < 1e-12

    @pytest.mark.parametrize("shape", [(12, 12), (15, 13, 3)])
    def test_constant_images_clamp_rounded_variance(self, shape):
        # some constants give a window variance that rounds below zero
        for c in (0.1, 3.3, 77.3, 251.9):
            img = np.full(shape, c)
            assert abs(ssim(img, img.copy()) - 1.0) < 1e-12

    def test_inverted_checkerboard_low(self):
        yy, xx = np.mgrid[0:16, 0:16]
        img = ((yy + xx) % 2) * 255.0
        inv = 255.0 - img
        value = ssim(img, inv)
        assert value < 0.5
        golden = json.loads((GOLDEN_DIR / "metrics_golden.json").read_text())
        assert value == pytest.approx(golden["ssim_inverted_checkerboard"], abs=1e-12)

    def test_symmetry(self):
        rng = SeededRng(82)
        a = rng.uniform(15 * 14).reshape(15, 14) * 255
        b = rng.uniform(15 * 14).reshape(15, 14) * 255
        assert abs(ssim(a, b) - ssim(b, a)) < 1e-12

    def test_never_exceeds_one(self):
        rng = SeededRng(83)
        for _ in range(10):
            a = rng.uniform(12 * 12).reshape(12, 12) * 255
            b = np.clip(a + rng.normal(144).reshape(12, 12) * 20, 0, 255)
            assert ssim(a, b) <= 1.0

    def test_color_uses_luminance(self):
        rng = SeededRng(84)
        gray = rng.uniform(12 * 12).reshape(12, 12) * 255
        color = np.repeat(gray[:, :, None], 3, axis=2)
        assert abs(ssim(color, color) - 1.0) < 1e-12

    def test_too_small_rejected(self):
        with pytest.raises(ValueError):
            ssim(np.zeros((8, 8)), np.zeros((8, 8)))

    @pytest.mark.parametrize("shape", [
        (11, 11),  # exactly one window
        (13, 20),
        (17, 12, 3),
    ])
    def test_matches_per_window_oracle(self, shape):
        rng = SeededRng(86)
        n = int(np.prod(shape))
        for noise in (0.0, 5.0, 60.0, 255.0):  # noise 0: identical images
            a = rng.uniform(n).reshape(shape) * 255
            b = np.clip(a + rng.normal(n).reshape(shape) * noise, 0, 255)
            want = brute_force_ssim(a, b)
            assert abs(ssim(a, b) - want) <= 1e-12 * max(1.0, abs(want))

    def test_memory_linear_in_pixels(self):
        rng = SeededRng(87)
        a = rng.uniform(256 * 256 * 3).reshape(256, 256, 3) * 255
        b = np.clip(a + rng.normal(a.size).reshape(a.shape) * 20, 0, 255)
        tracemalloc.start()
        try:
            ssim(a, b)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 16 * 256 * 256 * 8  # 16 float64 luminance planes

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_pixels_rejected(self, bad):
        img = np.full((12, 12, 3), 100.0)
        odd = img.copy()
        odd[3, 4, 1] = bad
        for x, y in ((odd, img), (img, odd)):
            with pytest.raises(ValueError, match="non-finite"):
                ssim(x, y)
            with pytest.raises(ValueError, match="non-finite"):
                psnr(x, y)

    @pytest.mark.parametrize("metric", [psnr, ssim])
    def test_empty_image_refused_by_name(self, metric):
        empty = np.zeros((0, 12))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^x has no pixels"):
                metric(empty, empty)


class TestBoxOverlap:
    def test_identical_boxes(self):
        box = (1.0, 2.0, 4.0, 6.0)
        assert iou(box, box) == 1.0
        assert giou(box, box) == 1.0

    def test_corner_touching_unit_boxes(self):
        a, b = (0, 0, 1, 1), (1, 1, 2, 2)
        assert iou(a, b) == 0.0
        assert giou(a, b) == -0.5

    def test_nested_half_area(self):
        outer, inner = (0, 0, 2, 2), (0, 0, 1, 2)
        assert iou(outer, inner) == 0.5
        assert giou(outer, inner) == 0.5

    def test_giou_never_exceeds_iou(self):
        rng = SeededRng(85)
        for _ in range(200):
            vals = rng.uniform(8) * 10
            a = (vals[0], vals[1], vals[0] + vals[2] + 0.1, vals[1] + vals[3] + 0.1)
            b = (vals[4], vals[5], vals[4] + vals[6] + 0.1, vals[5] + vals[7] + 0.1)
            assert giou(a, b) <= iou(a, b) + 1e-12

    def test_giou_equals_iou_when_hull_is_union(self):
        outer, inner = (0, 0, 4, 4), (1, 1, 2, 2)
        assert giou(outer, inner) == iou(outer, inner)

    def test_degenerate_rejected(self):
        with pytest.raises(ValueError):
            iou((0, 0, 0, 1), (0, 0, 1, 1))
        with pytest.raises(ValueError, match="^table row 0: box is degenerate"):
            detections(((0, 0, 1, 0), 0, 0.5))
        # non-finite corners, and areas that underflow to 0 or overflow to inf
        for box in ((0, 0, math.inf, 1), (-math.inf, 0, 1, 1), (0, math.nan, 1, 1),
                    (0, 0, 1e-200, 1e-200), (-1e308, 0, 1e308, 1)):
            with pytest.raises(ValueError, match="degenerate or not finite"):
                iou(box, (0, 0, 1, 1))
            finite = all(map(math.isfinite, box))
            with pytest.raises(ValueError, match="^table row 0: box is degenerate or not finite"
                               if finite else "^table contains non-finite values"):
                ground_truth((box, 0))

    def test_coordinates_beyond_limit_rejected(self):
        # unbounded, these pairs overflow: an infinite hull makes GIoU NaN, and
        # an infinite union makes iou(b, b) 0 and giou(b, b) inf
        big = (0.0, 0.0, 1e154, 1e154)
        for a, b in (((-1e308, 0, -9.9e307, 1), (9.9e307, 0, 1e308, 1)), (big, big)):
            for f in (iou, giou):
                with pytest.raises(ValueError, match=r"a is degenerate or not finite.*1e\+150"):
                    f(a, b)
        edge = (-1e150, -1e150, 1e150, 1e150)
        assert iou(edge, edge) == 1.0 and giou(edge, edge) == 1.0
        assert ground_truth((edge, 0)).boxes.tolist() == [list(edge)]
        assert giou((-1e150, 0, -0.9e150, 1), (0.9e150, 0, 1e150, 1)) == pytest.approx(-0.9)

    def test_iou_matrix_bit_identical_to_iou(self):
        rng = SeededRng(88)
        # small, far-off and touching boxes; the far ones sit past x = 1e6
        vals = rng.uniform(4 * 40).reshape(40, 4) * 20
        boxes = np.concatenate([vals[:, :2], vals[:, :2] + vals[:, 2:] + 0.01], axis=1)
        boxes[::5, 0::2] += 1.0e6
        boxes[1::7] = boxes[0] + [boxes[0, 2] - boxes[0, 0], 0, boxes[0, 2] - boxes[0, 0], 0]
        a, b = boxes[:25], boxes[15:]
        m = metrics._iou_matrix(a, b)
        want = [[iou(x, y) for y in b] for x in a]
        assert m.shape == (25, 25)
        assert m.tobytes() == np.array(want).tobytes()


def pair(dets, gts):
    """One image's ``(Detections, GroundTruth)`` from lists of row tuples."""
    return detections(*dets), ground_truth(*gts)


class TestAveragePrecision:
    def test_perfect_single_detection(self):
        gts = [((0, 0, 10, 10), 0)]
        dets = [((0, 0, 10, 10), 0, 0.9)]
        assert average_precision([pair(dets, gts)], 0, 0.5) == 1.0

    def test_below_threshold_is_zero(self):
        gts = [((0, 0, 10, 10), 0)]
        dets = [((9, 9, 19, 19), 0, 0.9)]
        assert average_precision([pair(dets, gts)], 0, 0.5) == 0.0

    def test_hit_miss_hit_fixture(self):
        gts = [((0, 0, 10, 10), 0), ((20, 20, 30, 30), 0)]
        dets = [((0, 0, 10, 10), 0, 0.9),
                ((100, 100, 105, 105), 0, 0.8),
                ((20, 20, 30, 30), 0, 0.7)]
        value = average_precision([pair(dets, gts)], 0, 0.5)
        assert value == 0.75
        assert value == brute_force_ap([pair(dets, gts)], 0, 0.5)

    def test_matches_brute_force_on_random_cases(self):
        rng = SeededRng(86)
        for _ in range(40):
            n_gt = int(rng.uniform(1)[0] * 5)
            n_det = int(rng.uniform(1)[0] * 8)
            gts = []
            for _ in range(n_gt):
                x, y = rng.uniform(2) * 50
                gts.append(((x, y, x + 10, y + 10), 0))
            dets = []
            for _ in range(n_det):
                x, y = rng.uniform(2) * 55
                conf = round(float(rng.uniform(1)[0]), 3)
                dets.append(((x, y, x + 10, y + 10), 0, conf))
            got = average_precision([pair(dets, gts)], 0, 0.5)
            want = brute_force_ap([pair(dets, gts)], 0, 0.5)
            assert got == pytest.approx(want, abs=1e-12)

    def test_matches_brute_force_across_images(self):
        rng = SeededRng(89)
        for _ in range(60):
            images = []
            for _ in range(1 + int(rng.uniform(1)[0] * 4)):
                # images overlap in coordinates; some boxes sit past x = 1e6
                shift = 1.0e6 if rng.uniform(1)[0] < 0.3 else 0.0
                gts, dets = [], []
                for _ in range(int(rng.uniform(1)[0] * 4)):
                    x, y = rng.uniform(2) * 30
                    gts.append(((x + shift, y, x + shift + 10, y + 10),
                                int(rng.uniform(1)[0] * 2)))
                for _ in range(int(rng.uniform(1)[0] * 6)):
                    x, y = rng.uniform(2) * 33
                    # four confidence levels, so ties across images are common
                    conf = 0.2 + 0.2 * int(rng.uniform(1)[0] * 4)
                    dets.append(((x + shift, y, x + shift + 10, y + 10),
                                 int(rng.uniform(1)[0] * 2), conf))
                images.append(pair(dets, gts))
            for cls in (0, 1):
                for thr in (0.3, 0.5, 0.75):
                    assert (average_precision(images, cls, thr)
                            == brute_force_ap(images, cls, thr))

    def test_detections_only_match_their_own_image(self):
        box = (1.0e6, 0, 1.0e6 + 10, 10)
        first, second = [], [((0, 0, 10, 10), 0, 0.9)]

        def ap():
            return average_precision([pair(first, [(box, 0)]), pair(second, [])], 0, 0.5)

        assert ap() == 0.0
        second.append((box, 0, 0.8))
        assert ap() == 0.0
        first.append((box, 0, 0.95))
        assert ap() == 1.0

    def test_equal_overlaps_take_the_first_box(self):
        gts = [((0, 0, 10, 10), 0), ((10, 0, 20, 10), 0)]
        # IoU 1/3 with both boxes; taking the first leaves the second detection none
        dets = [((5, 0, 15, 10), 0, 0.9), ((0, 0, 10, 10), 0, 0.8)]
        value = average_precision([pair(dets, gts)], 0, 0.3)
        assert value == 0.5
        assert value == brute_force_ap([pair(dets, gts)], 0, 0.3)

    def test_confidence_rescaling_invariance(self):
        gts = [((0, 0, 10, 10), 0), ((20, 20, 30, 30), 0)]
        dets = [((0, 0, 10, 10), 0, 0.9),
                ((50, 50, 60, 60), 0, 0.6),
                ((20, 20, 30, 30), 0, 0.3)]
        base = average_precision([pair(dets, gts)], 0, 0.5)
        scaled = [(box, c, conf / 10.0) for box, c, conf in dets]
        assert average_precision([pair(scaled, gts)], 0, 0.5) == base

    def test_empty_conventions(self):
        assert average_precision([pair([], [])], 0, 0.5) == 1.0
        assert average_precision([pair([((0, 0, 1, 1), 0, 0.5)], [])], 0, 0.5) == 0.0
        assert average_precision([pair([], [((0, 0, 1, 1), 0)])], 0, 0.5) == 0.0

    def test_duplicate_detection_is_false_positive(self):
        gts = [((0, 0, 10, 10), 0)]
        dets = [((0, 0, 10, 10), 0, 0.9),
                ((0, 0, 10, 10), 0, 0.8)]
        flagsum = average_precision([pair(dets, gts)], 0, 0.5)
        assert flagsum == 1.0  # the duplicate adds no recall, left rule unaffected


class TestMeanAp:
    def test_perfect_every_class(self):
        gts = [((0, 0, 5, 5), 0), ((10, 10, 20, 20), 1)]
        dets = [((0, 0, 5, 5), 0, 0.9), ((10, 10, 20, 20), 1, 0.8)]
        res = mean_ap([pair(dets, gts)])
        assert (res.map50, res.map75, res.map_mean) == (1.0, 1.0, 1.0)

    def test_no_detections(self):
        gts = [((0, 0, 5, 5), 0)]
        res = mean_ap([pair([], gts)])
        assert (res.map50, res.map75, res.map_mean) == (0.0, 0.0, 0.0)

    def test_threshold_sweep_fixture(self):
        # IoU exactly 0.6: thresholds 0.50, 0.55, 0.60 pass -> mAP = 3/10.
        gts = [((0, 0, 10, 10), 0)]
        dets = [((0, 0, 10, 6), 0, 0.9)]
        res = mean_ap([pair(dets, gts)])
        assert res.map50 == 1.0
        assert res.map75 == 0.0
        assert res.map_mean == pytest.approx(0.3, abs=1e-15)

    def test_each_distinct_threshold_matched_once(self, monkeypatch):
        gts = [((0, 0, 10, 10), 0), ((0, 0, 10, 10), 1)]
        dets = [((0, 0, 10, 6), 0, 0.9), ((0, 0, 10, 8), 1, 0.8)]
        images = [pair(dets, gts), pair(dets[:1], gts[1:])]
        seen = []
        sweep = metrics._greedy_sweep
        monkeypatch.setattr(metrics, "_greedy_sweep",
                            lambda *args: seen.append(args[-1]) or sweep(*args))  # grid last
        full = mean_ap(images)
        assert seen == [DEFAULT_MAP_THRESHOLDS]  # one sweep, every class, each threshold once

        def class_mean(thr):
            return sum(average_precision(images, c, thr) for c in (0, 1)) / 2

        assert (full.map50, full.map75) == (class_mean(0.5), class_mean(0.75))
        assert full.map_mean == sum(class_mean(t) for t in DEFAULT_MAP_THRESHOLDS) / 10

    @pytest.mark.parametrize("gts", [[], [((0, 0, 5, 5), 0)]])
    def test_bad_threshold_refused(self, gts):
        images = [pair([((0, 0, 5, 5), 0, 0.9)], gts)]
        for thr in (0.0, -0.5, 1.5, math.nan):
            with pytest.raises(ValueError, match="threshold"):
                average_precision(images, 0, thr)

    def test_default_grid(self):
        assert DEFAULT_MAP_THRESHOLDS == (0.5, 0.55, 0.6, 0.65, 0.7, 0.75,
                                          0.8, 0.85, 0.9, 0.95)

    def test_skewed_images_stay_near_their_own_size(self):
        # one image of 400 detections x 200 boxes beside 499 one-box images:
        # padding every image to the largest would take 500 x 400 x 201
        # float64 IoU entries (321.6 MB); the bound is fixed at 16 MiB
        rng = np.random.default_rng(5)
        xy = rng.uniform(0, 600, (600, 2))
        big = pair([((*p, *(p + 30)), int(k % 5), float(c)) for k, (p, c)
                    in enumerate(zip(xy[:400], rng.uniform(0.01, 0.99, 400)))],
                   [((*p, *(p + 30)), k % 5) for k, p in enumerate(xy[400:])])
        small = [pair([((0, 0, 10, 10), k % 5, 0.5)], [((0, 0, 10, 10 + k % 3), k % 5)])
                 for k in range(499)]
        images = [big] + small
        mean_ap(images)
        tracemalloc.start()
        try:
            res = mean_ap(images)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2 ** 20
        assert 0.0 < res.map50 <= 1.0 and 0.0 <= res.map_mean <= res.map50

    def test_removing_false_positive_never_decreases(self):
        rng = SeededRng(87)
        for _ in range(20):
            gts = []
            for _ in range(3):
                x, y = rng.uniform(2) * 40
                gts.append(((x, y, x + 8, y + 8), 0))
            dets = []
            for _ in range(6):
                x, y = rng.uniform(2) * 45
                dets.append(((x, y, x + 8, y + 8), 0, round(float(rng.uniform(1)[0]), 3)))
            base = mean_ap([pair(dets, gts)])
            # find one false positive at the 0.5 threshold, if any
            for i, (box, _, _) in enumerate(dets):
                if all(iou(box, g) < 0.5 for g, _ in gts):
                    reduced = mean_ap([pair(dets[:i] + dets[i + 1:], gts)])
                    assert reduced.map50 >= base.map50 - 1e-12
                    assert reduced.map75 >= base.map75 - 1e-12
                    assert reduced.map_mean >= base.map_mean - 1e-12
                    break


class TestDetectionFiles:
    def test_round_trip(self):
        dets = detections(((1.5, 2.0, 3.25, 9.0), 2, 0.625), ((0.0, 0.0, 4.0, 4.0), 0, 1.0))
        gts = ground_truth(((1.0, 1.0, 2.0, 2.0), 1))
        det_text = "".join(f"{int(c)} {x1!r} {y1!r} {x2!r} {y2!r} {s!r}\n"
                           for c, x1, y1, x2, y2, s in dets.table.tolist())
        gt_text = "".join(f"{int(c)} {x1!r} {y1!r} {x2!r} {y2!r}\n"
                          for c, x1, y1, x2, y2 in gts.table.tolist())
        assert parse_detections(det_text).table.tobytes() == dets.table.tobytes()
        assert parse_ground_truth(gt_text).table.tobytes() == gts.table.tobytes()

    def test_bad_lines(self):
        with pytest.raises(ValueError):
            parse_detections("0 1 2 3 4\n")
        with pytest.raises(ValueError):
            parse_ground_truth("0 1 2 3 4 0.5\n")

    def test_field_that_does_not_convert_names_its_line(self):
        with pytest.raises(ValueError, match=r"^detection line 3: .*'x'"):
            parse_detections("0 0 0 1 1 0.5\n\n0 0 0 10 x 0.9\n")
        with pytest.raises(ValueError, match=r"^ground-truth line 2: .*'1\.5'"):
            parse_ground_truth("# header\n1.5 0 0 1 1\n")

    def test_non_finite_boxes_rejected(self):
        with pytest.raises(ValueError, match=r"\(0\.0, 0\.0, inf, 1\.0\)"):
            parse_detections("0 0 0 inf 1 0.5\n")
        with pytest.raises(ValueError, match=r"\(0\.0, nan, 1\.0, 1\.0\)"):
            parse_ground_truth("0 0 nan 1 1\n")

    def test_comments_skipped(self):
        assert parse_detections("# header\n\n0 0 0 1 1 0.5\n").table.tolist() == [
            [0, 0, 0, 1, 1, 0.5]]

    def test_class_id_grammar_is_int(self):
        # underscores read as int() does; a fractional id is refused by its line
        assert parse_ground_truth("1_0 0 0 1 1\n").class_id.tolist() == [10.0]
        with pytest.raises(ValueError, match=r"^ground-truth line 2: invalid literal for int\(\).*'2\.5'"):
            parse_ground_truth("0 0 0 1 1\n2.5 0 0 1 1\n")
        with pytest.raises(ValueError, match=r"^detection line 1: invalid literal for int\(\).*'1e3'"):
            parse_detections("1e3 0 0 1 1 0.5\n")

    @pytest.mark.parametrize("cid", ["99999999999999999999999", "-9007199254740992",
                                     "9007199254740993", "1" * 400],
                             ids=["1e23", "minus-2**53", "2**53+1", "400-digits"])
    def test_class_id_beyond_2_53_refused(self, cid):
        # every id below 2**53 in magnitude is exact in float64; larger ones are not
        text = f"0 0 0 1 1 0.5\n{cid} 0 0 1 1 0.5\n"
        with pytest.raises(ValueError, match=f"^detection line 2: class id {cid} is not an integer "
                                             r"of magnitude below 2\*\*53"):
            parse_detections(text)

    def test_class_ids_just_below_2_53_are_exact(self):
        edge = parse_detections("9007199254740991 0 0 1 1 0.5\n-9007199254740991 0 0 1 1 1\n")
        assert edge.class_id.tolist() == [2.0 ** 53 - 1, 1 - 2.0 ** 53]

    def test_confidence_outside_unit_interval_names_its_line(self):
        with pytest.raises(ValueError, match=r"^detection line 1: confidence 1\.5 outside \[0, 1\]"):
            parse_detections("0 0 0 1 1 1.5\n")


class TestBoxContainers:
    def test_columns_are_views_of_the_table(self):
        dets = detections(((0, 0, 2, 3), 4, 0.25))
        assert dets.class_id.tolist() == [4.0]
        assert dets.boxes.tolist() == [[0, 0, 2, 3]]
        assert dets.confidence.tolist() == [0.25]
        assert detections().table.shape == (0, 6) and ground_truth().table.shape == (0, 5)

    @pytest.mark.parametrize("row, message", [
        ((2.5, 0, 0, 1, 1), "class id 2.5 is not an integer"),
        ((2.0 ** 53, 0, 0, 1, 1), "class id 9007199254740992.0 is not an integer"),
        ((0, 0, 0, 1, 0), "box is degenerate"),
        ((0, 1e151, 0, 2e151, 1), "box is degenerate"),
    ])
    def test_bad_row_is_refused_by_index(self, row, message):
        with pytest.raises(ValueError, match=f"^table row 1: {re.escape(message)}"):
            GroundTruth([(0, 0, 0, 1, 1), row])

    def test_bad_shape_or_confidence_refused(self):
        with pytest.raises(ValueError, match=r"table must be \(n, 6\), got \(1, 5\)"):
            Detections([(0, 0, 0, 1, 1)])
        with pytest.raises(ValueError, match=r"^table row 0: confidence -0\.5 outside"):
            detections(((0, 0, 1, 1), 0, -0.5))
