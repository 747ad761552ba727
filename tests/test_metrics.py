import json
import math
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from cfmw_kit import metrics
from cfmw_kit.metrics import (
    DEFAULT_MAP_THRESHOLDS,
    Detection,
    GroundTruthBox,
    SsimParams,
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


def brute_force_ap(images, class_id, iou_thr):
    """Independent prefix-enumeration oracle for average precision.

    ``images`` holds one ``(dets, gts)`` pair per image. Sorts every image's
    detections by confidence (stable: ties keep image order, then input
    order), matches each greedily to the unmatched box of its own image with
    the highest overlap, lists every prefix's (recall, precision) point, and
    accumulates recall increments times the precision attained before each.
    """
    ds = [(k, d) for k, (dets, _) in enumerate(images) for d in dets
          if d.class_id == class_id]
    ds = sorted(ds, key=lambda kd: -kd[1].confidence)
    gs = [[g.box for g in gts if g.class_id == class_id] for _, gts in images]
    n_gt = sum(len(boxes) for boxes in gs)
    if not n_gt:
        return 1.0 if not ds else 0.0
    taken = set()
    points = []
    tp = 0
    for n, (k, det) in enumerate(ds, start=1):
        cands = [(iou(det.box, g), j) for j, g in enumerate(gs[k]) if (k, j) not in taken]
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


def brute_force_ssim(x, y, params=SsimParams()):
    """Per-window SSIM oracle: the 2-D window outer(g, g), one window at a time."""
    luma = np.array([0.299, 0.587, 0.114])
    gx, gy = (np.asarray(im, dtype=np.float64) for im in (x, y))
    if gx.ndim == 3:
        gx, gy = gx @ luma, gy @ luma
    n = params.window
    ax = np.arange(n) - (n - 1) / 2.0
    g = np.exp(-(ax ** 2) / (2.0 * params.sigma ** 2))
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
            lum = (2 * mx * my + params.c1) / (mx * mx + my * my + params.c1)
            con = (2 * sx * sy + params.c2) / (vx + vy + params.c2)
            stru = (cov + params.c3) / (sx * sy + params.c3)
            values.append(lum ** params.alpha * con ** params.beta * stru ** params.gamma)
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

    def test_window_params(self):
        p = SsimParams()
        assert p.c1 == (0.01 * 255) ** 2
        assert p.c2 == (0.03 * 255) ** 2
        assert p.c3 == p.c2 / 2

    @pytest.mark.parametrize("shape, params", [
        ((11, 11), SsimParams()),  # exactly one window
        ((13, 20), SsimParams()),
        ((17, 12, 3), SsimParams()),
        ((14, 9), SsimParams(window=7, sigma=1.0, alpha=2.0, beta=0.5, gamma=3.0)),
        ((10, 12, 3), SsimParams(window=4, sigma=0.8, gamma=2.0, dynamic_range=100.0)),
    ])
    def test_matches_per_window_oracle(self, shape, params):
        rng = SeededRng(86)
        n = int(np.prod(shape))
        for noise in (0.0, 5.0, 60.0, 255.0):  # noise 0: identical images
            a = rng.uniform(n).reshape(shape) * 255
            b = np.clip(a + rng.normal(n).reshape(shape) * noise, 0, 255)
            want = brute_force_ssim(a, b, params)
            assert abs(ssim(a, b, params) - want) <= 1e-12 * max(1.0, abs(want))

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

    def test_non_finite_mean_rejected(self):
        yy, xx = np.mgrid[0:16, 0:16]
        img = ((yy + xx) % 2) * 255.0  # negative structure term against its inverse
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="SSIM is not finite"):
                ssim(img, 255.0 - img, SsimParams(gamma=0.5))

    @pytest.mark.parametrize("kwargs", [
        {"window": 0}, {"window": -3}, {"window": 2.5}, {"window": 11.0}, {"window": True},
        {"sigma": 0.0}, {"sigma": -1.5}, {"sigma": math.nan}, {"sigma": math.inf},
        {"dynamic_range": 0.0}, {"dynamic_range": math.inf},
        {"k1": 0.0}, {"k2": -0.03}, {"k2": math.nan},
        {"alpha": 0.0}, {"beta": -1.0}, {"gamma": math.inf},
    ], ids=lambda kw: "{}={}".format(*next(iter(kw.items()))))
    def test_bad_params_rejected(self, kwargs):
        with pytest.raises(ValueError, match=next(iter(kwargs))):
            SsimParams(**kwargs)

    @pytest.mark.parametrize("kwargs, match", [
        ({"sigma": 1e-200}, "taps"),  # 2 sigma^2 underflows: NaN taps
        ({"sigma": 0.1}, "taps"),  # the edge taps underflow to 0
        ({"sigma": 1e200}, "overflow"),
        ({"k1": 1e-200, "k2": 1e-200}, "c1"),  # c1 = c2 = 0: 0 / 0 on flat images
        ({"k2": 1e-200}, "c2"),
        ({"k1": 1e200}, "overflow"),
        ({"dynamic_range": 1e300}, "overflow"),
    ])
    def test_degenerate_derived_constants_rejected(self, kwargs, match):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=match):
                SsimParams(**kwargs)

    def test_tiny_but_sound_constants_accepted(self):
        p = SsimParams(sigma=0.2, k1=1e-150, k2=1e-150)
        assert p.c1 > 0.0 and p.c3 > 0.0
        img = np.full((12, 12), 7.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert ssim(img, img, p) == 1.0


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
        with pytest.raises(ValueError):
            Detection(box=(0, 0, 1, 0), class_id=0, confidence=0.5)
        # non-finite corners, and areas that underflow to 0 or overflow to inf
        for box in ((0, 0, math.inf, 1), (-math.inf, 0, 1, 1), (0, math.nan, 1, 1),
                    (0, 0, 1e-200, 1e-200), (-1e308, 0, 1e308, 1)):
            with pytest.raises(ValueError, match="degenerate or not finite"):
                iou(box, (0, 0, 1, 1))
            with pytest.raises(ValueError, match="degenerate or not finite"):
                GroundTruthBox(box, 0)

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
        assert GroundTruthBox(edge, 0).box == edge
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


class TestAveragePrecision:
    def test_perfect_single_detection(self):
        gts = [GroundTruthBox((0, 0, 10, 10), 0)]
        dets = [Detection((0, 0, 10, 10), 0, 0.9)]
        assert average_precision([(dets, gts)], 0, 0.5) == 1.0

    def test_below_threshold_is_zero(self):
        gts = [GroundTruthBox((0, 0, 10, 10), 0)]
        dets = [Detection((9, 9, 19, 19), 0, 0.9)]
        assert average_precision([(dets, gts)], 0, 0.5) == 0.0

    def test_hit_miss_hit_fixture(self):
        gts = [GroundTruthBox((0, 0, 10, 10), 0), GroundTruthBox((20, 20, 30, 30), 0)]
        dets = [Detection((0, 0, 10, 10), 0, 0.9),
                Detection((100, 100, 105, 105), 0, 0.8),
                Detection((20, 20, 30, 30), 0, 0.7)]
        value = average_precision([(dets, gts)], 0, 0.5)
        assert value == 0.75
        assert value == brute_force_ap([(dets, gts)], 0, 0.5)

    def test_matches_brute_force_on_random_cases(self):
        rng = SeededRng(86)
        for _ in range(40):
            n_gt = int(rng.uniform(1)[0] * 5)
            n_det = int(rng.uniform(1)[0] * 8)
            gts = []
            for _ in range(n_gt):
                x, y = rng.uniform(2) * 50
                gts.append(GroundTruthBox((x, y, x + 10, y + 10), 0))
            dets = []
            for _ in range(n_det):
                x, y = rng.uniform(2) * 55
                conf = round(float(rng.uniform(1)[0]), 3)
                dets.append(Detection((x, y, x + 10, y + 10), 0, conf))
            got = average_precision([(dets, gts)], 0, 0.5)
            want = brute_force_ap([(dets, gts)], 0, 0.5)
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
                    gts.append(GroundTruthBox((x + shift, y, x + shift + 10, y + 10),
                                              int(rng.uniform(1)[0] * 2)))
                for _ in range(int(rng.uniform(1)[0] * 6)):
                    x, y = rng.uniform(2) * 33
                    # four confidence levels, so ties across images are common
                    conf = 0.2 + 0.2 * int(rng.uniform(1)[0] * 4)
                    dets.append(Detection((x + shift, y, x + shift + 10, y + 10),
                                          int(rng.uniform(1)[0] * 2), conf))
                images.append((dets, gts))
            for cls in (0, 1):
                for thr in (0.3, 0.5, 0.75):
                    assert (average_precision(images, cls, thr)
                            == brute_force_ap(images, cls, thr))

    def test_detections_only_match_their_own_image(self):
        box = (1.0e6, 0, 1.0e6 + 10, 10)
        images = [([], [GroundTruthBox(box, 0)]),
                  ([Detection((0, 0, 10, 10), 0, 0.9)], [])]
        assert average_precision(images, 0, 0.5) == 0.0
        images[1][0].append(Detection(box, 0, 0.8))
        assert average_precision(images, 0, 0.5) == 0.0
        images[0][0].append(Detection(box, 0, 0.95))
        assert average_precision(images, 0, 0.5) == 1.0

    def test_equal_overlaps_take_the_first_box(self):
        gts = [GroundTruthBox((0, 0, 10, 10), 0), GroundTruthBox((10, 0, 20, 10), 0)]
        # IoU 1/3 with both boxes; taking the first leaves the second detection none
        dets = [Detection((5, 0, 15, 10), 0, 0.9), Detection((0, 0, 10, 10), 0, 0.8)]
        value = average_precision([(dets, gts)], 0, 0.3)
        assert value == 0.5
        assert value == brute_force_ap([(dets, gts)], 0, 0.3)

    def test_confidence_rescaling_invariance(self):
        gts = [GroundTruthBox((0, 0, 10, 10), 0), GroundTruthBox((20, 20, 30, 30), 0)]
        dets = [Detection((0, 0, 10, 10), 0, 0.9),
                Detection((50, 50, 60, 60), 0, 0.6),
                Detection((20, 20, 30, 30), 0, 0.3)]
        base = average_precision([(dets, gts)], 0, 0.5)
        scaled = [Detection(d.box, d.class_id, d.confidence / 10.0) for d in dets]
        assert average_precision([(scaled, gts)], 0, 0.5) == base

    def test_empty_conventions(self):
        assert average_precision([([], [])], 0, 0.5) == 1.0
        assert average_precision([([Detection((0, 0, 1, 1), 0, 0.5)], [])], 0, 0.5) == 0.0
        assert average_precision([([], [GroundTruthBox((0, 0, 1, 1), 0)])], 0, 0.5) == 0.0

    def test_duplicate_detection_is_false_positive(self):
        gts = [GroundTruthBox((0, 0, 10, 10), 0)]
        dets = [Detection((0, 0, 10, 10), 0, 0.9),
                Detection((0, 0, 10, 10), 0, 0.8)]
        flagsum = average_precision([(dets, gts)], 0, 0.5)
        assert flagsum == 1.0  # the duplicate adds no recall, left rule unaffected


class TestMeanAp:
    def test_perfect_every_class(self):
        gts = [GroundTruthBox((0, 0, 5, 5), 0), GroundTruthBox((10, 10, 20, 20), 1)]
        dets = [Detection((0, 0, 5, 5), 0, 0.9), Detection((10, 10, 20, 20), 1, 0.8)]
        res = mean_ap([(dets, gts)])
        assert (res.map50, res.map75, res.map_mean) == (1.0, 1.0, 1.0)

    def test_no_detections(self):
        gts = [GroundTruthBox((0, 0, 5, 5), 0)]
        res = mean_ap([([], gts)])
        assert (res.map50, res.map75, res.map_mean) == (0.0, 0.0, 0.0)

    def test_threshold_sweep_fixture(self):
        # IoU exactly 0.6: thresholds 0.50, 0.55, 0.60 pass -> mAP = 3/10.
        gts = [GroundTruthBox((0, 0, 10, 10), 0)]
        dets = [Detection((0, 0, 10, 6), 0, 0.9)]
        res = mean_ap([(dets, gts)])
        assert res.map50 == 1.0
        assert res.map75 == 0.0
        assert res.map_mean == pytest.approx(0.3, abs=1e-15)

    def test_each_distinct_threshold_matched_once(self, monkeypatch):
        gts = [GroundTruthBox((0, 0, 10, 10), 0), GroundTruthBox((0, 0, 10, 10), 1)]
        dets = [Detection((0, 0, 10, 6), 0, 0.9), Detection((0, 0, 10, 8), 1, 0.8)]
        images = [(dets, gts), (dets[:1], gts[1:])]
        seen = []
        ap_at = metrics._ap_at
        monkeypatch.setattr(metrics, "_ap_at", lambda *a: seen.append(a[-1]) or ap_at(*a))
        full = mean_ap(images)
        assert sorted(seen) == sorted(DEFAULT_MAP_THRESHOLDS * 2)
        seen.clear()
        # a grid without 0.5 and 0.75 still reports them, bit for bit
        custom = mean_ap(images, thresholds=(0.6, 0.8, 0.6))
        assert sorted(seen) == [0.5, 0.5, 0.6, 0.6, 0.75, 0.75, 0.8, 0.8]
        assert (custom.map50, custom.map75) == (full.map50, full.map75)

        def class_mean(thr):
            return sum(average_precision(images, c, thr) for c in (0, 1)) / 2

        assert custom.map_mean == (class_mean(0.6) + class_mean(0.8) + class_mean(0.6)) / 3
        assert full.map_mean == sum(class_mean(t) for t in DEFAULT_MAP_THRESHOLDS) / 10

    def test_default_grid(self):
        assert DEFAULT_MAP_THRESHOLDS == (0.5, 0.55, 0.6, 0.65, 0.7, 0.75,
                                          0.8, 0.85, 0.9, 0.95)

    def test_removing_false_positive_never_decreases(self):
        rng = SeededRng(87)
        for _ in range(20):
            gts = []
            for _ in range(3):
                x, y = rng.uniform(2) * 40
                gts.append(GroundTruthBox((x, y, x + 8, y + 8), 0))
            dets = []
            for _ in range(6):
                x, y = rng.uniform(2) * 45
                dets.append(Detection((x, y, x + 8, y + 8), 0,
                                      round(float(rng.uniform(1)[0]), 3)))
            base = mean_ap([(dets, gts)])
            # find one false positive at the 0.5 threshold, if any
            for i, d in enumerate(dets):
                if all(iou(d.box, g.box) < 0.5 for g in gts):
                    reduced = mean_ap([(dets[:i] + dets[i + 1:], gts)])
                    assert reduced.map50 >= base.map50 - 1e-12
                    assert reduced.map75 >= base.map75 - 1e-12
                    assert reduced.map_mean >= base.map_mean - 1e-12
                    break


class TestDetectionFiles:
    def test_round_trip(self):
        dets = [Detection((1.5, 2.0, 3.25, 9.0), 2, 0.625),
                Detection((0.0, 0.0, 4.0, 4.0), 0, 1.0)]
        gts = [GroundTruthBox((1.0, 1.0, 2.0, 2.0), 1)]
        det_text = "".join(f"{d.class_id} {' '.join(map(repr, d.box))} {d.confidence!r}\n"
                           for d in dets)
        gt_text = "".join(f"{g.class_id} {' '.join(map(repr, g.box))}\n" for g in gts)
        assert parse_detections(det_text) == dets
        assert parse_ground_truth(gt_text) == gts

    def test_bad_lines(self):
        with pytest.raises(ValueError):
            parse_detections("0 1 2 3 4\n")
        with pytest.raises(ValueError):
            parse_ground_truth("0 1 2 3 4 0.5\n")

    def test_non_finite_boxes_rejected(self):
        with pytest.raises(ValueError, match=r"\(0\.0, 0\.0, inf, 1\.0\)"):
            parse_detections("0 0 0 inf 1 0.5\n")
        with pytest.raises(ValueError, match=r"\(0\.0, nan, 1\.0, 1\.0\)"):
            parse_ground_truth("0 0 nan 1 1\n")

    def test_comments_skipped(self):
        assert parse_detections("# header\n\n0 0 0 1 1 0.5\n") == [
            Detection((0, 0, 1, 1), 0, 0.5)]
