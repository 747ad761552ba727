import math

import numpy as np
import pytest

from cfmw_kit.detloss import (
    GridTargets,
    LossWeights,
    PredictionGrid,
    box_loss,
    cls_loss,
    conf_loss,
    total_loss,
)
from cfmw_kit.tensor import SeededRng


def _grid(s=2, n=2, k=3, obj=(), noobj=(), boxes=None, conf=None, probs=None,
          t_boxes=None, t_probs=None):
    """Build a (grid, targets) pair with defaults that form a perfect prediction."""
    cells = s * s
    if boxes is None:
        boxes = np.tile(np.array([0.0, 0.0, 1.0, 1.0]), (cells, n, 1))
    obj_mask = np.zeros((cells, n), dtype=bool)
    noobj_mask = np.zeros((cells, n), dtype=bool)
    for c, j in obj:
        obj_mask[c, j] = True
    for c, j in noobj:
        noobj_mask[c, j] = True
    if conf is None:
        conf = np.where(obj_mask, 1.0, 0.0)
    if probs is None:
        probs = np.zeros((cells, n, k))
        probs[:, :, 0] = 1.0
    if t_boxes is None:
        t_boxes = boxes.copy()
    if t_probs is None:
        t_probs = probs.copy()
    pred = PredictionGrid(s_grid=s, n_boxes=n, boxes=boxes, confidence=conf,
                          class_probs=probs, obj_mask=obj_mask, noobj_mask=noobj_mask)
    targets = GridTargets(boxes=t_boxes, class_probs=t_probs)
    return pred, targets


class TestComponents:
    def test_perfect_prediction_all_zero(self):
        pred, targets = _grid(obj=[(0, 0), (3, 1)], noobj=[(1, 0), (2, 1)])
        assert box_loss(pred, targets) == 0.0
        assert cls_loss(pred, targets) == 0.0
        assert conf_loss(pred, targets) == (0.0, 0.0)
        assert total_loss(pred, targets) == 0.0

    def test_box_loss_disjoint_adjacent_fixture(self):
        # predicted and target unit boxes touching at a corner: GIoU = -1/2.
        boxes = np.tile(np.array([0.0, 0.0, 1.0, 1.0]), (4, 2, 1))
        t_boxes = boxes.copy()
        t_boxes[1, 0] = [1.0, 1.0, 2.0, 2.0]
        pred, targets = _grid(obj=[(1, 0)], boxes=boxes, t_boxes=t_boxes)
        assert abs(box_loss(pred, targets) - 1.5) < 1e-12

    def test_box_loss_no_positive_slots(self):
        pred, targets = _grid(noobj=[(0, 0)])
        assert box_loss(pred, targets) == 0.0

    def test_cls_loss_half_probability(self):
        probs = np.zeros((4, 2, 3))
        probs[:, :, 0] = 1.0
        probs[2, 1] = [0.5, 0.3, 0.2]
        t_probs = np.zeros((4, 2, 3))
        t_probs[:, :, 0] = 1.0
        pred, targets = _grid(obj=[(2, 1)], probs=probs, t_probs=t_probs)
        assert abs(cls_loss(pred, targets) - math.log(2.0)) < 1e-12

    def test_cls_loss_no_positive_slots(self):
        pred, targets = _grid()
        assert cls_loss(pred, targets) == 0.0

    def test_conf_loss_fixtures(self):
        conf = np.zeros((4, 2))
        conf[0, 1] = 0.3   # negative slot
        conf[3, 0] = 0.6   # positive slot
        pred, targets = _grid(obj=[(3, 0)], noobj=[(0, 1)], conf=conf)
        noobj, obj = conf_loss(pred, targets)
        assert abs(noobj - 0.09) < 1e-12
        assert abs(obj - 0.16) < 1e-12

    def test_probability_floor(self):
        probs = np.zeros((4, 2, 3))
        probs[:, :, 0] = 1.0
        probs[0, 0] = [0.0, 1.0, 0.0]  # predicted mass fully on the wrong class
        t_probs = np.zeros((4, 2, 3))
        t_probs[:, :, 0] = 1.0
        pred, targets = _grid(obj=[(0, 0)], probs=probs, t_probs=t_probs)
        loss = cls_loss(pred, targets)
        assert math.isfinite(loss)
        assert abs(loss - (-math.log(1e-12))) < 1e-9


class TestTotalLoss:
    def _lossy_case(self):
        boxes = np.tile(np.array([0.0, 0.0, 1.0, 1.0]), (4, 2, 1))
        t_boxes = boxes.copy()
        t_boxes[1, 0] = [0.5, 0.0, 1.5, 1.0]
        probs = np.zeros((4, 2, 3))
        probs[:, :, 0] = 1.0
        probs[1, 0] = [0.6, 0.25, 0.15]
        conf = np.zeros((4, 2))
        conf[1, 0] = 0.8
        conf[2, 1] = 0.25
        return _grid(obj=[(1, 0)], noobj=[(2, 1)], boxes=boxes, conf=conf,
                     probs=probs, t_boxes=t_boxes)

    def test_composition(self):
        pred, targets = self._lossy_case()
        noobj, obj = conf_loss(pred, targets)
        expected = box_loss(pred, targets) + cls_loss(pred, targets) + noobj + obj
        assert total_loss(pred, targets) == pytest.approx(expected, rel=1e-15)

    def test_weight_doubling_box_term(self):
        pred, targets = self._lossy_case()
        base = total_loss(pred, targets)
        doubled = total_loss(pred, targets, LossWeights(lambda_box=2.0))
        assert doubled - base == pytest.approx(box_loss(pred, targets), rel=1e-12)

    def test_affine_in_each_weight(self):
        pred, targets = self._lossy_case()
        comps = {
            "lambda_box": box_loss(pred, targets),
            "lambda_cls": cls_loss(pred, targets),
            "lambda_conf": sum(conf_loss(pred, targets)),
        }
        for name, comp in comps.items():
            values = {}
            for lam in (0.0, 1.0, 2.0):
                values[lam] = total_loss(pred, targets, LossWeights(**{name: lam}))
            # affine: equal increments, slope = the component value
            assert values[1.0] - values[0.0] == pytest.approx(comp, rel=1e-12)
            assert values[2.0] - values[1.0] == pytest.approx(comp, rel=1e-12)

    def test_nonnegative_random_sweep(self):
        rng = SeededRng(90)
        for _ in range(25):
            s, n, k = 2, 2, 3
            cells = s * s
            boxes = np.zeros((cells, n, 4))
            xy = rng.uniform(cells * n * 2).reshape(cells, n, 2) * 5
            wh = 0.5 + rng.uniform(cells * n * 2).reshape(cells, n, 2) * 5
            boxes[..., 0] = xy[..., 0]
            boxes[..., 1] = xy[..., 1]
            boxes[..., 2] = xy[..., 0] + wh[..., 0]
            boxes[..., 3] = xy[..., 1] + wh[..., 1]
            t_boxes = boxes[:, ::-1, :].copy()  # mismatched targets
            raw = rng.uniform(cells * n * k).reshape(cells, n, k) + 0.05
            probs = raw / raw.sum(axis=2, keepdims=True)
            t_raw = rng.uniform(cells * n * k).reshape(cells, n, k) + 0.05
            t_probs = t_raw / t_raw.sum(axis=2, keepdims=True)
            conf = rng.uniform(cells * n).reshape(cells, n)
            pred, targets = _grid(s=s, n=n, k=k, obj=[(0, 0), (2, 1)],
                                  noobj=[(1, 1), (3, 0)], boxes=boxes, conf=conf,
                                  probs=probs, t_boxes=t_boxes, t_probs=t_probs)
            assert box_loss(pred, targets) >= 0.0
            assert cls_loss(pred, targets) >= 0.0
            noobj, obj = conf_loss(pred, targets)
            assert noobj >= 0.0 and obj >= 0.0
            assert total_loss(pred, targets) >= 0.0


class TestValidation:
    def test_masks_must_be_disjoint(self):
        cells, n, k = 4, 2, 3
        probs = np.zeros((cells, n, k))
        probs[:, :, 0] = 1.0
        mask = np.zeros((cells, n), dtype=bool)
        mask[0, 0] = True
        with pytest.raises(ValueError):
            PredictionGrid(s_grid=2, n_boxes=n, boxes=np.zeros((cells, n, 4)),
                           confidence=np.zeros((cells, n)), class_probs=probs,
                           obj_mask=mask, noobj_mask=mask)

    def test_slot_contributes_to_at_most_one_sum(self):
        conf = np.full((4, 2), 0.5)
        pred, targets = _grid(obj=[(0, 0)], noobj=[(1, 1)], conf=conf)
        noobj, obj = conf_loss(pred, targets)
        # six untouched slots contribute to neither sum
        assert noobj == 0.25 and obj == 0.25

    def test_probs_must_sum_to_one(self):
        cells, n = 4, 2
        probs = np.full((cells, n, 3), 0.5)
        with pytest.raises(ValueError):
            PredictionGrid(s_grid=2, n_boxes=n, boxes=np.zeros((cells, n, 4)),
                           confidence=np.zeros((cells, n)), class_probs=probs,
                           obj_mask=np.zeros((cells, n), bool),
                           noobj_mask=np.zeros((cells, n), bool))

    def test_positive_slot_without_target_box(self):
        t_boxes = np.zeros((4, 2, 4))  # degenerate everywhere
        pred, targets = _grid(obj=[(1, 1)], t_boxes=t_boxes)
        with pytest.raises(ValueError):
            box_loss(pred, targets)

    def test_invalid_target_distribution(self):
        t_probs = np.zeros((4, 2, 3))  # sums to 0 everywhere
        pred, targets = _grid(obj=[(1, 1)], t_probs=t_probs)
        with pytest.raises(ValueError):
            cls_loss(pred, targets)

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            LossWeights(lambda_box=-0.1)
