"""Detection losses over grid-structured predictions.

A prediction grid holds S*S cells of N box slots each; disjoint indicator
masks mark positive (object) and negative (background) slots. The losses:

    box:   sum over positive slots of 1 - GIoU(predicted, target)
    cls:   cross-entropy of predicted class probabilities at positive slots
    conf:  squared confidence error, split into background and object sums
    total: lambda_box * box + lambda_cls * cls + lambda_conf * (noobj + obj)
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .metrics import giou
from .tensor import finite_step, freeze_arrays

__all__ = [
    "PredictionGrid",
    "GridTargets",
    "LossWeights",
    "box_loss",
    "cls_loss",
    "conf_loss",
    "total_loss",
    "PROB_FLOOR",
]

PROB_FLOOR = 1e-12  # applied before the logarithm in the class loss


@dataclass(frozen=True)
class PredictionGrid:
    """Predicted boxes, confidences, and class distributions per grid slot."""

    boxes: np.ndarray        # (S*S, N, 4)
    confidence: np.ndarray   # (S*S, N) in [0, 1]
    class_probs: np.ndarray  # (S*S, N, K), rows sum to 1
    obj_mask: np.ndarray     # (S*S, N) bool: nonzero is True
    noobj_mask: np.ndarray   # (S*S, N) bool

    def __post_init__(self):
        freeze_arrays(self)
        boxes, conf, probs = self.boxes, self.confidence, self.class_probs
        obj = self.obj_mask.astype(bool)
        noobj = self.noobj_mask.astype(bool)
        if boxes.ndim != 3 or boxes.shape[2] != 4:
            raise ValueError("boxes must have shape (S*S, N, 4)")
        slots = boxes.shape[:2]
        if conf.shape != slots or obj.shape != slots or noobj.shape != slots:
            raise ValueError(f"per-slot arrays must have shape {slots}")
        if probs.ndim != 3 or probs.shape[:2] != slots:
            raise ValueError(f"class_probs must be {slots} x K")
        if np.any(conf < 0.0) or np.any(conf > 1.0):
            raise ValueError("confidences must lie in [0, 1]")
        if np.any(obj & noobj):
            raise ValueError("obj and noobj masks must be disjoint")
        if np.any(probs < 0.0) or np.any(np.abs(probs.sum(axis=2) - 1.0) > 1e-9):
            raise ValueError("class probabilities must be nonnegative and sum to 1")
        object.__setattr__(self, "obj_mask", obj)
        object.__setattr__(self, "noobj_mask", noobj)


@dataclass(frozen=True)
class GridTargets:
    """Target boxes and class distributions, read at positive slots only."""

    boxes: np.ndarray        # (S*S, N, 4)
    class_probs: np.ndarray  # (S*S, N, K), one-hot or soft

    def __post_init__(self):
        freeze_arrays(self)
        boxes, probs = self.boxes, self.class_probs
        if boxes.ndim != 3 or boxes.shape[2] != 4 or probs.ndim != 3:
            raise ValueError("targets must be (S*S, N, 4) boxes and (S*S, N, K) probs")


@dataclass(frozen=True)
class LossWeights:
    lambda_box: float = 1.0
    lambda_cls: float = 1.0
    lambda_conf: float = 1.0

    def __post_init__(self):
        for name in ("lambda_box", "lambda_cls", "lambda_conf"):
            if not getattr(self, name) >= 0.0:  # NaN too
                raise ValueError(f"{name} must be nonnegative")


def _check_pair(pred: PredictionGrid, targets: GridTargets) -> None:
    if targets.boxes.shape != pred.boxes.shape:
        raise ValueError("target boxes must match the prediction grid")
    if targets.class_probs.shape != pred.class_probs.shape:
        raise ValueError("target class distributions must match the prediction grid")


def box_loss(pred: PredictionGrid, targets: GridTargets) -> float:
    """Sum over positive slots of 1 - GIoU(predicted box, target box)."""
    _check_pair(pred, targets)
    total = 0.0
    for cell, slot in zip(*np.nonzero(pred.obj_mask)):
        tb = targets.boxes[cell, slot]
        if not (tb[0] < tb[2] and tb[1] < tb[3]):
            raise ValueError(f"positive slot ({cell}, {slot}) has no valid target box")
        total += 1.0 - giou(tuple(pred.boxes[cell, slot]), tuple(tb))
    return total


def cls_loss(pred: PredictionGrid, targets: GridTargets) -> float:
    """Cross-entropy over positive slots: -sum p(c) log p_hat(c)."""
    _check_pair(pred, targets)
    total = 0.0
    for cell, slot in zip(*np.nonzero(pred.obj_mask)):
        p = targets.class_probs[cell, slot]
        if np.any(p < 0.0) or abs(float(p.sum()) - 1.0) > 1e-9:
            raise ValueError(f"positive slot ({cell}, {slot}) has an invalid "
                             "target class distribution")
        p_hat = np.maximum(pred.class_probs[cell, slot], PROB_FLOOR)
        total -= float(np.sum(p * np.log(p_hat)))
    return total


def conf_loss(pred: PredictionGrid, targets: GridTargets) -> tuple[float, float]:
    """(background, object) squared-error confidence sums.

    Target confidence is 1 at positive slots and 0 at negative slots.
    """
    _check_pair(pred, targets)
    noobj = float(np.sum(pred.confidence[pred.noobj_mask] ** 2))
    obj = float(np.sum((1.0 - pred.confidence[pred.obj_mask]) ** 2))
    return noobj, obj


def total_loss(pred: PredictionGrid, targets: GridTargets,
               weights: LossWeights = LossWeights()) -> float:
    """The weighted sum; weights so large that it overflows are refused."""
    noobj, obj = conf_loss(pred, targets)
    box, cls = box_loss(pred, targets), cls_loss(pred, targets)
    return finite_step("weights are too large: the total loss overflows float64", lambda: (
        weights.lambda_box * box + weights.lambda_cls * cls + weights.lambda_conf * (noobj + obj)))
