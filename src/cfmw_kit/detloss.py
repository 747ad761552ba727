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
from .tensor import check_finite
from .tensor_io import _rebuild, load_bundle, save_bundle

__all__ = [
    "PredictionGrid",
    "GridTargets",
    "LossWeights",
    "box_loss",
    "cls_loss",
    "conf_loss",
    "total_loss",
    "save_grid",
    "load_grid",
    "PROB_FLOOR",
]

PROB_FLOOR = 1e-12  # applied before the logarithm in the class loss


@dataclass(frozen=True)
class PredictionGrid:
    """Predicted boxes, confidences, and class distributions per grid slot."""

    s_grid: int
    n_boxes: int
    boxes: np.ndarray        # (S*S, N, 4)
    confidence: np.ndarray   # (S*S, N) in [0, 1]
    class_probs: np.ndarray  # (S*S, N, K), rows sum to 1
    obj_mask: np.ndarray     # (S*S, N) bool
    noobj_mask: np.ndarray   # (S*S, N) bool

    def __post_init__(self):
        cells = self.s_grid * self.s_grid
        slots = (cells, self.n_boxes)
        boxes = check_finite(np.asarray(self.boxes, dtype=np.float64), "boxes")
        conf = check_finite(np.asarray(self.confidence, dtype=np.float64), "confidence")
        probs = check_finite(np.asarray(self.class_probs, dtype=np.float64), "class_probs")
        obj = np.asarray(self.obj_mask, dtype=bool)
        noobj = np.asarray(self.noobj_mask, dtype=bool)
        if boxes.shape != slots + (4,):
            raise ValueError(f"boxes must have shape {slots + (4,)}")
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
        for name, arr in (("boxes", boxes), ("confidence", conf),
                          ("class_probs", probs), ("obj_mask", obj),
                          ("noobj_mask", noobj)):
            object.__setattr__(self, name, arr)

    @property
    def n_classes(self) -> int:
        return self.class_probs.shape[2]


@dataclass(frozen=True)
class GridTargets:
    """Target boxes and class distributions, read at positive slots only."""

    boxes: np.ndarray        # (S*S, N, 4)
    class_probs: np.ndarray  # (S*S, N, K), one-hot or soft

    def __post_init__(self):
        boxes = check_finite(np.asarray(self.boxes, dtype=np.float64), "boxes")
        probs = check_finite(np.asarray(self.class_probs, dtype=np.float64), "class_probs")
        if boxes.ndim != 3 or boxes.shape[2] != 4 or probs.ndim != 3:
            raise ValueError("targets must be (S*S, N, 4) boxes and (S*S, N, K) probs")
        object.__setattr__(self, "boxes", boxes)
        object.__setattr__(self, "class_probs", probs)


@dataclass(frozen=True)
class LossWeights:
    lambda_box: float = 1.0
    lambda_cls: float = 1.0
    lambda_conf: float = 1.0

    def __post_init__(self):
        for name in ("lambda_box", "lambda_cls", "lambda_conf"):
            if getattr(self, name) < 0.0:
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
    noobj, obj = conf_loss(pred, targets)
    return (weights.lambda_box * box_loss(pred, targets)
            + weights.lambda_cls * cls_loss(pred, targets)
            + weights.lambda_conf * (noobj + obj))


def _grid_tensors(pred: PredictionGrid, targets: GridTargets) -> dict[str, np.ndarray]:
    return {
        "boxes": pred.boxes,
        "confidence": pred.confidence,
        "class_probs": pred.class_probs,
        "obj_mask": pred.obj_mask.astype(np.float64),
        "noobj_mask": pred.noobj_mask.astype(np.float64),
        "target_boxes": targets.boxes,
        "target_class_probs": targets.class_probs,
    }


def save_grid(pred: PredictionGrid, targets: GridTargets, directory) -> None:
    """Store a grid and its targets as a bundle of TSR1 tensors plus a manifest.

    The manifest declares the grid side, boxes per cell, and class count;
    masks travel as 0/1 float tensors.
    """
    meta = {
        "s_grid": str(pred.s_grid),
        "n_boxes": str(pred.n_boxes),
        "n_classes": str(pred.n_classes),
    }
    save_bundle(directory, meta, _grid_tensors(pred, targets))


def load_grid(directory) -> tuple[PredictionGrid, GridTargets]:
    meta, tensors = load_bundle(directory)

    def from_tensors(t: dict[str, np.ndarray]) -> tuple[PredictionGrid, GridTargets]:
        pred = PredictionGrid(
            s_grid=int(meta["s_grid"]),
            n_boxes=int(meta["n_boxes"]),
            boxes=t["boxes"],
            confidence=t["confidence"],
            class_probs=t["class_probs"],
            obj_mask=t["obj_mask"] != 0.0,
            noobj_mask=t["noobj_mask"] != 0.0,
        )
        if pred.n_classes != int(meta["n_classes"]):
            raise ValueError("manifest class count does not match the stored tensors")
        return pred, GridTargets(boxes=t["target_boxes"], class_probs=t["target_class_probs"])

    return _rebuild(tensors, from_tensors, lambda pair: _grid_tensors(*pair))
