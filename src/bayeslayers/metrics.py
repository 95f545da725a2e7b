"""OOD benchmark metrics: FPR95, AUROC, ROC export, IoU, ID task accuracy.

ID is the positive class throughout, with the uncertainty score S as
evidence of being ID (higher S = more ID-like).
"""

import math
from dataclasses import dataclass

import numpy as np

from .scoring import calibrate_gamma

__all__ = [
    "ScoreSet",
    "fpr_at_tpr",
    "auroc",
    "roc_curve",
    "roc_to_csv",
    "iou",
    "id_task_metrics",
]


@dataclass
class ScoreSet:
    id_scores: np.ndarray
    ood_scores: np.ndarray

    def __post_init__(self):
        self.id_scores = np.asarray(self.id_scores, dtype=np.float64).reshape(-1)
        self.ood_scores = np.asarray(self.ood_scores, dtype=np.float64).reshape(-1)
        if self.id_scores.size == 0 or self.ood_scores.size == 0:
            raise ValueError("both score populations must be non-empty")


def fpr_at_tpr(scores: ScoreSet, tpr_target: float = 0.95) -> float:
    """False positive rate of the OOD population at the threshold that
    retains at least tpr_target of ID scores (no interpolation)."""
    gamma = calibrate_gamma(scores.id_scores, tpr_target)
    return float(np.mean(scores.ood_scores >= gamma))


def auroc(scores: ScoreSet) -> float:
    """Probability a random ID score exceeds a random OOD score, ties
    credited 0.5 (the Mann-Whitney statistic, counted against the sorted
    OOD scores)."""
    ids, oods = scores.id_scores, scores.ood_scores
    sorted_ood = np.sort(oods)
    below = np.searchsorted(sorted_ood, ids, "left")
    ties = np.searchsorted(sorted_ood, ids, "right") - below
    u = below.sum() + 0.5 * ties.sum()
    return float(u / (ids.size * oods.size))


def roc_curve(scores: ScoreSet) -> list:
    """ROC points [(threshold, tpr, fpr), ...] at descending thresholds:
    the (0,0) endpoint at +inf, one point per distinct observed score.
    Trapezoid area over the curve equals auroc()."""
    ids, oods = np.sort(scores.id_scores), np.sort(scores.ood_scores)
    # the distinct scores, each kept where it first shows in the sorted
    # pool (np.unique would import numpy.ma on its first call)
    pooled = np.sort(np.concatenate([ids, oods]))
    thresholds = pooled[np.append(True, pooled[1:] != pooled[:-1])][::-1]
    # the share of each population scoring at or above each threshold
    tpr = (ids.size - np.searchsorted(ids, thresholds, "left")) / ids.size
    fpr = (oods.size - np.searchsorted(oods, thresholds, "left")) / oods.size
    points = [(math.inf, 0.0, 0.0), *zip(thresholds.tolist(), tpr.tolist(), fpr.tolist())]
    if points[-1][1:] != (1.0, 1.0):
        points.append((float(thresholds[-1]), 1.0, 1.0))
    return points


def roc_to_csv(points: list) -> str:
    """CSV rendering: header `threshold,tpr,fpr`, 9 significant digits."""
    lines = ["threshold,tpr,fpr"]
    for thr, tpr, fpr in points:
        lines.append(f"{thr:.9g},{tpr:.9g},{fpr:.9g}")
    return "\n".join(lines) + "\n"


def iou(box_a, box_b):
    """Intersection-over-union of [x_min, y_min, x_max, y_max] boxes on the
    last axis, broadcast over the leading axes; a float for two boxes."""
    a = np.asarray(box_a, dtype=np.float64)
    b = np.asarray(box_b, dtype=np.float64)
    for box in (a, b):
        if box.shape[-1:] != (4,) or np.any(box[..., :2] > box[..., 2:]):
            raise ValueError(f"malformed box {box}")
    ix = np.maximum(0.0, np.minimum(a[..., 2], b[..., 2]) - np.maximum(a[..., 0], b[..., 0]))
    iy = np.maximum(0.0, np.minimum(a[..., 3], b[..., 3]) - np.maximum(a[..., 1], b[..., 1]))
    inter = ix * iy
    union = ((a[..., 2] - a[..., 0]) * (a[..., 3] - a[..., 1])
             + (b[..., 2] - b[..., 0]) * (b[..., 3] - b[..., 1]) - inter)
    out = np.divide(inter, union, out=np.ones_like(inter), where=union > 0)
    return float(out) if out.ndim == 0 else out


def id_task_metrics(pred_classes, true_classes, pred_boxes=None, true_boxes=None):
    """(classification accuracy, detection accuracy at IoU >= 0.5).

    pred_classes/true_classes: (N,) class indices; pred_boxes/true_boxes:
    (N, 4) boxes or None. A predicted box's corners are put in order before
    the IoU. Detection accuracy requires both the correct class and IoU >=
    0.5; it is None unless both box arrays are given.
    """
    pred = np.asarray(pred_classes).reshape(-1)
    true = np.asarray(true_classes).reshape(-1)
    if pred.size != true.size:
        raise ValueError(f"length mismatch: {pred.size} vs {true.size}")
    if pred.size == 0:
        raise ValueError("empty prediction list")
    correct = pred == true
    accuracy = np.count_nonzero(correct) / pred.size
    if pred_boxes is None or true_boxes is None:
        return accuracy, None
    # sort each box's two x and two y coordinates into min, max order
    p = np.sort(np.reshape(pred_boxes, (-1, 2, 2)), axis=1).reshape(-1, 4)
    detected = correct & (iou(p, true_boxes) >= 0.5)
    return accuracy, np.count_nonzero(detected) / pred.size
