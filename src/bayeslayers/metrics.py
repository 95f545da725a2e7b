"""OOD benchmark metrics: FPR95, AUROC, ROC export, IoU, ID task accuracy.

ID is the positive class throughout, with the uncertainty score S as
evidence of being ID (higher S = more ID-like).
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .scoring import calibrate_gamma

__all__ = [
    "ScoreSet",
    "BenchmarkReport",
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


@dataclass
class BenchmarkReport:
    fpr95: float
    auroc: float
    id_accuracy: float
    gamma: float
    config: dict
    seed: int
    box_iou_accuracy: float | None = None
    nll: float | None = None
    timings: dict = field(default_factory=dict)  # excluded from determinism hashing

    def metrics_dict(self) -> dict:
        out = {"fpr95": self.fpr95, "auroc": self.auroc,
               "id_accuracy": self.id_accuracy, "gamma": self.gamma}
        if self.box_iou_accuracy is not None:
            out["box_iou_accuracy"] = self.box_iou_accuracy
        if self.nll is not None:
            out["nll"] = self.nll
        return out


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
    ids, oods = scores.id_scores, scores.ood_scores
    thresholds = np.unique(np.concatenate([ids, oods]))[::-1]
    points = [(math.inf, 0.0, 0.0)]
    for thr in thresholds:
        tpr = float(np.mean(ids >= thr))
        fpr = float(np.mean(oods >= thr))
        points.append((float(thr), tpr, fpr))
    if points[-1][1:] != (1.0, 1.0):
        points.append((float(thresholds[-1]), 1.0, 1.0))
    return points


def roc_to_csv(points: list) -> str:
    """CSV rendering: header `threshold,tpr,fpr`, 9 significant digits."""
    lines = ["threshold,tpr,fpr"]
    for thr, tpr, fpr in points:
        lines.append(f"{thr:.9g},{tpr:.9g},{fpr:.9g}")
    return "\n".join(lines) + "\n"


def iou(box_a, box_b) -> float:
    """Intersection-over-union of two [x_min, y_min, x_max, y_max] boxes."""
    a = np.asarray(box_a, dtype=np.float64).reshape(-1)
    b = np.asarray(box_b, dtype=np.float64).reshape(-1)
    for box in (a, b):
        if box.size != 4 or box[0] > box[2] or box[1] > box[3]:
            raise ValueError(f"malformed box {box}")
    ix = max(0.0, min(a[2], b[2]) - max(a[0], b[0]))
    iy = max(0.0, min(a[3], b[3]) - max(a[1], b[1]))
    inter = ix * iy
    union = ((a[2] - a[0]) * (a[3] - a[1]) + (b[2] - b[0]) * (b[3] - b[1]) - inter)
    return float(inter / union) if union > 0 else 1.0


def id_task_metrics(predictions: list, truths: list):
    """(classification accuracy, detection accuracy at IoU >= 0.5).

    predictions/truths: aligned lists of (class, box or None). Detection
    accuracy requires both the correct class and IoU >= 0.5; it is None when
    no boxes are present.
    """
    if len(predictions) != len(truths):
        raise ValueError(f"length mismatch: {len(predictions)} vs {len(truths)}")
    if not predictions:
        raise ValueError("empty prediction list")
    correct = 0
    detected = 0
    have_boxes = False
    for (p_cls, p_box), (t_cls, t_box) in zip(predictions, truths):
        ok = p_cls == t_cls
        correct += ok
        if p_box is not None and t_box is not None:
            have_boxes = True
            p = np.asarray(p_box, dtype=np.float64)
            p = np.array([min(p[0], p[2]), min(p[1], p[3]),
                          max(p[0], p[2]), max(p[1], p[3])])
            detected += ok and iou(p, t_box) >= 0.5
    n = len(predictions)
    return correct / n, (detected / n if have_boxes else None)
