import numpy as np
import pytest

from bayeslayers.metrics import (ScoreSet, auroc, fpr_at_tpr, id_task_metrics,
                                 iou, roc_curve, roc_to_csv)
from bayeslayers.scoring import calibrate_gamma


def fpr_oracle(id_scores, ood_scores, tpr_target):
    """O(n^2) brute force: gamma is the largest observed ID score retaining
    at least tpr_target of the ID population; FPR follows directly."""
    id_scores = np.asarray(id_scores)
    ood_scores = np.asarray(ood_scores)
    gamma = None
    for candidate in id_scores:
        if np.mean(id_scores >= candidate) >= tpr_target:
            if gamma is None or candidate > gamma:
                gamma = candidate
    return float(np.mean(ood_scores >= gamma))


def auroc_oracle(id_scores, ood_scores):
    """O(n^2) pair counting with half credit for ties."""
    wins = 0.0
    for a in id_scores:
        for b in ood_scores:
            if a > b:
                wins += 1.0
            elif a == b:
                wins += 0.5
    return wins / (len(id_scores) * len(ood_scores))


def random_score_sets(count=200):
    rng = np.random.default_rng(40)
    for _ in range(count):
        n_id = int(rng.integers(1, 201))
        n_ood = int(rng.integers(1, 201))
        if rng.uniform() < 0.5:
            # coarse grid forces ties within and across populations
            ids = rng.integers(0, 10, size=n_id) / 10.0
            oods = rng.integers(0, 10, size=n_ood) / 10.0
        else:
            ids = rng.uniform(size=n_id)
            oods = rng.uniform(size=n_ood)
        yield ids, oods


def test_fpr_at_tpr_example():
    s = ScoreSet([0.9] * 19 + [0.1], [0.95, 0.5])
    assert fpr_at_tpr(s, 0.95) == 0.5
    assert calibrate_gamma(s.id_scores, 0.95) == 0.9


def test_fpr_at_tpr_perfect_separation():
    s = ScoreSet([0.9, 0.8, 0.7], [0.2, 0.1])
    assert fpr_at_tpr(s, 0.95) == 0.0


def test_fpr_at_tpr_identical_populations():
    vals = [0.3, 0.5, 0.7, 0.9]
    s = ScoreSet(vals, vals)
    got = fpr_at_tpr(s, 0.95)
    assert got == fpr_oracle(vals, vals, 0.95) == 1.0


def test_fpr_at_tpr_vs_oracle():
    for ids, oods in random_score_sets():
        got = fpr_at_tpr(ScoreSet(ids, oods), 0.95)
        assert got == fpr_oracle(ids, oods, 0.95)


def test_auroc_examples():
    assert auroc(ScoreSet([0.9, 0.8], [0.2, 0.1])) == 1.0
    assert auroc(ScoreSet([0.5, 0.5], [0.5, 0.5])) == 0.5
    assert auroc(ScoreSet([0.9, 0.4], [0.6, 0.1])) == 0.75


def test_auroc_vs_oracle():
    for ids, oods in random_score_sets():
        got = auroc(ScoreSet(ids, oods))
        want = auroc_oracle(ids, oods)
        assert abs(got - want) < 1e-12


def test_auroc_symmetry_tie_free():
    rng = np.random.default_rng(41)
    ids = rng.permutation(np.arange(20) / 20.0)[:10]
    oods = rng.permutation(np.arange(20) / 20.0 + 0.013)[:8]
    a = auroc(ScoreSet(ids, oods))
    b = auroc(ScoreSet(oods, ids))
    assert abs(a + b - 1.0) < 1e-12


def test_auroc_invariant_under_monotone_transform():
    rng = np.random.default_rng(42)
    ids = rng.uniform(size=30)
    oods = rng.uniform(size=20)
    base = auroc(ScoreSet(ids, oods))
    warped = auroc(ScoreSet(np.exp(3 * ids), np.exp(3 * oods)))
    assert abs(base - warped) < 1e-12


def test_score_set_rejects_empty():
    with pytest.raises(ValueError):
        ScoreSet([], [0.5])
    with pytest.raises(ValueError):
        ScoreSet([0.5], [])


def test_roc_curve_passes_perfect_corner():
    points = roc_curve(ScoreSet([0.9], [0.1]))
    assert points[0][1:] == (0.0, 0.0)
    assert (1.0, 0.0) in [(tpr, fpr) for _, tpr, fpr in points]
    assert points[-1][1:] == (1.0, 1.0)


def test_roc_curve_area_matches_auroc():
    rng = np.random.default_rng(43)
    for _ in range(100):
        ids = rng.integers(0, 20, size=int(rng.integers(1, 40))) / 20.0
        oods = rng.integers(0, 20, size=int(rng.integers(1, 40))) / 20.0
        s = ScoreSet(ids, oods)
        points = roc_curve(s)
        fprs = np.array([p[2] for p in points])
        tprs = np.array([p[1] for p in points])
        area = float(np.trapezoid(tprs, fprs))
        assert abs(area - auroc(s)) < 1e-12


def roc_reference(scores):
    """ROC points with np.unique picking the thresholds."""
    ids, oods = np.sort(scores.id_scores), np.sort(scores.ood_scores)
    thresholds = np.unique(np.concatenate([ids, oods]))[::-1]
    points = [(np.inf, 0.0, 0.0)]
    for t in thresholds:
        points.append((float(t), float(np.mean(ids >= t)), float(np.mean(oods >= t))))
    if points[-1][1:] != (1.0, 1.0):
        points.append((float(thresholds[-1]), 1.0, 1.0))
    return points


def test_roc_curve_matches_np_unique_reference():
    signed_zeros = ([0.0, -0.0, 0.5, 0.5, 1.0, -0.25], [-0.0, 0.5, 0.25, 0.0, -0.25])
    for ids, oods in [signed_zeros, *random_score_sets(50)]:
        s = ScoreSet(ids, oods)
        # == counts -0.0 and 0.0 as one threshold, as np.unique does
        assert roc_curve(s) == roc_reference(s)


def test_roc_curve_degenerate_single_points():
    points = roc_curve(ScoreSet([0.5], [0.5]))
    assert len(points) >= 2
    assert points[-1][1:] == (1.0, 1.0)


def test_roc_to_csv_format():
    text = roc_to_csv(roc_curve(ScoreSet([0.9, 0.8], [0.2])))
    lines = text.strip().split("\n")
    assert lines[0] == "threshold,tpr,fpr"
    assert lines[1].startswith("inf,")
    for line in lines[1:]:
        assert len(line.split(",")) == 3


def test_iou_examples():
    box = [1.0, 2.0, 3.0, 4.0]
    assert iou(box, box) == 1.0
    assert iou([0, 0, 1, 1], [2, 2, 3, 3]) == 0.0
    assert abs(iou([0, 0, 2, 2], [1, 1, 3, 3]) - 1 / 7) < 1e-12
    assert type(iou(box, box)) is float
    # a batch broadcasts against one box and gives the per-pair values
    batch = np.array([box, [0, 0, 1, 1], [0, 0, 2, 2], [5, 5, 5, 5]], dtype=float)
    got = iou(batch, [1, 1, 3, 3])
    assert got.shape == (4,)
    assert got.tolist() == [iou(b, [1, 1, 3, 3]) for b in batch]


def test_iou_malformed_box():
    with pytest.raises(ValueError):
        iou([2, 0, 1, 1], [0, 0, 1, 1])
    with pytest.raises(ValueError):
        iou([[0, 0, 1, 1], [0, 2, 1, 1]], [0, 0, 1, 1])
    with pytest.raises(ValueError):
        iou([0, 0, 1], [0, 0, 1, 1])


def test_id_task_metrics_examples():
    box = np.array([0.0, 0.0, 2.0, 2.0])
    boxes = np.stack([box, box])
    assert id_task_metrics([0, 1], [0, 1], boxes, boxes) == (1.0, 1.0)

    assert id_task_metrics([1, 0], [0, 1], boxes, boxes) == (0.0, 0.0)

    good = np.array([0.0, 0.0, 2.0, 2.0])
    loose = np.array([0.0, 0.0, 2.0, 1.1])     # IoU 0.55 with `good`
    off = np.array([0.0, 0.0, 2.0, 0.75])      # IoU 0.375 with `good`
    accuracy, detection = id_task_metrics([0, 1], [0, 1], np.stack([loose, off]),
                                          np.stack([good, good]))
    assert accuracy == 1.0
    assert detection == 0.5


def test_id_task_metrics_without_boxes():
    accuracy, detection = id_task_metrics([0, 1], [0, 0])
    assert accuracy == 0.5
    assert detection is None


def test_id_task_metrics_length_mismatch():
    with pytest.raises(ValueError):
        id_task_metrics([0], [])
