import math

import numpy as np
import pytest

from bayeslayers.scoring import (calibrate_gamma, energy, nll, score_ensemble,
                                 uncertainty_score)


def gamma_oracle(scores, tpr_target):
    """Brute force: try every observed score as the threshold, keep the
    largest one that retains at least tpr_target of the population."""
    scores = np.asarray(scores, dtype=np.float64)
    best = None
    for candidate in np.unique(scores):
        frac = np.mean(scores >= candidate)
        if frac >= tpr_target and (best is None or candidate > best):
            best = candidate
    return best


def test_energy_zero_logits():
    assert abs(energy(np.zeros(10), 1.0) - (-math.log(10))) < 1e-12
    assert abs(energy(np.zeros(2), 2.0) - (-2 * math.log(2))) < 1e-12


def test_energy_shift_identity():
    rng = np.random.default_rng(30)
    f = rng.normal(scale=4, size=6)
    c = 7.3
    assert abs(energy(f + c, 1.0) - (energy(f, 1.0) - c)) < 1e-9
    assert abs(energy(f + c, 2.5) - (energy(f, 2.5) - 2.5 * c)) < 1e-9


def test_energy_rejects_bad_temperature():
    with pytest.raises(ValueError):
        energy(np.zeros(2), 0.0)


def test_uncertainty_score_values():
    assert uncertainty_score(0.0) == 0.5
    assert abs(uncertainty_score(-math.log(10), 1.0) - 10 / 11) < 1e-12


def test_uncertainty_score_extreme_energy_stable():
    s = uncertainty_score(1000.0, 1.0)
    assert 0 < s <= 1e-300
    s = uncertainty_score(-1000.0, 1.0)
    assert 0 < s < 1


def test_uncertainty_score_monotone_decreasing():
    # energies kept inside the non-saturated span of float64
    rng = np.random.default_rng(31)
    for _ in range(1000):
        e1, e2 = sorted(rng.normal(scale=8, size=2))
        if e1 == e2:
            continue
        assert uncertainty_score(e1) > uncertainty_score(e2)


def test_uncertainty_score_rank_invariant_in_phi():
    rng = np.random.default_rng(32)
    energies = rng.normal(scale=3, size=50)
    orders = []
    for phi in (0.5, 1.0, 2.0):
        scores = [uncertainty_score(e, phi) for e in energies]
        orders.append(np.argsort(scores).tolist())
    assert orders[0] == orders[1] == orders[2]


def test_score_ensemble_single_sample_modes_agree():
    logits = np.array([[1.0, -2.0, 0.5]])
    a = score_ensemble(logits, aggregation="mean_score")
    b = score_ensemble(logits, aggregation="score_of_mean_logits")
    assert a[0] == b[0]
    assert a[1] == 0.0


def test_score_ensemble_hand_arithmetic():
    # per-sample scores 0.2 and 0.8: energies from the logistic inverse
    e1 = math.log(0.8 / 0.2)   # S = 0.2
    e2 = math.log(0.2 / 0.8)   # S = 0.8
    score, score_std, _ = score_ensemble(np.array([[-e1], [-e2]]))
    assert abs(score - 0.5) < 1e-12
    # population estimator: sqrt(((0.2-0.5)^2 + (0.8-0.5)^2) / 2) = 0.3
    assert abs(score_std - 0.3) < 1e-12


def test_score_ensemble_identical_samples_zero_std():
    logits = np.array([0.3, 0.7])
    _, score_std, _ = score_ensemble(np.tile(logits, (8, 1)))
    assert score_std == 0.0


def test_score_ensemble_saturated_scores_are_not_a_collapse():
    # both draws' scores clip to 1 - 2^-53, yet their energies differ
    logits = np.array([[40.0, 0.0], [41.0, 0.0]])
    score, score_std, energy_mean = score_ensemble(logits)
    assert score == 1.0 - 2.0 ** -53 and score_std == 0.0
    assert energy_mean == -40.5


def test_score_ensemble_empty():
    with pytest.raises(ValueError):
        score_ensemble(np.zeros((0, 2)))


def test_scoring_config_validation():
    logits = np.array([[1.0, -2.0], [0.5, 0.0]])
    with pytest.raises(ValueError):
        score_ensemble(logits, temperature=0)
    with pytest.raises(ValueError):
        score_ensemble(logits, phi=-1)
    with pytest.raises(ValueError):
        score_ensemble(logits, aggregation="median")


def test_calibrate_gamma_examples():
    scores = [0.1 * i for i in range(1, 11)]
    assert calibrate_gamma(scores, 0.95) == pytest.approx(0.1)
    scores = [0.9] * 19 + [0.1]
    assert calibrate_gamma(scores, 0.95) == 0.9
    assert calibrate_gamma([0.4, 0.2, 0.7], 1.0) == 0.2


@pytest.mark.parametrize("n, target", [(100, 0.55), (25, 0.28)])
def test_calibrate_gamma_stops_at_an_exact_count(n, target):
    # target * n lands just above the count k = round(target * n) in
    # floating point (55.000000000000007), yet k / n meets the target
    k = round(target * n)
    assert target * n > k and k / n >= target
    scores = np.arange(n, dtype=np.float64)
    assert calibrate_gamma(scores, target) == n - k  # the k-th largest score
    assert calibrate_gamma(scores, target) == gamma_oracle(scores, target)


def test_calibrate_gamma_vs_brute_force():
    rng = np.random.default_rng(33)
    for _ in range(100):
        n = int(rng.integers(1, 60))
        scores = np.round(rng.uniform(size=n), 2)  # rounding forces ties
        target = float(rng.uniform(0.05, 1.0))
        got = calibrate_gamma(scores, target)
        want = gamma_oracle(scores, target)
        assert got == want
        # soundness: retained fraction meets the target and gamma is maximal
        assert np.mean(scores >= got) >= target
        above = scores[scores > got]
        if above.size:
            assert np.mean(scores >= above.min()) < target


def test_calibrate_gamma_errors():
    with pytest.raises(ValueError):
        calibrate_gamma([])
    with pytest.raises(ValueError):
        calibrate_gamma([0.5], 0.0)


def test_nll_values():
    two_point = [[0.5, 0.5], [0.5, 0.5]]
    assert abs(nll(two_point, [0, 1]) - math.log(2)) < 1e-12
    perfect = [[1.0, 0.0], [0.0, 1.0]]
    assert nll(perfect, [0, 1]) == 0.0


def test_nll_vs_oracle():
    # ragged class counts, zero-padded to 5 columns: padding does not change
    # the probability of the true label
    rng = np.random.default_rng(34)
    probs = np.zeros((50, 5))
    labels = []
    total = 0.0
    for i in range(50):
        k = int(rng.integers(2, 6))
        p = rng.dirichlet(np.ones(k))
        label = int(rng.integers(k))
        probs[i, :k] = p
        labels.append(label)
        total -= math.log(max(p[label], 1e-300))
    assert abs(nll(probs, labels) - total / 50) < 1e-12


def test_nll_clamps_zero_probability():
    assert nll([[0.0, 1.0]], [0]) == pytest.approx(-math.log(1e-300))


def test_nll_errors():
    with pytest.raises(ValueError):
        nll(np.zeros((0, 2)), [])
    with pytest.raises(IndexError):
        nll([[0.5, 0.5]], [2])
