"""Energy-based OOD scoring: energy, uncertainty score, threshold, NLL.

The energy of a logit vector is -Temp * logsumexp(logits); the uncertainty
score is a logistic transform of the negated, phi-scaled energy, so higher
scores mean more ID-like. A sample is classified ID when its score is at
least the calibrated threshold gamma.
"""

import numpy as np

from .numerics import log_sum_exp

__all__ = [
    "energy",
    "uncertainty_score",
    "score_ensemble",
    "calibrate_gamma",
    "nll",
]

AGGREGATIONS = ("mean_score", "score_of_mean_logits")


def energy(logits: np.ndarray, temperature: float = 1.0):
    """-Temp * log(sum(exp(logits))) over the last axis; finite for any
    finite logits."""
    if temperature <= 0:
        raise ValueError("temperature must be positive")
    return -temperature * log_sum_exp(logits)


def uncertainty_score(e, phi: float = 1.0):
    """Logistic of -phi*E, elementwise: strictly decreasing in E, range (0, 1)."""
    if phi <= 0:
        raise ValueError("phi must be positive")
    x = -phi * np.asarray(e, dtype=np.float64)
    # overflow-safe logistic
    z = np.exp(-np.abs(x))
    s = np.where(x >= 0, 1.0 / (1.0 + z), z / (1.0 + z))
    # keep the range open: saturation would otherwise round to exactly 0 or 1
    return np.clip(s, 5e-324, 1.0 - 2.0 ** -53)[()]


def score_ensemble(logits: np.ndarray, phi: float = 1.0, temperature: float = 1.0,
                   aggregation: str = "mean_score"):
    """Fold MC ensembles of logits (..., T, K) into (score, score_std,
    energy_mean), each of shape (...).

    mean_score: mean of per-sample scores; score_of_mean_logits: one score
    on the ensemble-mean logits. score_std is always the population standard
    deviation of the per-sample scores.
    """
    if aggregation not in AGGREGATIONS:
        raise ValueError(f"aggregation must be one of {AGGREGATIONS}")
    logits = np.asarray(logits, dtype=np.float64)
    if logits.ndim < 2 or logits.shape[-2] == 0:
        raise ValueError("empty ensemble")
    energies = energy(logits, temperature)
    per_sample = uncertainty_score(energies, phi)
    # a collapsed ensemble must score exactly like a single pass
    degenerate = np.all(per_sample == per_sample[..., :1], axis=-1)
    if aggregation == "mean_score":
        score = np.where(degenerate, per_sample[..., 0], per_sample.mean(axis=-1))
    else:
        mean_logits = np.where(degenerate[..., None], logits[..., 0, :],
                               logits.mean(axis=-2))
        score = uncertainty_score(energy(mean_logits, temperature), phi)
    energy_mean = np.where(degenerate, energies[..., 0], energies.mean(axis=-1))
    score_std = np.where(degenerate, 0.0, per_sample.std(axis=-1))  # population estimator
    return score[()], score_std[()], energy_mean[()]


def calibrate_gamma(id_scores, tpr_target: float = 0.95) -> float:
    """Largest observed score gamma such that the fraction of ID scores >=
    gamma is at least tpr_target (count threshold: the smallest k with
    k / n >= tpr_target)."""
    scores = np.asarray(id_scores, dtype=np.float64).reshape(-1)
    n = scores.size
    if n == 0:
        raise ValueError("empty score list")
    if not 0 < tpr_target <= 1:
        raise ValueError("tpr_target must be in (0, 1]")
    # read k off the fractions themselves: ceil(tpr_target * n) can round
    # one past it, as 0.55 * 100 = 55.000000000000007 does
    k = int(np.searchsorted(np.arange(1, n + 1) / n, tpr_target)) + 1
    return float(np.sort(scores)[::-1][k - 1])


def nll(probabilities, labels) -> float:
    """Mean negative log probability of the true labels.

    probabilities: (N, K) probability vectors; labels: (N,) true class
    indices. Probabilities are clamped below at 1e-300 before the log.
    """
    probs = np.asarray(probabilities, dtype=np.float64)
    labels = np.asarray(labels).reshape(-1)
    if labels.size == 0:
        raise ValueError("empty probability list")
    if np.any((labels < 0) | (labels >= probs.shape[-1])):
        raise IndexError(f"a label in {labels} is out of range")
    picked = probs[np.arange(labels.size), labels]
    # summed in label order (cumsum is sequential), not pairwise, so the
    # value matches a running total over the inputs
    total = np.cumsum(np.log(np.maximum(picked, 1e-300)))[-1]
    return float(-total / labels.size)
