"""Energy-based OOD scoring: energy, uncertainty score, threshold, NLL.

The energy of a logit vector is -Temp * logsumexp(logits); the uncertainty
score is a logistic transform of the negated, phi-scaled energy, so higher
scores mean more ID-like. A sample is classified ID when its score is at
least the calibrated threshold gamma.
"""

import math
from dataclasses import dataclass

import numpy as np

from .numerics import log_sum_exp

__all__ = [
    "ScoringConfig",
    "OodScoreRecord",
    "energy",
    "uncertainty_score",
    "score_ensemble",
    "calibrate_gamma",
    "nll",
]

AGGREGATIONS = ("mean_score", "score_of_mean_logits")


@dataclass
class ScoringConfig:
    temperature: float = 1.0
    phi: float = 1.0
    aggregation: str = "mean_score"

    def __post_init__(self):
        if self.temperature <= 0:
            raise ValueError("temperature must be positive")
        if self.phi <= 0:
            raise ValueError("phi must be positive")
        if self.aggregation not in AGGREGATIONS:
            raise ValueError(f"aggregation must be one of {AGGREGATIONS}")


@dataclass
class OodScoreRecord:
    sample_id: int
    energy_mean: float
    score: float
    score_std: float
    is_id_truth: bool
    predicted_class: int
    predicted_box: np.ndarray | None = None


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


def score_ensemble(logits: np.ndarray, cfg: ScoringConfig):
    """Fold MC ensembles of logits (..., T, K) into (score, score_std,
    energy_mean), each of shape (...).

    mean_score: mean of per-sample scores; score_of_mean_logits: one score
    on the ensemble-mean logits. score_std is always the population standard
    deviation of the per-sample scores.
    """
    logits = np.asarray(logits, dtype=np.float64)
    if logits.ndim < 2 or logits.shape[-2] == 0:
        raise ValueError("empty ensemble")
    energies = energy(logits, cfg.temperature)
    per_sample = uncertainty_score(energies, cfg.phi)
    # a collapsed ensemble must score exactly like a single pass
    degenerate = np.all(per_sample == per_sample[..., :1], axis=-1)
    if cfg.aggregation == "mean_score":
        score = np.where(degenerate, per_sample[..., 0], per_sample.mean(axis=-1))
    else:
        mean_logits = np.where(degenerate[..., None], logits[..., 0, :],
                               logits.mean(axis=-2))
        score = uncertainty_score(energy(mean_logits, cfg.temperature), cfg.phi)
    energy_mean = np.where(degenerate, energies[..., 0], energies.mean(axis=-1))
    score_std = np.where(degenerate, 0.0, per_sample.std(axis=-1))  # population estimator
    return score[()], score_std[()], energy_mean[()]


def calibrate_gamma(id_scores, tpr_target: float = 0.95) -> float:
    """Largest observed score gamma such that the fraction of ID scores >=
    gamma is at least tpr_target (count threshold ceil(tpr_target * n))."""
    scores = np.asarray(list(id_scores), dtype=np.float64)
    if scores.size == 0:
        raise ValueError("empty score list")
    if not 0 < tpr_target <= 1:
        raise ValueError("tpr_target must be in (0, 1]")
    k = math.ceil(tpr_target * scores.size)
    return float(np.sort(scores)[::-1][k - 1])


def nll(probabilities) -> float:
    """Mean negative log probability of the true labels.

    probabilities: iterable of (probability vector, true label index).
    Probabilities are clamped below at 1e-300 before the log.
    """
    items = list(probabilities)
    if not items:
        raise ValueError("empty probability list")
    total = 0.0
    for probs, label in items:
        probs = np.asarray(probs, dtype=np.float64).reshape(-1)
        if not 0 <= label < probs.size:
            raise IndexError(f"label {label} out of range")
        total -= math.log(max(float(probs[label]), 1e-300))
    return total / len(items)
