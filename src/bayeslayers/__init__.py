"""Post-hoc Bayesian-layer OOD detection at desk scale.

Selected layers of a pretrained network get Gaussian weight posteriors,
weights are sampled from the low-density region of those Gaussians, Monte
Carlo ensemble predictions are scored with an energy-based rule, and ID/OOD
separation is evaluated with FPR95 and AUROC.

The library takes plain values: `select_layers(model, policy, layers)`,
`mc_predict(model, posteriors, x, sample_count, seed)` and
`score_ensemble(logits, phi, temperature, aggregation)`.
"""

__version__ = "0.1.0"

from .numerics import Rng
from .network import Model, LayerSpec, TrainConfig, build_model, train_sgd
from .bayes import (GaussianLayerPosterior, select_layers, build_posteriors,
                    mc_predict)
from .scoring import energy, uncertainty_score, score_ensemble, calibrate_gamma
from .metrics import ScoreSet, auroc, fpr_at_tpr

__all__ = [
    "Rng", "Model", "LayerSpec", "TrainConfig", "build_model", "train_sgd",
    "GaussianLayerPosterior", "select_layers", "build_posteriors", "mc_predict",
    "energy", "uncertainty_score", "score_ensemble", "calibrate_gamma",
    "ScoreSet", "auroc", "fpr_at_tpr",
]
