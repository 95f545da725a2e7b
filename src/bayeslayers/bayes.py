"""Gaussian weight posteriors on selected layers and Monte-Carlo ensembles.

Selected layers of a pretrained model get an isotropic Gaussian posterior
centered on the pretrained weights. Weights are drawn by rejection from the
low-density region of that Gaussian: a draw is accepted when its squared
Mahalanobis radius exceeds the chi-square quantile at level q (q = 0
disables the constraint, so the expected acceptance rate is 1 - q).
"""

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import gammaincinv

from .network import Model, LayerSpec, LEARNABLE, forward_batch
from .numerics import Rng, softmax

__all__ = [
    "POLICIES",
    "SelectionPolicy",
    "GaussianLayerPosterior",
    "EnsembleConfig",
    "SamplerExhaustedError",
    "select_layers",
    "build_posteriors",
    "chi_square_quantile",
    "sample_layer_weights",
    "mc_predict",
    "predictive_mean",
]

POLICIES = ("none", "conv_backbone", "linear_backbone", "conv_all",
            "linear_all", "full")


class SamplerExhaustedError(RuntimeError):
    """Rejection sampler hit its attempt cap."""


@dataclass
class SelectionPolicy:
    name: str = "none"
    layers: list | None = None  # explicit layer names override the policy

    def __post_init__(self):
        if self.name not in POLICIES:
            raise ValueError(f"unknown selection policy {self.name!r}")


def select_layers(model: Model, policy) -> list:
    """Resolve a policy to an ordered list of layer names.

    Only parameter-carrying layers are selectable; batchnorm affines only
    under the `full` policy (or an explicit list).
    """
    if isinstance(policy, str):
        policy = SelectionPolicy(policy)
    if policy.layers is not None:
        for name in policy.layers:
            if not LEARNABLE[model.layer(name).kind]:
                raise ValueError(f"layer {name!r} carries no weight parameters")
        return [l.name for l in model.layers if l.name in set(policy.layers)]
    selected = []
    for idx, layer in enumerate(model.layers):
        in_backbone = idx < model.backbone_end
        if policy.name == "none":
            continue
        if policy.name == "conv_backbone" and layer.kind == "conv2d" and in_backbone:
            selected.append(layer.name)
        elif policy.name == "linear_backbone" and layer.kind == "linear" and in_backbone:
            selected.append(layer.name)
        elif policy.name == "conv_all" and layer.kind == "conv2d":
            selected.append(layer.name)
        elif policy.name == "linear_all" and layer.kind == "linear":
            selected.append(layer.name)
        elif policy.name == "full" and LEARNABLE[layer.kind]:
            selected.append(layer.name)
    return selected


@dataclass
class GaussianLayerPosterior:
    """Isotropic Gaussian over one layer's learnable parameters.

    mean is a flat copy of the pretrained values (bit-identical at
    construction); sigma scales an identity covariance; threshold is the
    squared-radius acceptance bound implied by epsilon_quantile.
    """
    layer_name: str
    mean: np.ndarray
    sigma: float
    epsilon_quantile: float
    tensor_shapes: list = field(default_factory=list)  # [(name, shape), ...]

    def __post_init__(self):
        self.mean = np.asarray(self.mean, dtype=np.float64).reshape(-1)
        if self.mean.size < 1:
            raise ValueError(f"layer {self.layer_name!r} has no parameters")
        if self.sigma <= 0:
            raise ValueError("sigma must be positive")
        if not 0 <= self.epsilon_quantile < 1:
            raise ValueError("epsilon_quantile must be in [0, 1)")
        self.m = self.mean.size
        self.threshold = chi_square_quantile(self.m, self.epsilon_quantile)

    def split_tensors(self, flat: np.ndarray) -> dict:
        """Slice flat parameter vectors (..., m) back into named tensors
        (..., *shape), keeping any leading axes such as a draw axis."""
        out = {}
        pos = 0
        for name, shape in self.tensor_shapes:
            size = int(np.prod(shape)) if shape else 1
            out[name] = flat[..., pos:pos + size].reshape(flat.shape[:-1] + tuple(shape))
            pos += size
        return out


@dataclass
class EnsembleConfig:
    sample_count: int = 30
    seed: int = 0

    def __post_init__(self):
        if self.sample_count < 1:
            raise ValueError("sample_count must be >= 1")


def _default_attempt_cap(q: float) -> int:
    return max(100, math.ceil(50.0 / max(1.0 - q, 1e-12)))


def chi_square_quantile(m: int, q: float) -> float:
    """r^2 with P(chi2_m <= r^2) = q: the chi-square quantile in closed
    form through the inverse regularized lower incomplete gamma,
    2 * gammaincinv(m / 2, q)."""
    if not 0 <= q < 1:
        raise ValueError("q must be in [0, 1)")
    return 0.0 if q == 0 else float(2.0 * gammaincinv(m / 2.0, q))


def build_posteriors(model: Model, selection: list, alpha: float,
                     epsilon_quantile: float = 0.05) -> list:
    """One posterior per selected layer: mean = pretrained weights,
    sigma = alpha * RMS of those weights (floored at alpha * 1e-6)."""
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    posteriors = []
    for name in selection:
        layer = model.layer(name)
        tensors = [(t, layer.params[t].shape) for t in LEARNABLE[layer.kind]]
        flat = np.concatenate([layer.params[t].reshape(-1) for t in LEARNABLE[layer.kind]])
        if flat.size == 0:
            raise ValueError(f"layer {name!r} has no parameters")
        rms = float(np.sqrt(np.mean(flat * flat)))
        sigma = alpha * rms if rms > 0 else alpha * 1e-6
        posteriors.append(GaussianLayerPosterior(
            layer_name=name, mean=flat.copy(), sigma=sigma,
            epsilon_quantile=epsilon_quantile, tensor_shapes=tensors))
    return posteriors


def sample_layer_weights(post: GaussianLayerPosterior, rng: Rng,
                         max_attempts: int | None = None) -> np.ndarray:
    """Draw a flat weight vector from N(mean, sigma^2 I), accepting only
    draws whose squared Mahalanobis radius exceeds the chi-square bound."""
    cap = max_attempts if max_attempts is not None else _default_attempt_cap(post.epsilon_quantile)
    for _ in range(cap):
        z = rng.normals(post.m)
        if post.threshold == 0.0 or float(z @ z) > post.threshold:
            return post.mean + post.sigma * z
    raise SamplerExhaustedError(
        f"layer {post.layer_name!r}: no accepted draw in {cap} attempts "
        f"(q={post.epsilon_quantile})")


def mc_predict(model: Model, posteriors: list, x: np.ndarray,
               cfg: EnsembleConfig, stream: tuple = ()):
    """T_mc forward passes of one input with independently sampled
    selected-layer weights, run as one batched pass.

    For sample index t, the weights of each selected layer come from the
    child generator split at (seed, *stream, t, layer-index), so results are
    identical under any parallel schedule. The layers before the first
    selected one run once; the rest run once over a leading draw axis of
    length T. Returns (logits (T, K), boxes (T, 4) or None).
    """
    base = Rng(cfg.seed)
    by_name = {p.layer_name: p for p in posteriors}
    layers = []
    for i, layer in enumerate(model.layers):
        post = by_name.get(layer.name)
        if post is None:
            layers.append(layer)
            continue
        flat = np.stack([
            sample_layer_weights(post, base.split(*stream, t, i))
            for t in range(cfg.sample_count)])
        params = dict(layer.params)
        params.update(post.split_tensors(flat))
        layers.append(LayerSpec(layer.name, layer.kind, params,
                                stride=layer.stride, padding=layer.padding))
    sampled = Model(layers, model.backbone_end, model.class_count,
                    model.has_box_head)
    logits, boxes, _ = forward_batch(sampled, np.asarray(x, dtype=np.float64)[None])
    if logits.ndim == 2:  # nothing sampled: every draw is the deterministic pass
        return (np.repeat(logits, cfg.sample_count, axis=0),
                None if boxes is None else np.repeat(boxes, cfg.sample_count, axis=0))
    return logits[:, 0], None if boxes is None else boxes[:, 0]


def predictive_mean(logits: np.ndarray, boxes: np.ndarray | None = None):
    """Ensemble summary of logits (..., T, K) and boxes (..., T, 4) or None:
    (mean softmax vector (..., K), mean box (..., 4) or None)."""
    logits = np.asarray(logits, dtype=np.float64)
    if logits.ndim < 2 or logits.shape[-2] == 0:
        raise ValueError("empty ensemble")
    # a collapsed ensemble must summarize exactly like a single pass
    degenerate = np.all(logits == logits[..., :1, :], axis=(-2, -1))[..., None]
    probs = softmax(logits)
    mean_probs = np.where(degenerate, probs[..., 0, :], probs.mean(axis=-2))
    mean_box = None
    if boxes is not None:
        boxes = np.asarray(boxes, dtype=np.float64)
        mean_box = np.where(degenerate, boxes[..., 0, :], boxes.mean(axis=-2))
    return mean_probs, mean_box
