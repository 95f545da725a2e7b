"""Gaussian weight posteriors on selected layers and Monte-Carlo ensembles.

Selected layers of a pretrained model get an isotropic Gaussian posterior
centered on the pretrained weights. Weights are drawn by rejection from the
low-density region of that Gaussian: a draw is accepted when its squared
Mahalanobis radius exceeds the chi-square quantile at level q (q = 0
disables the constraint, so the expected acceptance rate is 1 - q).
"""

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .network import Model, LEARNABLE, run_layers, split_outputs
from .numerics import Rng, ShapeError, softmax

__all__ = [
    "POLICIES",
    "GaussianLayerPosterior",
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
    """Rejection sampler hit its attempt cap, or an ensemble's draws would
    expect more normals than the budget."""


def select_layers(model: Model, policy: str, layers: list | None = None) -> list:
    """Resolve a policy, or explicit layer names that override it, to an
    ordered list of layer names.

    Only parameter-carrying layers are selectable; `full` selects every
    conv and linear layer.
    """
    if policy not in POLICIES:
        raise ValueError(f"unknown selection policy {policy!r}")
    if layers is not None:
        for name in layers:
            if not LEARNABLE[model.layer(name).kind]:
                raise ValueError(f"layer {name!r} carries no weight parameters")
        return [l.name for l in model.layers if l.name in set(layers)]
    selected = []
    for idx, layer in enumerate(model.layers):
        in_backbone = idx < model.backbone_end
        if policy == "conv_backbone" and layer.kind == "conv2d" and in_backbone:
            selected.append(layer.name)
        elif policy == "linear_backbone" and layer.kind == "linear" and in_backbone:
            selected.append(layer.name)
        elif policy == "conv_all" and layer.kind == "conv2d":
            selected.append(layer.name)
        elif policy == "linear_all" and layer.kind == "linear":
            selected.append(layer.name)
        elif policy == "full" and LEARNABLE[layer.kind]:
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
        (..., *shape), keeping any leading axes, such as the T weight sets
        of a sampled layer."""
        out = {}
        pos = 0
        for name, shape in self.tensor_shapes:
            size = int(np.prod(shape)) if shape else 1
            out[name] = flat[..., pos:pos + size].reshape(flat.shape[:-1] + tuple(shape))
            pos += size
        return out


def _default_attempt_cap(q: float) -> int:
    return max(100, math.ceil(50.0 / max(1.0 - q, 1e-12)))


def _log_gamma_prefactor(a: float, x: float) -> float:
    """log(x^a e^-x / Gamma(a + 1)). From a = 20 on it is written through
    t = (x - a) / a and Stirling's series for lgamma(a + 1), so that the
    large terms a ln x, x and lgamma(a + 1) cancel before they are formed."""
    if a < 20:
        return a * math.log(x) - x - math.lgamma(a + 1.0)
    t = (x - a) / a
    r = 1.0 / (a * a)
    stirling_tail = (1 / 12 - r * (1 / 360 - r * (1 / 1260 - r / 1680))) / a
    return a * (math.log1p(t) - t) - 0.5 * math.log(2.0 * math.pi * a) - stirling_tail


def _normal_quantile(q: float) -> float:
    """Rough standard normal quantile, |error| < 4.5e-4 (Abramowitz and
    Stegun 26.2.23): enough to start Newton-type steps from."""
    t = math.sqrt(-2.0 * math.log(min(q, 1.0 - q)))
    z = t - (2.515517 + t * (0.802853 + t * 0.010328)) / (
        1.0 + t * (1.432788 + t * (0.189269 + t * 0.001308)))
    return z if q > 0.5 else -z


def chi_square_quantile(m: int, q: float) -> float:
    """r^2 with P(chi2_m <= r^2) = q, that is 2 P^-1(m / 2, q) for the
    regularized lower incomplete gamma P(a, x), in math and numpy alone.

    Halley steps on log P(a, x) - log q start from the larger of the
    Wilson-Hilferty value and the root of x^a / Gamma(a + 1) = q, which
    bounds the quantile from below. log P is a log prefactor plus the log of
    P's power series, summed in one cumprod. The relative error is about
    1e-12 or less for q <= 0.99 and m up to 10^6. Past q = 0.99 it grows
    like 1e-16 / (1 - q): log q then holds few digits of 1 - q.
    """
    if not 0 <= q < 1:
        raise ValueError("q must be in [0, 1)")
    if q == 0:
        return 0.0
    a, log_q = m / 2.0, math.log(q)
    c = 2.0 / (9.0 * m)
    wilson_hilferty = a * (1.0 - c + _normal_quantile(q) * math.sqrt(c)) ** 3
    x = max(wilson_hilferty, math.exp((log_q + math.lgamma(a + 1.0)) / a))
    if x == 0.0:
        return 0.0  # the quantile is below the smallest float
    last_step = math.inf
    for _ in range(50):
        # P(a, x) = prefactor * sum_n prod_{k <= n} x / (a + k); the terms
        # peak near n = x - a and fade within ~10 sqrt(x) beyond it
        n = int(max(x - a, 0.0) + 10.0 * math.sqrt(x)) + 30
        series = 1.0 + float(np.cumprod(x / (a + np.arange(1.0, n + 1))).sum())
        f = _log_gamma_prefactor(a, x) + math.log(series) - log_q
        # Halley's step as a share of x, through g = x d(log P)/dx, which
        # equals a / series, and x^2 d^2(log P)/dx^2 = g (a - 1 - x - g)
        g = a / series
        step = f / (g - 0.5 * f * (a - 1.0 - x - g))
        x = x - x * step if step < 1.0 else 0.5 * x
        # stop at full precision, or once rounding noise stops the steps
        # from shrinking
        if abs(step) <= 1e-14 or abs(step) >= last_step:
            break
        last_step = abs(step)
    return 2.0 * x


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


def sample_layer_weights(post: GaussianLayerPosterior, rng: Rng) -> np.ndarray:
    """Draw a flat weight vector from N(mean, sigma^2 I), accepting only
    draws whose squared Mahalanobis radius exceeds the chi-square bound."""
    cap = _default_attempt_cap(post.epsilon_quantile)
    for _ in range(cap):
        z = rng.normals(post.m)
        if post.threshold == 0.0 or float(z @ z) > post.threshold:
            return post.mean + post.sigma * z
    raise SamplerExhaustedError(
        f"layer {post.layer_name!r}: no accepted draw in {cap} attempts "
        f"(q={post.epsilon_quantile})")


# Values per input chunk: 8 images of 28x28, or fewer inputs when each
# holds more values on its way through the model (see mc_predict). Peak RSS
# of a gen-data, train and cnn-linear eval process: 44.8 MiB at 8 images,
# 46.8 at 16, 51.7 at 32, 69.2 for the whole test set at once. conv_all at
# T 10 runs one image per chunk; chunks of 1, 2, 3, 4 and 8 images ran its
# mc_predict in 54.6, 56.5, 59.0, 55.7 and 57.2 ms. tracemalloc peak of an
# mlp-ablate linear_all mc_predict: 248 KiB in chunks of 9 blobs, 3,287 KiB
# with all 300 in one.
_CHUNK_VALUES = 8 * 28 * 28

# Normals the rejection sampler may expect to draw for one ensemble, about
# 4 minutes at 13 ns a normal.
_NORMAL_BUDGET = 2 ** 34


def mc_predict(model: Model, posteriors: list, inputs: np.ndarray,
               sample_count: int, seed: int = 0):
    """Ensemble of the inputs (N, ...) through T = sample_count weight sets
    drawn once. Draw t of the selected layer at index i comes from the
    child generator split at (seed, t, i), so an input's logits depend on
    the seed, the model and that input only.

    The whole model runs once per chunk of inputs on rows (B, T', ...), one
    per input and draw: T' is 1 before the first sampled layer and T from
    it on. `np.matmul` makes the same products as a pass of one input: a
    plain weight one product per input's (T', D) rows or patch block, T
    weight sets one per (input, draw). A chunk holds 8 * 28 * 28 values and
    at least one input; an input counts its own values, times T when a
    layer before the first linear layer is sampled, or its rows of the
    widest linear output, whichever is more.
    Returns (logits (N, T, K), boxes (N, T, 4) or None). Raises
    SamplerExhaustedError before any draw when the draws expect more
    normals than _NORMAL_BUDGET.
    """
    if sample_count < 1:
        raise ValueError("sample_count must be >= 1")
    inputs = np.asarray(inputs, dtype=np.float64)
    if len(inputs) < 1:
        raise ValueError("no inputs to predict")
    # the kernels tell images from flat rows by rank, and a draw axis added
    # to a sample of any other rank would pass for a channel or a batch axis
    if inputs.ndim not in (2, 4):
        raise ShapeError(f"inputs of shape {inputs.shape[1:]} are neither vectors (D,) "
                         "nor images (C, H, W)")
    # a layer's draw expects m / (1 - q) normals; refuse before drawing any
    expected = {p.layer_name: sample_count * p.m / (1.0 - p.epsilon_quantile)
                for p in posteriors}
    if sum(expected.values()) > _NORMAL_BUDGET:
        name = max(expected, key=expected.get)
        raise SamplerExhaustedError(f"layer {name!r}: {sample_count} draws expect "
                                    f"{expected[name]:.3g} normals, beyond the budget of 2^34")
    base = Rng(seed)
    by_name = {p.layer_name: p for p in posteriors}
    layers = []
    for i, layer in enumerate(model.layers):
        post = by_name.get(layer.name)
        if post is not None:
            flat = np.stack([sample_layer_weights(post, base.split(t, i))
                             for t in range(sample_count)])
            layer = replace(layer, params={**layer.params, **post.split_tensors(flat)})
        layers.append(layer)
    first_linear = next((i for i, layer in enumerate(layers) if layer.kind == "linear"),
                        len(layers))
    drawn = next((i for i, layer in enumerate(layers) if layer.name in by_name), len(layers))
    # an input has T rows from the first sampled layer on, one before it
    widest = max((layer.params["weight"].shape[-2] * (sample_count if i >= drawn else 1)
                  for i, layer in enumerate(layers) if layer.kind == "linear"), default=0)
    values = inputs[0].size * (sample_count if drawn < first_linear else 1)
    chunk = max(1, _CHUNK_VALUES // max(1, values, widest))
    out = np.concatenate([run_layers(layers, inputs[start:start + chunk][:, None])[0]
                          for start in range(0, len(inputs), chunk)])
    # (N, T, ...), or (N, 1, ...) with no draws
    out = np.broadcast_to(out, (len(inputs), sample_count) + out.shape[2:])
    logits, boxes = split_outputs(model, out.reshape((-1,) + out.shape[2:]))
    shape = (len(inputs), sample_count, -1)
    return logits.reshape(shape), None if boxes is None else boxes.reshape(shape)


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
