import math

import numpy as np
import pytest

from bayeslayers.bayes import (EnsembleConfig, GaussianLayerPosterior,
                               SamplerExhaustedError, SelectionPolicy,
                               POLICIES, build_posteriors,
                               chi_square_quantile, mc_predict,
                               predictive_mean, sample_layer_weights,
                               select_layers)
from bayeslayers.network import LayerSpec, Model, build_model, forward_batch
from bayeslayers.numerics import Rng


def mixed_model():
    """conv, batchnorm, relu, conv, linear (backbone = first three)."""
    rng = np.random.default_rng(20)
    layers = [
        LayerSpec("conv_a", "conv2d", {"weight": rng.normal(size=(2, 1, 3, 3)),
                                       "bias": rng.normal(size=2)}, padding=1),
        LayerSpec("bn_a", "batchnorm", {"scale": np.ones(2), "shift": np.zeros(2),
                                        "running_mean": np.zeros(2),
                                        "running_var": np.ones(2)}),
        LayerSpec("relu_a", "relu"),
        LayerSpec("conv_b", "conv2d", {"weight": rng.normal(size=(2, 2, 4, 4)),
                                       "bias": rng.normal(size=2)}),
        LayerSpec("flatten", "flatten"),
        LayerSpec("head", "linear", {"weight": rng.normal(size=(3, 2)),
                                     "bias": rng.normal(size=3)}),
    ]
    return Model(layers, backbone_end=3, class_count=3)


def test_policy_order_is_fixed():
    assert POLICIES == ("none", "conv_backbone", "linear_backbone",
                        "conv_all", "linear_all", "full")


def test_select_layers_policies():
    model = mixed_model()
    assert select_layers(model, "none") == []
    assert select_layers(model, "conv_backbone") == ["conv_a"]
    assert select_layers(model, "linear_backbone") == []
    assert select_layers(model, "conv_all") == ["conv_a", "conv_b"]
    assert select_layers(model, "linear_all") == ["head"]
    assert select_layers(model, "full") == ["conv_a", "bn_a", "conv_b", "head"]


def test_select_layers_explicit_list():
    model = mixed_model()
    got = select_layers(model, SelectionPolicy("none", layers=["head", "conv_a"]))
    assert got == ["conv_a", "head"]  # model order preserved


def test_select_layers_rejects_bad_names():
    model = mixed_model()
    with pytest.raises(ValueError):
        select_layers(model, SelectionPolicy("none", layers=["missing"]))
    with pytest.raises(ValueError):
        select_layers(model, SelectionPolicy("none", layers=["relu_a"]))
    with pytest.raises(ValueError):
        SelectionPolicy("everything")


def test_build_posteriors_sigma_rule():
    layer = LayerSpec("fc", "linear", {"weight": np.array([[1.0, -2.0]]),
                                       "bias": np.array([0.0])})
    model = Model([layer], backbone_end=0, class_count=1)
    post, = build_posteriors(model, ["fc"], alpha=0.1)
    # RMS over the flat (weight, bias) vector [1, -2, 0]
    want = 0.1 * math.sqrt((1 + 4 + 0) / 3)
    assert abs(post.sigma - want) < 1e-12
    assert np.array_equal(post.mean, [1.0, -2.0, 0.0])


def test_build_posteriors_weight_only_example():
    # the sigma rule on a bare weight vector [1, -2]
    flat = np.array([1.0, -2.0])
    sigma = 0.1 * math.sqrt(np.mean(flat * flat))
    assert abs(sigma - 0.158114) < 1e-6


def test_build_posteriors_zero_weight_floor():
    layer = LayerSpec("fc", "linear", {"weight": np.zeros((2, 2)),
                                       "bias": np.zeros(2)})
    model = Model([layer], backbone_end=0, class_count=2)
    post, = build_posteriors(model, ["fc"], alpha=0.05)
    assert post.sigma == 0.05 * 1e-6


def test_build_posteriors_leaves_model_untouched():
    model = build_model("micro-mlp", (2,), 3, seed=3)
    x = np.array([0.3, -0.7])
    before = forward_batch(model, x[None])[0][0].copy()
    build_posteriors(model, select_layers(model, "linear_all"), alpha=0.05)
    after = forward_batch(model, x[None])[0][0]
    assert np.array_equal(before, after)


def test_build_posteriors_mean_bit_exact():
    model = build_model("micro-mlp", (2,), 3, seed=4)
    post = build_posteriors(model, ["fc1"], alpha=0.05)[0]
    layer = model.layer("fc1")
    want = np.concatenate([layer.params["weight"].reshape(-1),
                           layer.params["bias"].reshape(-1)])
    assert np.array_equal(post.mean, want)


def test_chi_square_quantile_closed_form_m2():
    for q in (0.05, 0.25, 0.5, 0.9, 0.95, 0.99):
        want = -2.0 * math.log(1.0 - q)
        assert abs(chi_square_quantile(2, q) - want) <= 1e-6
    assert abs(chi_square_quantile(2, 0.95) - 5.99146) < 1e-4


def test_chi_square_quantile_q_zero():
    assert chi_square_quantile(1, 0.0) == 0.0
    assert chi_square_quantile(1000, 0.0) == 0.0


def test_chi_square_quantile_vs_monte_carlo():
    draws = np.random.default_rng(100).chisquare(10, size=10 ** 7)
    empirical = np.quantile(draws, 0.5)
    assert abs(chi_square_quantile(10, 0.5) - empirical) <= 0.01


def test_sample_layer_weights_q0_accepts_first_draw():
    post = GaussianLayerPosterior("fc", np.zeros(5), 1.0, 0.0)
    rng = Rng(0)
    want = Rng(0).normals(5)
    got = sample_layer_weights(post, rng)
    assert np.array_equal(got, want)


def test_sample_layer_weights_acceptance_predicate():
    post = GaussianLayerPosterior("fc", np.full(4, 2.0), 0.5, 0.5)
    for i in range(500):
        draw = sample_layer_weights(post, Rng(1).split(i))
        z = (draw - post.mean) / post.sigma
        assert float(z @ z) > post.threshold


def test_sample_layer_weights_acceptance_rate_smoke():
    post = GaussianLayerPosterior("fc", np.zeros(1), 1.0, 0.5)
    accepted_first = 0
    n = 4000
    for i in range(n):
        rng = Rng(2).split(i)
        first = Rng(2).split(i).normals(1)
        draw = sample_layer_weights(post, rng)
        accepted_first += np.array_equal(draw, first)
    assert abs(accepted_first / n - 0.5) < 0.05


def test_sample_layer_weights_exhaustion():
    # q near 1 makes acceptance astronomically unlikely within 2 attempts
    post = GaussianLayerPosterior("fc", np.zeros(1), 1.0, 0.9999999)
    with pytest.raises(SamplerExhaustedError):
        sample_layer_weights(post, Rng(3), max_attempts=2)


def test_mc_predict_empty_selection_is_deterministic():
    model = build_model("micro-mlp", (2,), 3, seed=5)
    x = np.array([0.5, 1.5])
    base_logits = forward_batch(model, x[None])[0][0]
    logits, boxes = mc_predict(model, [], x, EnsembleConfig(sample_count=5, seed=0))
    assert logits.shape == (5, 3)
    for row in logits:
        assert np.array_equal(row, base_logits)
    assert boxes is None


def test_mc_predict_vanishing_width():
    model = build_model("micro-mlp", (2,), 3, seed=6)
    x = np.array([-0.25, 0.75])
    base_logits = forward_batch(model, x[None])[0][0]
    selection = select_layers(model, "linear_all")
    posteriors = build_posteriors(model, selection, alpha=0.05)
    for post in posteriors:
        post.sigma = 1e-12
    logits, _ = mc_predict(model, posteriors, x, EnsembleConfig(sample_count=10, seed=0))
    for row in logits:
        assert np.max(np.abs(row - base_logits)) <= 1e-6


def test_mc_predict_stream_determinism():
    model = build_model("micro-mlp", (2,), 3, seed=7)
    x = np.array([1.0, -1.0])
    posteriors = build_posteriors(model, select_layers(model, "linear_all"), 0.05)
    cfg = EnsembleConfig(sample_count=4, seed=9)
    a, _ = mc_predict(model, posteriors, x, cfg, stream=(17,))
    b, _ = mc_predict(model, posteriors, x, cfg, stream=(17,))
    c, _ = mc_predict(model, posteriors, x, cfg, stream=(18,))
    for la, lb in zip(a, b):
        assert np.array_equal(la, lb)
    assert not np.array_equal(a[0], c[0])


def per_draw_reference(model, posteriors, x, cfg, stream):
    """One model and one forward_batch per draw; draw t of the layer at
    index i takes its weights from the split(*stream, t, i) stream."""
    by_name = {p.layer_name: p for p in posteriors}
    logits, boxes = [], []
    for t in range(cfg.sample_count):
        layers = []
        for i, layer in enumerate(model.layers):
            post = by_name.get(layer.name)
            if post is not None:
                flat = sample_layer_weights(post, Rng(cfg.seed).split(*stream, t, i))
                params = dict(layer.params)
                params.update(post.split_tensors(flat))
                layer = LayerSpec(layer.name, layer.kind, params,
                                  stride=layer.stride, padding=layer.padding)
            layers.append(layer)
        drawn = Model(layers, model.backbone_end, model.class_count, model.has_box_head)
        lg, bx, _ = forward_batch(drawn, np.asarray(x, dtype=np.float64)[None])
        logits.append(lg[0])
        boxes.append(None if bx is None else bx[0])
    return np.stack(logits), None if boxes[0] is None else np.stack(boxes)


ENGINE_CASES = [
    ("micro-mlp", (2,), "linear_all"),
    ("micro-cnn", (1, 16, 16), "conv_all"),
    ("micro-cnn", (1, 16, 16), "linear_all"),
    ("micro-cnn", (1, 16, 16), "full"),
    ("mixed", (1, 4, 4), "full"),  # sampled batchnorm affines
]


@pytest.mark.parametrize("arch,shape,policy", ENGINE_CASES,
                         ids=[f"{a}-{p}" for a, _, p in ENGINE_CASES])
def test_mc_predict_matches_per_draw_reference(arch, shape, policy):
    if arch == "mixed":
        model = mixed_model()
    else:
        model = build_model(arch, shape, 3, has_box_head=(arch == "micro-cnn"), seed=11)
    x = np.random.default_rng(22).uniform(size=shape)
    posteriors = build_posteriors(model, select_layers(model, policy), alpha=0.2)
    cfg = EnsembleConfig(sample_count=6, seed=5)
    logits, boxes = mc_predict(model, posteriors, x, cfg, stream=(4,))
    want_logits, want_boxes = per_draw_reference(model, posteriors, x, cfg, (4,))
    assert logits.shape == want_logits.shape == (6, 3)
    np.testing.assert_allclose(logits, want_logits, rtol=1e-12, atol=0)
    if want_boxes is None:
        assert boxes is None
    else:
        np.testing.assert_allclose(boxes, want_boxes, rtol=1e-12, atol=0)


def test_predictive_mean_single_sample():
    logits = np.array([2.0, -1.0])
    mean_probs, box = predictive_mean(logits[None])
    e = np.exp(logits - logits.max())
    assert np.allclose(mean_probs, e / e.sum(), atol=1e-12)
    assert box is None


def test_predictive_mean_two_extremes():
    logits = np.array([[1000.0, -1000.0], [-1000.0, 1000.0]])
    boxes = np.array([[0.0, 0.0, 2.0, 2.0], [2.0, 2.0, 4.0, 4.0]])
    mean_probs, box = predictive_mean(logits, boxes)
    assert np.allclose(mean_probs, [0.5, 0.5], atol=1e-12)
    assert np.allclose(box, [1.0, 1.0, 3.0, 3.0], atol=1e-12)


def test_predictive_mean_probability_vector():
    rng = np.random.default_rng(21)
    logits = rng.normal(scale=5, size=(30, 4))
    mean_probs, _ = predictive_mean(logits)
    assert abs(mean_probs.sum() - 1.0) < 1e-9
    assert np.all(mean_probs >= 0)


def test_predictive_mean_empty():
    with pytest.raises(ValueError):
        predictive_mean(np.zeros((0, 3)))
