import math
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy import stats
from scipy.special import gammaincinv

from bayeslayers import bayes, network
from bayeslayers.bayes import (GaussianLayerPosterior, SamplerExhaustedError,
                               POLICIES, build_posteriors,
                               chi_square_quantile, mc_predict,
                               predictive_mean, sample_layer_weights,
                               select_layers)
from bayeslayers.network import (LayerSpec, Model, build_model, forward_batch,
                                 run_layers)
from bayeslayers.numerics import NumericsError, Rng, ShapeError


def mixed_model():
    """conv, relu, conv, linear (backbone = first two)."""
    rng = np.random.default_rng(20)
    layers = [
        LayerSpec("conv_a", "conv2d", {"weight": rng.normal(size=(2, 1, 3, 3)),
                                       "bias": rng.normal(size=2)}, padding=1),
        LayerSpec("relu_a", "relu"),
        LayerSpec("conv_b", "conv2d", {"weight": rng.normal(size=(2, 2, 4, 4)),
                                       "bias": rng.normal(size=2)}),
        LayerSpec("flatten", "flatten"),
        LayerSpec("head", "linear", {"weight": rng.normal(size=(3, 2)),
                                     "bias": rng.normal(size=3)}),
    ]
    return Model(layers, backbone_end=2, class_count=3)


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
    assert select_layers(model, "full") == ["conv_a", "conv_b", "head"]


def test_select_layers_explicit_list():
    model = mixed_model()
    got = select_layers(model, "none", layers=["head", "conv_a"])
    assert got == ["conv_a", "head"]  # model order preserved


def test_select_layers_rejects_bad_names():
    model = mixed_model()
    with pytest.raises(ValueError):
        select_layers(model, "none", layers=["missing"])
    with pytest.raises(ValueError):
        select_layers(model, "none", layers=["relu_a"])
    with pytest.raises(ValueError):
        select_layers(model, "everything")


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


def test_chi_square_quantile_at_the_bottom_of_the_float_range():
    # chi2_1's quantile at 1e-320 lies below the smallest float
    assert chi_square_quantile(1, 1e-320) == 0.0 == gammaincinv(0.5, 1e-320)
    assert chi_square_quantile(2, 1e-300) == pytest.approx(2e-300, rel=1e-12)


def test_chi_square_quantile_vs_monte_carlo():
    draws = np.random.default_rng(100).chisquare(10, size=10 ** 7)
    empirical = np.quantile(draws, 0.5)
    assert abs(chi_square_quantile(10, 0.5) - empirical) <= 0.01


QUANTILE_DOFS = (1, 2, 3, 9, 20, 80, 192, 195, 455, 1168, 50240, 10 ** 6)
QUANTILE_LEVELS = (1e-9, 1e-6, 1e-3, 0.05, 0.5, 0.9, 0.99)
# the parameter counts of the bench models' layers (micro-cnn with a box
# head on shapes, micro-mlp on 2-d blobs)
BENCH_LAYER_SIZES = (80, 192, 195, 455, 1168, 50240)


@pytest.mark.parametrize("m", QUANTILE_DOFS)
def test_chi_square_quantile_matches_scipy(m):
    for q in QUANTILE_LEVELS:
        want = 2.0 * gammaincinv(m / 2.0, q)
        got = chi_square_quantile(m, q)
        assert abs(got - want) <= 1e-11 * want, (m, q, got, want)


def test_chi_square_quantile_bench_sizes_within_two_ulps_of_scipy():
    for m in BENCH_LAYER_SIZES:
        want = 2.0 * gammaincinv(m / 2.0, 0.05)
        assert abs(chi_square_quantile(m, 0.05) - want) <= 2 * np.spacing(want), m


def test_chi_square_quantile_rejects_levels_outside_unit_interval():
    for q in (-1e-3, 1.0, 1.5):
        with pytest.raises(ValueError):
            chi_square_quantile(10, q)


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


def test_sample_layer_weights_exhaustion(monkeypatch):
    # q near 1 makes acceptance astronomically unlikely within 2 attempts
    monkeypatch.setattr(bayes, "_default_attempt_cap", lambda q: 2)
    post = GaussianLayerPosterior("fc", np.zeros(1), 1.0, 0.9999999)
    with pytest.raises(SamplerExhaustedError):
        sample_layer_weights(post, Rng(3))


def test_mc_predict_empty_selection_is_deterministic():
    model = build_model("micro-mlp", (2,), 3, seed=5)
    x = np.array([[0.5, 1.5], [-1.0, 0.25], [2.0, -0.75]])
    # one input per pass: a batched GEMM's bits depend on its row count
    base_logits = np.concatenate([forward_batch(model, row[None])[0] for row in x])
    logits, boxes = mc_predict(model, [], x, 5, seed=0)
    assert logits.shape == (3, 5, 3)
    expected = np.broadcast_to(base_logits[:, None], logits.shape)
    assert logits.tobytes() == np.ascontiguousarray(expected).tobytes()
    assert boxes is None


def test_mc_predict_needs_a_draw():
    model = build_model("micro-mlp", (2,), 3, seed=5)
    with pytest.raises(ValueError):
        mc_predict(model, [], np.zeros((1, 2)), 0)
    with pytest.raises(ValueError, match="no inputs"):
        mc_predict(model, [], np.zeros((0, 2)), 3)


def test_mc_predict_vanishing_width():
    model = build_model("micro-mlp", (2,), 3, seed=6)
    x = np.array([[-0.25, 0.75]])
    base_logits = forward_batch(model, x)[0][0]
    selection = select_layers(model, "linear_all")
    posteriors = build_posteriors(model, selection, alpha=0.05)
    for post in posteriors:
        post.sigma = 1e-12
    logits, _ = mc_predict(model, posteriors, x, 10, seed=0)
    for row in logits[0]:
        assert np.max(np.abs(row - base_logits)) <= 1e-6


def test_mc_predict_seed_determinism():
    model = build_model("micro-mlp", (2,), 3, seed=7)
    x = np.array([[1.0, -1.0], [0.5, 2.0]])
    posteriors = build_posteriors(model, select_layers(model, "linear_all"), 0.05)
    a, _ = mc_predict(model, posteriors, x, 4, seed=9)
    b, _ = mc_predict(model, posteriors, x, 4, seed=9)
    c, _ = mc_predict(model, posteriors, x, 4, seed=10)
    assert a.tobytes() == b.tobytes()
    assert not np.any(a == c)


def test_mc_predict_row_depends_on_its_input_only():
    # the draws are shared, not keyed by an input's place in the batch
    model = build_model("micro-cnn", (1, 16, 16), 3, has_box_head=True, seed=12)
    a, b, c = np.random.default_rng(23).uniform(size=(3, 1, 16, 16))
    posteriors = build_posteriors(model, select_layers(model, "full"), alpha=0.2)
    logits, boxes = mc_predict(model, posteriors, np.stack([a, b, c]), 4, seed=3)
    again, again_boxes = mc_predict(model, posteriors, np.stack([c, a]), 4, seed=3)
    assert again.tobytes() == logits[[2, 0]].tobytes()
    assert again_boxes.tobytes() == boxes[[2, 0]].tobytes()


# selections with draw-free leading layers on micro-cnn: conv1..flatten for
# all but conv2-head, whose draws start at conv2
PREFIX_CASES = [("linear_all", None), ("none", ["head"]), ("none", ["conv2", "head"]),
                ("none", None)]
PREFIX_IDS = ["linear_all", "head", "conv2-head", "none"]
# 26 inputs of 16x16 cross a boundary between chunks of 24 (6 for conv2-head)
PREFIX_INPUTS = (26, 1, 16, 16)


@pytest.mark.parametrize("policy,layers", PREFIX_CASES, ids=PREFIX_IDS)
def test_mc_predict_prefixed_row_depends_on_its_input_only(policy, layers):
    # the model runs per chunk of inputs, yet a row does not see its chunk
    model = build_model("micro-cnn", (1, 16, 16), 3, has_box_head=True, seed=12)
    inputs = np.random.default_rng(25).uniform(size=PREFIX_INPUTS)
    posteriors = build_posteriors(model, select_layers(model, policy, layers), alpha=0.2)
    logits, boxes = mc_predict(model, posteriors, inputs, 4, seed=3)
    pick = [25, 9, 2, 5]
    again, again_boxes = mc_predict(model, posteriors, inputs[pick], 4, seed=3)
    assert again.tobytes() == logits[pick].tobytes()
    assert again_boxes.tobytes() == boxes[pick].tobytes()


def test_mc_predict_prefix_errors():
    model = build_model("micro-cnn", (1, 8, 8), 3, seed=0)
    posteriors = build_posteriors(model, select_layers(model, "linear_all"), alpha=0.2)
    with pytest.raises(ShapeError, match="'conv1'"):
        mc_predict(model, posteriors, np.zeros((2, 64)), 3)
    # rank-2 samples would have their draw axis read as a channel
    with pytest.raises(ShapeError, match="neither vectors"):
        mc_predict(model, posteriors, np.zeros((2, 8, 8)), 3)
    # an overflow in conv1 stays quiet until the output check
    x = np.full((2, 1, 8, 8), 1e308)
    assert not np.all(np.isfinite(run_layers(model.layers[:1], x)[0]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericsError):
            mc_predict(model, posteriors, x, 3)


@pytest.mark.parametrize("layers", [[], ["head"]], ids=["none", "head"])
def test_mc_predict_rejects_a_wrong_final_width(layers):
    wide = build_model("micro-mlp", (2,), 5, seed=2)
    model = Model(wide.layers, wide.backbone_end, class_count=3)
    posteriors = build_posteriors(model, select_layers(model, "none", layers), alpha=0.2)
    with pytest.raises(ShapeError, match="final layer produced shape"):
        mc_predict(model, posteriors, np.zeros((4, 2)), 2)


def test_mc_predict_head_logits_follow_the_gaussian_law():
    # with only the head sampled and q = 0, head weights (W, b) ~ N(M, s^2 I)
    # give logits W h + b ~ N(M (h, 1), s^2 |(h, 1)|^2) for hidden input h
    model = build_model("micro-mlp", (2,), 3, seed=13)
    x = np.array([[0.8, -1.3]])
    _, _, caches = forward_batch(model, x, want_caches=True)
    h = np.append(caches[-1][0], 1.0)
    (post,) = build_posteriors(model, ["head"], alpha=0.5, epsilon_quantile=0.0)
    head = model.layer("head")
    mean = np.hstack([head.params["weight"], head.params["bias"][:, None]]) @ h
    scale = post.sigma * np.linalg.norm(h)
    logits, _ = mc_predict(model, [post], x, 2000, seed=4)
    for k in range(3):
        p = stats.kstest(logits[0, :, k], "norm", args=(mean[k], scale)).pvalue
        assert p > 0.01, f"logit {k}: KS p-value {p:.2g}"


def per_draw_reference(model, posteriors, inputs, sample_count, seed):
    """One model and one forward_batch over all inputs per draw; draw t of
    the layer at index i takes its weights from the split(t, i) stream.
    Returns logits (N, T, K) and boxes (N, T, 4) or None."""
    by_name = {p.layer_name: p for p in posteriors}
    logits, boxes = [], []
    for t in range(sample_count):
        layers = []
        for i, layer in enumerate(model.layers):
            post = by_name.get(layer.name)
            if post is not None:
                flat = sample_layer_weights(post, Rng(seed).split(t, i))
                params = dict(layer.params)
                params.update(post.split_tensors(flat))
                layer = LayerSpec(layer.name, layer.kind, params,
                                  stride=layer.stride, padding=layer.padding)
            layers.append(layer)
        drawn = Model(layers, model.backbone_end, model.class_count, model.has_box_head)
        lg, bx, _ = forward_batch(drawn, np.asarray(inputs, dtype=np.float64))
        logits.append(lg)
        boxes.append(bx)
    return (np.stack(logits, axis=1),
            None if boxes[0] is None else np.stack(boxes, axis=1))


def per_input_reference(model, posteriors, inputs, sample_count, seed):
    """The whole network one input per pass, each sampled layer carrying
    all T draws from the split(t, i) streams: mc_predict without its
    chunks. Returns logits (N, T, K) and boxes (N, T, 4)."""
    by_name = {p.layer_name: p for p in posteriors}
    layers = []
    for i, layer in enumerate(model.layers):
        post = by_name.get(layer.name)
        if post is not None:
            flat = np.stack([sample_layer_weights(post, Rng(seed).split(t, i))
                             for t in range(sample_count)])
            params = dict(layer.params)
            params.update(post.split_tensors(flat))
            layer = LayerSpec(layer.name, layer.kind, params,
                              stride=layer.stride, padding=layer.padding)
        layers.append(layer)
    drawn = Model(layers, model.backbone_end, model.class_count, model.has_box_head)
    passes = [forward_batch(drawn, x[None]) for x in inputs]
    logits, boxes = (np.stack([p[k] for p in passes]) for k in (0, 1))
    # with nothing drawn, a pass has one row that stands for all T draws
    shape = (len(inputs), sample_count)
    return (np.broadcast_to(logits, shape + logits.shape[2:]),
            np.broadcast_to(boxes, shape + boxes.shape[2:]))


@pytest.mark.parametrize("policy,layers", PREFIX_CASES, ids=PREFIX_IDS)
def test_mc_predict_prefix_matches_per_input_reference_bitwise(policy, layers):
    model = build_model("micro-cnn", (1, 16, 16), 3, has_box_head=True, seed=14)
    inputs = np.random.default_rng(24).uniform(size=PREFIX_INPUTS)
    posteriors = build_posteriors(model, select_layers(model, policy, layers), alpha=0.2)
    logits, boxes = mc_predict(model, posteriors, inputs, 4, seed=6)
    want_logits, want_boxes = per_input_reference(model, posteriors, inputs, 4, 6)
    assert logits.tobytes() == want_logits.tobytes()
    assert boxes.tobytes() == want_boxes.tobytes()


TAIL_DRAWS = 4
# selections whose linear layers run per chunk of inputs: (arch, input
# shape, policy, layers, values an input counts in a chunk). fc1's 64
# outputs come as one row per input before the first draw and as T rows
# after it; with only the head drawn, its 11 x T are fewer. conv_all
# samples before the first linear layer, so its 16 x 16 input counts T times.
TAIL_CASES = [("micro-mlp", (2,), "linear_all", None, 64 * TAIL_DRAWS),
              ("micro-mlp", (2,), "none", ["fc1"], 64 * TAIL_DRAWS),
              ("micro-mlp", (2,), "none", ["head"], 64),
              ("micro-cnn", (1, 16, 16), "conv_all", None, 16 * 16 * TAIL_DRAWS)]
TAIL_IDS = ["mlp-linear_all", "mlp-fc1", "mlp-head", "cnn-conv_all"]


def tail_case(arch, shape, policy, layers, widest, seed):
    """Model, posteriors and inputs that cross one boundary between chunks;
    returns them with the chunk size."""
    model = build_model(arch, shape, 7, has_box_head=True, seed=seed)
    posteriors = build_posteriors(model, select_layers(model, policy, layers), alpha=0.2)
    chunk = bayes._CHUNK_VALUES // max(int(np.prod(shape)), widest)
    inputs = np.random.default_rng(seed).uniform(-2, 2, size=(chunk + 2,) + shape)
    return model, posteriors, inputs, chunk


@pytest.mark.parametrize("arch,shape,policy,layers,widest", TAIL_CASES, ids=TAIL_IDS)
def test_mc_predict_tail_matches_per_input_reference_bitwise(arch, shape, policy,
                                                             layers, widest):
    model, posteriors, inputs, _ = tail_case(arch, shape, policy, layers, widest, 31)
    logits, boxes = mc_predict(model, posteriors, inputs, TAIL_DRAWS, seed=8)
    want_logits, want_boxes = per_input_reference(model, posteriors, inputs, TAIL_DRAWS, 8)
    assert logits.tobytes() == want_logits.tobytes()
    assert boxes.tobytes() == want_boxes.tobytes()


def record_linear_rows(monkeypatch):
    """The shape of every row array handed to a linear layer, in call order."""
    seen = []
    fwd = network._FWD["linear"]

    def recording(layer, x):
        seen.append(x.shape)
        return fwd(layer, x)

    monkeypatch.setitem(network._FWD, "linear", recording)
    return seen


@pytest.mark.parametrize("arch,shape,policy,layers,widest", TAIL_CASES, ids=TAIL_IDS)
def test_mc_predict_tail_chunk_counts_rows_per_input(monkeypatch, arch, shape, policy,
                                                     layers, widest):
    # a chunk counts T rows of an output only from the first draw on
    model, posteriors, inputs, chunk = tail_case(arch, shape, policy, layers, widest, 33)
    seen = record_linear_rows(monkeypatch)
    mc_predict(model, posteriors, inputs, TAIL_DRAWS, seed=9)
    batches = [rows[0] for rows in seen]
    assert max(batches) == chunk and min(batches) == 2, (chunk, batches)


@pytest.mark.parametrize("arch,shape,policy,layers,widest", TAIL_CASES, ids=TAIL_IDS)
def test_mc_predict_tail_row_depends_on_its_input_only(arch, shape, policy,
                                                      layers, widest):
    model, posteriors, inputs, chunk = tail_case(arch, shape, policy, layers, widest, 32)
    logits, _ = mc_predict(model, posteriors, inputs, TAIL_DRAWS, seed=9)
    # rows from both chunks, scored together in one, and each alone
    pick = [chunk + 1, 3, chunk, chunk - 1]
    again, _ = mc_predict(model, posteriors, inputs[pick], TAIL_DRAWS, seed=9)
    assert again.tobytes() == logits[pick].tobytes()
    for i in pick:
        alone, _ = mc_predict(model, posteriors, inputs[i:i + 1], TAIL_DRAWS, seed=9)
        assert alone.tobytes() == logits[i:i + 1].tobytes()


def flatten_after_linear_model():
    """flatten, linear, relu, flatten, linear: the second flatten meets
    rows that are already flat and passes them through."""
    rng = np.random.default_rng(40)
    layers = [
        LayerSpec("flatten_a", "flatten"),
        LayerSpec("fc", "linear", {"weight": rng.normal(size=(8, 64)),
                                   "bias": rng.normal(size=8)}),
        LayerSpec("relu", "relu"),
        LayerSpec("flatten_b", "flatten"),
        LayerSpec("head", "linear", {"weight": rng.normal(size=(7, 8)),
                                     "bias": rng.normal(size=7)}),
    ]
    return Model(layers, backbone_end=3, class_count=3, has_box_head=True)


def no_linear_model():
    """conv, max-pool, conv, flatten: no linear layer at all."""
    rng = np.random.default_rng(41)
    layers = [
        LayerSpec("conv_a", "conv2d", {"weight": rng.normal(size=(2, 4, 3, 3)),
                                       "bias": rng.normal(size=2)}, padding=1),
        LayerSpec("pool", "maxpool2"),
        LayerSpec("conv_b", "conv2d", {"weight": rng.normal(size=(7, 2, 2, 2)),
                                       "bias": rng.normal(size=7)}),
        LayerSpec("flatten", "flatten"),
    ]
    return Model(layers, backbone_end=2, class_count=3, has_box_head=True)


# (model, selection): nothing, one layer, every learnable layer. Inputs of
# 4x4x4 = 64 values make chunks of at most 8 * 28 * 28 // 64 = 98.
ODD_CASES = [(flatten_after_linear_model, []), (flatten_after_linear_model, ["head"]),
             (flatten_after_linear_model, ["fc", "head"]), (no_linear_model, []),
             (no_linear_model, ["conv_b"]), (no_linear_model, ["conv_a", "conv_b"])]
ODD_IDS = ["flatten-none", "flatten-head", "flatten-all",
           "nolinear-none", "nolinear-conv_b", "nolinear-all"]


@pytest.mark.parametrize("make_model,layers", ODD_CASES, ids=ODD_IDS)
def test_mc_predict_odd_models_match_per_input_reference_bitwise(make_model, layers):
    model = make_model()
    inputs = np.random.default_rng(42).uniform(-1, 1, size=(100, 4, 4, 4))
    posteriors = build_posteriors(model, layers, alpha=0.2)
    logits, boxes = mc_predict(model, posteriors, inputs, 4, seed=7)
    want_logits, want_boxes = per_input_reference(model, posteriors, inputs, 4, 7)
    assert logits.tobytes() == want_logits.tobytes()
    assert boxes.tobytes() == want_boxes.tobytes()


@pytest.mark.parametrize("arch,shape", [("micro-mlp", (2,)), ("micro-cnn", (1, 16, 16))],
                         ids=["mlp", "cnn"])
@pytest.mark.parametrize("policy,layers", [("none", None), ("none", ["head"]),
                                           ("linear_all", None), ("conv_all", None),
                                           ("full", None)],
                         ids=["none", "head", "linear_all", "conv_all", "full"])
def test_mc_predict_runs_every_linear_layer_on_3d_rows(monkeypatch, arch, shape,
                                                       policy, layers):
    # eval cuts at the first linear layer, so every linear product sees rows
    # (B, T', D), whatever is sampled
    seen = record_linear_rows(monkeypatch)
    model = build_model(arch, shape, 3, seed=16)
    posteriors = build_posteriors(model, select_layers(model, policy, layers), alpha=0.2)
    inputs = np.random.default_rng(34).uniform(size=(5,) + shape)
    mc_predict(model, posteriors, inputs, 3, seed=2)
    assert seen and {len(rows) for rows in seen} == {3}, seen


def test_mc_predict_memory_stays_within_its_chunk_budget():
    # 300 inputs in one chunk peak at about 3.2 MiB; chunks of 9 at 0.25
    model = build_model("micro-mlp", (2,), 3, seed=15)
    inputs = np.random.default_rng(33).uniform(-2, 2, size=(300, 2))
    posteriors = build_posteriors(model, select_layers(model, "linear_all"), alpha=0.2)
    tracemalloc.start()
    try:
        mc_predict(model, posteriors, inputs, 10, seed=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1 << 20, f"tracemalloc peak {peak / 1024:.0f} KiB"


ENGINE_CASES = [
    ("micro-mlp", (2,), "linear_all"),
    ("micro-cnn", (1, 16, 16), "conv_all"),
    ("micro-cnn", (1, 16, 16), "linear_all"),
    ("micro-cnn", (1, 16, 16), "full"),
    ("mixed", (1, 4, 4), "full"),
]


@pytest.mark.parametrize("arch,shape,policy", ENGINE_CASES,
                         ids=[f"{a}-{p}" for a, _, p in ENGINE_CASES])
def test_mc_predict_matches_per_draw_reference(arch, shape, policy):
    if arch == "mixed":
        model = mixed_model()
    else:
        model = build_model(arch, shape, 3, has_box_head=(arch == "micro-cnn"), seed=11)
    inputs = np.random.default_rng(22).uniform(size=(3,) + shape)
    posteriors = build_posteriors(model, select_layers(model, policy), alpha=0.2)
    logits, boxes = mc_predict(model, posteriors, inputs, 6, seed=5)
    want_logits, want_boxes = per_draw_reference(model, posteriors, inputs, 6, 5)
    assert logits.shape == want_logits.shape == (3, 6, 3)
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
