import math

import numpy as np
import pytest

from bayeslayers import network
from bayeslayers.datasets import Split, gen_blobs, gen_shapes
from bayeslayers.network import (LayerSpec, Model, PersistenceError,
                                 TrainConfig, TrainingDivergedError,
                                 build_model, forward_batch, load_model,
                                 loss_and_gradients, save_model, train_sgd)
from bayeslayers.numerics import Rng, ShapeError, col2im, softmax


def linear_layer(name, weight, bias):
    return LayerSpec(name, "linear", {"weight": np.asarray(weight, dtype=np.float64),
                                      "bias": np.asarray(bias, dtype=np.float64)})


def forward(model, x):
    """One input through the batched forward pass: (logits, box or None)."""
    logits, boxes, _ = forward_batch(model, np.asarray(x, dtype=np.float64)[None])
    return logits[0], None if boxes is None else boxes[0]


def head_loss(logits, label, box=None, pred_box=None):
    """loss_and_gradients on one zero-weight linear layer whose bias holds
    the given logits (and predicted box): the loss of exactly those outputs."""
    bias = np.concatenate([logits, [] if pred_box is None else pred_box])
    model = Model([linear_layer("head", np.zeros((bias.size, 1)), bias)],
                  backbone_end=0, class_count=len(logits),
                  has_box_head=pred_box is not None)
    loss, _ = loss_and_gradients(model, np.zeros((1, 1)), [label],
                                 None if box is None else np.asarray(box)[None])
    return loss


def micro_model():
    """Two parameterized layers (conv, linear) for gradient checks."""
    rng = np.random.default_rng(10)
    layers = [
        LayerSpec("conv1", "conv2d",
                  {"weight": rng.normal(scale=0.5, size=(2, 1, 3, 3)),
                   "bias": rng.normal(size=2)}, stride=1, padding=1),
        LayerSpec("flatten", "flatten"),
        LayerSpec("head", "linear",
                  {"weight": rng.normal(scale=0.2, size=(7, 2 * 6 * 6)),
                   "bias": rng.normal(scale=0.1, size=7)}),
    ]
    return Model(layers, backbone_end=1, class_count=3, has_box_head=True)


def test_forward_identity_linear():
    model = Model([linear_layer("head", np.eye(3), np.zeros(3))],
                  backbone_end=0, class_count=3)
    x = np.array([1.5, -2.0, 0.25])
    logits, box = forward(model, x)
    assert np.array_equal(logits, x)
    assert box is None


def test_forward_zero_weights_uniform_softmax():
    model = Model([linear_layer("head", np.zeros((4, 3)), np.zeros(4))],
                  backbone_end=0, class_count=4)
    logits, _ = forward(model, np.array([1.0, 2.0, 3.0]))
    assert np.array_equal(logits, np.zeros(4))
    assert np.allclose(softmax(logits), np.full(4, 0.25), atol=1e-12)


def test_forward_shape_error_names_layer():
    model = Model([linear_layer("head", np.eye(3), np.zeros(3))],
                  backbone_end=0, class_count=3)
    with pytest.raises(ShapeError, match="head"):
        forward(model, np.zeros(5))
    # a batch of the wrong rank: 4-D into a linear layer, 2-D into a conv
    with pytest.raises(ShapeError, match="'head'"):
        forward_batch(model, np.zeros((2, 1, 1, 3)))
    cnn = build_model("micro-cnn", (1, 8, 8), 3, seed=0)
    with pytest.raises(ShapeError, match="'conv1'"):
        forward_batch(cnn, np.zeros((2, 64)))


def test_forward_repeatable_bit_exact():
    model = build_model("micro-cnn", (1, 16, 16), 3, has_box_head=True, seed=0)
    x = np.random.default_rng(0).uniform(size=(1, 16, 16))
    a = forward(model, x)
    b = forward(model, x)
    assert np.array_equal(a[0], b[0])
    assert np.array_equal(a[1], b[1])


def train_golden_model():
    """Seed-0 micro-cnn trained 2 epochs on gen_shapes(0, n=4)."""
    pairing = gen_shapes(0, image_size=16, n=4)
    k = int(pairing.id_train.labels.max()) + 1
    model = build_model("micro-cnn", pairing.id_train.inputs.shape[1:], k,
                        has_box_head=True, seed=0)
    model, curve = train_sgd(model, pairing.id_train,
                             TrainConfig(learning_rate=0.05, epochs=2,
                                         batch_size=8, seed=0))
    return model, curve, forward(model, pairing.id_test.inputs[0])


def test_forward_golden_after_training():
    # Frozen reference values from the seed-0 run below, captured under
    # Python 3.11.7, numpy 2.4.6 / OpenBLAS 0.3.31 with AVX-512, where they
    # reproduce bit for bit at 1 and 2 BLAS threads. The He init draws from
    # numpy's ziggurat normals, so they also depend on numpy's Generator.
    # Reduction order in sums and BLAS matrix products differs between builds
    # and SIMD targets, so another build reproduces them only to within a few
    # ulps: the earlier reference, captured under Python 3.10 on another
    # build, reproduced here to within 20 ulps (3.0e-14 abs, 3.2e-15 rel), at
    # any BLAS thread count. rtol=1e-13 is ~30x that drift, yet a
    # 1e-9 relative change to learning_rate or box_loss_weight moves these
    # outputs by up to 9e-9 relative and fails the test.
    # Do not widen the bound to absorb a deliberate kernel change; such a
    # change needs its own equivalence test. Bitwise repeatability within one
    # build is checked by test_train_sgd_repeatable_bit_exact.
    _, _, (logits, box) = train_golden_model()
    golden_logits = [float.fromhex(h) for h in
                     ("-0x1.58159f295c212p-5", "0x1.379efd72f3003p-5",
                      "0x1.8c94c44fefedap-4")]
    golden_box = [float.fromhex(h) for h in
                  ("0x1.7441711a0a396p-5", "0x1.294c44a81f2d9p-4",
                   "0x1.de028f6cb45cbp-4", "0x1.080471af325a8p-3")]
    np.testing.assert_allclose(logits, golden_logits, rtol=1e-13, atol=0)
    np.testing.assert_allclose(box, golden_box, rtol=1e-13, atol=0)


def test_train_sgd_repeatable_bit_exact():
    # train_sgd promises determinism in cfg.seed: within one build, a rerun
    # must reproduce every parameter, the loss curve and the outputs bit for bit
    m1, c1, (l1, b1) = train_golden_model()
    m2, c2, (l2, b2) = train_golden_model()
    assert np.array_equal(c1, c2)
    for a, b in zip(m1.layers, m2.layers, strict=True):
        assert a.params.keys() == b.params.keys()
        for k in a.params:
            assert np.array_equal(a.params[k], b.params[k]), f"{a.name}.{k}"
    assert np.array_equal(l1, l2)
    assert np.array_equal(b1, b2)


def test_relu_special_values():
    x = np.array([-np.inf, np.nan, -0.0, 0.0, -2.0, 3.0, np.inf])
    out, _ = network.run_layers([LayerSpec("relu", "relu")], x[None])
    out = out[0]
    assert out[0] == 0.0 and not np.signbit(out[0])
    assert np.isnan(out[1])
    assert out[2] == 0.0 and not np.signbit(out[2])
    assert np.array_equal(out[3:], [0.0, 0.0, 3.0, np.inf])


def relu_reference(x, dout):
    """Per-value relu: x where x > 0, +0.0 elsewhere but NaN; the gradient
    passes where x > 0."""
    out = np.array([v if v > 0 or np.isnan(v) else 0.0 for v in x.reshape(-1)])
    dx = np.array([d if v > 0 else 0.0 for v, d in zip(x.reshape(-1), dout.reshape(-1))])
    return out.reshape(x.shape), dx.reshape(x.shape)


def maxpool_reference(x, dout):
    """Per-window max-pool: each 2x2 window's first maximum in row-major
    order (NaN if it holds one), and its gradient at the first corner equal
    to that maximum, or at the last corner when none is."""
    h2, w2 = x.shape[-2] // 2, x.shape[-1] // 2
    out = np.empty(x.shape[:-2] + (h2, w2))
    dx = np.zeros(x.shape)
    for *lead, i, j in np.ndindex(*out.shape):
        corners = [(*lead, 2 * i + k // 2, 2 * j + k % 2) for k in range(4)]
        values = [x[c] for c in corners]
        top = np.nan if np.isnan(values).any() else max(values)
        out[(*lead, i, j)] = top
        k = next((k for k, v in enumerate(values) if v == top), 3)
        dx[corners[k]] = dout[(*lead, i, j)]
    return out, dx


@pytest.mark.parametrize("shape", [(3, 2, 6, 8), (2, 2, 5, 7), (2, 3, 2, 4, 6), (1, 1, 3, 3, 5)],
                         ids=["NCHW", "NCHW-odd", "BTCHW", "BTCHW-odd"])
def test_relu_and_maxpool_match_a_per_value_reference(shape):
    rng = np.random.default_rng(14)
    # few distinct values, so windows tie, signed zeros meet and NaN and
    # infinities turn up
    values = np.array([-np.inf, -1.5, -0.0, 0.0, 0.5, 0.5, 2.0, np.inf, np.nan])
    x = rng.choice(values, size=shape)
    for kind, reference in (("relu", relu_reference), ("maxpool2", maxpool_reference)):
        layer = LayerSpec(kind, kind)
        out, caches = network.run_layers([layer], x, want_caches=True)
        dout = rng.normal(size=out.shape)
        dx, _ = network._BWD[kind](layer, dout, caches[0], True)
        ref_out, ref_dx = reference(x, dout)
        assert np.array_equal(out, ref_out, equal_nan=True), kind
        assert np.array_equal(np.signbit(out), np.signbit(ref_out)), kind
        assert np.array_equal(dx, ref_dx), kind


def test_train_sgd_steps_match_the_per_tensor_formula(tmp_path):
    # two steps of one epoch: momentum first shows in the second
    rng = np.random.default_rng(15)
    data = Split(rng.normal(size=(6, 1, 6, 6)), rng.integers(0, 3, size=6),
                 rng.uniform(0, 3, size=(6, 4)))
    cfg = TrainConfig(learning_rate=0.05, epochs=1, batch_size=3, momentum=0.9,
                      weight_decay=0.1, seed=4, box_loss_weight=0.5)
    expected = build_model("micro-cnn", (1, 6, 6), 3, has_box_head=True, seed=0)
    order = np.argsort(Rng(cfg.seed).split(0).uniforms(6), kind="stable")
    velocity = {}
    for idx in (order[:3], order[3:]):
        _, grads = loss_and_gradients(expected, data.inputs[idx], data.labels[idx],
                                      data.boxes[idx], cfg.box_loss_weight)
        for lname, g in grads.items():
            params = expected.layer(lname).params
            for pname, grad in g.items():
                v = velocity.setdefault((lname, pname), np.zeros_like(grad))
                v *= cfg.momentum
                v += grad
                params[pname] = params[pname] - cfg.learning_rate * v
                if pname == "weight":
                    params[pname] = (params[pname] - cfg.learning_rate * cfg.weight_decay
                                     * params[pname])
    model, _ = train_sgd(build_model("micro-cnn", (1, 6, 6), 3, has_box_head=True, seed=0),
                         data, cfg)
    for got, want in zip(model.layers, expected.layers, strict=True):
        for pname, value in want.params.items():
            assert got.params[pname].shape == value.shape, f"{got.name}.{pname}"
            assert got.params[pname].tobytes() == value.tobytes(), f"{got.name}.{pname}"
    # the formula leaves biases undecayed; decaying them would show
    bias = expected.layer("head").params["bias"]
    assert not np.array_equal(bias - cfg.learning_rate * cfg.weight_decay * bias, bias)
    # the trained tensors save and load like any others
    path = str(tmp_path / "model.blyr")
    save_model(model, path)
    for got, saved in zip(model.layers, load_model(path).layers, strict=True):
        for pname, value in got.params.items():
            assert np.array_equal(value.astype(np.float32), saved.params[pname])


def test_cross_entropy_uniform():
    assert abs(head_loss(np.zeros(10), 3) - math.log(10)) < 1e-12


def test_cross_entropy_target_out_of_range():
    with pytest.raises(IndexError):
        head_loss(np.zeros(4), 4)


def test_smooth_l1_values():
    # a single class carries zero cross-entropy, leaving the box term alone
    exact = np.array([1.0, 2.0, 3.0, 4.0])
    assert head_loss(np.zeros(1), 0, exact, exact) == 0.0
    assert head_loss(np.zeros(1), 0, exact, exact + [0.5, 0, 0, 0]) == 0.125
    assert head_loss(np.zeros(1), 0, exact, exact + [2.0, 0, 0, 0]) == 1.5


def test_softmax_cross_entropy_shift_invariance():
    rng = np.random.default_rng(11)
    f = rng.normal(size=6)
    a = head_loss(f, 2)
    b = head_loss(f + 13.7, 2)
    assert abs(a - b) < 1e-12


def finite_difference_grads(model, x, label, box, step=1e-5):
    fd = {}
    for layer in model.layers:
        for pname, arr in layer.params.items():
            g = np.zeros_like(arr)
            flat = arr.reshape(-1)
            gflat = g.reshape(-1)
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + step
                lp, _ = loss_and_gradients(model, x, label, box)
                flat[i] = orig - step
                lm, _ = loss_and_gradients(model, x, label, box)
                flat[i] = orig
                gflat[i] = (lp - lm) / (2 * step)
            fd.setdefault(layer.name, {})[pname] = g
    return fd


def test_gradients_match_finite_differences():
    model = micro_model()
    rng = np.random.default_rng(12)
    x = rng.normal(size=(2, 1, 6, 6))
    labels = np.array([0, 2])
    boxes = rng.uniform(0, 3, size=(2, 4))
    assert_gradients_match_finite_differences(model, x, labels, boxes)


def assert_gradients_match_finite_differences(model, x, labels, boxes):
    _, grads = loss_and_gradients(model, x, labels, boxes)
    fd = finite_difference_grads(model, x, labels, boxes)
    for lname, tensors in fd.items():
        for pname, want in tensors.items():
            got = grads[lname][pname]
            rel = np.abs(got - want) / np.maximum.reduce(
                [np.abs(got), np.abs(want), np.full_like(want, 1e-4)])
            assert rel.max() <= 1e-4, f"{lname}.{pname}: rel err {rel.max():.2e}"


def test_gradients_match_finite_differences_strided_conv_and_odd_pool():
    # stride 2 without padding turns 11x11 into 5x5, so the pool drops a
    # trailing row and column
    rng = np.random.default_rng(14)
    layers = [
        LayerSpec("conv1", "conv2d",
                  {"weight": rng.normal(scale=0.5, size=(2, 2, 3, 3)),
                   "bias": rng.normal(size=2)}, stride=2, padding=0),
        LayerSpec("pool1", "maxpool2"),
        LayerSpec("flatten", "flatten"),
        LayerSpec("head", "linear",
                  {"weight": rng.normal(scale=0.2, size=(7, 2 * 2 * 2)),
                   "bias": rng.normal(scale=0.1, size=7)}),
    ]
    model = Model(layers, backbone_end=3, class_count=3, has_box_head=True)
    x = rng.normal(size=(2, 2, 11, 11))
    assert_gradients_match_finite_differences(
        model, x, np.array([1, 2]), rng.uniform(0, 3, size=(2, 4)))


def test_backward_skips_the_first_learnable_layers_input_gradient(monkeypatch):
    # micro-cnn has two convs: conv2's input gradient feeds conv1's weight
    # gradient, while conv1's input gradient has no reader
    calls = []

    def counting_col2im(dcols, x_shape, *args):
        calls.append(x_shape)
        return col2im(dcols, x_shape, *args)

    monkeypatch.setattr(network, "col2im", counting_col2im)
    model = build_model("micro-cnn", (1, 28, 28), 3, has_box_head=True, seed=0)
    x = np.random.default_rng(16).normal(size=(2, 1, 28, 28))
    _, grads = loss_and_gradients(model, x, [0, 1], np.zeros((2, 4)))
    assert calls == [(2, 8, 14, 14)]  # conv2's input only
    assert set(grads) == {"conv1", "conv2", "fc1", "head"}


def test_max_pool_gradient_goes_to_first_maximum():
    # A 1x1 conv over one-hot position channels makes its weight the pool's
    # 4x4 input, so the weight gradient is the gradient the pool routes back.
    # Windows in row-major order (0,0),(0,1),(1,0),(1,1) hold 2, 3, 4 and 2
    # equal maxima.
    windows = [[1.0, 5.0, 5.0, 2.0], [3.0, 7.0, 7.0, 7.0],
               [4.0, 4.0, 4.0, 4.0], [0.0, 2.0, 9.0, 9.0]]
    first_max = [1, 1, 0, 2]
    image = np.zeros((4, 4))
    for wi, values in enumerate(windows):
        r, c = 2 * (wi // 2), 2 * (wi % 2)
        image[r:r + 2, c:c + 2] = np.reshape(values, (2, 2))
    rng = np.random.default_rng(15)
    layers = [
        LayerSpec("pick", "conv2d", {"weight": image.reshape(1, 16, 1, 1),
                                     "bias": np.zeros(1)}),
        LayerSpec("pool", "maxpool2"),
        LayerSpec("flatten", "flatten"),
        LayerSpec("head", "linear", {"weight": rng.normal(size=(3, 4)),
                                     "bias": np.zeros(3)}),
    ]
    model = Model(layers, backbone_end=3, class_count=3)
    x = np.eye(16).reshape(1, 16, 4, 4)
    logits, _, _ = forward_batch(model, x)
    _, grads = loss_and_gradients(model, x, [0])
    routed = grads["pick"]["weight"].reshape(4, 4)
    got = []
    for wi, k in enumerate(first_max):
        r, c = 2 * (wi // 2), 2 * (wi % 2)
        window = routed[r:r + 2, c:c + 2].reshape(4)
        assert np.all(np.delete(window, k) == 0.0), (wi, window)
        got.append(window[k])
    # the first maximum receives the whole gradient the head sends back
    want = layers[3].params["weight"].T @ (softmax(logits[0]) - np.eye(3)[0])
    assert np.all(want != 0.0)
    assert np.allclose(got, want, rtol=1e-12, atol=0)


def test_zero_learning_signal_zero_gradient():
    # huge logit margin makes the softmax exactly one-hot in float64; the
    # box target equals the prediction, so nothing pushes back
    model = Model([linear_layer("head", np.zeros((6, 3)),
                                [100.0, -100.0, 0.0, 0.0, 0.0, 0.0])],
                  backbone_end=0, class_count=2, has_box_head=True)
    _, grads = loss_and_gradients(model, np.zeros((1, 3)), [0], np.zeros((1, 4)))
    norm = math.sqrt(sum(float(np.sum(g * g))
                         for t in grads.values() for g in t.values()))
    assert norm <= 1e-9


def test_gradient_linearity_in_box_loss_weight():
    model = micro_model()
    rng = np.random.default_rng(13)
    x = rng.normal(size=(1, 1, 6, 6))
    labels = np.array([1])
    boxes = rng.uniform(0, 3, size=(1, 4))
    grads = {}
    for lam in (0.0, 1.0, 2.0):
        _, g = loss_and_gradients(model, x, labels, boxes, box_loss_weight=lam)
        grads[lam] = g
    for lname in grads[0.0]:
        for pname in grads[0.0][lname]:
            lo = grads[1.0][lname][pname] - grads[0.0][lname][pname]
            hi = grads[2.0][lname][pname] - grads[1.0][lname][pname]
            assert np.allclose(lo, hi, rtol=1e-12, atol=1e-12)


def test_train_sgd_separable_blobs():
    pairing = gen_blobs(0, k=3, n_per_class=50, dim=2)
    model = build_model("micro-mlp", (2,), 3, seed=0)
    model, curve = train_sgd(model, pairing.id_train,
                             TrainConfig(learning_rate=0.05, epochs=50,
                                         batch_size=32, momentum=0.9, seed=0))
    logits, _, _ = forward_batch(model, pairing.id_train.inputs)
    accuracy = float(np.mean(np.argmax(logits, axis=1) == pairing.id_train.labels))
    assert accuracy >= 0.95
    assert len(curve) == 50


def test_train_sgd_zero_learning_rate_leaves_params():
    pairing = gen_blobs(1, k=3, n_per_class=10, dim=2)
    model = build_model("micro-mlp", (2,), 3, seed=1)
    before = {l.name: {k: v.copy() for k, v in l.params.items()}
              for l in model.layers}
    train_sgd(model, pairing.id_train,
              TrainConfig(learning_rate=0.0, epochs=3, batch_size=8, seed=0))
    for layer in model.layers:
        for k, v in layer.params.items():
            assert np.array_equal(v, before[layer.name][k])


def test_train_sgd_deterministic():
    pairing = gen_blobs(2, k=3, n_per_class=20, dim=2)
    results = []
    for _ in range(2):
        model = build_model("micro-mlp", (2,), 3, seed=5)
        model, curve = train_sgd(model, pairing.id_train,
                                 TrainConfig(learning_rate=0.05, epochs=5,
                                             batch_size=16, momentum=0.9, seed=5))
        results.append((model, curve))
    (m1, c1), (m2, c2) = results
    assert c1 == c2
    for l1, l2 in zip(m1.layers, m2.layers):
        for k in l1.params:
            assert np.array_equal(l1.params[k], l2.params[k])


@pytest.mark.filterwarnings("ignore:overflow")
def test_train_sgd_divergence_raises():
    pairing = gen_blobs(3, k=3, n_per_class=20, dim=2)
    model = build_model("micro-mlp", (2,), 3, seed=0)
    with pytest.raises(TrainingDivergedError):
        train_sgd(model, pairing.id_train,
                  TrainConfig(learning_rate=1e12, epochs=10, batch_size=16, seed=0))


def test_train_sgd_rejects_ood_samples():
    model = build_model("micro-mlp", (2,), 2, seed=0)
    data = Split(np.zeros((1, 2)), [0], tag="ood")
    with pytest.raises(ValueError, match="OOD"):
        train_sgd(model, data, TrainConfig(learning_rate=0.1, epochs=1))


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(learning_rate=-0.1, epochs=1)
    with pytest.raises(ValueError):
        TrainConfig(learning_rate=0.1, epochs=1, momentum=1.0)
    with pytest.raises(ValueError):
        TrainConfig(learning_rate=0.1, epochs=1, weight_decay=-1)
    with pytest.raises(ValueError):
        TrainConfig(learning_rate=0.1, epochs=0)


def test_save_load_round_trip(tmp_path):
    model = build_model("micro-cnn", (1, 16, 16), 3, has_box_head=True, seed=7)
    p1 = tmp_path / "m1.blyr"
    p2 = tmp_path / "m2.blyr"
    save_model(model, str(p1))
    loaded = load_model(str(p1))
    save_model(loaded, str(p2))
    assert p1.read_bytes() == p2.read_bytes()
    assert loaded.class_count == model.class_count
    assert loaded.has_box_head == model.has_box_head
    assert loaded.backbone_end == model.backbone_end
    for a, b in zip(model.layers, loaded.layers):
        assert a.name == b.name and a.kind == b.kind
        assert a.stride == b.stride and a.padding == b.padding
        for k in a.params:
            assert np.array_equal(a.params[k].astype(np.float32), b.params[k])


def test_load_rejects_bad_magic(tmp_path):
    p = tmp_path / "bad.blyr"
    model = build_model("micro-mlp", (2,), 2, seed=0)
    save_model(model, str(p))
    data = bytearray(p.read_bytes())
    data[:4] = b"XXXX"
    p.write_bytes(bytes(data))
    with pytest.raises(PersistenceError, match="bad magic"):
        load_model(str(p))


def test_load_rejects_version_mismatch(tmp_path):
    p = tmp_path / "v9.blyr"
    model = build_model("micro-mlp", (2,), 2, seed=0)
    save_model(model, str(p))
    data = bytearray(p.read_bytes())
    data[4:8] = (9).to_bytes(4, "little")
    p.write_bytes(bytes(data))
    with pytest.raises(PersistenceError, match="version mismatch"):
        load_model(str(p))


def test_load_rejects_truncation(tmp_path):
    p = tmp_path / "trunc.blyr"
    model = build_model("micro-mlp", (2,), 2, seed=0)
    save_model(model, str(p))
    p.write_bytes(p.read_bytes()[:-10])
    with pytest.raises(PersistenceError, match="truncated"):
        load_model(str(p))


def test_load_rejects_duplicate_layer_names(tmp_path):
    p = tmp_path / "dup.blyr"
    # bypass the Model constructor (which also rejects duplicates) by
    # serializing two relu layers and renaming the second in the bytes
    model = Model([LayerSpec("r1", "relu"), LayerSpec("r2", "relu")],
                  backbone_end=0, class_count=2)
    save_model(model, str(p))
    data = p.read_bytes().replace(b"r2", b"r1")
    p.write_bytes(data)
    with pytest.raises(PersistenceError, match="duplicate"):
        load_model(str(p))


def write_relu_model(path, kind_code):
    """Save a one-layer relu model with its kind byte set to kind_code."""
    save_model(Model([LayerSpec("r1", "relu")], backbone_end=0, class_count=2), str(path))
    data = bytearray(path.read_bytes())
    data[data.index(b"r1") + 2] = kind_code
    path.write_bytes(bytes(data))


@pytest.mark.parametrize("code", [2, 9], ids=["retired", "never-used"])
def test_load_rejects_unknown_kind_code(tmp_path, code):
    p = tmp_path / "kind.blyr"
    write_relu_model(p, code)
    with pytest.raises(PersistenceError, match=f"unknown layer kind code {code}"):
        load_model(str(p))


def test_empty_model_round_trip(tmp_path):
    p = tmp_path / "empty.blyr"
    save_model(Model([], backbone_end=0, class_count=2), str(p))
    loaded = load_model(str(p))
    assert loaded.layers == []
    with pytest.raises(ShapeError):
        forward(loaded, np.zeros(2))
