import math

import numpy as np
import pytest
from scipy import stats

from bayeslayers import network
from bayeslayers.bayes import GaussianLayerPosterior, sample_layer_weights
from bayeslayers.network import LayerSpec, Model, forward_batch
from bayeslayers.numerics import Rng, ShapeError, log_sum_exp, softmax


def run_layers(layers, x, width):
    """Outputs of a headless model built from `layers` on the batch x,
    through the production forward pass."""
    logits, _, _ = forward_batch(Model(layers, backbone_end=0, class_count=width), x)
    return logits


def matmul(a, b):
    """a @ b as a one-layer linear model with zero bias."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    fc = LayerSpec("fc", "linear", {"weight": b.T, "bias": np.zeros(b.shape[1])})
    return run_layers([fc], a, b.shape[1])


def conv2d(x, kernels, stride=1, padding=0):
    """Cross-correlation of one (C, H, W) image as a conv + flatten model
    with zero bias, reshaped back to (F, H_out, W_out)."""
    f, _, kh, kw = kernels.shape
    ho = (x.shape[1] + 2 * padding - kh) // stride + 1
    wo = (x.shape[2] + 2 * padding - kw) // stride + 1
    conv = LayerSpec("conv", "conv2d", {"weight": kernels, "bias": np.zeros(f)},
                     stride=stride, padding=padding)
    out = run_layers([conv, LayerSpec("flatten", "flatten")], x[None],
                     max(f * ho * wo, 1))
    return out[0].reshape(f, ho, wo)


def max_pool2(x):
    """2x2 pooling of one (C, H, W) image as a pool + flatten model."""
    c, h, w = x.shape
    layers = [LayerSpec("pool", "maxpool2"), LayerSpec("flatten", "flatten")]
    return run_layers(layers, x[None], c * (h // 2) * (w // 2))[0].reshape(c, h // 2, w // 2)


def matmul_oracle(a, b):
    m, k = a.shape
    k2, n = b.shape
    out = np.zeros((m, n))
    for i in range(m):
        for j in range(n):
            acc = 0.0
            for p in range(k):
                acc += a[i, p] * b[p, j]
            out[i, j] = acc
    return out


def conv2d_oracle(x, kernels, stride, padding):
    c, h, w = x.shape
    f, _, kh, kw = kernels.shape
    xp = np.pad(x, ((0, 0), (padding, padding), (padding, padding)))
    ho = (h + 2 * padding - kh) // stride + 1
    wo = (w + 2 * padding - kw) // stride + 1
    out = np.zeros((f, ho, wo))
    for fi in range(f):
        for i in range(ho):
            for j in range(wo):
                acc = 0.0
                for ci in range(c):
                    for a in range(kh):
                        for b in range(kw):
                            acc += xp[ci, i * stride + a, j * stride + b] * kernels[fi, ci, a, b]
                out[fi, i, j] = acc
    return out


def test_matmul_hand():
    got = matmul([[1, 2], [3, 4]], [[5, 6], [7, 8]])
    assert np.array_equal(got, [[19, 22], [43, 50]])


def test_matmul_identity():
    rng = np.random.default_rng(0)
    a = rng.normal(size=(4, 4))
    assert np.array_equal(matmul(a, np.eye(4)), a)


def test_matmul_shape_error():
    with pytest.raises(ShapeError):
        matmul(np.zeros((2, 3)), np.zeros((2, 3)))


def test_matmul_random_vs_oracle():
    rng = np.random.default_rng(1)
    for _ in range(100):
        m, k, n = rng.integers(1, 8, size=3)
        a = rng.normal(size=(m, k))
        b = rng.normal(size=(k, n))
        got = matmul(a, b)
        want = matmul_oracle(a, b)
        assert np.allclose(got, want, rtol=1e-12, atol=1e-12)


def test_conv2d_hand():
    x = np.ones((1, 3, 3))
    k = np.ones((1, 1, 2, 2))
    got = conv2d(x, k, stride=1, padding=0)
    assert got.shape == (1, 2, 2)
    assert np.array_equal(got, np.full((1, 2, 2), 4.0))


def test_conv2d_1x1_identity():
    rng = np.random.default_rng(2)
    x = rng.normal(size=(1, 5, 5))
    k = np.ones((1, 1, 1, 1))
    assert np.allclose(conv2d(x, k), x, rtol=0, atol=0)


def test_conv2d_kernel_too_large():
    with pytest.raises(ShapeError):
        conv2d(np.zeros((1, 3, 3)), np.zeros((1, 1, 5, 5)))


def test_conv2d_random_vs_oracle():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(2, 8, 8))
    k = rng.normal(size=(3, 2, 3, 3))
    got = conv2d(x, k, stride=1, padding=0)
    want = conv2d_oracle(x, k, 1, 0)
    assert np.allclose(got, want, rtol=1e-12, atol=1e-12)


def test_conv2d_random_instances_vs_oracle():
    rng = np.random.default_rng(4)
    for _ in range(100):
        c = int(rng.integers(1, 3))
        f = int(rng.integers(1, 4))
        h = int(rng.integers(3, 8))
        w = int(rng.integers(3, 8))
        kh = int(rng.integers(1, 4))
        kw = int(rng.integers(1, 4))
        stride = int(rng.integers(1, 3))
        padding = int(rng.integers(0, 2))
        x = rng.normal(size=(c, h, w))
        k = rng.normal(size=(f, c, kh, kw))
        got = conv2d(x, k, stride=stride, padding=padding)
        want = conv2d_oracle(x, k, stride, padding)
        assert np.allclose(got, want, rtol=1e-12, atol=1e-12)


def test_relu():
    got = run_layers([LayerSpec("relu", "relu")], np.array([[-1.0, 2.0]]), 2)
    assert np.array_equal(got[0], [0.0, 2.0])


def test_max_pool2_constant():
    got = max_pool2(np.full((2, 4, 6), 3.5))
    assert got.shape == (2, 2, 3)
    assert np.all(got == 3.5)


def test_max_pool2_odd_extents_floor():
    x = np.arange(25, dtype=np.float64).reshape(1, 5, 5)
    got = max_pool2(x)
    assert got.shape == (1, 2, 2)
    # trailing odd row/column dropped
    assert got[0, 0, 0] == 6.0
    assert got[0, 1, 1] == 18.0


def test_flatten_preserves_count():
    x = np.zeros((3, 4, 5))
    assert run_layers([LayerSpec("flatten", "flatten")], x[None], 60)[0].shape == (60,)
    # eval's rows (B, T', C, H, W) merge the image; flat rows pass through
    for shape, want in [((2, 3, 3, 4, 5), (2, 3, 60)), ((7, 60), (7, 60)),
                        ((2, 3, 60), (2, 3, 60))]:
        x = np.arange(np.prod(shape), dtype=np.float64).reshape(shape)
        out, _ = network.run_layers([LayerSpec("flatten", "flatten")], x)
        assert out.shape == want and out.tobytes() == x.tobytes()


def test_log_sum_exp_zeros():
    assert abs(log_sum_exp(np.zeros(10)) - math.log(10)) < 1e-12


def test_log_sum_exp_large():
    assert abs(log_sum_exp(np.array([1000.0, 1000.0])) - (1000 + math.log(2))) < 1e-9


def test_log_sum_exp_vs_naive():
    rng = np.random.default_rng(5)
    for _ in range(50):
        v = rng.normal(size=6)
        naive = math.log(np.sum(np.exp(v)))
        assert abs(log_sum_exp(v) - naive) < 1e-12


def test_log_sum_exp_bounds():
    rng = np.random.default_rng(6)
    for _ in range(50):
        v = rng.normal(scale=10, size=int(rng.integers(1, 9)))
        lse = log_sum_exp(v)
        assert lse >= np.max(v) - 1e-12
        assert lse <= np.max(v) + math.log(v.size) + 1e-12


def test_log_sum_exp_empty():
    with pytest.raises(ShapeError):
        log_sum_exp(np.array([]))


def test_softmax_uniform():
    assert np.allclose(softmax(np.zeros(2)), [0.5, 0.5], atol=1e-12)


def test_softmax_shift_invariance():
    rng = np.random.default_rng(7)
    v = rng.normal(size=5)
    assert np.allclose(softmax(v), softmax(v + 17.25), rtol=0, atol=1e-12)


def test_softmax_hand():
    got = softmax(np.log([1.0, 2.0, 3.0]))
    assert np.allclose(got, [1 / 6, 2 / 6, 3 / 6], atol=1e-12)


def test_softmax_is_probability_vector():
    rng = np.random.default_rng(8)
    for _ in range(50):
        p = softmax(rng.normal(scale=50, size=int(rng.integers(1, 10))))
        assert np.all(p >= 0)
        assert abs(p.sum() - 1.0) < 1e-9


def test_gauss_sample_statistics():
    draws = Rng(11).normals(10 ** 6)
    assert abs(draws.mean()) < 0.01
    assert abs(draws.var() - 1.0) < 0.02


def test_gauss_sample_degenerate_width():
    post = GaussianLayerPosterior("w", np.array([5.0]), 1e-12, 0.0)
    assert abs(sample_layer_weights(post, Rng(0))[0] - 5.0) < 1e-9


def test_gauss_sample_rejects_bad_sigma():
    with pytest.raises(ValueError, match="sigma"):
        GaussianLayerPosterior("w", np.array([0.0]), 0.0, 0.0)
    with pytest.raises(ValueError, match="sigma"):
        GaussianLayerPosterior("w", np.array([0.0]), -1.0, 0.0)


NORMAL_DRAWS = 10 ** 5


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_rng_normals_follow_standard_normal(seed):
    # normals come from numpy's ziggurat, so no bits are pinned: the stream is
    # held to its law, its tails and the independence of split children
    z = Rng(seed).normals(NORMAL_DRAWS)
    assert stats.kstest(z, "norm").pvalue > 1e-3
    for cut in (3.0, 4.0):
        lo, hi = stats.binom.interval(1 - 1e-4, NORMAL_DRAWS, 2 * stats.norm.sf(cut))
        assert lo <= np.count_nonzero(np.abs(z) > cut) <= hi, cut
    a, b = (Rng(seed).split(i).normals(NORMAL_DRAWS) for i in (0, 1))
    assert abs(np.corrcoef(a, b)[0, 1]) < 4 / np.sqrt(NORMAL_DRAWS)


def test_rng_uniforms_pinned():
    # the shapes data and the training shuffles are built from these bits
    want = ["0x1.2365b42b79a16p-2", "0x1.81ba936fca51cp-3",
            "0x1.a5332ec28bc2dp-1", "0x1.a3bb522e87fa3p-1"]
    assert [float(u).hex() for u in Rng(42).split(3).uniforms(4)] == want


def test_rng_determinism():
    a = Rng(42).uniforms(100)
    b = Rng(42).uniforms(100)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, Rng(43).uniforms(100))


def test_rng_uniforms_in_half_open_interval():
    u = Rng(9).uniforms(10 ** 5)
    assert np.all(u > 0)
    assert np.all(u <= 1)


def test_rng_split_independent_of_consumption():
    parent = Rng(7)
    child_before = parent.split(3).uniforms(8)
    parent.uniforms(1000)  # consume parent state
    child_after = parent.split(3).uniforms(8)
    assert np.array_equal(child_before, child_after)


def test_rng_split_order_independence():
    a = Rng(7)
    b = Rng(7)
    a3 = a.split(3).uniforms(4)
    a5 = a.split(5).uniforms(4)
    b5 = b.split(5).uniforms(4)
    b3 = b.split(3).uniforms(4)
    assert np.array_equal(a3, b3)
    assert np.array_equal(a5, b5)
    assert not np.array_equal(a3, a5)


def test_rng_nested_split_matches_path():
    assert np.array_equal(Rng(1).split(2).split(3).uniforms(4),
                          Rng(1).split(2, 3).uniforms(4))
