"""Deterministic tensor arithmetic and random number generation.

All in-memory arithmetic is float64; every operation raises on non-finite
results instead of propagating NaN/Inf silently.
"""

import numpy as np
from numpy.random import Philox

__all__ = [
    "NumericsError",
    "ShapeError",
    "Rng",
    "matmul",
    "conv2d",
    "relu",
    "max_pool2",
    "flatten",
    "log_sum_exp",
    "softmax",
    "gauss_sample",
    "im2col",
    "col2im",
]


class NumericsError(ValueError):
    """Numeric contract violation (non-finite result, bad parameter)."""


class ShapeError(NumericsError):
    """Operand shapes are incompatible."""


_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _mix64(z: int) -> int:
    """SplitMix64 finalizer: 64-bit avalanche mix."""
    z &= _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


class Rng:
    """Deterministic, splittable random generator.

    A counter-based Philox stream (256-bit counter) keyed by a SplitMix-style
    expansion of a 64-bit seed plus the split path. Child generators derived
    with ``split(*indices)`` depend only on (seed, indices), never on how much
    of the parent stream has been consumed, so parallel schedules cannot
    change any draw.
    """

    def __init__(self, seed: int, _path: tuple = ()):
        self.seed = int(seed) & _MASK64
        self._path = tuple(int(i) & _MASK64 for i in _path)
        h = _mix64(self.seed)
        for w in self._path:
            h = _mix64((h + _GOLDEN + _mix64(w)) & _MASK64)
        key = h | (_mix64((h + _GOLDEN) & _MASK64) << 64)
        self._bitgen = Philox(key=key)

    def split(self, *indices: int) -> "Rng":
        """Child generator at the given stream indices, independent of this
        generator's consumption state."""
        return Rng(self.seed, self._path + tuple(indices))

    def uniforms(self, n: int) -> np.ndarray:
        """n doubles uniform on (0, 1]."""
        raw = self._bitgen.random_raw(n)
        return ((raw >> np.uint64(11)).astype(np.float64) + 1.0) * (2.0 ** -53)

    def normals(self, n: int) -> np.ndarray:
        """n standard-normal draws via Box-Muller (cosine branch only, so
        every draw consumes exactly two uniforms)."""
        u = self.uniforms(2 * n)
        r = np.sqrt(-2.0 * np.log(u[0::2]))
        return r * np.cos(2.0 * np.pi * u[1::2])


def gauss_sample(rng: Rng, mean: float, sigma: float) -> float:
    """One draw from N(mean, sigma^2) on the generator's stream."""
    if sigma <= 0:
        raise NumericsError(f"sigma must be positive, got {sigma}")
    return float(mean + sigma * rng.normals(1)[0])


def _check_finite(out: np.ndarray, op: str) -> np.ndarray:
    if not np.all(np.isfinite(out)):
        raise NumericsError(f"{op} produced non-finite values")
    return out


def matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix product with 64-bit accumulation."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.ndim != 2 or b.ndim != 2:
        raise ShapeError(f"matmul needs 2-D operands, got {a.shape} and {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"inner extents differ: {a.shape} vs {b.shape}")
    return _check_finite(a @ b, "matmul")


def im2col(x: np.ndarray, kh: int, kw: int, stride: int, padding: int) -> np.ndarray:
    """Patch matrix of a batched image tensor.

    x: (N, C, H, W) -> (N, C*kh*kw, L) where L = H_out * W_out.
    """
    n, c, h, w = x.shape
    if padding:
        x = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    hp, wp = h + 2 * padding, w + 2 * padding
    ho = (hp - kh) // stride + 1
    wo = (wp - kw) // stride + 1
    if ho < 1 or wo < 1:
        raise ShapeError(f"kernel {kh}x{kw} larger than padded input {hp}x{wp}")
    s0, s1, s2, s3 = x.strides
    windows = np.lib.stride_tricks.as_strided(
        x,
        shape=(n, c, ho, wo, kh, kw),
        strides=(s0, s1, s2 * stride, s3 * stride, s2, s3),
        writeable=False,
    )
    return windows.transpose(0, 1, 4, 5, 2, 3).reshape(n, c * kh * kw, ho * wo)


def col2im(cols: np.ndarray, x_shape: tuple, kh: int, kw: int,
           stride: int, padding: int) -> np.ndarray:
    """Adjoint of im2col: scatter-add patch columns back into image shape."""
    n, c, h, w = x_shape
    hp, wp = h + 2 * padding, w + 2 * padding
    ho = (hp - kh) // stride + 1
    wo = (wp - kw) // stride + 1
    out = np.zeros((n, c, hp, wp), dtype=np.float64)
    cols = cols.reshape(n, c, kh, kw, ho, wo)
    for i in range(kh):
        for j in range(kw):
            out[:, :, i:i + stride * ho:stride, j:j + stride * wo:stride] += cols[:, :, i, j]
    if padding:
        out = out[:, :, padding:hp - padding, padding:wp - padding]
    return out


def conv2d(x: np.ndarray, kernels: np.ndarray, stride: int = 1,
           padding: int = 0) -> np.ndarray:
    """2-D cross-correlation (no kernel flip).

    x: (C, H, W), kernels: (F, C, kh, kw) -> (F, H_out, W_out) with
    H_out = floor((H + 2p - kh) / stride) + 1, likewise W_out.
    """
    x = np.asarray(x, dtype=np.float64)
    kernels = np.asarray(kernels, dtype=np.float64)
    if x.ndim != 3 or kernels.ndim != 4:
        raise ShapeError(f"conv2d expects (C,H,W) and (F,C,kh,kw), got {x.shape}, {kernels.shape}")
    if x.shape[0] != kernels.shape[1]:
        raise ShapeError(f"channel mismatch: input {x.shape[0]} vs kernel {kernels.shape[1]}")
    f, c, kh, kw = kernels.shape
    cols = im2col(x[None], kh, kw, stride, padding)  # (1, C*kh*kw, L)
    out = kernels.reshape(f, -1) @ cols[0]
    h_out = (x.shape[1] + 2 * padding - kh) // stride + 1
    w_out = (x.shape[2] + 2 * padding - kw) // stride + 1
    return _check_finite(out.reshape(f, h_out, w_out), "conv2d")


def relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(np.asarray(x, dtype=np.float64), 0.0)


def max_pool2(x: np.ndarray) -> np.ndarray:
    """2x2 max pooling with stride 2 on (C, H, W); odd trailing rows/columns
    are dropped (floor semantics)."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 3:
        raise ShapeError(f"max_pool2 expects (C,H,W), got {x.shape}")
    c, h, w = x.shape
    h2, w2 = h // 2, w // 2
    x = x[:, :2 * h2, :2 * w2]
    return x.reshape(c, h2, 2, w2, 2).max(axis=(2, 4))


def flatten(x: np.ndarray) -> np.ndarray:
    """Row-major collapse to a vector; element count preserved."""
    return np.asarray(x, dtype=np.float64).reshape(-1)


def log_sum_exp(v: np.ndarray):
    """log(sum(exp(v))) over the last axis via max subtraction; finite for
    any finite input. A float for a vector, an array for a stack of them."""
    v = np.atleast_1d(np.asarray(v, dtype=np.float64))
    if v.shape[-1] == 0:
        raise ShapeError("log_sum_exp of an empty vector")
    m = v.max(axis=-1)
    return (m + np.log(np.sum(np.exp(v - m[..., None]), axis=-1)))[()]


def softmax(v: np.ndarray) -> np.ndarray:
    """Probability vectors exp(v - lse(v)) over the last axis; entries in
    [0,1], each vector sums to 1."""
    v = np.atleast_1d(np.asarray(v, dtype=np.float64))
    if v.shape[-1] == 0:
        raise ShapeError("softmax of an empty vector")
    e = np.exp(v - v.max(axis=-1, keepdims=True))
    return e / np.sum(e, axis=-1, keepdims=True)
