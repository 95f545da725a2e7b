"""Deterministic tensor arithmetic and random number generation.

All in-memory arithmetic is float64. Layer operations live in `network`:
`split_outputs` raises on a non-finite model output and
`loss_and_gradients` on a non-finite loss, instead of propagating NaN/Inf
silently.
"""

import numpy as np
from numpy.random import Generator, Philox

__all__ = [
    "NumericsError",
    "ShapeError",
    "Rng",
    "log_sum_exp",
    "softmax",
    "im2col",
    "col2im",
]


class NumericsError(ValueError):
    """Numeric contract violation: a non-finite forward output or loss."""


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

    A numpy `Generator` over a counter-based Philox stream (256-bit
    counter), keyed by a SplitMix-style expansion of a 64-bit seed plus the
    split path. Child generators derived with ``split(*indices)`` depend
    only on (seed, indices), never on how much of the parent stream has been
    consumed, so parallel schedules cannot change any draw.
    """

    def __init__(self, seed: int, _path: tuple = ()):
        self.seed = int(seed) & _MASK64
        self._path = tuple(int(i) & _MASK64 for i in _path)
        h = _mix64(self.seed)
        for w in self._path:
            h = _mix64((h + _GOLDEN + _mix64(w)) & _MASK64)
        key = h | (_mix64((h + _GOLDEN) & _MASK64) << 64)
        self._gen = Generator(Philox(key=key))

    def split(self, *indices: int) -> "Rng":
        """Child generator at the given stream indices, independent of this
        generator's consumption state."""
        return Rng(self.seed, self._path + tuple(indices))

    def uniforms(self, n: int) -> np.ndarray:
        """n doubles uniform on (0, 1]: the top 53 bits of each raw 64-bit
        word, plus one, times 2**-53."""
        return self._gen.random(n) + 2.0 ** -53

    def normals(self, n: int) -> np.ndarray:
        """n standard-normal draws from numpy's ziggurat sampler. It reads a
        varying number of raw words per draw, so a stream should serve
        either normals or uniforms, not both."""
        return self._gen.standard_normal(n)


def im2col(x: np.ndarray, kh: int, kw: int, stride: int, padding: int) -> np.ndarray:
    """Patch matrix of a batched image tensor.

    x: (N, C, H, W) -> (N, C*kh*kw, L) where L = H_out * W_out.
    """
    n, c, h, w = x.shape
    hp, wp = h + 2 * padding, w + 2 * padding
    if padding:
        # np.pad's per-call overhead exceeds the whole patch copy on
        # micro-cnn sized images
        xp = np.zeros((n, c, hp, wp), dtype=x.dtype)
        xp[:, :, padding:padding + h, padding:padding + w] = x
        x = xp
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
