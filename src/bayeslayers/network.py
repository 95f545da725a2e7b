"""Layer definitions, two-headed forward pass, SGD training, persistence.

Models are plain sequential layer lists. The final layer emits K class
logits, plus 4 box coordinates appended when the model has a box head;
`backbone_end` partitions the list into backbone and head for the layer
selection policies.
"""

import struct
from dataclasses import dataclass, field

import numpy as np

from .numerics import NumericsError, ShapeError, Rng, im2col, col2im

__all__ = [
    "LayerSpec",
    "Model",
    "TrainConfig",
    "PersistenceError",
    "TrainingDivergedError",
    "LAYER_KINDS",
    "PARAM_ORDER",
    "LEARNABLE",
    "forward_batch",
    "loss_and_gradients",
    "train_sgd",
    "save_model",
    "load_model",
    "build_model",
    "PRESETS",
]

LAYER_KINDS = {"conv2d": 0, "linear": 1, "batchnorm": 2, "relu": 3,
               "maxpool2": 4, "flatten": 5}
_KIND_BY_CODE = {v: k for k, v in LAYER_KINDS.items()}

# Persistence / iteration order of each layer's tensors.
PARAM_ORDER = {
    "conv2d": ("weight", "bias"),
    "linear": ("weight", "bias"),
    "batchnorm": ("scale", "shift", "running_mean", "running_var"),
    "relu": (),
    "maxpool2": (),
    "flatten": (),
}

# Tensors updated by SGD (running stats are not gradient-trained).
LEARNABLE = {
    "conv2d": ("weight", "bias"),
    "linear": ("weight", "bias"),
    "batchnorm": ("scale", "shift"),
    "relu": (),
    "maxpool2": (),
    "flatten": (),
}

# Rank of each kind's first learnable tensor in a plain layer; sampled layers
# carry one more, a leading draw axis.
_WEIGHT_RANK = {"conv2d": 4, "linear": 2, "batchnorm": 1}

_BN_EPS = 1e-5
_BN_MOMENTUM = 0.9


class PersistenceError(ValueError):
    """Malformed or inconsistent model container file."""


class TrainingDivergedError(RuntimeError):
    """Training loss became non-finite."""


@dataclass
class LayerSpec:
    name: str
    kind: str
    params: dict = field(default_factory=dict)
    stride: int = 1
    padding: int = 0

    def __post_init__(self):
        if self.kind not in LAYER_KINDS:
            raise ValueError(f"unknown layer kind {self.kind!r}")
        for key in self.params:
            if key not in PARAM_ORDER[self.kind]:
                raise ValueError(f"layer {self.name!r}: unexpected tensor {key!r}")
        if self.kind == "batchnorm" and "running_var" in self.params:
            if np.any(np.asarray(self.params["running_var"]) <= 0):
                raise ValueError(f"layer {self.name!r}: running variance must be positive")

    @property
    def draws(self) -> int:
        """Length of the leading draw axis of sampled weights (one weight
        set per Monte-Carlo draw on every learnable tensor), 0 if none."""
        learnable = LEARNABLE[self.kind]
        if not learnable:
            return 0
        w = self.params.get(learnable[0])
        return w.shape[0] if np.ndim(w) > _WEIGHT_RANK[self.kind] else 0


@dataclass
class Model:
    layers: list
    backbone_end: int
    class_count: int
    has_box_head: bool = False

    def __post_init__(self):
        if not 0 <= self.backbone_end <= len(self.layers):
            raise ValueError("backbone_end out of range")
        names = [l.name for l in self.layers]
        if len(set(names)) != len(names):
            raise ValueError("duplicate layer names")
        if self.class_count < 1:
            raise ValueError("class_count must be positive")

    def layer(self, name: str) -> LayerSpec:
        for l in self.layers:
            if l.name == name:
                return l
        raise ValueError(f"no layer named {name!r}")

    @property
    def head_width(self) -> int:
        return self.class_count + (4 if self.has_box_head else 0)


@dataclass
class TrainConfig:
    learning_rate: float
    epochs: int
    batch_size: int = 32
    momentum: float = 0.0
    weight_decay: float = 0.0
    seed: int = 0
    box_loss_weight: float = 1.0

    def __post_init__(self):
        if self.learning_rate < 0:
            raise ValueError("learning_rate must be non-negative")
        if not 0 <= self.momentum < 1:
            raise ValueError("momentum must be in [0, 1)")
        if self.weight_decay < 0:
            raise ValueError("weight_decay must be non-negative")
        if self.epochs < 1 or self.batch_size < 1:
            raise ValueError("epochs and batch_size must be positive")


# ---------------------------------------------------------------------------
# batched per-layer forward / backward
# ---------------------------------------------------------------------------

def _fwd_conv(layer, x, training):
    w, b = layer.params["weight"], layer.params["bias"]
    if x.ndim != w.ndim:
        raise ShapeError(f"layer {layer.name!r}: expected (N,C,H,W), got {x.shape}")
    f, c, kh, kw = w.shape[-4:]
    if x.shape[-3] != c:
        raise ShapeError(f"layer {layer.name!r}: channel mismatch {x.shape[-3]} vs {c}")
    try:
        cols = im2col(x.reshape((-1,) + x.shape[-3:]), kh, kw, layer.stride, layer.padding)
    except ShapeError as exc:
        raise ShapeError(f"layer {layer.name!r}: {exc}") from exc
    # With sampled weights (T, F, C, kh, kw), x is (1 or T, N, C, H, W): at
    # the first sampled layer one im2col serves all T kernel sets.
    cols = cols.reshape(x.shape[:-3] + cols.shape[1:])
    out = (np.einsum("...fk,...nkl->...nfl", w.reshape(w.shape[:-3] + (-1,)), cols)
           + b[..., None, :, None])
    ho = (x.shape[-2] + 2 * layer.padding - kh) // layer.stride + 1
    wo = (x.shape[-1] + 2 * layer.padding - kw) // layer.stride + 1
    return out.reshape(out.shape[:-1] + (ho, wo)), (x.shape, cols)


def _bwd_conv(layer, dout, cache):
    x_shape, cols = cache
    w = layer.params["weight"]
    f = w.shape[0]
    d2 = dout.reshape(dout.shape[0], f, -1)  # (N, F, L)
    dw = np.einsum("nfl,nkl->fk", d2, cols).reshape(w.shape)
    db = d2.sum(axis=(0, 2))
    dcols = np.einsum("fk,nfl->nkl", w.reshape(f, -1), d2)
    dx = col2im(dcols, x_shape, w.shape[2], w.shape[3], layer.stride, layer.padding)
    return dx, {"weight": dw, "bias": db}


def _fwd_linear(layer, x, training):
    w, b = layer.params["weight"], layer.params["bias"]
    if x.ndim != w.ndim:
        raise ShapeError(f"layer {layer.name!r}: expected (N,D), got {x.shape}")
    if x.shape[-1] != w.shape[-1]:
        raise ShapeError(
            f"layer {layer.name!r}: input width {x.shape[-1]} vs weight {w.shape}")
    # sampled weights (T, out, in) meet x as (1 or T, N, in)
    return x @ w.swapaxes(-1, -2) + b[..., None, :], x


def _bwd_linear(layer, dout, cache):
    x = cache
    w = layer.params["weight"]
    return dout @ w, {"weight": dout.T @ x, "bias": dout.sum(axis=0)}


def _bn_axes(x):
    if x.ndim == 4:
        return (0, 2, 3)
    if x.ndim == 2:
        return (0,)
    raise ShapeError(f"batchnorm expects 2-D or 4-D input, got {x.ndim}-D")


def _bn_reshape(v, x):
    """Per-channel v, (C,) or (T, C) with one row per draw, shaped to
    broadcast along the channel axis of x, an (N, C[, H, W]) batch."""
    return v.reshape(v.shape[:-1] + ((1, -1, 1, 1) if x.ndim == 4 else (1, -1)))


def _fwd_batchnorm(layer, x, training):
    scale, shift = layer.params["scale"], layer.params["shift"]
    # sampled (T, C) affines meet x as (1 or T, N, C[, H, W])
    batch = x[0] if scale.ndim == 2 else x
    axes = _bn_axes(batch)
    if batch.shape[1] != scale.shape[-1]:
        raise ShapeError(f"layer {layer.name!r}: channel mismatch {batch.shape[1]} vs {scale.shape[-1]}")
    if training:
        mean = x.mean(axis=axes)
        var = x.var(axis=axes)
        layer.params["running_mean"] = (
            _BN_MOMENTUM * layer.params["running_mean"] + (1 - _BN_MOMENTUM) * mean)
        layer.params["running_var"] = (
            _BN_MOMENTUM * layer.params["running_var"] + (1 - _BN_MOMENTUM) * np.maximum(var, _BN_EPS))
    else:
        mean = layer.params["running_mean"]
        var = layer.params["running_var"]
    inv_std = 1.0 / np.sqrt(var + _BN_EPS)
    xhat = (x - _bn_reshape(mean, batch)) * _bn_reshape(inv_std, batch)
    out = xhat * _bn_reshape(scale, batch) + _bn_reshape(shift, batch)
    return out, (xhat, inv_std, axes, training)


def _bwd_batchnorm(layer, dout, cache):
    xhat, inv_std, axes, training = cache
    scale = layer.params["scale"]
    dscale = (dout * xhat).sum(axis=axes)
    dshift = dout.sum(axis=axes)
    dxhat = dout * _bn_reshape(scale, xhat)
    if training:
        # batch statistics participate in the forward pass
        m = xhat.size // xhat.shape[1]
        dx = (_bn_reshape(inv_std, xhat) / m) * (
            m * dxhat
            - _bn_reshape(dxhat.sum(axis=axes), xhat)
            - xhat * _bn_reshape((dxhat * xhat).sum(axis=axes), xhat))
    else:
        dx = dxhat * _bn_reshape(inv_std, xhat)
    return dx, {"scale": dscale, "shift": dshift}


def _fwd_relu(layer, x, training):
    mask = x > 0
    return x * mask, mask


def _bwd_relu(layer, dout, cache):
    return dout * cache, {}


def _fwd_maxpool2(layer, x, training):
    if x.ndim != 4:
        raise ShapeError(f"layer {layer.name!r}: expected (N,C,H,W), got {x.shape}")
    n, c, h, w = x.shape
    h2, w2 = h // 2, w // 2
    if h2 < 1 or w2 < 1:
        raise ShapeError(f"layer {layer.name!r}: input {h}x{w} too small to pool")
    xc = x[:, :, :2 * h2, :2 * w2]
    win = xc.reshape(n, c, h2, 2, w2, 2).transpose(0, 1, 2, 4, 3, 5).reshape(n, c, h2, w2, 4)
    idx = win.argmax(axis=4)
    out = np.take_along_axis(win, idx[..., None], axis=4)[..., 0]
    return out, (x.shape, idx)


def _bwd_maxpool2(layer, dout, cache):
    x_shape, idx = cache
    n, c, h, w = x_shape
    h2, w2 = h // 2, w // 2
    dwin = np.zeros((n, c, h2, w2, 4), dtype=np.float64)
    np.put_along_axis(dwin, idx[..., None], dout[..., None], axis=4)
    dx = np.zeros(x_shape, dtype=np.float64)
    dx[:, :, :2 * h2, :2 * w2] = (
        dwin.reshape(n, c, h2, w2, 2, 2).transpose(0, 1, 2, 4, 3, 5).reshape(n, c, 2 * h2, 2 * w2))
    return dx, {}


def _fwd_flatten(layer, x, training):
    return x.reshape(x.shape[0], -1), x.shape


def _bwd_flatten(layer, dout, cache):
    return dout.reshape(cache), {}


_FWD = {"conv2d": _fwd_conv, "linear": _fwd_linear, "batchnorm": _fwd_batchnorm,
        "relu": _fwd_relu, "maxpool2": _fwd_maxpool2, "flatten": _fwd_flatten}
_BWD = {"conv2d": _bwd_conv, "linear": _bwd_linear, "batchnorm": _bwd_batchnorm,
        "relu": _bwd_relu, "maxpool2": _bwd_maxpool2, "flatten": _bwd_flatten}


def forward_batch(model: Model, x: np.ndarray, training: bool = False,
                  want_caches: bool = False):
    """Run a batch through the model.

    Returns (logits (N,K), boxes (N,4) or None, caches). In inference mode
    batchnorm uses frozen running statistics.

    Sampled layers (see `LayerSpec.draws`) carry T weight sets. The layers
    before the first of them run once; from there on every activation has
    a leading draw axis, which plain layers see as T * N batch rows, and
    the outputs become logits (T,N,K) and boxes (T,N,4).
    """
    if not model.layers:
        raise ShapeError("model has no layers; forward is undefined")
    x = np.asarray(x, dtype=np.float64)
    caches = []
    drawn = False  # whether x carries the leading draw axis
    # an overflow surfaces once, as the NumericsError below
    with np.errstate(over="ignore", invalid="ignore"):
        for layer in model.layers:
            if layer.draws:
                x, cache = _FWD[layer.kind](layer, x if drawn else x[None], training)
                drawn = True
            elif drawn:
                out, cache = _FWD[layer.kind](layer, x.reshape((-1,) + x.shape[2:]), training)
                x = out.reshape(x.shape[:2] + out.shape[1:])
            else:
                x, cache = _FWD[layer.kind](layer, x, training)
            caches.append(cache if want_caches else None)
    if x.ndim != 2 + drawn or x.shape[-1] != model.head_width:
        raise ShapeError(
            f"final layer produced shape {x.shape}, expected (N, {model.head_width})")
    if not np.all(np.isfinite(x)):
        raise NumericsError("forward pass produced non-finite outputs")
    logits = x[..., :model.class_count]
    boxes = x[..., model.class_count:] if model.has_box_head else None
    return logits, boxes, caches


# ---------------------------------------------------------------------------
# losses and gradients
# ---------------------------------------------------------------------------

def loss_and_gradients(model: Model, inputs: np.ndarray, labels: np.ndarray,
                       boxes: np.ndarray | None = None,
                       box_loss_weight: float = 1.0,
                       training: bool = False):
    """Mean joint loss over a batch plus exact reverse-mode gradients.

    Loss per sample is cross-entropy of the class head plus
    box_loss_weight * smooth-L1 of the box head (when present).
    Returns (loss, {layer_name: {tensor_name: grad}}).
    """
    inputs = np.asarray(inputs, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64).reshape(-1)
    n = inputs.shape[0]
    logits, pred_boxes, caches = forward_batch(model, inputs, training=training,
                                               want_caches=True)
    shifted = logits - logits.max(axis=1, keepdims=True)
    log_probs = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    loss = float(-log_probs[np.arange(n), labels].mean())
    probs = np.exp(log_probs)
    dlogits = probs.copy()
    dlogits[np.arange(n), labels] -= 1.0
    dlogits /= n
    if model.has_box_head:
        if boxes is None:
            raise ValueError("model has a box head but no box targets were given")
        boxes = np.asarray(boxes, dtype=np.float64).reshape(n, 4)
        d = pred_boxes - boxes
        a = np.abs(d)
        loss += box_loss_weight * float(np.where(a < 1, 0.5 * d * d, a - 0.5).sum() / n)
        dbox = box_loss_weight * np.clip(d, -1.0, 1.0) / n
        dout = np.concatenate([dlogits, dbox], axis=1)
    else:
        dout = dlogits
    if not np.isfinite(loss):
        raise NumericsError("loss is non-finite")
    grads = {}
    for layer, cache in zip(reversed(model.layers), reversed(caches)):
        dout, g = _BWD[layer.kind](layer, dout, cache)
        if g:
            grads[layer.name] = g
    return loss, grads


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------

def _stack_dataset(model, dataset):
    inputs = np.stack([np.asarray(s.input, dtype=np.float64) for s in dataset])
    labels = np.asarray([s.label for s in dataset], dtype=np.int64)
    boxes = None
    if model.has_box_head:
        boxes = np.stack([np.asarray(s.box, dtype=np.float64) for s in dataset])
    return inputs, labels, boxes


def train_sgd(model: Model, dataset, cfg: TrainConfig):
    """SGD with momentum and decoupled weight decay. Deterministic in cfg.seed.

    Weight decay is applied directly to conv/linear weight tensors (not via
    the gradient); biases and batchnorm affines are not decayed. Returns
    (model, per-epoch mean loss list). Raises TrainingDivergedError when the
    loss becomes non-finite.
    """
    if not dataset:
        raise ValueError("dataset is empty")
    for s in dataset:
        if getattr(s, "tag", "id") == "ood":
            raise ValueError("OOD-tagged sample presented during training")
    inputs, labels, boxes = _stack_dataset(model, dataset)
    n = inputs.shape[0]
    rng = Rng(cfg.seed)
    velocity = {
        l.name: {k: np.zeros_like(l.params[k]) for k in LEARNABLE[l.kind]}
        for l in model.layers if LEARNABLE[l.kind]
    }
    curve = []
    for epoch in range(cfg.epochs):
        order = np.argsort(rng.split(epoch).uniforms(n), kind="stable")
        epoch_loss = 0.0
        batches = 0
        for start in range(0, n, cfg.batch_size):
            idx = order[start:start + cfg.batch_size]
            try:
                loss, grads = loss_and_gradients(
                    model, inputs[idx], labels[idx],
                    None if boxes is None else boxes[idx],
                    cfg.box_loss_weight, training=True)
            except NumericsError as exc:
                raise TrainingDivergedError(
                    f"diverged at epoch {epoch}, batch {batches}: {exc}") from exc
            epoch_loss += loss
            batches += 1
            for lname, g in grads.items():
                layer = model.layer(lname)
                for pname, grad in g.items():
                    v = velocity[lname][pname]
                    v *= cfg.momentum
                    v += grad
                    layer.params[pname] = layer.params[pname] - cfg.learning_rate * v
                    if cfg.weight_decay and pname == "weight":
                        layer.params[pname] = (
                            layer.params[pname]
                            - cfg.learning_rate * cfg.weight_decay * layer.params[pname])
        curve.append(epoch_loss / batches)
        if not np.isfinite(curve[-1]):
            raise TrainingDivergedError(f"diverged at epoch {epoch}: loss {curve[-1]}")
    return model, curve


# ---------------------------------------------------------------------------
# persistence (BLYR container, little-endian, 32-bit tensor payloads)
# ---------------------------------------------------------------------------

_MAGIC = b"BLYR"
_VERSION = 1


def save_model(model: Model, path: str) -> None:
    """Write the BLYR container; tensors are stored as 32-bit IEEE-754."""
    out = bytearray()
    out += _MAGIC
    out += struct.pack("<I", _VERSION)
    out += struct.pack("<I", model.class_count)
    out += struct.pack("<B", 1 if model.has_box_head else 0)
    out += struct.pack("<I", model.backbone_end)
    out += struct.pack("<I", len(model.layers))
    for layer in model.layers:
        name = layer.name.encode("utf-8")
        out += struct.pack("<H", len(name)) + name
        out += struct.pack("<B", LAYER_KINDS[layer.kind])
        out += struct.pack("<II", layer.stride, layer.padding)
        tensors = PARAM_ORDER[layer.kind]
        out += struct.pack("<B", len(tensors))
        for tname in tensors:
            arr = np.ascontiguousarray(layer.params[tname], dtype=np.float32)
            out += struct.pack("<B", arr.ndim)
            out += struct.pack(f"<{arr.ndim}I", *arr.shape)
            out += arr.astype("<f4").tobytes()
    with open(path, "wb") as fh:
        fh.write(bytes(out))


class _Reader:
    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.data):
            raise PersistenceError("truncated payload")
        chunk = self.data[self.pos:self.pos + n]
        self.pos += n
        return chunk

    def unpack(self, fmt: str):
        vals = struct.unpack(fmt, self.take(struct.calcsize(fmt)))
        return vals[0] if len(vals) == 1 else vals


def load_model(path: str) -> Model:
    """Read a BLYR container; tensors come back as float64 (values exactly
    representable in float32, so a re-save is byte-identical)."""
    with open(path, "rb") as fh:
        r = _Reader(fh.read())
    if r.take(4) != _MAGIC:
        raise PersistenceError("bad magic")
    version = r.unpack("<I")
    if version != _VERSION:
        raise PersistenceError(f"version mismatch: {version} != {_VERSION}")
    class_count = r.unpack("<I")
    has_box = bool(r.unpack("<B"))
    backbone_end = r.unpack("<I")
    layer_count = r.unpack("<I")
    layers = []
    seen = set()
    for _ in range(layer_count):
        nlen = r.unpack("<H")
        name = r.take(nlen).decode("utf-8")
        if name in seen:
            raise PersistenceError(f"duplicate layer name {name!r}")
        seen.add(name)
        code = r.unpack("<B")
        if code not in _KIND_BY_CODE:
            raise PersistenceError(f"unknown layer kind code {code}")
        kind = _KIND_BY_CODE[code]
        stride, padding = r.unpack("<II")
        tcount = r.unpack("<B")
        expected = PARAM_ORDER[kind]
        if tcount != len(expected):
            raise PersistenceError(
                f"layer {name!r}: expected {len(expected)} tensors, file has {tcount}")
        params = {}
        for tname in expected:
            rank = r.unpack("<B")
            dims = struct.unpack(f"<{rank}I", r.take(4 * rank)) if rank else ()
            count = int(np.prod(dims)) if dims else 1
            raw = r.take(4 * count)
            arr = np.frombuffer(raw, dtype="<f4").reshape(dims).astype(np.float64)
            params[tname] = arr
        layers.append(LayerSpec(name, kind, params, stride=stride, padding=padding))
    return Model(layers, backbone_end, class_count, has_box)


# ---------------------------------------------------------------------------
# architecture presets
# ---------------------------------------------------------------------------

PRESETS = ("micro-mlp", "micro-cnn")


def _he_init(rng: Rng, shape, fan_in):
    return rng.normals(int(np.prod(shape))).reshape(shape) * np.sqrt(2.0 / fan_in)


def build_model(preset: str, input_shape, class_count: int,
                has_box_head: bool = False, seed: int = 0) -> Model:
    """Construct an initialized preset model.

    micro-mlp: flatten -> linear 64 -> relu -> head
    micro-cnn: conv 8@3x3 -> relu -> pool -> conv 16@3x3 -> relu -> pool
               -> flatten -> linear 64 -> relu -> head
    The head block (final linear stack) sits after backbone_end.
    """
    rng = Rng(seed)
    head_width = class_count + (4 if has_box_head else 0)
    if preset == "micro-mlp":
        d = int(np.prod(input_shape))
        layers = [
            LayerSpec("flatten", "flatten"),
            LayerSpec("fc1", "linear", {"weight": _he_init(rng.split(0), (64, d), d),
                                        "bias": np.zeros(64)}),
            LayerSpec("relu1", "relu"),
            LayerSpec("head", "linear", {"weight": _he_init(rng.split(1), (head_width, 64), 64),
                                         "bias": np.zeros(head_width)}),
        ]
        return Model(layers, backbone_end=1, class_count=class_count,
                     has_box_head=has_box_head)
    if preset == "micro-cnn":
        c, h, w = input_shape
        h2, w2 = h // 2 // 2, w // 2 // 2
        d = 16 * h2 * w2
        layers = [
            LayerSpec("conv1", "conv2d",
                      {"weight": _he_init(rng.split(0), (8, c, 3, 3), c * 9),
                       "bias": np.zeros(8)}, stride=1, padding=1),
            LayerSpec("relu1", "relu"),
            LayerSpec("pool1", "maxpool2"),
            LayerSpec("conv2", "conv2d",
                      {"weight": _he_init(rng.split(1), (16, 8, 3, 3), 8 * 9),
                       "bias": np.zeros(16)}, stride=1, padding=1),
            LayerSpec("relu2", "relu"),
            LayerSpec("pool2", "maxpool2"),
            LayerSpec("flatten", "flatten"),
            LayerSpec("fc1", "linear", {"weight": _he_init(rng.split(2), (64, d), d),
                                        "bias": np.zeros(64)}),
            LayerSpec("relu3", "relu"),
            LayerSpec("head", "linear", {"weight": _he_init(rng.split(3), (head_width, 64), 64),
                                         "bias": np.zeros(head_width)}),
        ]
        return Model(layers, backbone_end=7, class_count=class_count,
                     has_box_head=has_box_head)
    raise ValueError(f"unknown architecture preset {preset!r}")
