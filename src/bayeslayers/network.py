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
    "LEARNABLE",
    "run_layers",
    "split_outputs",
    "forward_batch",
    "loss_and_gradients",
    "train_sgd",
    "save_model",
    "load_model",
    "build_model",
    "PRESETS",
]

# BLYR kind codes; code 2 is retired (it was a batchnorm kind) and now
# reads as unknown.
LAYER_KINDS = {"conv2d": 0, "linear": 1, "relu": 3, "maxpool2": 4, "flatten": 5}
_KIND_BY_CODE = {v: k for k, v in LAYER_KINDS.items()}

# Each kind's tensors, all updated by SGD, in file order.
LEARNABLE = {
    "conv2d": ("weight", "bias"),
    "linear": ("weight", "bias"),
    "relu": (),
    "maxpool2": (),
    "flatten": (),
}


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
            if key not in LEARNABLE[self.kind]:
                raise ValueError(f"layer {self.name!r}: unexpected tensor {key!r}")


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
        if self.box_loss_weight < 0:
            raise ValueError("box_loss_weight must be non-negative")
        if self.epochs < 1 or self.batch_size < 1:
            raise ValueError("epochs and batch_size must be positive")


# ---------------------------------------------------------------------------
# batched per-layer forward / backward
# ---------------------------------------------------------------------------

def _fwd_conv(layer, x):
    w, b = layer.params["weight"], layer.params["bias"]
    if x.ndim not in (4, 5):
        raise ShapeError(f"layer {layer.name!r}: expected (N,C,H,W) or (B,T',C,H,W), "
                         f"got {x.shape}")
    f, c, kh, kw = w.shape[-4:]
    if x.shape[-3] != c:
        raise ShapeError(f"layer {layer.name!r}: channel mismatch {x.shape[-3]} vs {c}")
    try:
        cols = im2col(x.reshape((-1,) + x.shape[-3:]), kh, kw, layer.stride, layer.padding)
    except ShapeError as exc:
        raise ShapeError(f"layer {layer.name!r}: {exc}") from exc
    cols = cols.reshape(x.shape[:-3] + cols.shape[-2:])
    # w2 is (F, K), or (T, F, K) for sampled weights, which meet the last
    # batch axis (see forward_batch)
    w2 = w.reshape(w.shape[:-3] + (-1,))
    out = np.matmul(w2, cols)
    out += b[..., None]
    ho = (x.shape[-2] + 2 * layer.padding - kh) // layer.stride + 1
    wo = (x.shape[-1] + 2 * layer.padding - kw) // layer.stride + 1
    return out.reshape(out.shape[:-1] + (ho, wo)), (x.shape, cols)


def _bwd_conv(layer, dout, cache, want_dx):
    x_shape, cols = cache
    w = layer.params["weight"]
    w2 = w.reshape(w.shape[0], -1)  # (F, K)
    d2 = dout.reshape(dout.shape[0], w.shape[0], -1)  # (N, F, L)
    dw = np.tensordot(d2, cols, axes=([0, 2], [0, 2])).reshape(w.shape)
    db = d2.sum(axis=(0, 2))
    if not want_dx:
        return None, {"weight": dw, "bias": db}
    dcols = np.matmul(w2.T, d2)
    dx = col2im(dcols, x_shape, w.shape[2], w.shape[3], layer.stride, layer.padding)
    return dx, {"weight": dw, "bias": db}


def _fwd_linear(layer, x):
    """A plain weight multiplies each input's rows as one product: (N, D)
    in training, each (T', D) block of (B, T', D) in eval. T weight sets
    (T, out, in) multiply each row on its own (see forward_batch)."""
    w, b = layer.params["weight"], layer.params["bias"]
    if x.ndim not in (2, 3):
        raise ShapeError(f"layer {layer.name!r}: expected (N,D) or (B,T',D), got {x.shape}")
    if x.shape[-1] != w.shape[-1]:
        raise ShapeError(
            f"layer {layer.name!r}: input width {x.shape[-1]} vs weight {w.shape}")
    if w.ndim == 3:
        return (x[..., None, :] @ w.swapaxes(-1, -2))[..., 0, :] + b, x
    return x @ w.T + b, x


def _bwd_linear(layer, dout, cache, want_dx):
    x = cache
    w = layer.params["weight"]
    return dout @ w if want_dx else None, {"weight": dout.T @ x, "bias": dout.sum(axis=0)}


def _fwd_relu(layer, x):
    # np.maximum returns its second operand on a tie of signed zeros, so
    # -0.0 maps to +0.0; NaN stays NaN. The output is its own cache: it is
    # positive exactly where x is.
    out = np.maximum(x, 0.0)
    return out, out


def _bwd_relu(layer, dout, cache, want_dx):
    return dout * (cache > 0), {}


def _pool_windows(x, h2, w2):
    """(..., H, W) -> (..., h2, 2, w2, 2) view of the 2x2 windows; a
    trailing odd row or column is dropped. Splitting axes never copies, so
    writes to the result reach x."""
    return x[..., :2 * h2, :2 * w2].reshape(x.shape[:-2] + (h2, 2, w2, 2))


def _fwd_maxpool2(layer, x):
    if x.ndim not in (4, 5):
        raise ShapeError(f"layer {layer.name!r}: expected (N,C,H,W) or (B,T',C,H,W), "
                         f"got {x.shape}")
    h2, w2 = x.shape[-2] // 2, x.shape[-1] // 2
    if h2 < 1 or w2 < 1:
        raise ShapeError(f"layer {layer.name!r}: input {x.shape[-2]}x{x.shape[-1]} too small to pool")
    win = _pool_windows(x, h2, w2)
    # columns, then rows. np.maximum returns its second operand on a tie of
    # signed zeros, so passing the earlier operand second yields the first
    # maximum's value: max(max(d, c), max(b, a)) for the window [[a, b], [c, d]]
    cols = np.maximum(win[..., 1], win[..., 0])
    out = np.maximum(cols[..., 1, :], cols[..., 0, :])
    # where the maximum sits, which only the backward reads, is found there
    return out, (x, out)


def _bwd_maxpool2(layer, dout, cache, want_dx):
    """Routes each window's gradient to its first corner, in row-major
    order, that equals the output, or to its last corner when none does (a
    NaN window): to a row first, then to a column. The other corners get
    dout * 0, a zero of dout's sign."""
    x, out = cache
    h2, w2 = out.shape[-2:]
    win = _pool_windows(x, h2, w2)
    # the top row when its larger corner equals out, else the bottom one
    top = np.maximum(win[..., 0, :, 1], win[..., 0, :, 0]) == out
    drows = np.empty(out.shape[:-1] + (2, w2))
    np.multiply(dout, top, out=drows[..., 0, :])
    np.multiply(dout, ~top, out=drows[..., 1, :])
    # in each row, the left corner when it equals out, else the right one
    left = win[..., 0] == out[..., None, :]
    dx = np.zeros(x.shape, dtype=np.float64)
    dwin = _pool_windows(dx, h2, w2)
    np.multiply(drows, left, out=dwin[..., 0])
    np.multiply(drows, ~left, out=dwin[..., 1])
    return dx, {}


def _fwd_flatten(layer, x):
    """Merges an image's trailing (C, H, W); flat rows, (N, D) or
    (B, T', D), pass through."""
    return (x.reshape(x.shape[:-3] + (-1,)) if x.ndim > 3 else x), x.shape


def _bwd_flatten(layer, dout, cache, want_dx):
    return dout.reshape(cache), {}


_FWD = {"conv2d": _fwd_conv, "linear": _fwd_linear, "relu": _fwd_relu,
        "maxpool2": _fwd_maxpool2, "flatten": _fwd_flatten}
# A backward returns (input gradient, parameter gradients); with want_dx
# False it skips the input gradient and returns None in its place.
_BWD = {"conv2d": _bwd_conv, "linear": _bwd_linear, "relu": _bwd_relu,
        "maxpool2": _bwd_maxpool2, "flatten": _bwd_flatten}


def run_layers(layers: list, x: np.ndarray, want_caches: bool = False):
    """Run a batch through a list of layers; returns (output, caches).

    Overflow is not reported here: a non-finite value reaches the model's
    output, where `split_outputs` raises it once as a NumericsError."""
    x = np.asarray(x, dtype=np.float64)
    caches = []
    with np.errstate(over="ignore", invalid="ignore"):
        for layer in layers:
            x, cache = _FWD[layer.kind](layer, x)
            caches.append(cache if want_caches else None)
    return x, caches


def split_outputs(model: Model, x: np.ndarray):
    """Check the model's final output (N, head_width) and split it into
    (logits (N,K), boxes (N,4) or None)."""
    if not model.layers:
        raise ShapeError("model has no layers; forward is undefined")
    if x.ndim != 2 or x.shape[1] != model.head_width:
        raise ShapeError(
            f"final layer produced shape {x.shape}, expected (N, {model.head_width})")
    if not np.all(np.isfinite(x)):
        raise NumericsError("forward pass produced non-finite outputs")
    return x[:, :model.class_count], x[:, model.class_count:] if model.has_box_head else None


def forward_batch(model: Model, x: np.ndarray, want_caches: bool = False):
    """Run a batch through the model.

    Returns (logits (N,K), boxes (N,4) or None, caches).

    Every kernel takes rows with leading batch axes: (N, ...) here, and
    (B, T', ...) in `bayes.mc_predict`, one row per input and draw. A
    sampled layer carries T weight sets on a leading axis of each tensor
    that meets the last batch axis: set t meets row t, and a single row
    meets all T sets, so one input comes out as T rows, one per draw.
    """
    x, caches = run_layers(model.layers, x, want_caches)
    return (*split_outputs(model, x), caches)


# ---------------------------------------------------------------------------
# losses and gradients
# ---------------------------------------------------------------------------

def loss_and_gradients(model: Model, inputs: np.ndarray, labels: np.ndarray,
                       boxes: np.ndarray | None = None,
                       box_loss_weight: float = 1.0):
    """Mean joint loss over a batch plus exact reverse-mode gradients.

    Loss per sample is cross-entropy of the class head plus
    box_loss_weight * smooth-L1 of the box head (when present).
    Returns (loss, {layer_name: {tensor_name: grad}}).
    """
    inputs = np.asarray(inputs, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64).reshape(-1)
    n = inputs.shape[0]
    logits, pred_boxes, caches = forward_batch(model, inputs, want_caches=True)
    shifted = logits - logits.max(axis=1, keepdims=True)
    log_probs = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    rows = np.arange(n)
    # sum / n is the bits of .mean(), without its overhead
    loss = float(-log_probs[rows, labels].sum() / n)
    dlogits = np.exp(log_probs)
    dlogits[rows, labels] -= 1.0
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
    # backpropagate down to the first learnable layer only: nothing reads
    # its input gradient. A cache is dropped once its backward has run.
    first = next((i for i, layer in enumerate(model.layers) if LEARNABLE[layer.kind]),
                 len(model.layers))
    for idx in reversed(range(first, len(model.layers))):
        layer = model.layers[idx]
        dout, g = _BWD[layer.kind](layer, dout, caches.pop(), idx > first)
        if g:
            grads[layer.name] = g
    return loss, grads


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------

def train_sgd(model: Model, dataset, cfg: TrainConfig):
    """SGD with momentum and decoupled weight decay on a `datasets.Split`.
    Deterministic in cfg.seed.

    Weight decay is applied directly to conv/linear weight tensors (not via
    the gradient); biases are not decayed. Returns (model, per-epoch mean
    loss list). Raises TrainingDivergedError when the loss becomes
    non-finite.
    """
    if dataset.tag == "ood":
        raise ValueError("OOD-tagged split presented during training")
    if len(dataset) == 0:
        raise ValueError("dataset is empty")
    inputs, labels = dataset.inputs, dataset.labels
    boxes = dataset.boxes if model.has_box_head else None
    n = inputs.shape[0]
    rng = Rng(cfg.seed)
    # every learnable tensor becomes a view into one flat buffer, beside a
    # flat velocity buffer, so that a step updates them all in one pass
    slots = [(layer, name) for layer in model.layers for name in LEARNABLE[layer.kind]]
    theta = np.zeros(sum(layer.params[name].size for layer, name in slots))
    velocity = np.zeros_like(theta)
    velocity_views = {}
    weights = []
    pos = 0
    for layer, name in slots:
        shape, end = layer.params[name].shape, pos + layer.params[name].size
        theta[pos:end] = layer.params[name].reshape(-1)
        layer.params[name] = theta[pos:end].reshape(shape)
        velocity_views[layer.name, name] = velocity[pos:end].reshape(shape)
        if name == "weight":
            weights.append(layer.params[name])
        pos = end
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
                    cfg.box_loss_weight)
            except NumericsError as exc:
                raise TrainingDivergedError(
                    f"diverged at epoch {epoch}, batch {batches}: {exc}") from exc
            epoch_loss += loss
            batches += 1
            # every learnable layer gets a gradient: the backward reaches
            # the first of them
            velocity *= cfg.momentum
            for lname, g in grads.items():
                for pname, grad in g.items():
                    velocity_views[lname, pname] += grad
            theta -= cfg.learning_rate * velocity
            if cfg.weight_decay:
                for w in weights:
                    w -= cfg.learning_rate * cfg.weight_decay * w
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
        tensors = LEARNABLE[layer.kind]
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


def _check_weights(name, kind, params, stride, padding) -> None:
    """Reject a conv or linear layer that the kernels would misread: a
    weight of another rank (an extra leading axis would pass for T weight
    sets), a bias that is not one value per output, or a conv stride or
    padding that no kernel can slide with."""
    w, b = params["weight"], params["bias"]
    rank = 4 if kind == "conv2d" else 2
    if w.ndim != rank:
        raise PersistenceError(f"layer {name!r}: {kind} weight must have rank {rank}, "
                               f"got shape {w.shape}")
    if b.shape != w.shape[:1]:
        raise PersistenceError(f"layer {name!r}: bias shape {b.shape} does not match "
                               f"{w.shape[0]} outputs")
    if kind == "conv2d" and (stride < 1 or padding >= min(w.shape[2:])):
        raise PersistenceError(f"layer {name!r}: stride {stride} must be >= 1 and padding "
                               f"{padding} below the kernel's {w.shape[2]}x{w.shape[3]}")


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
    for _ in range(layer_count):
        nlen = r.unpack("<H")
        try:
            name = r.take(nlen).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise PersistenceError(f"layer name is not UTF-8: {exc}") from exc
        code = r.unpack("<B")
        if code not in _KIND_BY_CODE:
            raise PersistenceError(f"unknown layer kind code {code}")
        kind = _KIND_BY_CODE[code]
        stride, padding = r.unpack("<II")
        tcount = r.unpack("<B")
        expected = LEARNABLE[kind]
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
        if params:
            _check_weights(name, kind, params, stride, padding)
        layers.append((name, kind, params, stride, padding))
    if r.pos != len(r.data):
        raise PersistenceError(f"{len(r.data) - r.pos} bytes after the last layer")
    # the constructors' checks (names, ranges, counts) hold for the file too
    try:
        return Model([LayerSpec(name, kind, params, stride=stride, padding=padding)
                      for name, kind, params, stride, padding in layers],
                     backbone_end, class_count, has_box)
    except ValueError as exc:
        raise PersistenceError(str(exc)) from exc


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
    shape = tuple(input_shape)
    cnn = preset == "micro-cnn"
    # flatten tells images from flat rows by rank, and micro-cnn's two
    # pools must each leave a pixel
    if (np.prod(shape) < 1 or len(shape) not in ((3,) if cnn else (1, 3))
            or cnn and min(shape[1:]) < 4):
        need = ("images (C, H, W) with C >= 1 and H, W >= 4" if cnn
                else "vectors (D,) or images (C, H, W) of at least one value")
        raise ValueError(f"{preset} cannot take inputs of shape {shape}: it needs {need}")
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
