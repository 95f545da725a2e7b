"""Synthetic ID/OOD benchmark data and its on-disk form.

Every generator is a pure function of its seed and parameters; reruns are
byte-identical. OOD splits are tagged so they can never leak into
training.
"""

import hashlib
import json
import os
import zipfile
from dataclasses import dataclass, field

import numpy as np

from .network import PersistenceError
from .numerics import Rng

__all__ = [
    "Split",
    "BenchmarkPairing",
    "gen_blobs",
    "gen_shapes",
    "content_digest",
    "save_pairing",
    "load_pairing",
    "ID_SHAPES",
    "OOD_SHAPES",
]

ID_SHAPES = ("square", "disk", "cross")
OOD_SHAPES = ("triangle", "ring")


@dataclass
class Split:
    """N samples as arrays: inputs (N, ...) float64, labels (N,) int64,
    boxes (N, 4) float64 or None, and the split's tag ("id" or "ood")."""
    inputs: np.ndarray
    labels: np.ndarray
    boxes: np.ndarray | None = None
    tag: str = "id"

    def __post_init__(self):
        self.inputs = np.asarray(self.inputs, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.boxes is not None:
            self.boxes = np.asarray(self.boxes, dtype=np.float64)
        rows = self.inputs.shape[:1]
        boxes_ok = self.boxes is None or self.boxes.shape == rows + (4,)
        if not rows or self.labels.shape != rows or not boxes_ok:
            raise ValueError(f"inputs {self.inputs.shape}, labels {self.labels.shape} and boxes "
                             f"{None if self.boxes is None else self.boxes.shape} do not line up")
        if np.any(self.labels < 0):
            raise ValueError(f"{self.tag} labels must be non-negative, "
                             f"got {int(self.labels.min())}")

    def __len__(self) -> int:
        return self.labels.shape[0]


# (split name, tag) in file and digest order
_SPLITS = (("id_train", "id"), ("id_test", "id"), ("ood_test", "ood"))


@dataclass
class BenchmarkPairing:
    id_train: Split
    id_test: Split
    ood_test: Split
    provenance: dict = field(default_factory=dict)


def gen_blobs(seed: int, k: int = 3, n_per_class: int = 200, dim: int = 2,
              id_center_scale: float = 10.0, ood_offset: float = 10.0) -> BenchmarkPairing:
    """Gaussian blob benchmark.

    ID classes are unit-variance Gaussians centered on a circle of radius
    id_center_scale (first two coordinates). The OOD cluster is displaced
    ood_offset from the first ID center toward the circle's center, so
    ood_offset = 0 plants it on top of an ID class (hard case) and
    ood_offset = id_center_scale puts it equidistant from every ID center.
    """
    if k < 2 or dim < 2:
        raise ValueError("need k >= 2 and dim >= 2")
    if n_per_class < 1:
        raise ValueError("n_per_class must be positive")
    rng = Rng(seed)
    centers = np.zeros((k, dim))
    angles = 2.0 * np.pi * np.arange(k) / k
    centers[:, 0] = id_center_scale * np.cos(angles)
    centers[:, 1] = id_center_scale * np.sin(angles)
    inward = np.zeros(dim)
    inward[:2] = [-np.cos(angles[0]), -np.sin(angles[0])]
    ood_center = centers[0] + ood_offset * inward

    n_test = max(1, n_per_class // 2)
    pts = np.stack([rng.split(0, cls).normals((n_per_class + n_test) * dim)
                    .reshape(n_per_class + n_test, dim) + centers[cls]
                    for cls in range(k)])
    id_train = Split(pts[:, :n_per_class].reshape(-1, dim),
                     np.repeat(np.arange(k), n_per_class))
    id_test = Split(pts[:, n_per_class:].reshape(-1, dim), np.repeat(np.arange(k), n_test))
    n_ood = k * n_test
    ood_pts = rng.split(1).normals(n_ood * dim).reshape(n_ood, dim) + ood_center
    ood_test = Split(ood_pts, np.zeros(n_ood), tag="ood")
    prov = {"generator": "blobs", "seed": seed,
            "params": {"k": k, "n_per_class": n_per_class, "dim": dim,
                       "id_center_scale": id_center_scale, "ood_offset": ood_offset}}
    return BenchmarkPairing(id_train, id_test, ood_test, prov)


def _render_shape(kind: str, size: int, image_size: int, rng: Rng):
    """One shape at a random position/scale; returns (image (1,H,W), box)."""
    u = rng.uniforms(4)
    s = int(round(size * (0.55 + 0.45 * u[0])))
    if s > image_size - 2:
        raise ValueError(f"shape of scale {s} does not fit in a {image_size} image")
    x0 = 1 + int(u[1] * (image_size - s - 2))
    y0 = 1 + int(u[2] * (image_size - s - 2))
    intensity = 0.6 + 0.4 * u[3]
    img = np.zeros((image_size, image_size))
    yy, xx = np.mgrid[0:image_size, 0:image_size]
    cx, cy = x0 + s / 2.0, y0 + s / 2.0
    r = s / 2.0
    if kind == "square":
        img[y0:y0 + s, x0:x0 + s] = intensity
    elif kind == "disk":
        img[(xx - cx) ** 2 + (yy - cy) ** 2 <= r * r] = intensity
    elif kind == "cross":
        t = max(2, s // 4)
        img[y0:y0 + s, int(cx - t / 2):int(cx + t / 2)] = intensity
        img[int(cy - t / 2):int(cy + t / 2), x0:x0 + s] = intensity
    elif kind == "triangle":
        # filled upward triangle: apex at top-center, base at the bottom edge
        frac = np.clip((yy - y0) / max(s - 1, 1), 0, 1)
        inside = (yy >= y0) & (yy < y0 + s) & (np.abs(xx - cx) <= frac * r)
        img[inside] = intensity
    elif kind == "ring":
        # thin annulus so it does not alias to a filled disk
        d2 = (xx - cx) ** 2 + (yy - cy) ** 2
        img[(d2 <= r * r) & (d2 >= (0.8 * r) ** 2)] = intensity
    else:
        raise ValueError(f"unknown shape {kind!r}")
    box = np.array([x0, y0, x0 + s, y0 + s], dtype=np.float64)
    return img[None], box


def gen_shapes(seed: int, image_size: int = 28, id_shapes=ID_SHAPES,
               ood_shapes=OOD_SHAPES, n: int = 100) -> BenchmarkPairing:
    """Single-object shape images with ground-truth boxes.

    ID shape kinds become classes 0..len(id_shapes)-1 with n training and
    n//2 test images each; each OOD shape kind contributes n//2 test images.
    Pixels are in [0, 1]; every box has area >= 9 and lies inside the image.
    """
    if image_size < 16:
        raise ValueError("image_size must be >= 16")
    if n < 2:
        raise ValueError("n must be >= 2")
    rng = Rng(seed)
    max_size = min(20, image_size - 6)
    n_test = n // 2
    rendered = [_render_shape(kind, max_size, image_size, rng.split(0, cls, i))
                for cls, kind in enumerate(id_shapes) for i in range(n + n_test)]
    images, boxes = map(np.stack, zip(*rendered))
    labels = np.repeat(np.arange(len(id_shapes)), n + n_test)
    train = np.tile(np.arange(n + n_test) < n, len(id_shapes))
    id_train = Split(images[train], labels[train], boxes[train])
    id_test = Split(images[~train], labels[~train], boxes[~train])
    rendered = [_render_shape(kind, max_size, image_size, rng.split(1, off, i))
                for off, kind in enumerate(ood_shapes) for i in range(n_test)]
    images, boxes = map(np.stack, zip(*rendered))
    ood_test = Split(images, np.zeros(len(images)), boxes, tag="ood")
    prov = {"generator": "shapes", "seed": seed,
            "params": {"image_size": image_size, "id_shapes": list(id_shapes),
                       "ood_shapes": list(ood_shapes), "n": n}}
    return BenchmarkPairing(id_train, id_test, ood_test, prov)


# ---------------------------------------------------------------------------
# pairing persistence + content digest
# ---------------------------------------------------------------------------

def content_digest(pairing: BenchmarkPairing) -> str:
    """SHA-256 over the raw sample arrays in a fixed order (independent of
    container-file bytes)."""
    h = hashlib.sha256()
    for split_name, _ in _SPLITS:
        split = getattr(pairing, split_name)
        h.update(split_name.encode())
        h.update(np.ascontiguousarray(split.inputs))
        h.update(np.ascontiguousarray(split.labels))
        if split.boxes is not None:
            h.update(np.ascontiguousarray(split.boxes))
    return h.hexdigest()


def save_pairing(pairing: BenchmarkPairing, directory: str) -> dict:
    """Write data.npz (`<split>_inputs`, `<split>_labels`, and `<split>_boxes`
    when there are boxes) plus a manifest.json recording provenance and the
    content digest; returns the manifest."""
    arrays = {}
    for split_name, _ in _SPLITS:
        split = getattr(pairing, split_name)
        arrays[f"{split_name}_inputs"] = split.inputs
        arrays[f"{split_name}_labels"] = split.labels
        if split.boxes is not None:
            arrays[f"{split_name}_boxes"] = split.boxes
    np.savez(os.path.join(directory, "data.npz"), **arrays)
    manifest = dict(pairing.provenance)
    manifest["digest"] = content_digest(pairing)
    with open(os.path.join(directory, "manifest.json"), "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return manifest


def load_pairing(directory: str) -> BenchmarkPairing:
    """Read what save_pairing wrote. A malformed manifest.json or data.npz,
    or arrays that do not match the manifest's digest, raise
    PersistenceError naming the file; a missing file raises OSError."""
    manifest_path = os.path.join(directory, "manifest.json")
    with open(manifest_path) as fh:
        try:
            manifest = json.load(fh)
        except json.JSONDecodeError as exc:
            raise PersistenceError(f"{manifest_path}: invalid JSON: {exc}") from exc
    if not isinstance(manifest, dict):
        raise PersistenceError(f"{manifest_path}: not a JSON object")
    data_path = os.path.join(directory, "data.npz")
    with open(data_path, "rb") as fh:
        try:
            data = np.load(fh)
            arrays = [(data[f"{name}_inputs"], data[f"{name}_labels"],
                       data.get(f"{name}_boxes")) for name, _ in _SPLITS]
        # a file that is not an npz archive fails as one of these, depending
        # on its first bytes; a missing array as a KeyError
        except (EOFError, LookupError, ValueError, zipfile.BadZipFile) as exc:
            raise PersistenceError(f"{data_path}: not a dataset archive: {exc}") from exc
    try:
        splits = [Split(*split, tag) for split, (_, tag) in zip(arrays, _SPLITS)]
    except ValueError as exc:
        raise PersistenceError(f"{data_path}: invalid dataset content: {exc}") from exc
    digest = manifest.pop("digest", None)
    pairing = BenchmarkPairing(*splits, manifest)
    if digest is not None and content_digest(pairing) != digest:
        raise PersistenceError(f"{data_path}: dataset content does not match "
                               f"the digest in {manifest_path}")
    return pairing
