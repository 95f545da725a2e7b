"""Synthetic ID/OOD benchmark data and its on-disk form.

Every generator is a pure function of its seed and parameters; reruns are
byte-identical. OOD samples are tagged so they can never leak into
training.
"""

import hashlib
import json
import os
from dataclasses import dataclass, field

import numpy as np

from .numerics import Rng

__all__ = [
    "LabeledSample",
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
class LabeledSample:
    input: np.ndarray
    label: int
    box: np.ndarray | None = None
    tag: str = "id"


@dataclass
class BenchmarkPairing:
    id_train: list
    id_test: list
    ood_test: list
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
    id_train, id_test = [], []
    for cls in range(k):
        pts = rng.split(0, cls).normals((n_per_class + n_test) * dim)
        pts = pts.reshape(n_per_class + n_test, dim) + centers[cls]
        for row in pts[:n_per_class]:
            id_train.append(LabeledSample(row.copy(), cls, tag="id"))
        for row in pts[n_per_class:]:
            id_test.append(LabeledSample(row.copy(), cls, tag="id"))
    n_ood = k * n_test
    ood_pts = rng.split(1).normals(n_ood * dim).reshape(n_ood, dim) + ood_center
    ood_test = [LabeledSample(row.copy(), 0, tag="ood") for row in ood_pts]
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
    id_train, id_test = [], []
    for cls, kind in enumerate(id_shapes):
        for i in range(n + n_test):
            img, box = _render_shape(kind, max_size, image_size, rng.split(0, cls, i))
            sample = LabeledSample(img, cls, box=box, tag="id")
            (id_train if i < n else id_test).append(sample)
    ood_test = []
    for off, kind in enumerate(ood_shapes):
        for i in range(n_test):
            img, box = _render_shape(kind, max_size, image_size, rng.split(1, off, i))
            ood_test.append(LabeledSample(img, 0, box=box, tag="ood"))
    prov = {"generator": "shapes", "seed": seed,
            "params": {"image_size": image_size, "id_shapes": list(id_shapes),
                       "ood_shapes": list(ood_shapes), "n": n}}
    return BenchmarkPairing(id_train, id_test, ood_test, prov)


# ---------------------------------------------------------------------------
# pairing persistence + content digest
# ---------------------------------------------------------------------------

def _split_arrays(samples: list):
    inputs = np.stack([s.input for s in samples]).astype(np.float64)
    labels = np.asarray([s.label for s in samples], dtype=np.int64)
    boxes = None
    if samples and samples[0].box is not None:
        boxes = np.stack([s.box for s in samples]).astype(np.float64)
    return inputs, labels, boxes


def content_digest(pairing: BenchmarkPairing) -> str:
    """SHA-256 over the raw sample arrays in a fixed order (independent of
    container-file bytes)."""
    h = hashlib.sha256()
    for split_name, samples in (("id_train", pairing.id_train),
                                ("id_test", pairing.id_test),
                                ("ood_test", pairing.ood_test)):
        h.update(split_name.encode())
        inputs, labels, boxes = _split_arrays(samples)
        h.update(np.ascontiguousarray(inputs).tobytes())
        h.update(labels.tobytes())
        if boxes is not None:
            h.update(np.ascontiguousarray(boxes).tobytes())
    return h.hexdigest()


def save_pairing(pairing: BenchmarkPairing, directory: str) -> dict:
    """Write data.npz plus a manifest.json recording provenance and the
    content digest; returns the manifest."""
    arrays = {}
    for split_name, samples in (("id_train", pairing.id_train),
                                ("id_test", pairing.id_test),
                                ("ood_test", pairing.ood_test)):
        inputs, labels, boxes = _split_arrays(samples)
        arrays[f"{split_name}_inputs"] = inputs
        arrays[f"{split_name}_labels"] = labels
        if boxes is not None:
            arrays[f"{split_name}_boxes"] = boxes
    np.savez(os.path.join(directory, "data.npz"), **arrays)
    manifest = dict(pairing.provenance)
    manifest["digest"] = content_digest(pairing)
    with open(os.path.join(directory, "manifest.json"), "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return manifest


def load_pairing(directory: str) -> BenchmarkPairing:
    with open(os.path.join(directory, "manifest.json")) as fh:
        manifest = json.load(fh)
    data = np.load(os.path.join(directory, "data.npz"))
    splits = {}
    for split_name, tag in (("id_train", "id"), ("id_test", "id"), ("ood_test", "ood")):
        inputs = data[f"{split_name}_inputs"]
        labels = data[f"{split_name}_labels"]
        boxes = data.get(f"{split_name}_boxes")
        splits[split_name] = [
            LabeledSample(inputs[i], int(labels[i]),
                          box=None if boxes is None else boxes[i], tag=tag)
            for i in range(inputs.shape[0])
        ]
    digest = manifest.pop("digest", None)
    pairing = BenchmarkPairing(splits["id_train"], splits["id_test"],
                               splits["ood_test"], manifest)
    if digest is not None and content_digest(pairing) != digest:
        raise ValueError("dataset content does not match manifest digest")
    return pairing
