"""Output checks computed apart from the program.

Nothing here imports `bayeslayers`: AUROC is a brute-force pairwise count,
FPR95 a plain threshold sweep, and the micro-mlp forward reads the BLYR
file itself. `scores.csv` holds scores to 9 significant digits, so a check
against a metric the program computed from exact scores allows for the
pairs whose order the rounding can hide (counted, never guessed).
"""

import csv
import hashlib
import json
import os
import struct

import numpy as np


def _rounded(x: float) -> float:
    return float(f"{x:.9g}")


def pairwise_auroc(id_scores, ood_scores, near: float = 0.0):
    """(AUROC with ties at 1/2, count of ID/OOD pairs within `near`)."""
    diff = np.asarray(id_scores)[:, None] - np.asarray(ood_scores)[None, :]
    wins = np.count_nonzero(diff > 0) + 0.5 * np.count_nonzero(diff == 0)
    return wins / diff.size, int(np.count_nonzero(np.abs(diff) <= near))


def sweep_fpr(id_scores, ood_scores, tpr_target: float):
    """(gamma, FPR): the highest threshold over the ID scores that keeps at
    least tpr_target of them, and the OOD share at or above it."""
    ids = np.asarray(id_scores)
    for t in np.unique(ids)[::-1]:
        if np.mean(ids >= t) >= tpr_target:
            return float(t), float(np.mean(np.asarray(ood_scores) >= t))
    raise ValueError("no threshold reaches the TPR target")


def read_scores(path: str) -> dict:
    with open(path) as fh:
        rows = list(csv.DictReader(fh))
    return {
        "id": np.array([float(r["score"]) for r in rows if r["split"] == "id"]),
        "ood": np.array([float(r["score"]) for r in rows if r["split"] == "ood"]),
        "std": np.array([float(r["score_std"]) for r in rows]),
        "pred_id": np.array([int(r["predicted_class"]) for r in rows if r["split"] == "id"]),
    }


def read_loss_curve(path: str) -> list:
    with open(path) as fh:
        return [float(r["loss"]) for r in csv.DictReader(fh)]


def report_digest(path: str) -> str:
    """SHA-256 of a report with its timings block removed."""
    with open(path) as fh:
        doc = json.load(fh)
    if isinstance(doc, dict):
        doc.pop("timings", None)
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


def read_blyr(path: str) -> dict:
    """Minimal BLYR reader: {"layers": [(name, kind, [tensors in file order])],
    "class_count", "backbone_end"}. Tensors are little-endian float32."""
    kinds = {0: "conv2d", 1: "linear", 2: "batchnorm", 3: "relu",
             4: "maxpool2", 5: "flatten"}
    with open(path, "rb") as fh:
        data = fh.read()
    pos = 0

    def take(fmt):
        nonlocal pos
        vals = struct.unpack_from(fmt, data, pos)
        pos += struct.calcsize(fmt)
        return vals

    if data[:4] != b"BLYR":
        raise ValueError("not a BLYR file")
    pos = 4
    _version, class_count, _box, backbone_end, count = take("<IIBII")
    layers = []
    for _ in range(count):
        (nlen,) = take("<H")
        name = data[pos:pos + nlen].decode()
        pos += nlen
        (code,) = take("<B")
        take("<II")  # stride, padding
        (tcount,) = take("<B")
        tensors = []
        for _ in range(tcount):
            (rank,) = take("<B")
            dims = take(f"<{rank}I")
            size = int(np.prod(dims)) if dims else 1
            arr = np.frombuffer(data, "<f4", size, pos).reshape(dims)
            pos += 4 * size
            tensors.append(arr.astype(np.float64))
        layers.append((name, kinds[code], tensors))
    return {"layers": layers, "class_count": class_count, "backbone_end": backbone_end}


def mlp_logits(model: dict, x: np.ndarray) -> np.ndarray:
    """Deterministic forward of a flatten/linear/relu stack."""
    h = np.asarray(x, dtype=np.float64).reshape(len(x), -1)
    for name, kind, tensors in model["layers"]:
        if kind == "linear":
            w, b = tensors
            h = h @ w.T + b
        elif kind == "relu":
            h = np.maximum(h, 0.0)
        elif kind != "flatten":
            raise ValueError(f"layer {name!r}: {kind} is not part of an MLP")
    return h[:, :model["class_count"]]


def energy_scores(logits: np.ndarray, temperature: float, phi: float) -> np.ndarray:
    """S = logistic(phi * T * logsumexp(logits)), held inside the open
    interval (0, 1) as the program documents."""
    m = logits.max(axis=1)
    lse = m + np.log(np.exp(logits - m[:, None]).sum(axis=1))
    x = phi * temperature * lse
    s = np.where(x >= 0, 1.0 / (1.0 + np.exp(-np.abs(x))),
                 np.exp(-np.abs(x)) / (1.0 + np.exp(-np.abs(x))))
    return np.clip(s, 5e-324, 1.0 - 2.0 ** -53)


def resolve_policy(model: dict, policy: str) -> tuple:
    """Layer names a selection policy picks, read off the model's layer
    kinds and backbone boundary."""
    picked = []
    for idx, (name, kind, _) in enumerate(model["layers"]):
        backbone = idx < model["backbone_end"]
        if ((policy == "conv_backbone" and kind == "conv2d" and backbone)
                or (policy == "linear_backbone" and kind == "linear" and backbone)
                or (policy == "conv_all" and kind == "conv2d")
                or (policy == "linear_all" and kind == "linear")
                or (policy == "full" and kind in ("conv2d", "linear", "batchnorm"))):
            picked.append(name)
    return tuple(picked)


# ---------------------------------------------------------------------------
# per-round check lists; each returns [(name, ok, detail), ...] of fixed
# length for its kind of workload, so every round attempts the same checks
# ---------------------------------------------------------------------------

EVAL_CHECKS = ("auroc_from_scores", "fpr95_from_scores", "id_accuracy_from_labels",
               "gamma_keeps_tpr", "score_std_positive", "train_loss_decreased")
ABLATE_CHECKS = ("train_loss_decreased", "same_selection_rows_equal",
                 "sampled_rows_differ_from_none",
                 "none_auroc_independent", "none_fpr95_independent",
                 "none_id_accuracy_independent")


def _train_loss(round_dir: str):
    curve = read_loss_curve(os.path.join(round_dir, "train", "loss_curve.csv"))
    return ("train_loss_decreased", curve[-1] < curve[0],
            f"epoch 0 loss {curve[0]:.6g}, final {curve[-1]:.6g}")


def eval_checks(round_dir: str, cfg: dict) -> list:
    with open(os.path.join(round_dir, "eval", "report.json")) as fh:
        metrics = json.load(fh)["metrics"]
    sc = read_scores(os.path.join(round_dir, "eval", "scores.csv"))
    labels = np.load(os.path.join(round_dir, "data", "data.npz"))["id_test_labels"]
    target = cfg["tpr_target"]
    pairs = sc["id"].size * sc["ood"].size
    out = []

    brute, ties = pairwise_auroc(sc["id"], sc["ood"])
    tol = 0.5 * ties / pairs + 1e-12
    out.append(("auroc_from_scores", abs(brute - metrics["auroc"]) <= tol,
                f"report {metrics['auroc']:.9g}, pairwise {brute:.9g}, tolerance {tol:.3g}"))

    gamma, fpr = sweep_fpr(sc["id"], sc["ood"], target)
    tol = np.count_nonzero(sc["ood"] == gamma) / sc["ood"].size + 1e-12
    out.append(("fpr95_from_scores", abs(fpr - metrics["fpr95"]) <= tol,
                f"report {metrics['fpr95']:.9g}, sweep {fpr:.9g}, tolerance {tol:.3g}"))

    acc = float(np.mean(sc["pred_id"] == labels)) if labels.size == sc["pred_id"].size else -1.0
    out.append(("id_accuracy_from_labels", acc == metrics["id_accuracy"],
                f"report {metrics['id_accuracy']:.9g}, recomputed {acc:.9g}"))

    kept = float(np.mean(sc["id"] >= _rounded(metrics["gamma"])))
    out.append(("gamma_keeps_tpr", kept >= target,
                f"gamma {metrics['gamma']:.9g} keeps {kept:.4f} of ID scores, target {target}"))

    n_zero = int(np.count_nonzero(sc["std"] <= 0))
    out.append(("score_std_positive", n_zero == 0,
                f"{n_zero} of {sc['std'].size} inputs have score_std 0 under {cfg['policy']}"))

    out.append(_train_loss(round_dir))
    return out


def ablate_checks(round_dir: str, cfg: dict) -> list:
    with open(os.path.join(round_dir, "ablate", "ablation.json")) as fh:
        rows = {r["policy"]: r for r in json.load(fh)}
    model = read_blyr(os.path.join(round_dir, "train", "model.blyr"))
    data = np.load(os.path.join(round_dir, "data", "data.npz"))
    out = [_train_loss(round_dir)]

    groups = {}
    for policy in rows:
        groups.setdefault(resolve_policy(model, policy), []).append(policy)
    keys = ("fpr95", "auroc", "id_accuracy", "gamma", "nll")
    unequal = [g for g in groups.values()
               if any(rows[p][k] != rows[g[0]][k] for p in g for k in keys)]
    out.append(("same_selection_rows_equal", len(rows) == 6 and not unequal,
                f"{len(rows)} rows in {len(groups)} selection groups "
                f"{sorted(groups.values())}; unequal groups {unequal}"))

    none = rows.get("none", {})
    same = [p for sel, g in groups.items() if sel for p in g
            if rows[p]["nll"] == none.get("nll")]
    out.append(("sampled_rows_differ_from_none", bool(none) and not same,
                f"policies that select layers yet report the deterministic nll: {same}"))

    id_logits = mlp_logits(model, data["id_test_inputs"])
    s_id = energy_scores(id_logits, cfg["temperature"], cfg["phi"])
    s_ood = energy_scores(mlp_logits(model, data["ood_test_inputs"]),
                          cfg["temperature"], cfg["phi"])
    pairs = s_id.size * s_ood.size
    brute, near = pairwise_auroc(s_id, s_ood, near=1e-12)
    tol = (0.5 * near + 0.5) / pairs
    got = none.get("auroc", float("nan"))
    out.append(("none_auroc_independent", abs(brute - got) <= tol,
                f"ablation {got:.9g}, numpy forward {brute:.9g}, tolerance {tol:.3g}"))

    gamma, fpr = sweep_fpr(s_id, s_ood, cfg["tpr_target"])
    tol = (np.count_nonzero(np.abs(s_ood - gamma) <= 1e-12) + 0.5) / s_ood.size
    got = none.get("fpr95", float("nan"))
    out.append(("none_fpr95_independent", abs(fpr - got) <= tol,
                f"ablation {got:.9g}, numpy forward {fpr:.9g}, tolerance {tol:.3g}"))

    top2 = np.sort(id_logits, axis=1)[:, -2:]
    near = int(np.count_nonzero(top2[:, 1] - top2[:, 0] <= 1e-12))
    acc = float(np.mean(np.argmax(id_logits, axis=1) == data["id_test_labels"]))
    got = none.get("id_accuracy", float("nan"))
    out.append(("none_id_accuracy_independent",
                abs(acc - got) <= (near + 0.5) / id_logits.shape[0],
                f"ablation {got:.9g}, numpy forward {acc:.9g}"))
    return out
