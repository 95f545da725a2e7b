"""Command-line front end: generate data, train, calibrate, evaluate,
run the layer-selection ablation, and merge reports.

Every command is a pure function of (config file, input files, seed);
reruns produce byte-identical outputs except the timings block. Exit codes:
0 success, 2 config error, 3 I/O error (a missing or malformed model or
dataset file too), 4 training divergence, 5 sampler exhaustion, 6 numeric
error (a non-finite forward output during calibrate, eval or
ablate-layers).
"""

import argparse
import ctypes
import json
import math
import os
import sys
import time
from dataclasses import MISSING, dataclass, field, fields, replace

import numpy as np

from . import datasets
from .bayes import (SamplerExhaustedError, POLICIES, build_posteriors,
                    mc_predict, predictive_mean, select_layers)
from .metrics import (ScoreSet, auroc, fpr_at_tpr, id_task_metrics, roc_curve,
                      roc_to_csv)
from .network import (PersistenceError, TrainConfig, TrainingDivergedError,
                      PRESETS, build_model, load_model, save_model,
                      train_sgd)
from .numerics import NumericsError, ShapeError
from .scoring import AGGREGATIONS, calibrate_gamma, nll, score_ensemble

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_DIVERGED = 4
EXIT_SAMPLER = 5
EXIT_NUMERIC = 6

# `train` keys: the TrainConfig fields; its seed is the run's seed
_TRAIN_FIELDS = {f.name: f for f in fields(TrainConfig) if f.name != "seed"}


class ConfigError(ValueError):
    pass


def _check_types(section: str, values: dict, cls) -> None:
    """Reject a value that is not of its key's type in dataclass `cls`: an
    int field takes only integers, a float field any finite number (JSON
    reads NaN, Infinity and integers beyond the float range); booleans are
    neither. Fields of other types and absent keys are not checked here."""
    for f in fields(cls):
        if f.type not in (int, float) or f.name not in values:
            continue
        value = values[f.name]
        ok = isinstance(value, int if f.type is int else (int, float))
        if isinstance(value, bool) or not ok:
            kind = "an integer" if f.type is int else "a number"
            raise ConfigError(f"{section}{f.name} must be {kind}, got {value!r}")
        if f.type is float:
            try:
                finite = math.isfinite(value)
            except OverflowError:  # an integer beyond the float range
                finite = False
            if not finite:
                raise ConfigError(f"{section}{f.name} must be a finite number")


@dataclass
class RunConfig:
    dataset: dict
    architecture: str = "micro-mlp"
    train: dict = field(default_factory=dict)
    policy: str = "none"
    layers: list | None = None
    alpha: float = 0.05
    q: float = 0.05
    t_mc: int = 30
    temperature: float = 1.0
    phi: float = 1.0
    aggregation: str = "mean_score"
    tpr_target: float = 0.95
    seed: int = 0

    def __post_init__(self):
        _check_types("", vars(self), RunConfig)
        if not isinstance(self.dataset, dict):
            raise ConfigError("dataset must be an object")
        seed = self.dataset.get("seed", 0)
        if isinstance(seed, bool) or not isinstance(seed, int):
            raise ConfigError(f"dataset.seed must be an integer, got {seed!r}")
        if not isinstance(self.dataset.get("params", {}), dict):
            raise ConfigError("dataset.params must be an object")
        if not isinstance(self.dataset.get("path", ""), str):
            raise ConfigError("dataset.path must be a string")
        if not isinstance(self.train, dict):
            raise ConfigError("train must be an object")
        unknown = set(self.train) - set(_TRAIN_FIELDS)
        if unknown:
            raise ConfigError(f"unknown train keys: {sorted(unknown)}")
        _check_types("train.", self.train, TrainConfig)
        if self.architecture not in PRESETS:
            raise ConfigError(f"unknown architecture {self.architecture!r}")
        if self.policy not in POLICIES:
            raise ConfigError(f"unknown policy {self.policy!r}")
        if self.layers is not None and not (
                isinstance(self.layers, list) and all(isinstance(n, str) for n in self.layers)):
            raise ConfigError(f"layers must be a list of layer names, got {self.layers!r}")
        if self.aggregation not in AGGREGATIONS:
            raise ConfigError(f"unknown aggregation {self.aggregation!r}")
        if self.alpha <= 0:
            raise ConfigError("alpha must be positive")
        if not 0 <= self.q < 1:
            raise ConfigError("q must be in [0, 1)")
        if self.t_mc < 1:
            raise ConfigError("t_mc must be >= 1")
        if self.temperature <= 0 or self.phi <= 0:
            raise ConfigError("temperature and phi must be positive")
        if not 0 < self.tpr_target <= 1:
            raise ConfigError("tpr_target must be in (0, 1]")

    @classmethod
    def from_dict(cls, raw: dict) -> "RunConfig":
        if not isinstance(raw, dict):
            raise ConfigError("config must be a JSON object")
        unknown = set(raw) - {f.name for f in fields(cls)}
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        if "dataset" not in raw:
            raise ConfigError("config needs a 'dataset' section")
        try:
            return cls(**raw)
        except TypeError as exc:
            raise ConfigError(str(exc)) from exc

    def echo(self) -> dict:
        """Config block embedded in reports: every key but `seed`, which is
        reported on its own."""
        return {f.name: getattr(self, f.name) for f in fields(self) if f.name != "seed"}


def _read_json(path: str):
    with open(path) as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"invalid JSON in {path}: {exc}") from exc


def load_config(path: str, seed: int | None = None) -> RunConfig:
    raw = _read_json(path)
    if isinstance(raw, dict) and seed is not None:
        raw["seed"] = seed
    return RunConfig.from_dict(raw)


def resolve_dataset(cfg: RunConfig) -> datasets.BenchmarkPairing:
    spec = cfg.dataset
    if "path" in spec:
        return datasets.load_pairing(spec["path"])
    gen = spec.get("generator")
    if gen not in ("blobs", "shapes"):
        raise ConfigError(f"unknown dataset generator {gen!r}")
    # looked up at call time, so a wrapped generator is the one called
    generate = getattr(datasets, f"gen_{gen}")
    try:
        return generate(spec.get("seed", cfg.seed), **spec.get("params", {}))
    except TypeError as exc:  # an unknown or ill-typed generator parameter
        raise ConfigError(f"dataset.params: {exc}") from exc


def build_and_train(cfg: RunConfig, pairing: datasets.BenchmarkPairing):
    """Construct the preset architecture for this pairing and train it."""
    train = pairing.id_train
    missing = [key for key, f in _TRAIN_FIELDS.items()
               if f.default is MISSING and key not in cfg.train]
    if missing:
        raise ConfigError(f"train needs keys {missing}")
    model = build_model(cfg.architecture, train.inputs.shape[1:],
                        int(train.labels.max()) + 1,
                        has_box_head=train.boxes is not None, seed=cfg.seed)
    train_cfg = TrainConfig(seed=cfg.seed, **cfg.train)
    return train_sgd(model, train, train_cfg)


def _ensemble_logits(model, inputs: np.ndarray, cfg: RunConfig):
    """Ensemble logits (N, T, K) and boxes (N, T, 4) or None of the inputs
    (N, ...), all run through one set of T_mc weight draws."""
    posteriors = build_posteriors(model, select_layers(model, cfg.policy, cfg.layers),
                                  cfg.alpha, cfg.q)
    return mc_predict(model, posteriors, inputs, cfg.t_mc, cfg.seed)


def evaluate_pairing(model, pairing, cfg: RunConfig):
    """Score every test input, the ID split then the OOD split, with the MC
    ensemble and compute the report.

    Returns (report, per_input, scores): report is the report.json document
    {"metrics", "config", "seed", "timings"}, per_input maps `score`,
    `score_std`, `energy_mean` and `predicted_class` to arrays over the test
    inputs in that order, and scores is their ScoreSet.
    """
    t0 = time.perf_counter()
    id_test = pairing.id_test
    data_classes = int(id_test.labels.max(initial=0)) + 1
    if data_classes > model.class_count:
        raise ConfigError(f"the model has {model.class_count} classes, "
                          f"the dataset {data_classes}")
    inputs = np.concatenate([id_test.inputs, pairing.ood_test.inputs])
    logits, boxes = _ensemble_logits(model, inputs, cfg)
    score, score_std, energy_mean = score_ensemble(logits, cfg.phi, cfg.temperature,
                                                   cfg.aggregation)
    mean_probs, mean_box = predictive_mean(logits, boxes)
    predicted = np.argmax(mean_probs, axis=-1)
    per_input = {"score": score, "score_std": score_std, "energy_mean": energy_mean,
                 "predicted_class": predicted}

    n_id = len(id_test)
    scores = ScoreSet(score[:n_id], score[n_id:])
    gamma = calibrate_gamma(scores.id_scores, cfg.tpr_target)
    accuracy, det_accuracy = id_task_metrics(
        predicted[:n_id], id_test.labels,
        None if mean_box is None else mean_box[:n_id], id_test.boxes)
    metrics = {"fpr95": fpr_at_tpr(scores, cfg.tpr_target), "auroc": auroc(scores),
               "id_accuracy": accuracy, "gamma": gamma,
               "nll": nll(mean_probs[:n_id], id_test.labels)}
    if det_accuracy is not None:
        metrics["box_iou_accuracy"] = det_accuracy
    report = {"metrics": metrics, "config": cfg.echo(), "seed": cfg.seed,
              "timings": {"eval_seconds": time.perf_counter() - t0}}
    return report, per_input, scores


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def _require_dir(path: str) -> str:
    if not os.path.isdir(path):
        raise OSError(f"output directory does not exist: {path}")
    return path


def _write_report(report: dict, out_dir: str, per_input: dict,
                  scores: ScoreSet) -> None:
    """report.json, roc.csv and scores.csv of one evaluate_pairing result."""
    with open(os.path.join(out_dir, "report.json"), "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    with open(os.path.join(out_dir, "roc.csv"), "w") as fh:
        fh.write(roc_to_csv(roc_curve(scores)))
    # rows follow evaluate_pairing's order: the ID inputs lead
    n_id = scores.id_scores.size
    rows = zip(*(per_input[key].tolist()
                 for key in ("score", "score_std", "energy_mean", "predicted_class")))
    with open(os.path.join(out_dir, "scores.csv"), "w") as fh:
        fh.write("sample_id,split,score,score_std,energy_mean,predicted_class\n")
        fh.writelines(f"{i},{'id' if i < n_id else 'ood'},{s:.9g},{sd:.9g},{e:.9g},{c}\n"
                      for i, (s, sd, e, c) in enumerate(rows))


def cmd_gen_data(cfg: RunConfig, out_dir: str) -> int:
    _require_dir(out_dir)
    pairing = resolve_dataset(cfg)
    manifest = datasets.save_pairing(pairing, out_dir)
    print(f"wrote dataset to {out_dir} (digest {manifest['digest'][:12]}...)")
    return EXIT_OK


def cmd_train(cfg: RunConfig, out_dir: str) -> int:
    _require_dir(out_dir)
    pairing = resolve_dataset(cfg)
    model, curve = build_and_train(cfg, pairing)
    model_path = os.path.join(out_dir, "model.blyr")
    save_model(model, model_path)
    with open(os.path.join(out_dir, "loss_curve.csv"), "w") as fh:
        fh.write("epoch,loss\n")
        for i, loss in enumerate(curve):
            fh.write(f"{i},{loss:.9g}\n")
    print(f"trained {cfg.architecture} for {len(curve)} epochs, "
          f"final loss {curve[-1]:.6g}; saved to {model_path}")
    return EXIT_OK


def cmd_calibrate(cfg: RunConfig, model_path: str, out_dir: str) -> int:
    """Write gamma.json from the ID test scores alone: an input's scores
    depend on the seed, the model and that input only, so they equal the
    ones `eval` gives it."""
    _require_dir(out_dir)
    model = load_model(model_path)
    pairing = resolve_dataset(cfg)
    logits, _ = _ensemble_logits(model, pairing.id_test.inputs, cfg)
    score, _, _ = score_ensemble(logits, cfg.phi, cfg.temperature, cfg.aggregation)
    gamma = calibrate_gamma(score, cfg.tpr_target)
    doc = {"gamma": gamma, "tpr_target": cfg.tpr_target, "seed": cfg.seed}
    with open(os.path.join(out_dir, "gamma.json"), "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"gamma = {gamma:.9g} at tpr_target {cfg.tpr_target}")
    return EXIT_OK


def cmd_eval(cfg: RunConfig, model_path: str, out_dir: str) -> int:
    _require_dir(out_dir)
    model = load_model(model_path)
    pairing = resolve_dataset(cfg)
    report, per_input, scores = evaluate_pairing(model, pairing, cfg)
    _write_report(report, out_dir, per_input, scores)
    print(json.dumps(report["metrics"], sort_keys=True))
    return EXIT_OK


def cmd_ablate_layers(cfg: RunConfig, model_path: str, out_dir: str) -> int:
    if cfg.layers is not None:
        # `layers` overrides the policy, so it would override all six
        raise ConfigError("ablate-layers compares the six policies; "
                          "remove 'layers' from the config")
    _require_dir(out_dir)
    model = load_model(model_path)
    pairing = resolve_dataset(cfg)
    # policies that resolve to the same layers share one evaluation
    by_selection = {}
    rows = []
    for policy in POLICIES:
        sub = replace(cfg, policy=policy)
        key = tuple(select_layers(model, policy))
        if key not in by_selection:
            report, _, _ = evaluate_pairing(model, pairing, sub)
            by_selection[key] = report["metrics"]
        row = {"policy": policy, "seed": sub.seed}
        row.update(by_selection[key])
        rows.append(row)
    # the paper's quantity: each policy against the deterministic network
    for row in rows:
        for key in ("auroc", "fpr95", "nll"):
            row[f"delta_{key}"] = row[key] - rows[0][key]
    with open(os.path.join(out_dir, "ablation.json"), "w") as fh:
        json.dump(rows, fh, indent=2, sort_keys=True)
        fh.write("\n")
    cols = ["policy", "seed", "fpr95", "auroc", "id_accuracy", "gamma",
            "delta_auroc", "delta_fpr95", "delta_nll"]
    with open(os.path.join(out_dir, "ablation.csv"), "w") as fh:
        fh.write(",".join(cols) + "\n")
        for row in rows:
            fh.write(",".join(
                row["policy"] if c == "policy" else f"{row[c]:.9g}" if isinstance(row[c], float)
                else str(row[c]) for c in cols) + "\n")
    for row in rows:
        print(f"{row['policy']:>16}: fpr95={row['fpr95']:.4f} auroc={row['auroc']:.4f}")
    return EXIT_OK


def _load_report(path: str) -> dict:
    """A report.json document with its metrics checked to be numbers."""
    doc = _read_json(path)
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: not a report: expected a JSON object, "
                          f"got {type(doc).__name__}")
    metrics = doc.get("metrics")
    if not isinstance(metrics, dict):
        raise ConfigError(f"{path}: not a report: no 'metrics' object")
    for key, value in metrics.items():
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(f"{path}: metric {key!r} is not a number: {value!r}")
    return doc


def cmd_report(paths: list, out_dir: str | None) -> int:
    if not paths:
        raise ConfigError("need at least one report")
    docs = [_load_report(p) for p in paths]
    base = json.dumps(docs[0].get("config"), sort_keys=True)
    keys = sorted(docs[0]["metrics"])
    for p, d in zip(paths[1:], docs[1:]):
        if json.dumps(d.get("config"), sort_keys=True) != base:
            raise ConfigError(f"{p}: produced with a different config than {paths[0]}")
        if sorted(d["metrics"]) != keys:
            raise ConfigError(f"{p}: metrics {sorted(d['metrics'])} differ from "
                              f"{paths[0]}'s {keys}")
    lines = ["metric,mean,std"]
    text = []
    for key in keys:
        vals = np.array([d["metrics"][key] for d in docs], dtype=np.float64)
        mean, std = float(vals.mean()), float(vals.std())
        lines.append(f"{key},{mean:.9g},{std:.9g}")
        text.append(f"{key}: {mean:.4f} +/- {std:.4f} (n={len(docs)})")
    summary = "\n".join(lines) + "\n"
    if out_dir is not None:
        _require_dir(out_dir)
        with open(os.path.join(out_dir, "summary.csv"), "w") as fh:
            fh.write(summary)
    print("\n".join(text))
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing / entry point
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bayeslayers",
        description="Bayesian-layer OOD detection benchmark runner")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, model=False):
        p.add_argument("--config", required=True)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out", required=True)
        if model:
            p.add_argument("--model", required=True)

    common(sub.add_parser("gen-data", help="materialize a dataset"))
    common(sub.add_parser("train", help="train a preset model"))
    common(sub.add_parser("calibrate", help="calibrate the ID threshold gamma"),
           model=True)
    common(sub.add_parser("eval", help="run the OOD benchmark"), model=True)
    common(sub.add_parser("ablate-layers",
                          help="evaluate all six layer-selection policies"), model=True)
    rep = sub.add_parser("report", help="aggregate reports across seeds")
    rep.add_argument("reports", nargs="+")
    rep.add_argument("--out", default=None)
    return parser


def _keep_freed_memory() -> None:
    """Keep freed memory for reuse: glibc otherwise hands large freed blocks
    back to the system, and each numpy temporary is page-faulted back in.
    Both thresholds must be raised (one alone faults more). A no-op where
    the C library has no mallopt."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
        mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
        mallopt.restype = ctypes.c_int
    except (OSError, AttributeError, TypeError):
        return
    mallopt(-1, 1 << 30)  # M_TRIM_THRESHOLD
    mallopt(-3, 1 << 30)  # M_MMAP_THRESHOLD


def main(argv=None) -> int:
    _keep_freed_memory()
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "report":
            return cmd_report(args.reports, args.out)
        cfg = load_config(args.config, seed=args.seed)
        if args.command == "gen-data":
            return cmd_gen_data(cfg, args.out)
        if args.command == "train":
            return cmd_train(cfg, args.out)
        if args.command == "calibrate":
            return cmd_calibrate(cfg, args.model, args.out)
        if args.command == "eval":
            return cmd_eval(cfg, args.model, args.out)
        if args.command == "ablate-layers":
            return cmd_ablate_layers(cfg, args.model, args.out)
        raise ConfigError(f"unknown command {args.command!r}")
    except (ConfigError, ShapeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except TrainingDivergedError as exc:
        print(f"training diverged: {exc}", file=sys.stderr)
        return EXIT_DIVERGED
    except SamplerExhaustedError as exc:
        print(f"sampler exhausted: {exc}", file=sys.stderr)
        return EXIT_SAMPLER
    except (OSError, PersistenceError) as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except NumericsError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
