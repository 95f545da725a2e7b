"""Command-line front end: generate data, train, calibrate, evaluate,
run the layer-selection ablation, and merge reports.

Every command is a pure function of (config file, input files, seed);
reruns produce byte-identical outputs except the timings block. Exit codes:
0 success, 2 config error, 3 I/O error, 4 training divergence, 5 sampler
exhaustion, 6 numeric error (a non-finite forward output during
calibrate, eval or ablate-layers).
"""

import argparse
import copy
import json
import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import MISSING, dataclass, field, fields

import numpy as np

from . import datasets
from .bayes import (EnsembleConfig, SamplerExhaustedError, SelectionPolicy,
                    POLICIES, build_posteriors, mc_predict, predictive_mean,
                    select_layers)
from .metrics import (BenchmarkReport, ScoreSet, auroc, fpr_at_tpr,
                      id_task_metrics, roc_curve, roc_to_csv)
from .network import (PersistenceError, TrainConfig, TrainingDivergedError,
                      PRESETS, build_model, forward_batch, load_model,
                      save_model, train_sgd)
from .numerics import NumericsError, ShapeError
from .scoring import (AGGREGATIONS, OodScoreRecord, ScoringConfig,
                      calibrate_gamma, nll, score_ensemble)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_DIVERGED = 4
EXIT_SAMPLER = 5
EXIT_NUMERIC = 6

_RUN_KEYS = {"dataset", "architecture", "train", "policy", "layers", "alpha",
             "q", "t_mc", "temperature", "phi", "aggregation", "tpr_target",
             "seed", "threads"}
_RUN_TYPES = {"alpha": float, "q": float, "t_mc": int, "temperature": float,
              "phi": float, "tpr_target": float, "seed": int, "threads": int}
# `train` keys: the TrainConfig fields; its seed is the run's seed
_TRAIN_FIELDS = {f.name: f for f in fields(TrainConfig) if f.name != "seed"}
_GENERATORS = {"blobs": datasets.gen_blobs, "shapes": datasets.gen_shapes}


class ConfigError(ValueError):
    pass


def _check_types(section: str, values: dict, types: dict) -> None:
    """Reject a value that is not of its key's type: an int field takes
    only integers, a float field any number; booleans are neither."""
    for key, want in types.items():
        value = values.get(key)
        if value is None:
            continue
        ok = isinstance(value, int if want is int else (int, float))
        if isinstance(value, bool) or not ok:
            kind = "an integer" if want is int else "a number"
            raise ConfigError(f"{section}{key} must be {kind}, got {value!r}")


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
    threads: int | None = None

    def __post_init__(self):
        _check_types("", vars(self), _RUN_TYPES)
        if not isinstance(self.dataset, dict):
            raise ConfigError("dataset must be an object")
        if not isinstance(self.dataset.get("params", {}), dict):
            raise ConfigError("dataset.params must be an object")
        if not isinstance(self.dataset.get("path", ""), str):
            raise ConfigError("dataset.path must be a string")
        if not isinstance(self.train, dict):
            raise ConfigError("train must be an object")
        unknown = set(self.train) - set(_TRAIN_FIELDS)
        if unknown:
            raise ConfigError(f"unknown train keys: {sorted(unknown)}")
        _check_types("train.", self.train, {k: f.type for k, f in _TRAIN_FIELDS.items()})
        if self.architecture not in PRESETS:
            raise ConfigError(f"unknown architecture {self.architecture!r}")
        if self.policy not in POLICIES:
            raise ConfigError(f"unknown policy {self.policy!r}")
        if self.aggregation not in AGGREGATIONS:
            raise ConfigError(f"unknown aggregation {self.aggregation!r}")
        if self.alpha <= 0:
            raise ConfigError("alpha must be positive")
        if not 0 <= self.q < 1:
            raise ConfigError("q must be in [0, 1)")
        if self.t_mc < 1:
            raise ConfigError("t_mc must be >= 1")
        if self.threads is not None and self.threads < 1:
            raise ConfigError("threads must be >= 1")
        if self.temperature <= 0 or self.phi <= 0:
            raise ConfigError("temperature and phi must be positive")
        if not 0 < self.tpr_target <= 1:
            raise ConfigError("tpr_target must be in (0, 1]")

    @classmethod
    def from_dict(cls, raw: dict) -> "RunConfig":
        if not isinstance(raw, dict):
            raise ConfigError("config must be a JSON object")
        unknown = set(raw) - _RUN_KEYS
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        if "dataset" not in raw:
            raise ConfigError("config needs a 'dataset' section")
        try:
            return cls(**raw)
        except TypeError as exc:
            raise ConfigError(str(exc)) from exc

    def echo(self) -> dict:
        """Config block embedded in reports (everything that shapes results)."""
        return {"dataset": self.dataset, "architecture": self.architecture,
                "train": self.train, "policy": self.policy, "layers": self.layers,
                "alpha": self.alpha, "q": self.q, "t_mc": self.t_mc,
                "temperature": self.temperature, "phi": self.phi,
                "aggregation": self.aggregation, "tpr_target": self.tpr_target}


def load_config(path: str, seed: int | None = None,
                threads: int | None = None) -> RunConfig:
    with open(path) as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"invalid JSON in {path}: {exc}") from exc
    if isinstance(raw, dict):
        if seed is not None:
            raw["seed"] = seed
        if threads is not None:
            raw["threads"] = threads
    return RunConfig.from_dict(raw)


def resolve_dataset(cfg: RunConfig) -> datasets.BenchmarkPairing:
    spec = cfg.dataset
    if "path" in spec:
        return datasets.load_pairing(spec["path"])
    gen = spec.get("generator")
    if gen not in _GENERATORS:
        raise ConfigError(f"unknown dataset generator {gen!r}")
    try:
        return _GENERATORS[gen](spec.get("seed", cfg.seed), **spec.get("params", {}))
    except TypeError as exc:  # an unknown or ill-typed generator parameter
        raise ConfigError(f"dataset.params: {exc}") from exc


def build_and_train(cfg: RunConfig, pairing: datasets.BenchmarkPairing):
    """Construct the preset architecture for this pairing and train it."""
    first = pairing.id_train[0]
    k = max(s.label for s in pairing.id_train) + 1
    has_box = first.box is not None
    missing = [key for key, f in _TRAIN_FIELDS.items()
               if f.default is MISSING and key not in cfg.train]
    if missing:
        raise ConfigError(f"train needs keys {missing}")
    model = build_model(cfg.architecture, first.input.shape, k,
                        has_box_head=has_box, seed=cfg.seed)
    train_cfg = TrainConfig(seed=cfg.seed, **cfg.train)
    return train_sgd(model, pairing.id_train, train_cfg)


def _thread_count(cfg: RunConfig) -> int:
    if cfg.threads is not None:
        return cfg.threads
    env = os.environ.get("BAYESLAYERS_THREADS")
    return max(1, int(env)) if env else 1


def _ensemble_logits(model, samples, cfg: RunConfig):
    """Ensemble logits (N, T, K) and boxes (N, T, 4) or None of `samples`.

    Sample i draws its weights from the child generator streams keyed by
    (i,), so results do not depend on the worker count. An empty selection
    draws nothing: it is one batched deterministic forward, with T = 1.
    """
    inputs = [s.input for s in samples]
    selection = select_layers(model, SelectionPolicy(cfg.policy, cfg.layers))
    if not selection:
        logits, boxes, _ = forward_batch(model, np.stack(inputs))
        return logits[:, None], None if boxes is None else boxes[:, None]
    posteriors = build_posteriors(model, selection, cfg.alpha, cfg.q)
    ens_cfg = EnsembleConfig(sample_count=cfg.t_mc, seed=cfg.seed)

    def work(item):
        idx, x = item
        return mc_predict(model, posteriors, x, ens_cfg, stream=(idx,))

    workers = _thread_count(cfg)
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(work, enumerate(inputs)))
    else:
        results = [work(item) for item in enumerate(inputs)]
    logits = np.stack([lg for lg, _ in results])
    boxes = None if results[0][1] is None else np.stack([b for _, b in results])
    return logits, boxes


def _scoring_config(cfg: RunConfig) -> ScoringConfig:
    return ScoringConfig(cfg.temperature, cfg.phi, cfg.aggregation)


def evaluate_pairing(model, pairing, cfg: RunConfig):
    """Score every test sample (ID first, then OOD) with the MC ensemble and
    compute the report."""
    t0 = time.perf_counter()
    test = list(pairing.id_test) + list(pairing.ood_test)
    logits, boxes = _ensemble_logits(model, test, cfg)
    score, score_std, energy_mean = score_ensemble(logits, _scoring_config(cfg))
    mean_probs, mean_box = predictive_mean(logits, boxes)
    predicted = np.argmax(mean_probs, axis=-1)
    records = [
        OodScoreRecord(sample_id=i, energy_mean=float(energy_mean[i]),
                       score=float(score[i]), score_std=float(score_std[i]),
                       is_id_truth=(s.tag == "id"), predicted_class=int(predicted[i]),
                       predicted_box=None if mean_box is None else mean_box[i])
        for i, s in enumerate(test)]

    n_id = len(pairing.id_test)
    id_records = records[:n_id]
    scores = ScoreSet(score[:n_id], score[n_id:])
    gamma = calibrate_gamma(scores.id_scores, cfg.tpr_target)
    predictions = [(r.predicted_class, r.predicted_box) for r in id_records]
    truths = [(s.label, s.box) for s in pairing.id_test]
    accuracy, det_accuracy = id_task_metrics(predictions, truths)
    id_nll = nll(zip(mean_probs[:n_id], (s.label for s in pairing.id_test)))
    report = BenchmarkReport(
        fpr95=fpr_at_tpr(scores, cfg.tpr_target),
        auroc=auroc(scores),
        id_accuracy=accuracy,
        box_iou_accuracy=det_accuracy,
        nll=id_nll,
        gamma=gamma,
        config=cfg.echo(),
        seed=cfg.seed,
        timings={"eval_seconds": time.perf_counter() - t0},
    )
    return report, records, scores


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def _require_dir(path: str) -> str:
    if not os.path.isdir(path):
        raise OSError(f"output directory does not exist: {path}")
    return path


def _write_report(report: BenchmarkReport, out_dir: str, records=None,
                  scores: ScoreSet | None = None, name: str = "report.json"):
    doc = {"metrics": report.metrics_dict(), "config": report.config,
           "seed": report.seed, "timings": report.timings}
    with open(os.path.join(out_dir, name), "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    if scores is not None:
        with open(os.path.join(out_dir, "roc.csv"), "w") as fh:
            fh.write(roc_to_csv(roc_curve(scores)))
    if records is not None:
        with open(os.path.join(out_dir, "scores.csv"), "w") as fh:
            fh.write("sample_id,split,score,score_std,energy_mean,predicted_class\n")
            for r in records:
                split = "id" if r.is_id_truth else "ood"
                fh.write(f"{r.sample_id},{split},{r.score:.9g},{r.score_std:.9g},"
                         f"{r.energy_mean:.9g},{r.predicted_class}\n")
    return doc


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
    _require_dir(out_dir)
    model = load_model(model_path)
    pairing = resolve_dataset(cfg)
    # gamma depends on the ID scores alone; ID inputs lead the test list, so
    # they keep the streams they draw from in `eval`
    logits, _ = _ensemble_logits(model, pairing.id_test, cfg)
    score, _, _ = score_ensemble(logits, _scoring_config(cfg))
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
    report, records, scores = evaluate_pairing(model, pairing, cfg)
    _write_report(report, out_dir, records, scores)
    print(json.dumps(report.metrics_dict(), sort_keys=True))
    return EXIT_OK


def cmd_ablate_layers(cfg: RunConfig, model_path: str, out_dir: str) -> int:
    _require_dir(out_dir)
    model = load_model(model_path)
    pairing = resolve_dataset(cfg)
    # policies that resolve to the same layers share one evaluation
    by_selection = {}
    rows = []
    for policy in POLICIES:
        sub = copy.deepcopy(cfg)
        sub.policy = policy
        sub.layers = None
        key = tuple(select_layers(model, policy))
        if key not in by_selection:
            report, _, _ = evaluate_pairing(model, pairing, sub)
            by_selection[key] = report.metrics_dict()
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


def cmd_report(paths: list, out_dir: str | None) -> int:
    if not paths:
        raise ConfigError("need at least one report")
    docs = []
    for p in paths:
        with open(p) as fh:
            docs.append(json.load(fh))
    base = json.dumps(docs[0].get("config"), sort_keys=True)
    for d in docs[1:]:
        if json.dumps(d.get("config"), sort_keys=True) != base:
            raise ConfigError("reports were produced with different configs")
    keys = sorted(docs[0]["metrics"])
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
        p.add_argument("--threads", type=int, default=None)
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


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "report":
            return cmd_report(args.reports, args.out)
        cfg = load_config(args.config, seed=args.seed, threads=args.threads)
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
    except (ConfigError, KeyError, ShapeError) as exc:
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
