"""Acceptance suite: one test per criterion, one printed pass/fail line each.

The end-to-end benchmarks (criteria 8-10) train real models and take a few
minutes; everything else is fast.
"""

import math

import numpy as np
import pytest

from bayeslayers.bayes import (EnsembleConfig, GaussianLayerPosterior,
                               POLICIES, build_posteriors,
                               chi_square_quantile, mc_predict,
                               sample_layer_weights, select_layers)
from bayeslayers.cli import RunConfig, build_and_train, evaluate_pairing
from bayeslayers.datasets import gen_blobs, gen_shapes
from bayeslayers.metrics import ScoreSet, auroc, fpr_at_tpr
from bayeslayers.network import (build_model, forward_batch, load_model,
                                 loss_and_gradients, save_model)
from bayeslayers.numerics import Rng
from bayeslayers.scoring import (ScoringConfig, calibrate_gamma, energy,
                                 nll, score_ensemble, uncertainty_score)


def check(criterion: int, ok: bool, detail: str):
    status = "PASS" if ok else "FAIL"
    print(f"criterion {criterion}: {status} ({detail})", flush=True)
    assert ok, f"criterion {criterion}: {detail}"


# ---------------------------------------------------------------------------
# independent oracles
# ---------------------------------------------------------------------------

def fpr_oracle(ids, oods, tpr_target):
    gamma = None
    for candidate in ids:
        if np.mean(ids >= candidate) >= tpr_target:
            if gamma is None or candidate > gamma:
                gamma = candidate
    return float(np.mean(oods >= gamma))


def auroc_oracle(ids, oods):
    wins = 0.0
    for a in ids:
        for b in oods:
            wins += 1.0 if a > b else (0.5 if a == b else 0.0)
    return wins / (len(ids) * len(oods))


def gamma_oracle(scores, tpr_target):
    best = None
    for candidate in np.unique(scores):
        if np.mean(scores >= candidate) >= tpr_target:
            if best is None or candidate > best:
                best = candidate
    return best


class CountingRng(Rng):
    """Counts normals() calls: one call per rejection attempt."""

    def __init__(self, seed):
        super().__init__(seed)
        self.calls = 0

    def normals(self, n):
        self.calls += 1
        return super().normals(n)


# ---------------------------------------------------------------------------
# criteria 1-7, 11, 12: oracle and property checks
# ---------------------------------------------------------------------------

def test_criterion_01_metric_oracle_equivalence():
    rng = np.random.default_rng(100)
    checked = 0
    for _ in range(200):
        n_id = int(rng.integers(1, 201))
        n_ood = int(rng.integers(1, 201))
        if rng.uniform() < 0.5:
            ids = rng.integers(0, 10, size=n_id) / 10.0
            oods = rng.integers(0, 10, size=n_ood) / 10.0
        else:
            ids = rng.uniform(size=n_id)
            oods = rng.uniform(size=n_ood)
        s = ScoreSet(ids, oods)
        assert fpr_at_tpr(s, 0.95) == fpr_oracle(ids, oods, 0.95)
        assert abs(auroc(s) - auroc_oracle(ids, oods)) < 1e-12
        checked += 1
    check(1, checked == 200, f"fpr95/auroc match brute force on {checked} sets")


def test_criterion_02_sampler_acceptance_law():
    n_draws = 10 ** 5
    worst = 0.0
    for q in (0.0, 0.05, 0.5, 0.9):
        for m in (1, 10, 1000):
            post = GaussianLayerPosterior("p", np.zeros(m), 1.0, q)
            rng = CountingRng(int(q * 1000) * 7 + m)
            for _ in range(n_draws):
                draw = sample_layer_weights(post, rng)
                if post.threshold > 0.0:
                    # mean 0, sigma 1: the draw is the z-vector itself
                    assert float(draw @ draw) > post.threshold
            rate = n_draws / rng.calls
            err = abs(rate - (1.0 - q))
            worst = max(worst, err)
            assert err <= 0.02, f"q={q} m={m}: rate {rate:.4f}"
    check(2, True, f"acceptance within 0.02 of 1-q for all 12 cases "
                   f"(worst deviation {worst:.4f}); predicate holds exactly")


def test_criterion_03_chi_square_quantile():
    worst = 0.0
    for q in (0.01, 0.05, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99):
        err = abs(chi_square_quantile(2, q) - (-2.0 * math.log(1.0 - q)))
        worst = max(worst, err)
        assert err <= 1e-6
    draws = np.random.default_rng(101).chisquare(10, size=10 ** 7)
    mc_err = abs(chi_square_quantile(10, 0.5) - np.quantile(draws, 0.5))
    assert mc_err <= 0.01
    check(3, True, f"m=2 closed form within {worst:.1e}; "
                   f"m=10 Monte Carlo within {mc_err:.4f}")


def test_criterion_04_gradients_match_finite_differences():
    from test_network import finite_difference_grads, micro_model
    model = micro_model()
    rng = np.random.default_rng(102)
    x = rng.normal(size=(2, 1, 6, 6))
    labels = np.array([0, 2])
    boxes = rng.uniform(0, 3, size=(2, 4))
    _, grads = loss_and_gradients(model, x, labels, boxes)
    fd = finite_difference_grads(model, x, labels, boxes)
    worst = 0.0
    for lname, tensors in fd.items():
        for pname, want in tensors.items():
            got = grads[lname][pname]
            denom = np.maximum(np.maximum(np.abs(got), np.abs(want)), 1e-12)
            worst = max(worst, float((np.abs(got - want) / denom).max()))
    check(4, worst <= 1e-4,
          f"conv/batchnorm/linear gradients vs central differences, "
          f"worst relative error {worst:.2e}")


def test_criterion_05_energy_score_identities():
    rng = np.random.default_rng(103)
    for _ in range(100):
        f = rng.normal(scale=5, size=int(rng.integers(1, 9)))
        for temp in (1.0, 2.5):
            got = energy(f + 7.3, temp)
            want = energy(f, temp) - temp * 7.3
            assert abs(got - want) <= 1e-9
    assert uncertainty_score(0.0) == 0.5
    prev = None
    for e in np.linspace(-30, 30, 500):
        s = uncertainty_score(float(e))
        if prev is not None:
            assert s < prev
        prev = s
    for e in np.linspace(-1000, 1000, 101):
        s = uncertainty_score(float(e))
        assert 0.0 < s < 1.0 and math.isfinite(s)
    check(5, True, "shift identity to 1e-9; S(0)=0.5; S monotone, "
                   "finite and in (0,1) for |E| up to 1e3")


def test_criterion_06_calibration_soundness():
    rng = np.random.default_rng(104)
    for _ in range(100):
        n = int(rng.integers(1, 120))
        scores = np.round(rng.uniform(size=n), 2)
        target = float(rng.uniform(0.05, 1.0))
        gamma = calibrate_gamma(scores, target)
        assert gamma == gamma_oracle(scores, target)
        assert np.mean(scores >= gamma) >= target
        above = scores[scores > gamma]
        if above.size:
            assert np.mean(scores >= above.min()) < target
    check(6, True, "gamma matches the brute-force sweep and is maximal "
                   "with retained fraction >= target on 100 sets")


def test_criterion_07_degenerate_ensemble():
    model = build_model("micro-cnn", (1, 16, 16), 3, has_box_head=True, seed=1)
    x = np.random.default_rng(105).uniform(size=(1, 16, 16))
    base_logits, base_box, _ = forward_batch(model, x[None])
    base_logits, base_box = base_logits[0], base_box[0]

    logits, boxes = mc_predict(model, [], x, EnsembleConfig(sample_count=10, seed=0))
    assert len(logits) == len(boxes) == 10
    for row, box in zip(logits, boxes):
        assert np.array_equal(row, base_logits)
        assert np.array_equal(box, base_box)
    _, score_std, _ = score_ensemble(logits, ScoringConfig())
    assert score_std == 0.0

    posteriors = build_posteriors(model, select_layers(model, "full"), 0.05)
    for post in posteriors:
        post.sigma = 1e-12
    logits, _ = mc_predict(model, posteriors, x, EnsembleConfig(sample_count=10, seed=0))
    worst = max(float(np.max(np.abs(row - base_logits))) for row in logits)
    check(7, worst <= 1e-6,
          f"policy none bit-exact with score_std 0; sigma=1e-12 ensemble "
          f"within {worst:.1e} of the deterministic forward")


# ---------------------------------------------------------------------------
# criteria 8-10: end-to-end benchmarks
# ---------------------------------------------------------------------------

BLOBS_TRAIN = {"learning_rate": 0.02, "epochs": 40, "batch_size": 32,
               "momentum": 0.9, "weight_decay": 0.1}
SHAPES_TRAIN = {"learning_rate": 0.02, "epochs": 50, "batch_size": 32,
                "momentum": 0.9, "weight_decay": 0.01, "box_loss_weight": 0.2}


def run_benchmark(pairing, cfg):
    model, _ = build_and_train(cfg, pairing)
    report, records, _ = evaluate_pairing(model, pairing, cfg)
    return model, report, records


def test_criterion_08_blobs_benchmark():
    dataset = {"generator": "blobs",
               "params": {"k": 3, "n_per_class": 200, "dim": 2,
                          "ood_offset": 10.0}}
    details = []
    for seed in range(5):
        pairing = gen_blobs(seed, k=3, n_per_class=200, dim=2, ood_offset=10.0)
        base_cfg = RunConfig(dataset=dataset, architecture="micro-mlp",
                             train=BLOBS_TRAIN, policy="none", t_mc=1,
                             seed=seed, threads=4)
        model, base_report, _ = run_benchmark(pairing, base_cfg)

        # conv_all selects nothing on the all-linear micro-mlp, so it must
        # reproduce the deterministic baseline ...
        assert select_layers(model, "conv_all") == []
        conv_cfg = RunConfig(dataset=dataset, architecture="micro-mlp",
                             train=BLOBS_TRAIN, policy="conv_all", t_mc=30,
                             alpha=0.05, q=0.05, seed=seed, threads=4)
        conv_report, _, _ = evaluate_pairing(model, pairing, conv_cfg)
        assert conv_report.metrics_dict() == base_report.metrics_dict()

        # ... and the weight-perturbation clauses are exercised with
        # linear_all, the policy that actually touches this architecture
        bayes_cfg = RunConfig(dataset=dataset, architecture="micro-mlp",
                              train=BLOBS_TRAIN, policy="linear_all", t_mc=30,
                              alpha=0.05, q=0.05, seed=seed, threads=4)
        report, records, _ = evaluate_pairing(model, pairing, bayes_cfg)
        std_frac = float(np.mean([r.score_std > 0 for r in records]))
        details.append((seed, base_report.auroc, report.auroc, std_frac))
        if seed == 0:
            assert base_report.auroc >= 0.95, f"baseline auroc {base_report.auroc}"
        assert report.auroc >= base_report.auroc - 0.02, \
            f"seed {seed}: bayes {report.auroc} vs baseline {base_report.auroc}"
        assert std_frac >= 0.99, f"seed {seed}: score_std>0 on {std_frac:.2%}"
    summary = "; ".join(f"seed {s}: base {b:.3f} bayes {a:.3f} std>0 {f:.0%}"
                        for s, b, a, f in details)
    check(8, True, summary)


def test_criterion_09_shapes_benchmark():
    details = []
    ok = True
    for seed in range(5):
        pairing = gen_shapes(seed, n=100)
        cfg = RunConfig(dataset={"generator": "shapes", "params": {"n": 100}},
                        architecture="micro-cnn", train=SHAPES_TRAIN,
                        policy="conv_all", t_mc=30, alpha=0.05, q=0.05,
                        phi=0.25, seed=seed, threads=4)
        _, report, records = run_benchmark(pairing, cfg)
        scores = np.array([r.score for r in records])
        n_id = len(pairing.id_test)
        margin = float(scores[:n_id].mean() - scores[n_id:].mean())
        det_acc = report.box_iou_accuracy
        details.append((seed, det_acc, margin))
        ok = ok and det_acc >= 0.8 and margin > 0.0
    summary = "; ".join(f"seed {s}: det-acc {d:.3f} mean-S margin {m:+.4f}"
                        for s, d, m in details)
    check(9, ok, summary)


def test_criterion_10_layer_ablation(tmp_path):
    import json

    from bayeslayers.cli import main

    config = {"dataset": {"generator": "shapes", "params": {"n": 40}},
              "architecture": "micro-cnn",
              "train": {"learning_rate": 0.02, "epochs": 25, "batch_size": 32,
                        "momentum": 0.9, "box_loss_weight": 0.2},
              "t_mc": 10, "seed": 0, "threads": 4}
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    train_dir = tmp_path / "train"
    train_dir.mkdir()
    assert main(["train", "--config", str(config_path),
                 "--out", str(train_dir)]) == 0
    out = tmp_path / "ablate"
    out.mkdir()
    assert main(["ablate-layers", "--config", str(config_path),
                 "--model", str(train_dir / "model.blyr"),
                 "--out", str(out)]) == 0
    rows = json.loads((out / "ablation.json").read_text())
    assert [r["policy"] for r in rows] == list(POLICIES)
    for row in rows:
        assert 0.0 <= row["fpr95"] <= 1.0
        assert 0.0 <= row["auroc"] <= 1.0
        assert 0.0 <= row["id_accuracy"] <= 1.0
        assert 0.0 < row["gamma"] < 1.0
        assert row["nll"] >= 0.0
        assert row["seed"] == 0
    check(10, True, "6 policy rows in fixed order, all metrics within range")


def test_criterion_11_determinism(tmp_path):
    import json

    from bayeslayers.cli import main

    config = {"dataset": {"generator": "blobs",
                          "params": {"k": 3, "n_per_class": 30, "dim": 2}},
              "architecture": "micro-mlp",
              "train": {"learning_rate": 0.05, "epochs": 10, "batch_size": 16,
                        "momentum": 0.9},
              "policy": "linear_all", "t_mc": 10, "seed": 0}
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    train_dir = tmp_path / "train"
    train_dir.mkdir()
    assert main(["train", "--config", str(config_path),
                 "--out", str(train_dir)]) == 0
    model_path = str(train_dir / "model.blyr")
    blobs = []
    for name, threads in (("t1", "1"), ("t8", "8")):
        out = tmp_path / name
        out.mkdir()
        assert main(["eval", "--config", str(config_path), "--model", model_path,
                     "--out", str(out), "--threads", threads]) == 0
        doc = json.loads((out / "report.json").read_text())
        doc.pop("timings")
        blobs.append(json.dumps(doc, sort_keys=True).encode())
    assert blobs[0] == blobs[1]

    loaded = load_model(model_path)
    resaved = tmp_path / "resaved.blyr"
    save_model(loaded, str(resaved))
    round_trip = (train_dir / "model.blyr").read_bytes() == resaved.read_bytes()
    check(11, round_trip, "1 vs 8 threads byte-identical metrics; "
                          "save/load round trip byte-identical")


def test_criterion_12_nll():
    assert abs(nll([([0.5, 0.5], 0), ([0.5, 0.5], 1)]) - math.log(2)) < 1e-15
    rng = np.random.default_rng(106)
    items = []
    total = 0.0
    for _ in range(200):
        k = int(rng.integers(2, 8))
        p = rng.dirichlet(np.ones(k))
        label = int(rng.integers(k))
        items.append((p, label))
        total -= math.log(max(float(p[label]), 1e-300))
    err = abs(nll(items) - total / len(items))
    check(12, err <= 1e-12,
          f"direct oracle within {err:.1e}; two-point half-probability = ln 2")
