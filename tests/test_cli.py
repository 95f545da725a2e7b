import json

import numpy as np
import pytest

from bayeslayers import cli
from bayeslayers.bayes import SamplerExhaustedError


BLOBS_CONFIG = {
    "dataset": {"generator": "blobs",
                "params": {"k": 3, "n_per_class": 10, "dim": 2}},
    "architecture": "micro-mlp",
    "train": {"learning_rate": 0.05, "epochs": 3, "batch_size": 16,
              "momentum": 0.9},
    "policy": "linear_all",
    "t_mc": 3,
    "seed": 0,
}


def write_config(tmp_path, name="config.json", **overrides):
    cfg = json.loads(json.dumps(BLOBS_CONFIG))
    cfg.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def run(argv):
    return cli.main(argv)


def train_model(tmp_path, config_path):
    out = tmp_path / "train"
    out.mkdir(exist_ok=True)
    assert run(["train", "--config", config_path, "--out", str(out)]) == 0
    return str(out / "model.blyr")


def test_gen_data_writes_manifest(tmp_path):
    config = write_config(tmp_path)
    out = tmp_path / "data"
    out.mkdir()
    assert run(["gen-data", "--config", config, "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["seed"] == 0
    assert manifest["generator"] == "blobs"
    assert "digest" in manifest


def test_gen_data_rerun_same_digest(tmp_path):
    config = write_config(tmp_path)
    digests = []
    for name in ("d1", "d2"):
        out = tmp_path / name
        out.mkdir()
        assert run(["gen-data", "--config", config, "--out", str(out)]) == 0
        digests.append(json.loads((out / "manifest.json").read_text())["digest"])
    assert digests[0] == digests[1]


def test_missing_output_dir_exits_3(tmp_path):
    config = write_config(tmp_path)
    assert run(["gen-data", "--config", config,
                "--out", str(tmp_path / "nope")]) == 3


def test_unknown_config_key_exits_2(tmp_path):
    config = write_config(tmp_path, extra_knob=1)
    out = tmp_path / "out"
    out.mkdir()
    assert run(["train", "--config", config, "--out", str(out)]) == 2


def test_bad_architecture_exits_2(tmp_path):
    config = write_config(tmp_path, architecture="resnet-50")
    out = tmp_path / "out"
    out.mkdir()
    assert run(["train", "--config", config, "--out", str(out)]) == 2


def test_invalid_json_exits_2(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    out = tmp_path / "out"
    out.mkdir()
    assert run(["train", "--config", str(path), "--out", str(out)]) == 2


MALFORMED_CONFIGS = [
    ("train-unknown-key", {"train": {"learning_rat": 0.05, "epochs": 3}}),
    ("train-ill-typed", {"train": {"learning_rate": "fast", "epochs": 3}}),
    ("train-float-epochs", {"train": {"learning_rate": 0.05, "epochs": 2.5}}),
    ("train-missing-key", {"train": {"epochs": 3}}),
    ("train-seed-key", {"train": {"learning_rate": 0.05, "epochs": 3, "seed": 1}}),
    ("t_mc-float", {"t_mc": 2.5}),
    ("t_mc-bool", {"t_mc": True}),
    ("threads-float", {"threads": 2.5}),
    ("threads-bool", {"threads": True}),
    ("threads-zero", {"threads": 0}),
    ("seed-float", {"seed": 2.5}),
    ("seed-bool", {"seed": True}),
    ("dataset-not-object", {"dataset": "blobs"}),
    ("dataset-unknown-param", {"dataset": {"generator": "blobs",
                                           "params": {"k": 3, "bogus": 1}}}),
    ("dataset-ill-typed-param", {"dataset": {"generator": "blobs",
                                             "params": {"k": "three"}}}),
    ("dataset-params-not-object", {"dataset": {"generator": "blobs", "params": [1]}}),
    ("dataset-path-not-string", {"dataset": {"path": 5}}),
]


@pytest.mark.parametrize("overrides", [o for _, o in MALFORMED_CONFIGS],
                         ids=[name for name, _ in MALFORMED_CONFIGS])
def test_malformed_config_exits_2_with_one_line(tmp_path, capsys, overrides):
    config = write_config(tmp_path, **overrides)
    out = tmp_path / "out"
    out.mkdir()
    assert run(["train", "--config", config, "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("config error:"), err


def test_threads_flag_below_one_exits_2(tmp_path):
    config = write_config(tmp_path)
    out = tmp_path / "out"
    out.mkdir()
    assert run(["gen-data", "--config", config, "--out", str(out),
                "--threads", "0"]) == 2


def test_every_documented_key_is_accepted(tmp_path):
    # the keys a full pipeline config writes, `temperature` included
    config = write_config(
        tmp_path, alpha=0.05, q=0.05, temperature=1.0, phi=1.0,
        aggregation="mean_score", tpr_target=0.95, threads=1,
        train={"learning_rate": 0.05, "epochs": 3, "batch_size": 16,
               "momentum": 0.9, "weight_decay": 0.01, "box_loss_weight": 0.2})
    out = tmp_path / "out"
    out.mkdir()
    assert run(["train", "--config", config, "--out", str(out)]) == 0


def test_train_outputs_and_determinism(tmp_path):
    config = write_config(tmp_path)
    blobs = []
    for name in ("t1", "t2"):
        out = tmp_path / name
        out.mkdir()
        assert run(["train", "--config", config, "--out", str(out)]) == 0
        assert (out / "loss_curve.csv").read_text().startswith("epoch,loss")
        blobs.append((out / "model.blyr").read_bytes())
    assert blobs[0] == blobs[1]


@pytest.mark.filterwarnings("ignore:overflow")
def test_train_divergence_exits_4(tmp_path):
    config = write_config(tmp_path, train={"learning_rate": 1e12, "epochs": 8,
                                           "batch_size": 16})
    out = tmp_path / "out"
    out.mkdir()
    assert run(["train", "--config", config, "--out", str(out)]) == 4


@pytest.mark.filterwarnings("error")
def test_numeric_blowup_in_eval_exits_6_with_one_line(tmp_path, capsys):
    # weights sampled at alpha 1e200 overflow the forward pass; no numpy
    # warning may reach the user, only the one-line error
    config = write_config(tmp_path, alpha=1e200)
    model = train_model(tmp_path, config)
    out = tmp_path / "eval"
    out.mkdir()
    capsys.readouterr()
    assert run(["eval", "--config", config, "--model", model,
                "--out", str(out)]) == 6
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("numeric error:"), err


def test_eval_outputs(tmp_path):
    config = write_config(tmp_path)
    model = train_model(tmp_path, config)
    out = tmp_path / "eval"
    out.mkdir()
    assert run(["eval", "--config", config, "--model", model,
                "--out", str(out)]) == 0
    doc = json.loads((out / "report.json").read_text())
    for key in ("fpr95", "auroc", "id_accuracy", "gamma", "nll"):
        assert key in doc["metrics"]
    assert 0.0 <= doc["metrics"]["fpr95"] <= 1.0
    assert 0.0 <= doc["metrics"]["auroc"] <= 1.0
    assert doc["seed"] == 0
    assert "timings" in doc
    assert (out / "roc.csv").read_text().startswith("threshold,tpr,fpr")
    header = (out / "scores.csv").read_text().splitlines()[0]
    assert header == "sample_id,split,score,score_std,energy_mean,predicted_class"


def test_eval_policy_none_ignores_t_mc(tmp_path):
    config1 = write_config(tmp_path, "c1.json", policy="none", t_mc=1)
    config5 = write_config(tmp_path, "c5.json", policy="none", t_mc=5)
    model = train_model(tmp_path, config1)
    metrics = []
    for name, config in (("e1", config1), ("e5", config5)):
        out = tmp_path / name
        out.mkdir()
        assert run(["eval", "--config", config, "--model", model,
                    "--out", str(out)]) == 0
        metrics.append(json.loads((out / "report.json").read_text())["metrics"])
    assert metrics[0] == metrics[1]


def test_eval_thread_count_does_not_change_metrics(tmp_path):
    config = write_config(tmp_path)
    model = train_model(tmp_path, config)
    docs = []
    for name, threads in (("th1", "1"), ("th8", "8")):
        out = tmp_path / name
        out.mkdir()
        assert run(["eval", "--config", config, "--model", model,
                    "--out", str(out), "--threads", threads]) == 0
        doc = json.loads((out / "report.json").read_text())
        doc.pop("timings")
        docs.append(json.dumps(doc, sort_keys=True))
    assert docs[0] == docs[1]


def test_seed_flag_overrides_config(tmp_path):
    config = write_config(tmp_path)
    out = tmp_path / "data"
    out.mkdir()
    assert run(["gen-data", "--config", config, "--out", str(out),
                "--seed", "3"]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["seed"] == 3


def test_calibrate_gamma_equals_eval_gamma_from_id_inputs_only(tmp_path, monkeypatch):
    config = write_config(tmp_path)
    model = train_model(tmp_path, config)
    out = tmp_path / "eval"
    out.mkdir()
    assert run(["eval", "--config", config, "--model", model,
                "--out", str(out)]) == 0
    eval_gamma = json.loads((out / "report.json").read_text())["metrics"]["gamma"]

    streams = []
    real = cli.mc_predict

    def recording(model, posteriors, x, cfg, stream=()):
        streams.append(stream)
        return real(model, posteriors, x, cfg, stream)

    monkeypatch.setattr(cli, "mc_predict", recording)
    cal = tmp_path / "cal"
    cal.mkdir()
    assert run(["calibrate", "--config", config, "--model", model,
                "--out", str(cal)]) == 0
    assert json.loads((cal / "gamma.json").read_text())["gamma"] == eval_gamma
    n_id = len(cli.resolve_dataset(cli.load_config(config)).id_test)
    assert streams == [(i,) for i in range(n_id)]


def test_calibrate_writes_gamma(tmp_path):
    config = write_config(tmp_path)
    model = train_model(tmp_path, config)
    out = tmp_path / "cal"
    out.mkdir()
    assert run(["calibrate", "--config", config, "--model", model,
                "--out", str(out)]) == 0
    doc = json.loads((out / "gamma.json").read_text())
    assert doc["tpr_target"] == 0.95
    assert 0.0 < doc["gamma"] < 1.0


def test_ablate_layers_emits_six_rows(tmp_path):
    config = write_config(tmp_path)
    model = train_model(tmp_path, config)
    out = tmp_path / "ablate"
    out.mkdir()
    assert run(["ablate-layers", "--config", config, "--model", model,
                "--out", str(out)]) == 0
    rows = json.loads((out / "ablation.json").read_text())
    assert [r["policy"] for r in rows] == ["none", "conv_backbone",
                                           "linear_backbone", "conv_all",
                                           "linear_all", "full"]
    assert all("seed" in r for r in rows)
    csv_lines = (out / "ablation.csv").read_text().strip().splitlines()
    assert len(csv_lines) == 7

    # the `none` row must match a standalone eval with policy none
    config_none = write_config(tmp_path, "none.json", policy="none")
    out2 = tmp_path / "eval_none"
    out2.mkdir()
    assert run(["eval", "--config", config_none, "--model", model,
                "--out", str(out2)]) == 0
    standalone = json.loads((out2 / "report.json").read_text())["metrics"]
    none_row = rows[0]
    for key, value in standalone.items():
        assert none_row[key] == value

    # ... and the `linear_all` row a standalone eval with linear_all
    out3 = tmp_path / "eval_linear_all"
    out3.mkdir()
    assert run(["eval", "--config", config, "--model", model,
                "--out", str(out3)]) == 0
    standalone = json.loads((out3 / "report.json").read_text())["metrics"]
    linear_row = rows[4]
    for key, value in standalone.items():
        assert linear_row[key] == value

    # deltas against the `none` row
    for row in rows:
        for key in ("auroc", "fpr95", "nll"):
            assert row[f"delta_{key}"] == row[key] - none_row[key]
    assert none_row["delta_auroc"] == none_row["delta_fpr95"] == none_row["delta_nll"] == 0.0
    assert csv_lines[0].split(",")[-3:] == ["delta_auroc", "delta_fpr95", "delta_nll"]


def test_ablate_layers_evaluates_each_distinct_selection_once(tmp_path, monkeypatch):
    config = write_config(tmp_path)
    model = train_model(tmp_path, config)
    policies = []
    real = cli.evaluate_pairing

    def counting(model, pairing, cfg):
        policies.append(cfg.policy)
        return real(model, pairing, cfg)

    monkeypatch.setattr(cli, "evaluate_pairing", counting)
    out = tmp_path / "ablate"
    out.mkdir()
    assert run(["ablate-layers", "--config", config, "--model", model,
                "--out", str(out)]) == 0
    # micro-mlp: the four policies that select nothing share one evaluation,
    # and linear_all and full (both layers) share the other
    assert policies == ["none", "linear_all"]


def test_report_aggregates_mean_std(tmp_path):
    config = {"policy": "none"}
    values = [0.1, 0.2, 0.3, 0.4, 0.5]
    paths = []
    for i, v in enumerate(values):
        doc = {"metrics": {"auroc": v}, "config": config, "seed": i,
               "timings": {}}
        p = tmp_path / f"r{i}.json"
        p.write_text(json.dumps(doc))
        paths.append(str(p))
    out = tmp_path / "summary"
    out.mkdir()
    assert run(["report", *paths, "--out", str(out)]) == 0
    lines = (out / "summary.csv").read_text().strip().splitlines()
    assert lines[0] == "metric,mean,std"
    name, mean, std = lines[1].split(",")
    assert name == "auroc"
    # CSV renders 9 significant digits
    assert float(mean) == pytest.approx(np.mean(values), rel=1e-8)
    assert float(std) == pytest.approx(np.std(values), rel=1e-8)


def test_report_single_input_zero_std(tmp_path):
    doc = {"metrics": {"auroc": 0.9}, "config": {}, "seed": 0, "timings": {}}
    p = tmp_path / "r.json"
    p.write_text(json.dumps(doc))
    out = tmp_path / "summary"
    out.mkdir()
    assert run(["report", str(p), "--out", str(out)]) == 0
    lines = (out / "summary.csv").read_text().strip().splitlines()
    assert lines[1] == "auroc,0.9,0"


def test_report_mixed_configs_exit_2(tmp_path):
    paths = []
    for i, policy in enumerate(("none", "full")):
        doc = {"metrics": {"auroc": 0.5}, "config": {"policy": policy},
               "seed": i, "timings": {}}
        p = tmp_path / f"r{i}.json"
        p.write_text(json.dumps(doc))
        paths.append(str(p))
    assert run(["report", *paths]) == 2


def test_sampler_exhaustion_exits_5(tmp_path, monkeypatch):
    config = write_config(tmp_path)
    model = train_model(tmp_path, config)

    def explode(*args, **kwargs):
        raise SamplerExhaustedError("no accepted draw")

    monkeypatch.setattr(cli, "mc_predict", explode)
    out = tmp_path / "eval"
    out.mkdir()
    assert run(["eval", "--config", config, "--model", model,
                "--out", str(out)]) == 5
