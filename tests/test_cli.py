import json
from dataclasses import fields

import numpy as np
import pytest

from bayeslayers import cli, datasets
from bayeslayers.bayes import SamplerExhaustedError
from bayeslayers.network import TrainConfig


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
    ("train-null-epochs", {"train": {"learning_rate": 0.05, "epochs": None}}),
    ("train-seed-key", {"train": {"learning_rate": 0.05, "epochs": 3, "seed": 1}}),
    ("t_mc-float", {"t_mc": 2.5}),
    ("t_mc-bool", {"t_mc": True}),
    ("threads-unknown", {"threads": 1}),
    ("seed-float", {"seed": 2.5}),
    ("seed-bool", {"seed": True}),
    ("dataset-seed-float", {"dataset": {"generator": "blobs", "seed": 2.5}}),
    ("dataset-seed-bool", {"dataset": {"generator": "blobs", "seed": True}}),
    ("dataset-seed-string", {"dataset": {"generator": "blobs", "seed": "3"}}),
    ("dataset-not-object", {"dataset": "blobs"}),
    ("dataset-unknown-param", {"dataset": {"generator": "blobs",
                                           "params": {"k": 3, "bogus": 1}}}),
    ("dataset-ill-typed-param", {"dataset": {"generator": "blobs",
                                             "params": {"k": "three"}}}),
    ("dataset-params-not-object", {"dataset": {"generator": "blobs", "params": [1]}}),
    ("dataset-path-not-string", {"dataset": {"path": 5}}),
    ("layers-int", {"layers": 5}),
    ("layers-string", {"layers": "fc1"}),
    ("layers-not-strings", {"layers": [1]}),
    ("alpha-beyond-float-range", {"alpha": 10 ** 400}),
    ("train-negative-box-weight", {"train": {"learning_rate": 0.05, "epochs": 3,
                                             "box_loss_weight": -50}}),
]


# every numeric key: the run's own fields and the `train` fields but its seed
NUMERIC_KEYS = (
    [("", f.name) for f in fields(cli.RunConfig) if f.type in (int, float)]
    + [("train.", f.name) for f in fields(TrainConfig)
       if f.type in (int, float) and f.name != "seed"])


@pytest.mark.parametrize("section,key", NUMERIC_KEYS,
                         ids=[f"{s}{k}" for s, k in NUMERIC_KEYS])
@pytest.mark.parametrize("value", [True, "1", float("nan"), float("inf")],
                         ids=["bool", "string", "nan", "inf"])
def test_numeric_key_of_wrong_type_exits_2_naming_it(tmp_path, capsys, section, key, value):
    if section:
        config = write_config(tmp_path, train={**BLOBS_CONFIG["train"], key: value})
    else:
        config = write_config(tmp_path, **{key: value})
    out = tmp_path / "out"
    out.mkdir()
    assert run(["train", "--config", config, "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"config error: {section}{key} must be "), err


@pytest.mark.parametrize("command", ["eval", "ablate-layers"])
def test_model_with_fewer_classes_than_data_exits_2(tmp_path, capsys, command):
    model = train_model(tmp_path, write_config(tmp_path))
    four = json.loads(json.dumps(BLOBS_CONFIG["dataset"]))
    four["params"]["k"] = 4
    config = write_config(tmp_path, "four.json", dataset=four)
    out = tmp_path / "out"
    out.mkdir()
    capsys.readouterr()
    assert run([command, "--config", config, "--model", model, "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("config error:"), err
    assert "3 classes" in err[0] and "dataset 4" in err[0], err


# whole documents handed to `report`, which reads report.json files
MALFORMED_REPORTS = [
    ("report-not-object", [{"policy": "none", "auroc": 0.5}]),
    ("report-no-metrics", {"config": {}, "seed": 0}),
    ("report-metric-not-number", {"metrics": {"auroc": "x"}, "config": {}}),
]


@pytest.mark.parametrize(
    "command,content",
    [("train", o) for _, o in MALFORMED_CONFIGS]
    + [("report", d) for _, d in MALFORMED_REPORTS],
    ids=[name for name, _ in MALFORMED_CONFIGS + MALFORMED_REPORTS])
def test_malformed_config_exits_2_with_one_line(tmp_path, capsys, command, content):
    if command == "train":
        config = write_config(tmp_path, **content)
        out = tmp_path / "out"
        out.mkdir()
        argv = ["train", "--config", config, "--out", str(out)]
    else:
        path = tmp_path / "report.json"
        path.write_text(json.dumps(content))
        argv = ["report", str(path)]
    assert run(argv) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("config error:"), err
    if command == "report":
        assert str(path) in err[0], err


def _drop_array(directory):
    data = dict(np.load(directory / "data.npz"))
    del data["id_test_labels"]
    np.savez(directory / "data.npz", **data)


def _tamper_array(directory):
    data = dict(np.load(directory / "data.npz"))
    data["id_train_inputs"] = data["id_train_inputs"] + 1.0
    np.savez(directory / "data.npz", **data)


# (id, file the error must name, how the saved dataset is broken)
MALFORMED_DATASETS = [
    ("manifest-not-object", "manifest.json",
     lambda d: (d / "manifest.json").write_text("[1, 2]")),
    ("manifest-invalid-json", "manifest.json",
     lambda d: (d / "manifest.json").write_text("{not json")),
    ("array-missing", "data.npz", _drop_array),
    ("data-not-npz", "data.npz", lambda d: (d / "data.npz").write_text("not an archive\n")),
    ("digest-mismatch", "data.npz", _tamper_array),
]


@pytest.mark.parametrize("name,break_dataset", [(f, b) for _, f, b in MALFORMED_DATASETS],
                         ids=[i for i, _, _ in MALFORMED_DATASETS])
def test_malformed_dataset_exits_3_with_one_line(tmp_path, capsys, name, break_dataset):
    data = tmp_path / "data"
    data.mkdir()
    assert run(["gen-data", "--config", write_config(tmp_path), "--out", str(data)]) == 0
    break_dataset(data)
    config = write_config(tmp_path, "path.json", dataset={"path": str(data)})
    out = tmp_path / "out"
    out.mkdir()
    capsys.readouterr()
    assert run(["train", "--config", config, "--out", str(out)]) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("i/o error:"), err
    assert str(data / name) in err[0], err


def _negative_labels(directory):
    """Label 3 of both ID splits becomes -1; the digest goes, so that only
    the labels themselves can reject the dataset."""
    data = dict(np.load(directory / "data.npz"))
    for name in ("id_train_labels", "id_test_labels"):
        data[name][3] = -1
    np.savez(directory / "data.npz", **data)
    manifest = json.loads((directory / "manifest.json").read_text())
    del manifest["digest"]
    (directory / "manifest.json").write_text(json.dumps(manifest))


@pytest.mark.parametrize("command", ["train", "eval"])
def test_negative_label_in_saved_dataset_exits_3_with_one_line(tmp_path, capsys, command):
    argv = [command]
    if command == "eval":
        argv += ["--model", train_model(tmp_path, write_config(tmp_path))]
    data = tmp_path / "data"
    data.mkdir()
    assert run(["gen-data", "--config", write_config(tmp_path), "--out", str(data)]) == 0
    _negative_labels(data)
    out = tmp_path / "out"
    out.mkdir()
    argv += ["--config", write_config(tmp_path, "path.json", dataset={"path": str(data)}),
             "--out", str(out)]
    capsys.readouterr()
    assert run(argv) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("i/o error:"), err
    assert str(data / "data.npz") in err[0] and "non-negative" in err[0], err


def _save_inputs(directory, shape):
    """A saved pairing of four zero inputs of `shape` per split."""
    def split(tag):
        return datasets.Split(np.zeros((4,) + shape), [0, 1, 0, 1], tag=tag)
    datasets.save_pairing(datasets.BenchmarkPairing(split("id"), split("id"), split("ood")),
                          str(directory))


# (id, preset, input shape saved to disk, or None for the config's 2-D blobs)
PRESET_MISFITS = [("cnn-3x3-images", "micro-cnn", (1, 3, 3)),
                  ("mlp-no-input-values", "micro-mlp", (0,)),
                  ("cnn-2d-blobs", "micro-cnn", None)]


@pytest.mark.parametrize("preset,shape", [(p, s) for _, p, s in PRESET_MISFITS],
                         ids=[i for i, _, _ in PRESET_MISFITS])
def test_preset_that_cannot_take_the_inputs_exits_2_with_one_line(tmp_path, capsys,
                                                                  preset, shape):
    overrides = {"architecture": preset}
    if shape is not None:
        data = tmp_path / "data"
        data.mkdir()
        _save_inputs(data, shape)
        overrides["dataset"] = {"path": str(data)}
    out = tmp_path / "out"
    out.mkdir()
    capsys.readouterr()
    assert run(["train", "--config", write_config(tmp_path, **overrides),
                "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("config error:"), err
    assert preset in err[0], err


def test_dataset_generator_is_looked_up_when_called(tmp_path, monkeypatch):
    # the traced bench times generation by replacing datasets.gen_blobs
    calls = []
    real = cli.datasets.gen_blobs

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(cli.datasets, "gen_blobs", counting)
    out = tmp_path / "data"
    out.mkdir()
    assert run(["gen-data", "--config", write_config(tmp_path), "--out", str(out)]) == 0
    assert calls == [(0,)]


def test_every_documented_key_is_accepted(tmp_path):
    # the keys a full pipeline config writes, `temperature` included
    config = write_config(
        tmp_path, alpha=0.05, q=0.05, temperature=1.0, phi=1.0,
        aggregation="mean_score", tpr_target=0.95,
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

    scored = []
    real = cli.mc_predict

    def recording(model, posteriors, inputs, sample_count, seed=0):
        scored.append(inputs)
        return real(model, posteriors, inputs, sample_count, seed)

    monkeypatch.setattr(cli, "mc_predict", recording)
    cal = tmp_path / "cal"
    cal.mkdir()
    assert run(["calibrate", "--config", config, "--model", model,
                "--out", str(cal)]) == 0
    assert json.loads((cal / "gamma.json").read_text())["gamma"] == eval_gamma
    id_inputs = cli.resolve_dataset(cli.load_config(config)).id_test.inputs
    assert len(scored) == 1 and np.array_equal(scored[0], id_inputs)


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


def test_ablate_layers_rejects_configured_layers(tmp_path, capsys):
    # `layers` overrides the policy, so ablate-layers cannot honour it
    model = train_model(tmp_path, write_config(tmp_path))
    config = write_config(tmp_path, "layers.json", layers=["head"])
    out = tmp_path / "ablate"
    out.mkdir()
    capsys.readouterr()
    assert run(["ablate-layers", "--config", config, "--model", model,
                "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("config error:"), err
    assert "'layers'" in err[0], err
    assert not list(out.iterdir())


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


def write_reports(tmp_path, docs):
    paths = []
    for i, doc in enumerate(docs):
        p = tmp_path / f"r{i}.json"
        p.write_text(json.dumps({"seed": i, "timings": {}, **doc}))
        paths.append(str(p))
    return paths


def test_report_mixed_configs_exit_2(tmp_path, capsys):
    paths = write_reports(tmp_path, [
        {"metrics": {"auroc": 0.5}, "config": {"policy": policy}}
        for policy in ("none", "full")])
    assert run(["report", *paths]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"config error: {paths[1]}:"), err


def test_report_mismatched_metrics_exit_2(tmp_path, capsys):
    paths = write_reports(tmp_path, [
        {"metrics": {"auroc": 0.5, "nll": 1.0}, "config": {}},
        {"metrics": {"auroc": 0.5}, "config": {}}])
    assert run(["report", *paths]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"config error: {paths[1]}:"), err


def test_retired_kind_code_in_model_exits_3_with_one_line(tmp_path, capsys):
    from test_network import write_relu_model
    model = tmp_path / "model.blyr"
    write_relu_model(model, 2)
    retired = model.read_bytes()
    write_relu_model(model, 3)
    good = model.read_bytes()
    # header: magic, version, class_count at 8, box flag, backbone_end at 13
    corrupt = {"retired kind code": retired,
               "backbone_end 99": good[:13] + (99).to_bytes(4, "little") + good[17:],
               "class_count 0": good[:8] + bytes(4) + good[12:],
               "trailing bytes": good + b"garbage",
               "name not UTF-8": good.replace(b"r1", b"\xff\xfe")}
    config = write_config(tmp_path)
    out = tmp_path / "eval"
    out.mkdir()
    for case, data in corrupt.items():
        model.write_bytes(data)
        assert run(["eval", "--config", config, "--model", str(model),
                    "--out", str(out)]) == 3, case
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("i/o error:"), (case, err)


def _no_c_library(name):
    raise OSError("cannot load the C library")


@pytest.mark.parametrize("cdll", [_no_c_library, lambda name: object()],
                         ids=["no-library", "no-mallopt"])
def test_keep_freed_memory_is_quiet_without_mallopt(monkeypatch, cdll):
    monkeypatch.setattr(cli.ctypes, "CDLL", cdll)
    assert cli._keep_freed_memory() is None


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
