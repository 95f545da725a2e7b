"""The traced benchmark (`bench/run.py --trace 1`) wraps the functions that
`bench/spans.py` lists in TARGETS. A target that no longer resolves, or an
argument its info extractor reads that has moved, turns per-layer metrics
into nulls; these tests catch that without installing the tracer."""

import importlib
import importlib.util
import inspect
import json
import sys
from collections import Counter
from pathlib import Path

import numpy as np

from bayeslayers import bayes, numerics
from bayeslayers.bayes import GaussianLayerPosterior, sample_layer_weights
from bayeslayers.cli import RunConfig, _ensemble_logits
from bayeslayers.network import build_model, forward_batch, loss_and_gradients
from bayeslayers.numerics import Rng

BENCH_DIR = Path(__file__).resolve().parents[1] / "bench"
SPANS_PATH = BENCH_DIR / "spans.py"

# info extractor -> the argument it reads at position 1 (None: it reads the
# call's result)
ARGUMENT_READ = {"_rows": "x", "_posterior_count": "posteriors",
                 "_normal_count": "n", "_selection": None}


def load_bench(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def load_spans():
    return load_bench("bench_spans", SPANS_PATH)


def resolve(module, attr):
    obj = importlib.import_module(f"bayeslayers.{module}")
    for part in attr.split("."):
        obj = getattr(obj, part)
    return obj


def test_every_trace_target_resolves():
    missing = []
    for module, attr, _, _ in load_spans().TARGETS:
        try:
            resolve(module, attr)
        except AttributeError:
            missing.append(f"bayeslayers.{module}.{attr}")
    assert not missing, missing


def test_trace_info_arguments_keep_their_position():
    for module, attr, span, info in load_spans().TARGETS:
        if info is None:
            continue
        assert info.__name__ in ARGUMENT_READ, f"{span}: unchecked extractor {info.__name__}"
        name = ARGUMENT_READ[info.__name__]
        if name is None:
            continue
        params = list(inspect.signature(resolve(module, attr)).parameters)
        assert len(params) > 1 and params[1] == name, f"{span}: {params}"


def test_sampler_draws_through_rng_normals(monkeypatch):
    # bayes.sampler.accept_ratio counts Rng.normals calls made inside
    # sample_layer_weights as its attempts
    calls = []
    normals = Rng.normals
    monkeypatch.setattr(Rng, "normals", lambda self, n: calls.append(n) or normals(self, n))
    post = GaussianLayerPosterior("fc", np.zeros(3), 1.0, 0.0)
    sample_layer_weights(post, Rng(0))
    assert calls == [3]


def test_conv_layers_go_through_im2col(monkeypatch):
    # numerics.im2col_s times numerics.im2col wherever a bayeslayers module
    # holds it, as the tracer wraps it; a conv kernel that bypassed it would
    # leave the metric at zero
    calls = []
    im2col = numerics.im2col

    def counting(*args, **kwargs):
        calls.append(args[0].shape)
        return im2col(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("bayeslayers"):
            for key, value in list(vars(module).items()):
                if value is im2col:
                    monkeypatch.setattr(module, key, counting)
    model = build_model("micro-cnn", (1, 8, 8), 3)
    x = np.random.default_rng(0).normal(size=(2, 1, 8, 8))
    forward_batch(model, x)
    assert calls == [(2, 1, 8, 8), (2, 8, 4, 4)]
    loss_and_gradients(model, x, [0, 1])
    assert len(calls) == 4


def test_bench_configs_load(monkeypatch):
    # run.py imports its sibling modules by name
    monkeypatch.syspath_prepend(str(BENCH_DIR))
    run = load_bench("bench_run", BENCH_DIR / "run.py")
    for name, work in run.WORKLOADS.items():
        for dataset in (work["dataset"], {"path": "data"}):
            raw = json.loads(json.dumps(run.run_config(work, dataset)))
            assert RunConfig.from_dict(raw).policy == work["policy"], name


def test_sampler_runs_once_per_draw_and_layer(monkeypatch):
    # bayes.sampler.accepts counts calls to sample_layer_weights; an engine
    # that drew weights another way would leave accept_ratio without a base.
    # The T_mc draws are shared by all inputs, so the count ignores N.
    calls = Counter()
    sample = bayes.sample_layer_weights

    def counting(post, rng, *args, **kwargs):
        calls[post.layer_name] += 1
        return sample(post, rng, *args, **kwargs)

    monkeypatch.setattr(bayes, "sample_layer_weights", counting)
    model = build_model("micro-mlp", (2,), 3, seed=4)
    cfg = RunConfig(dataset={}, policy="linear_all", t_mc=3)
    inputs = np.random.default_rng(8).normal(size=(5, 2))
    logits, _ = _ensemble_logits(model, inputs, cfg)
    selected = bayes.select_layers(model, "linear_all")
    assert logits.shape == (5, 3, 3)
    assert len(selected) > 1 and calls == {name: 3 for name in selected}
