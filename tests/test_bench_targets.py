"""The traced benchmark (`bench/run.py --trace 1`) wraps the functions that
`bench/spans.py` lists in TARGETS. A target that no longer resolves, or an
argument its info extractor reads that has moved, turns per-layer metrics
into nulls; these tests catch that without installing the tracer."""

import importlib
import importlib.util
import inspect
from pathlib import Path

import numpy as np

from bayeslayers.bayes import GaussianLayerPosterior, sample_layer_weights
from bayeslayers.numerics import Rng

SPANS_PATH = Path(__file__).resolve().parents[1] / "bench" / "spans.py"

# info extractor -> the argument it reads at position 1 (None: it reads the
# call's result)
ARGUMENT_READ = {"_rows": "x", "_posterior_count": "posteriors",
                 "_normal_count": "n", "_selection": None}


def load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS_PATH)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


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
