"""Span recorder installed from outside the program.

`Tracer.install` wraps public functions of the `bayeslayers` modules in
place: the module attribute is replaced, and so is every `from ... import`
copy of it held by another `bayeslayers` module, so calls made through any
module are seen. Each call records one span (name, start, end, parent span,
info) in memory; `per_layer` folds the spans into the per-layer metrics and
`save` writes them out once the run is over. The program's threads setting
is left unset, so every traced call runs on the main thread and spans nest
as a stack.
"""

import contextlib
import functools
import sys
import time

import numpy as np


def _rows(args, kwargs, result):
    x = args[1] if len(args) > 1 else kwargs["x"]
    return int(np.shape(x)[0])


def _posterior_count(args, kwargs, result):
    posteriors = args[1] if len(args) > 1 else kwargs["posteriors"]
    return len(posteriors)


def _normal_count(args, kwargs, result):
    return int(args[1] if len(args) > 1 else kwargs["n"])


def _selection(args, kwargs, result):
    return tuple(result)


# (module, attribute, span name, info extractor). An attribute "Cls.meth"
# wraps a method on the class. Spans sharing a name are summed together.
TARGETS = (
    ("cli", "evaluate_pairing", "cli.evaluate_pairing", None),
    ("bayes", "select_layers", "bayes.select_layers", _selection),
    ("datasets", "gen_blobs", "datasets.generate", None),
    ("datasets", "gen_shapes", "datasets.generate", None),
    ("datasets", "save_pairing", "datasets.save", None),
    ("network", "train_sgd", "network.train_sgd", None),
    ("network", "loss_and_gradients", "network.loss_and_gradients", None),
    ("network", "forward_batch", "network.forward_batch", _rows),
    ("network", "save_model", "network.persistence", None),
    ("network", "load_model", "network.persistence", None),
    ("numerics", "Rng.__init__", "numerics.rng_stream", None),
    ("numerics", "Rng.normals", "numerics.normals", _normal_count),
    ("numerics", "im2col", "numerics.im2col", None),
    ("bayes", "build_posteriors", "bayes.build_posteriors", None),
    ("bayes", "mc_predict", "bayes.mc_predict", _posterior_count),
    ("bayes", "sample_layer_weights", "bayes.sampler", None),
    ("scoring", "score_ensemble", "scoring.summary", None),
    ("bayes", "predictive_mean", "scoring.summary", None),
    ("metrics", "fpr_at_tpr", "metrics", None),
    ("metrics", "auroc", "metrics", None),
    ("metrics", "roc_curve", "metrics", None),
    ("metrics", "id_task_metrics", "metrics", None),
    ("scoring", "calibrate_gamma", "metrics", None),
    ("scoring", "nll", "metrics", None),
)

# Per-layer metrics: name -> (unit, stage whose spans it counts, end-to-end
# metric it should move, workloads where it should move it, span names it
# is built from). A metric is "not measured" when one of its spans could
# not be installed.
_EV = "scored_inputs_per_s"
PER_LAYER = {
    "cli.evaluate_pairing.calls": ("count", "eval", _EV, "mlp-ablate", ("cli.evaluate_pairing",)),
    "cli.distinct_selections": ("count", "eval", _EV, "mlp-ablate",
                                ("cli.evaluate_pairing", "bayes.select_layers")),
    "cli.distinct_selection_ratio": ("1", "eval", _EV, "mlp-ablate",
                                     ("cli.evaluate_pairing", "bayes.select_layers")),
    "cli.evaluate_pairing.self_s": ("s", "eval", _EV, "mlp-ablate", ("cli.evaluate_pairing",)),
    "datasets.generate_s": ("s", "gen-data", "setup_s", "all", ("datasets.generate",)),
    "datasets.save_s": ("s", "gen-data", "setup_s", "all", ("datasets.save",)),
    "network.train_sgd_s": ("s", "train", "train_samples_per_s", "cnn-*", ("network.train_sgd",)),
    "network.loss_and_gradients.calls": ("count", "train", "train_samples_per_s", "cnn-*",
                                         ("network.loss_and_gradients",)),
    "network.loss_and_gradients_s": ("s", "train", "train_samples_per_s", "cnn-*",
                                     ("network.loss_and_gradients",)),
    "network.forward_batch.calls": ("count", "eval", _EV, "cnn-conv", ("network.forward_batch",)),
    "network.forward_batch.rows": ("count", "eval", _EV, "cnn-conv", ("network.forward_batch",)),
    "network.forward_batch_s": ("s", "eval", _EV, "cnn-conv", ("network.forward_batch",)),
    "network.persistence_s": ("s", "all", "train_samples_per_s", "all", ("network.persistence",)),
    "numerics.rng_streams": ("count", "eval", _EV, "mlp-ablate, cnn-conv", ("numerics.rng_stream",)),
    "numerics.rng_stream_s": ("s", "eval", _EV, "mlp-ablate, cnn-conv", ("numerics.rng_stream",)),
    "numerics.normals_drawn": ("count", "eval", _EV, "cnn-linear", ("numerics.normals",)),
    "numerics.normals_s": ("s", "eval", _EV, "cnn-linear", ("numerics.normals",)),
    "numerics.im2col_s": ("s", "all", "train_samples_per_s, " + _EV, "cnn-conv",
                          ("numerics.im2col",)),
    "bayes.build_posteriors_s": ("s", "eval", _EV, "cnn-linear", ("bayes.build_posteriors",)),
    "bayes.mc_predict.calls": ("count", "eval", _EV, "mlp-ablate", ("bayes.mc_predict",)),
    "bayes.mc_predict.self_s": ("s", "eval", _EV, "mlp-ablate", ("bayes.mc_predict",)),
    "bayes.sampler.accepts": ("count", "eval", _EV, "cnn-linear", ("bayes.sampler",)),
    "bayes.sampler.attempts": ("count", "eval", _EV, "cnn-linear",
                               ("bayes.sampler", "numerics.normals")),
    "bayes.sampler.accept_ratio": ("1", "eval", _EV, "cnn-linear",
                                   ("bayes.sampler", "numerics.normals")),
    "bayes.sampler_s": ("s", "eval", _EV, "cnn-linear", ("bayes.sampler",)),
    "bayes.redundant_forwards": ("count", "eval", _EV, "mlp-ablate",
                                 ("bayes.mc_predict", "network.forward_batch")),
    "scoring.summary_s": ("s", "eval", _EV, "mlp-ablate", ("scoring.summary",)),
    "metrics.s": ("s", "eval", _EV, "mlp-ablate", ("metrics",)),
    "trace.scored_inputs_per_s": ("inputs/s", "eval", _EV, "all", ()),
}


class Tracer:
    """In-memory span log. Stage spans are opened with `stage`; wrapped
    calls nest under the innermost open span."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.names = []
        self._name_index = {}
        self.records = []  # [name index, start ns, end ns, parent, info]
        self._stack = []
        self.missing = {}  # span name -> reason it was not installed

    def _name(self, name: str) -> int:
        if name not in self._name_index:
            self._name_index[name] = len(self.names)
            self.names.append(name)
        return self._name_index[name]

    def _open(self, name_idx: int) -> list:
        rec = [name_idx, time.perf_counter_ns(), 0,
               self._stack[-1] if self._stack else -1, 0]
        self._stack.append(len(self.records))
        self.records.append(rec)
        return rec

    def _close(self, rec: list) -> None:
        rec[2] = time.perf_counter_ns()
        self._stack.pop()

    @contextlib.contextmanager
    def stage(self, name: str):
        rec = self._open(self._name("stage." + name))
        try:
            yield
        finally:
            self._close(rec)

    def wrap(self, name: str, fn, info=None):
        idx = self._name(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = tracer._open(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(rec)
            if info is not None:
                rec[4] = info(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every target found; record the ones that are not."""
        modules = {n: m for n, m in sys.modules.items()
                   if n == "bayeslayers" or n.startswith("bayeslayers.")}
        for mod_name, attr, span, info in TARGETS:
            module = modules.get("bayeslayers." + mod_name)
            owner_name, _, meth = attr.rpartition(".")
            owner = module
            if module is not None and owner_name:
                owner = getattr(module, owner_name, None)
            original = getattr(owner, meth or attr, None) if owner is not None else None
            if original is None:
                self.missing.setdefault(span, f"bayeslayers.{mod_name}.{attr} not found")
                continue
            wrapped = self.wrap(span, original, info)
            if owner_name:
                setattr(owner, meth, wrapped)
                continue
            for mod in modules.values():
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)

    def arrays(self):
        recs = self.records
        cols = [np.fromiter((r[k] for r in recs), dtype=np.int64, count=len(recs))
                for k in range(4)]
        info = np.empty(len(recs), dtype=object)
        info[:] = [r[4] for r in recs]
        return (*cols, info)

    def save(self, path: str) -> None:
        name, start, end, parent, info = self.arrays()
        np.savez_compressed(
            path, run_id=np.array(self.run_id), names=np.array(self.names),
            name=name, start_ns=start, end_ns=end, parent=parent,
            info=np.array([i if isinstance(i, int) else -1 for i in info], dtype=np.int64))

    def per_layer(self, scored_inputs: int) -> tuple:
        """(metrics {name: value or None}, not-measured reasons {name: reason})."""
        name, start, end, parent, info = self.arrays()
        dur = (end - start) / 1e9
        child = np.zeros(len(name))
        np.add.at(child, parent[parent >= 0], dur[parent >= 0])
        self_s = dur - child
        index = {s: i for i, s in enumerate(self.names)}

        def ancestors():
            """Yield, level by level, each span's ancestor (-1 past the root)."""
            anc = parent.copy()
            while np.any(anc >= 0):
                yield anc
                anc = np.where(anc >= 0, parent[np.maximum(anc, 0)], -1)

        root = np.arange(len(name))
        for anc in ancestors():
            root = np.where(anc >= 0, anc, root)
        stage_of = name[root]

        def pick(span, stage="all"):
            mask = name == index.get(span, -1)
            if stage != "all":
                mask &= stage_of == index.get("stage." + stage, -1)
            return mask

        def outermost(span, stage="all"):
            """Time covered by the named spans, nested repeats counted once."""
            mask = pick(span, stage)
            nested = np.zeros(len(name), dtype=bool)
            for anc in ancestors():
                nested |= (anc >= 0) & (name[np.maximum(anc, 0)] == index.get(span, -1))
            return float(dur[mask & ~nested].sum())

        def total(span, stage="all"):
            return float(dur[pick(span, stage)].sum())

        def count(span, stage="all"):
            return int(np.count_nonzero(pick(span, stage)))

        ev = pick("cli.evaluate_pairing", "eval")
        evals = int(np.count_nonzero(ev))
        distinct = len(set(info[pick("bayes.select_layers", "eval")]))
        sampler = pick("bayes.sampler", "eval")
        normals = pick("numerics.normals", "eval")
        attempts = int(np.count_nonzero(normals & np.isin(parent, np.flatnonzero(sampler))))
        accepts = int(np.count_nonzero(sampler))
        fwd = pick("network.forward_batch", "eval")
        mc = pick("bayes.mc_predict", "eval")
        fwd_per_call = np.bincount(parent[fwd & (parent >= 0)], minlength=len(name))
        empty_mc = mc & (info == 0)
        eval_s = total("stage.eval")
        values = {
            "cli.evaluate_pairing.calls": evals,
            "cli.distinct_selections": distinct,
            "cli.distinct_selection_ratio": distinct / evals if evals else None,
            "cli.evaluate_pairing.self_s": float(self_s[ev].sum()),
            "datasets.generate_s": outermost("datasets.generate", "gen-data"),
            "datasets.save_s": outermost("datasets.save", "gen-data"),
            "network.train_sgd_s": total("network.train_sgd", "train"),
            "network.loss_and_gradients.calls": count("network.loss_and_gradients", "train"),
            "network.loss_and_gradients_s": total("network.loss_and_gradients", "train"),
            "network.forward_batch.calls": int(np.count_nonzero(fwd)),
            "network.forward_batch.rows": int(sum(info[fwd])),
            "network.forward_batch_s": float(dur[fwd].sum()),
            "network.persistence_s": outermost("network.persistence"),
            "numerics.rng_streams": count("numerics.rng_stream", "eval"),
            "numerics.rng_stream_s": total("numerics.rng_stream", "eval"),
            "numerics.normals_drawn": int(sum(info[normals])),
            "numerics.normals_s": float(dur[normals].sum()),
            "numerics.im2col_s": total("numerics.im2col"),
            "bayes.build_posteriors_s": total("bayes.build_posteriors", "eval"),
            "bayes.mc_predict.calls": int(np.count_nonzero(mc)),
            "bayes.mc_predict.self_s": float(self_s[mc].sum()),
            "bayes.sampler.accepts": accepts,
            "bayes.sampler.attempts": attempts,
            "bayes.sampler.accept_ratio": accepts / attempts if attempts else None,
            "bayes.sampler_s": float(dur[sampler].sum()),
            "bayes.redundant_forwards": int(np.maximum(fwd_per_call[empty_mc] - 1, 0).sum()),
            "scoring.summary_s": outermost("scoring.summary", "eval"),
            "metrics.s": outermost("metrics", "eval"),
            "trace.scored_inputs_per_s": scored_inputs / eval_s if eval_s > 0 else None,
        }
        reasons = {}
        for metric, (*_, spans) in PER_LAYER.items():
            gone = [self.missing[s] for s in spans if s in self.missing]
            if gone:
                values[metric] = None
                reasons[metric] = "; ".join(gone)
            elif values[metric] is None:
                reasons[metric] = "no base count (denominator is 0)"
        return values, reasons
