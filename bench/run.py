"""End-to-end benchmark of the bayeslayers pipeline.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the directory that holds
`src/bayeslayers`). Each round starts one process (pipeline.py) that runs
gen-data -> train -> eval or ablate-layers through `bayeslayers.cli.main`;
rounds repeat until the next one would end after S seconds (at least one
round runs). After every round the outputs are checked against values
computed apart from the program (checks.py). The last line of standard
output is one JSON object: correct, attempted, failed and the metrics,
end-to-end ones with --trace 0, per-layer ones (from a traced run, see
spans.py) with --trace 1. See README.md in this directory.
"""

import argparse
import glob
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import checks
from spans import PER_LAYER

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))

SHAPES = {"generator": "shapes", "params": {"n": 40}}
CNN_TRAIN = {"learning_rate": 0.02, "epochs": 8, "batch_size": 8,
             "momentum": 0.9, "weight_decay": 0.01, "box_loss_weight": 0.2}
BLOBS = {"generator": "blobs",
         "params": {"k": 3, "n_per_class": 100, "dim": 2, "ood_offset": 2.0}}
MLP_TRAIN = {"learning_rate": 0.02, "epochs": 500, "batch_size": 32,
             "momentum": 0.9, "weight_decay": 0.1}

# The dataset and the trained model are fixed per workload; --seed is the
# Monte-Carlo seed of the eval / ablate-layers stage (see README.md). Rounds
# are kept short (2.5-4 s) so that a run holds many of them: the machine's
# speed swings by 10-20% and more from one round to the next, and only
# figures taken over many rounds are steady.
WORKLOADS = {
    "cnn-linear": {"dataset": SHAPES, "architecture": "micro-cnn", "train": CNN_TRAIN,
                   "command": "eval", "policy": "linear_all", "t_mc": 3, "phi": 0.25},
    "cnn-conv": {"dataset": SHAPES, "architecture": "micro-cnn", "train": CNN_TRAIN,
                 "command": "eval", "policy": "conv_all", "t_mc": 10, "phi": 0.25},
    "mlp-ablate": {"dataset": BLOBS, "architecture": "micro-mlp", "train": MLP_TRAIN,
                   "command": "ablate-layers", "policy": "none", "t_mc": 10, "phi": 1.0},
}
POLICY_COUNT = 6  # rows ablate-layers evaluates

END_TO_END = {
    "setup_s": "s",
    "train_samples_per_s": "samples/s",
    "scored_inputs_per_s": "inputs/s",
    "auroc": "1",
    "fpr95": "1",
    "peak_rss_mib": "MiB",
}

RUN_LIMIT_S = 170  # a run must end within 180 s, hung rounds included


def sizes(dataset: dict) -> tuple:
    """(training examples, test inputs) the generator makes."""
    p = dataset["params"]
    if dataset["generator"] == "shapes":
        half = p["n"] // 2
        return 3 * p["n"], 3 * half + 2 * half
    half = max(1, p["n_per_class"] // 2)
    return p["k"] * p["n_per_class"], 2 * p["k"] * half


def run_config(work: dict, dataset: dict) -> dict:
    return {"dataset": dataset, "architecture": work["architecture"],
            "train": work["train"], "policy": work["policy"], "alpha": 0.05,
            "q": 0.05, "t_mc": work["t_mc"], "temperature": 1.0, "phi": work["phi"],
            "aggregation": "mean_score", "tpr_target": 0.95, "seed": 0}


def child_env() -> dict:
    """One BLAS thread and the program's own threads setting unset."""
    env = dict(os.environ)
    env.pop("BAYESLAYERS_THREADS", None)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def code_version(src: str, work: dict) -> str:
    """Hash of the program's sources and the workload's settings."""
    h = hashlib.sha256(json.dumps(work, sort_keys=True).encode())
    for path in sorted(glob.glob(os.path.join(src, "bayeslayers", "*.py"))):
        h.update(os.path.basename(path).encode())
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()[:16]


class DigestLog:
    """Report digests of earlier runs, keyed by code version (workload
    settings included), workload and seed: a rerun of the same code on the
    same seed must reproduce them."""

    def __init__(self, path: str, key: str):
        self.path, self.key = path, key
        try:
            with open(path) as fh:
                self.known = json.load(fh)
        except (OSError, ValueError):
            self.known = {}

    def check(self, digest: str) -> tuple:
        expected = self.known.get(self.key)
        if expected is None:
            self.known[self.key] = digest
            with open(self.path, "w") as fh:
                json.dump(self.known, fh, indent=1, sort_keys=True)
            expected = digest
        return ("report_digest_stable", digest == expected,
                f"digest {digest[:16]}, expected {expected[:16]}")


def run_round(index: int, ctx: dict) -> dict:
    """One pipeline process plus its checks. Every round works in the same
    directory, named relative to the checkout, so the paths echoed in the
    report are the same in every round and run."""
    work, seed = ctx["work"], ctx["seed"]
    round_dir = os.path.relpath(os.path.join(ctx["out"], "round"), ctx["root"])
    shutil.rmtree(round_dir, ignore_errors=True)
    result_dir = os.path.join(round_dir, "eval" if work["command"] == "eval" else "ablate")
    for sub in ("data", "train", os.path.basename(result_dir)):
        os.makedirs(os.path.join(round_dir, sub))
    gen_cfg = os.path.join(round_dir, "gen.json")
    cfg = os.path.join(round_dir, "run.json")
    with open(gen_cfg, "w") as fh:
        json.dump(run_config(work, work["dataset"]), fh)
    with open(cfg, "w") as fh:
        json.dump(run_config(work, {"path": os.path.join(round_dir, "data")}), fh)
    model = os.path.join(round_dir, "train", "model.blyr")
    stages = [
        ["gen-data", ["gen-data", "--config", gen_cfg, "--out", os.path.join(round_dir, "data")]],
        ["train", ["train", "--config", cfg, "--out", os.path.join(round_dir, "train")]],
        ["eval", [work["command"], "--config", cfg, "--model", model,
                  "--out", result_dir, "--seed", str(seed)]],
    ]
    n_train, n_test = sizes(work["dataset"])
    policies = POLICY_COUNT if work["command"] == "ablate-layers" else 1
    with open(os.path.join(round_dir, "round.json"), "w") as fh:
        json.dump({"src": ctx["src"], "stages": stages, "scored_inputs": n_test * policies,
                   "run_id": f"{ctx['name']}-seed{seed}-round{index}"}, fh)

    cmd = [sys.executable, os.path.join(BENCH_DIR, "pipeline.py"), round_dir]
    if ctx["trace"]:
        cmd.append("--trace")
    spawn = time.clock_gettime(time.CLOCK_MONOTONIC)
    with open(os.path.join(round_dir, "log.txt"), "w") as log:
        proc = subprocess.Popen(cmd, stdout=log, stderr=subprocess.STDOUT,
                                env=ctx["env"], cwd=ctx["root"])
        try:
            proc.wait(timeout=max(1.0, ctx["deadline"] - time.monotonic()))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
    try:
        with open(os.path.join(round_dir, "result.json")) as fh:
            result = json.load(fh)
    except (OSError, ValueError):
        result = {"stages": []}

    ran = {s["stage"]: s for s in result["stages"]}
    ops = [(name, name in ran and ran[name]["exit"] == 0,
            f"{args[0]} exit {ran[name]['exit']}" if name in ran
            else f"{args[0]} not run (see log.txt)")
           for name, args in stages]
    out = {"metrics": {}, "environment": result.get("environment", {}),
           "per_layer": result.get("per_layer", {}),
           "not_measured": result.get("not_measured", {})}
    check_names = checks.EVAL_CHECKS if work["command"] == "eval" else checks.ABLATE_CHECKS
    if all(ok for _, ok, _ in ops):
        check_cfg = run_config(work, None)
        try:
            if work["command"] == "eval":
                found = checks.eval_checks(round_dir, check_cfg)
                report = os.path.join(result_dir, "report.json")
                with open(report) as fh:
                    quality = json.load(fh)["metrics"]
            else:
                found = checks.ablate_checks(round_dir, check_cfg)
                report = os.path.join(result_dir, "ablation.json")
                with open(report) as fh:
                    quality = next(r for r in json.load(fh) if r["policy"] == "full")
            out["digest"] = checks.report_digest(report)
            found.append(ctx["digests"].check(out["digest"]))
        except (OSError, ValueError, KeyError, StopIteration) as exc:
            found = [(n, False, f"check could not run: {exc!r}") for n in check_names]
            found.append(("report_digest_stable", False, "no report"))
            quality = {}
        t = {s["stage"]: s for s in result["stages"]}
        out["work"] = {"train_samples_per_s": (n_train * work["train"]["epochs"],
                                               t["train"]["end"] - t["train"]["start"]),
                       "scored_inputs_per_s": (n_test * policies,
                                               t["eval"]["end"] - t["eval"]["start"])}
        out["metrics"] = {name: done / secs for name, (done, secs) in out["work"].items()}
        out["metrics"]["setup_s"] = t["gen-data"]["end"] - spawn
        out["metrics"]["peak_rss_mib"] = result["peak_rss_kib"] / 1024.0
        if quality:
            out["metrics"]["auroc"] = quality["auroc"]
            out["metrics"]["fpr95"] = quality["fpr95"]
    else:
        found = [(n, False, "a stage failed") for n in check_names]
        found.append(("report_digest_stable", False, "a stage failed"))
    out["stage_ops"], out["check_ops"] = ops, found
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()  # the source checkout being measured
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "bayeslayers", "cli.py")):
        print(f"error: no src/bayeslayers under {root}; run from the root of a "
              "bayeslayers source checkout", file=sys.stderr)
        return 2

    out = os.path.join(BENCH_DIR, "out", f"{args.workload}-seed{args.seed}")
    shutil.rmtree(out, ignore_errors=True)
    os.makedirs(out)
    key = f"{code_version(src, WORKLOADS[args.workload])}/{args.workload}/seed{args.seed}"
    ctx = {"name": args.workload, "work": WORKLOADS[args.workload], "seed": args.seed,
           "trace": bool(args.trace), "root": root, "src": src, "out": out,
           "env": child_env(),
           "digests": DigestLog(os.path.join(BENCH_DIR, "out", "digests.json"), key)}

    start = time.monotonic()
    ctx["deadline"] = start + RUN_LIMIT_S
    rounds = []
    while True:
        t0 = time.monotonic()
        rounds.append(run_round(len(rounds), ctx))
        last = time.monotonic() - t0
        if time.monotonic() + last - start > args.seconds:
            break

    ops = [op for r in rounds for op in r["stage_ops"] + r["check_ops"]]
    failed = [op for op in ops if not op[1]]
    wrong = [op for r in rounds for op in r["check_ops"] if not op[1]]
    digests = sorted({r.get("digest", "none")[:16] for r in rounds})
    print(f"workload {args.workload}, seed {args.seed}: {len(rounds)} rounds in "
          f"{time.monotonic() - start:.1f} s, report digest(s) {', '.join(digests)}")
    print("  environment: " + ", ".join(f"{k} {v}" for k, v in rounds[-1]["environment"].items()))
    for i, r in enumerate(rounds):
        print(f"  round {i}: " + ", ".join(f"{k} {v:.6g}" for k, v in r["metrics"].items()))
    for name, ok, detail in rounds[-1]["stage_ops"] + rounds[-1]["check_ops"]:
        print(f"  {'ok  ' if ok else 'FAIL'} {name}: {detail}")
    for name, _, detail in failed:
        print(f"  failed: {name}: {detail}")

    def median(values):
        return statistics.median(values) if values else None

    if args.trace:
        metrics = {}
        print(f"{'per-layer metric':<36}{'value':>14}  {'unit':<9}{'stage':<9}"
              "should move -> on workload")
        for name, (unit, stage, moves, where, _spans) in PER_LAYER.items():
            values = [r["per_layer"][name] for r in rounds
                      if r["per_layer"].get(name) is not None]
            value = median(values)
            metrics[name] = {"value": value, "unit": unit}
            shown = "not measured" if value is None else f"{value:.6g}"
            print(f"{name:<36}{shown:>14}  {unit:<9}{stage:<9}{moves} -> {where}")
        for name, reason in rounds[-1]["not_measured"].items():
            print(f"  not measured: {name}: {reason}")
    else:
        # Every round repeats byte-identical work (report_digest_stable), so
        # rounds differ only in how fast the machine ran them. Its speed
        # flips between a fast and a slow state for seconds at a time, which
        # makes a median of per-round rates jump between the two states from
        # run to run; total work over total time moves with the share of
        # time spent in each and is steadier. Set-up and the other metrics
        # are medians over rounds.
        metrics = {}
        for name, unit in END_TO_END.items():
            timed = [r["work"][name] for r in rounds if name in r.get("work", {})]
            if timed:
                value = sum(d for d, _ in timed) / sum(s for _, s in timed)
                how = f"total over {len(timed)} rounds"
            else:
                values = [r["metrics"][name] for r in rounds if name in r["metrics"]]
                value, how = median(values), f"median of {len(values)}"
            metrics[name] = {"value": value, "unit": unit}
            print(f"{name:<22} {value!s:>22} {unit} ({how})")
    print(json.dumps({"correct": not wrong, "attempted": len(ops),
                      "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
