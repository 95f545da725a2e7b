"""One round of a benchmark workload, run as its own process.

    python3 bench/pipeline.py ROUND_DIR [--trace]

Reads ROUND_DIR/round.json (written by run.py), then runs gen-data, train
and eval or ablate-layers in this one process through
`bayeslayers.cli.main`, and writes ROUND_DIR/result.json with each stage's
exit code and CLOCK_MONOTONIC start and end, and the process's peak RSS.
With --trace, the public functions of the program's modules are wrapped
(see spans.py) and the per-layer metrics and the spans are written too.
"""

import contextlib
import json
import os
import resource
import sys
import time


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def environment() -> dict:
    """Versions and thread settings the round ran under."""
    import numpy
    import scipy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    env = {"python": sys.version.split()[0], "numpy": numpy.__version__,
           "scipy": scipy.__version__, "blas": blas, "cpus": os.cpu_count()}
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                "BAYESLAYERS_THREADS"):
        env[var] = os.environ.get(var, "unset")
    return env


def main(argv) -> int:
    round_dir = argv[0]
    traced = "--trace" in argv[1:]
    with open(os.path.join(round_dir, "round.json")) as fh:
        spec = json.load(fh)
    sys.path.insert(0, spec["src"])
    from bayeslayers import cli
    if not os.path.abspath(cli.__file__).startswith(os.path.abspath(spec["src"]) + os.sep):
        print(f"bayeslayers imported from {cli.__file__}, not {spec['src']}", file=sys.stderr)
        return 2

    tracer = None
    if traced:
        from spans import Tracer
        tracer = Tracer(spec["run_id"])
        tracer.install()

    stages = []
    for name, args in spec["stages"]:
        start = _now()
        with tracer.stage(name) if tracer else contextlib.nullcontext():
            code = cli.main(args)
        stages.append({"stage": name, "exit": code, "start": start, "end": _now()})
        if code != 0:
            break
    result = {"stages": stages,
              "peak_rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              "environment": environment()}
    if tracer is not None:
        result["per_layer"], result["not_measured"] = tracer.per_layer(spec["scored_inputs"])
        tracer.save(os.path.join(round_dir, "spans.npz"))
    with open(os.path.join(round_dir, "result.json"), "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
