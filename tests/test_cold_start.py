"""A CLI process starts on numpy alone: neither scipy nor numpy.ma gets
imported, whether by the package or by a stage it runs. Each case runs in a
fresh interpreter, since this test process has imported both already."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

SHAPES_CONFIG = {
    "dataset": {"generator": "shapes", "params": {"n": 6}},
    "architecture": "micro-cnn",
    "train": {"learning_rate": 0.02, "epochs": 1, "batch_size": 8},
    "policy": "linear_all",
    "t_mc": 2,
    "seed": 0,
}
BLOBS_CONFIG = {
    "dataset": {"generator": "blobs", "params": {"k": 3, "n_per_class": 10, "dim": 2}},
    "architecture": "micro-mlp",
    "train": {"learning_rate": 0.05, "epochs": 2, "batch_size": 16},
    "policy": "none",
    "t_mc": 2,
    "seed": 0,
}

CHECK = """
assert "scipy" not in sys.modules, "scipy was imported"
assert "numpy.ma" not in sys.modules, "numpy.ma was imported"
"""


def run_cold(body: str):
    env = dict(os.environ, PYTHONPATH=str(SRC), OPENBLAS_NUM_THREADS="1")
    done = subprocess.run([sys.executable, "-c", "import sys\n" + body + CHECK],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr


def stage_script(tmp_path, config: dict, command: str) -> str:
    """gen-data, train and `command` through cli.main in one process."""
    gen, run = tmp_path / "gen.json", tmp_path / "run.json"
    gen.write_text(json.dumps(config))
    run.write_text(json.dumps({**config, "dataset": {"path": str(tmp_path / "data")}}))
    stages = [["gen-data", "--config", str(gen), "--out", str(tmp_path / "data")],
              ["train", "--config", str(run), "--out", str(tmp_path / "train")],
              [command, "--config", str(run), "--model", str(tmp_path / "train" / "model.blyr"),
               "--out", str(tmp_path / "result")]]
    for sub in ("data", "train", "result"):
        (tmp_path / sub).mkdir()
    return ("from bayeslayers import cli\n"
            f"for argv in {stages!r}:\n"
            "    assert cli.main(argv) == 0, argv\n")


def test_import_cli_is_cold():
    run_cold("import bayeslayers.cli\n")


@pytest.mark.parametrize("config, command", [(SHAPES_CONFIG, "eval"),
                                             (BLOBS_CONFIG, "ablate-layers")],
                         ids=["shapes-eval", "blobs-ablate-layers"])
def test_pipeline_stays_cold(tmp_path, config, command):
    run_cold(stage_script(tmp_path, config, command))
    assert any((tmp_path / "result").iterdir())
