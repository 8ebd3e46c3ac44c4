"""Golden digest manifest: the sha256 of every file a fixed CLI pipeline writes.

    python tools/manifest.py            # print the manifest (JSON) to stdout
    python tools/manifest.py --write    # regenerate tests/golden_manifest.json

On each of three configs (the bench-soft and scale-c50 benchmark workloads,
and a small one with unequal imbalance ratios and the l1 metric) it runs
gen-data -> train (with checkpoint_every) -> eval --seeds 0,1 -> estimate
--checkpoint -> estimate --config --seed 2 -> ablate --axis loss_mode
--seeds 0, in-process through `cobranch.cli.main`, in a temporary directory
and under relative paths, at one BLAS/OpenMP thread. The small config also
runs ablate --axis similarity --seeds 0, which trains under every
positiveness metric, and train --resume from its epoch-2 checkpoint.

The manifest maps each file written to its sha256, lists each call with its
exit code and the sha256 of its stdout and stderr, and records the NumPy
version, the BLAS and the CPU model, since the digests depend on them.
`tests/test_golden.py` compares a fresh manifest with the committed one; a
change that moves numerics on purpose regenerates it with `--write`.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import cobranch

# BLAS and OpenMP read these when NumPy loads, and nothing above loads it.
# Unlike the package's default, this overrides a caller's thread count: the
# digests hold at one thread.
for _var in cobranch.THREAD_VARS:
    os.environ[_var] = "1"

import numpy as np

from cobranch import cli

GOLDEN = os.path.join(ROOT, "tests", "golden_manifest.json")

# The benchmark's model widths and data geometry (perfbench/workloads.py),
# written out here so that a change to the benchmark does not move the manifest.
MODEL = {"d_hidden": 32, "d_feat": 16, "d_proj_hidden": 32, "d_proj": 16}
GEOMETRY = {"d_in": 64, "class_separation": 5.0, "noise_scale": 1.0, "rho_l": 20, "rho_u": 20}
KMEANS_CAPPED = {"kmeans_n_init": 1, "kmeans_max_iter": 20}

# name -> (dataset, train, eval) blocks, and whether the pipeline also runs
# ablate --axis similarity and train --resume on it
CONFIGS = {
    "bench-soft": (
        {"num_classes": 10, "num_known": 6, "n_max": 150, "test_per_class": 50, **GEOMETRY},
        {"total_epochs": 10, "batch_size": 128, "base_lr": 0.1, "warmup_epochs": 1,
         "reestimate_interval": 10, "soft_mode": "soft", "checkpoint_every": 5},
        {},
        False,
    ),
    "scale-c50": (
        {"num_classes": 50, "num_known": 30, "n_max": 400, "test_per_class": 50, **GEOMETRY},
        {"total_epochs": 1, "batch_size": 128, "base_lr": 0.1, "warmup_epochs": 0,
         "reestimate_interval": 10, "soft_mode": "soft", "checkpoint_every": 1, **KMEANS_CAPPED},
        KMEANS_CAPPED,
        False,
    ),
    "l1-unequal": (
        {"num_classes": 8, "num_known": 5, "n_max": 60, "test_per_class": 20, "d_in": 16,
         "rho_l": 5, "rho_u": 20},
        {"total_epochs": 4, "batch_size": 64, "warmup_epochs": 1, "reestimate_interval": 2,
         "metric": "l1", "checkpoint_every": 2},
        {},
        True,
    ),
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def cpu_model() -> str:
    with contextlib.suppress(OSError), open("/proc/cpuinfo", encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("model name"):
                return line.partition(":")[2].strip()
    return platform.processor() or platform.machine()


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "blas": f"{blas.get('name')} {blas.get('version')}", "cpu": cpu_model()}


def run_pipeline(name: str, dataset: dict, train: dict, eval_: dict, extended: bool, calls: list) -> None:
    """Every call of one config, writing under `name/` in the working directory."""

    def call(*argv: str) -> None:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = cli.main(list(argv))
            except SystemExit as exc:  # argparse
                rc = exc.code
        calls.append({"argv": list(argv), "exit": rc,
                      "stdout": sha256(out.getvalue().encode()), "stderr": sha256(err.getvalue().encode())})

    data, config = f"{name}/data", f"{name}/config.json"
    cfg = {
        "dataset": {**dataset, "kind": "embeddings", "path": f"{data}/train.csv",
                    "meta_path": f"{data}/meta.json", "test_path": f"{data}/test.csv"},
        "model": MODEL,
        "train": train,
        "eval": eval_,
    }
    os.makedirs(name)
    with open(config, "w", encoding="utf-8") as fh:
        json.dump(cfg, fh, sort_keys=True, indent=2)

    call("gen-data", "--seed", "0", "--out", data, *(f"--set=dataset.{k}={v}" for k, v in dataset.items()))
    call("train", "--config", config, "--seed", "1", "--out", f"{name}/train")
    checkpoint = f"{name}/train/checkpoint.json"
    call("eval", "--checkpoint", checkpoint, "--seeds", "0,1", "--out", f"{name}/eval")
    call("estimate", "--checkpoint", checkpoint, "--out", f"{name}/estimate-checkpoint")
    call("estimate", "--config", config, "--seed", "2", "--out", f"{name}/estimate-raw")
    call("ablate", "--config", config, "--axis", "loss_mode", "--seeds", "0", "--out", f"{name}/ablate")
    if extended:
        call("ablate", "--config", config, "--axis", "similarity", "--seeds", "0", "--out", f"{name}/ablate-similarity")
        call("train", "--config", config, "--seed", "1", "--resume", f"{name}/train/checkpoint_epoch0002.json",
             "--out", f"{name}/resume")


def manifest() -> dict:
    calls: list = []
    files: dict = {}
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        try:
            for name, blocks in CONFIGS.items():
                run_pipeline(name, *blocks, calls)
            for dirpath, _, names in os.walk("."):
                for f in names:
                    path = os.path.relpath(os.path.join(dirpath, f))
                    with open(path, "rb") as fh:
                        files[path] = sha256(fh.read())
        finally:
            os.chdir(cwd)
    return {"environment": environment(), "calls": calls, "files": dict(sorted(files.items()))}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write", action="store_true", help="write the manifest to tests/golden_manifest.json")
    args = parser.parse_args(argv)
    text = json.dumps(manifest(), indent=1) + "\n"
    if args.write:
        with open(GOLDEN, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"wrote {GOLDEN}")
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
