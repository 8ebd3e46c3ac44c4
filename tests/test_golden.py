"""Whole-program checks, each in child processes: the golden digest manifest,
the benchmark harness's contract with the package, and one result whatever
the BLAS thread count."""

import json
import os
import subprocess
import sys

import pytest

import cobranch

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
GOLDEN = os.path.join(ROOT, "tests", "golden_manifest.json")
# perfbench wraps these, but the package no longer has them
DEAD_TARGETS = {"losses.contrastive_loss", "losses.soft_contrastive_loss"}


def test_golden_manifest_unchanged():
    """Every file, exit code and output of `tools/manifest.py`'s pipeline
    matches `tests/golden_manifest.json`. A change that moves numerics on
    purpose regenerates it (`python tools/manifest.py --write`) and lists
    the moved files in CHANGES.md."""
    proc = subprocess.run([sys.executable, os.path.join(ROOT, "tools", "manifest.py")],
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout)
    with open(GOLDEN, encoding="utf-8") as fh:
        want = json.load(fh)
    if got["environment"] != want["environment"]:
        pytest.skip(f"the digests were recorded on {want['environment']}; this is {got['environment']}")
    moved = sorted(path for path in want["files"].keys() | got["files"].keys()
                   if want["files"].get(path) != got["files"].get(path))
    calls = [" ".join(w["argv"]) for w, g in zip(want["calls"], got["calls"]) if w != g]
    assert (moved, calls) == ([], []), f"moved files: {moved}; calls whose exit code or output moved: {calls}"
    assert len(got["calls"]) == len(want["calls"])


@pytest.mark.parametrize("workload", ["bench-soft", "scale-c50", "eval-c100"])
def test_perfbench_smoke_run_wraps_every_live_target(workload):
    """perfbench patches package functions by name and reads their return
    values; a traced smoke run fails an op or reports a target missing when
    the package drops or reshapes one."""
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
                           "--seconds", "1", "--trace", "1", "--smoke"],
                          cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    assert json.loads(lines[-1])["failed"] == 0, proc.stderr
    missing = set()
    for line in lines:
        if line.startswith("missing (not wrapped"):
            missing |= {name.removeprefix("cobranch.") for name in line.partition(": ")[2].split(", ")}
    assert missing <= DEAD_TARGETS


def test_default_thread_count_gives_the_one_thread_checkpoint(tmp_path):
    """`train` with the thread variables unset writes the checkpoint of a
    one-thread run: the package pins one thread unless the caller sets a
    count. A multi-threaded GEMM may sum in another order, and on 2 vCPUs
    this checkpoint differed without the pin. On a 1-vCPU machine both runs
    use one thread anyway, and the test passes trivially."""
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "dataset": {"num_classes": 10, "num_known": 6, "n_max": 150, "test_per_class": 50, "d_in": 64,
                    "class_separation": 5.0, "noise_scale": 1.0, "rho_l": 20, "rho_u": 20},
        "model": {"d_hidden": 32, "d_feat": 16, "d_proj_hidden": 32, "d_proj": 16},
        "train": {"total_epochs": 10, "batch_size": 128, "base_lr": 0.1, "warmup_epochs": 1,
                  "reestimate_interval": 10, "soft_mode": "soft"},
    }))
    unset = {k: v for k, v in os.environ.items() if k not in cobranch.THREAD_VARS}
    checkpoints = []
    for name, threads in (("default", {}), ("one", dict.fromkeys(cobranch.THREAD_VARS, "1"))):
        out = tmp_path / name
        subprocess.run([sys.executable, "-m", "cobranch.cli", "train", "--config", str(config), "--seed", "3",
                        "--out", str(out)], env={**unset, **threads, "PYTHONPATH": SRC},
                       capture_output=True, timeout=300, check=True)
        checkpoints.append((out / "checkpoint.json").read_bytes())
    assert checkpoints[0] == checkpoints[1]
