"""Whole-program checks, each in child processes: the golden digest manifest,
the benchmark harness's contract with the package, the benchmark recorder's
refusal of an uncommitted tree, and one result whatever the BLAS thread
count."""

import json
import os
import shutil
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


def test_bench_record_refuses_an_uncommitted_tree(tmp_path):
    """`tools/bench.py`, copied into a scratch git repository, exits 1 before
    any harness run and lists the paths while `src/`, `perfbench/` or
    BENCHMARK.json differ from HEAD; other edits and an untracked
    BENCH_*.json let it go on to the harness."""
    files = {"src/pkg.py": "x = 1\n", "perfbench/run.py": "raise SystemExit(3)\n",
             "BENCHMARK.json": '{"run_seconds": 1}\n', "README.md": ""}
    for path, text in files.items():
        (tmp_path / path).parent.mkdir(exist_ok=True)
        (tmp_path / path).write_text(text)
    (tmp_path / "tools").mkdir()
    shutil.copy(os.path.join(ROOT, "tools", "bench.py"), tmp_path / "tools")
    git = ["git", "-c", "user.name=bench", "-c", "user.email=bench@localhost"]
    for argv in (["init", "-q"], ["add", "-A"], ["commit", "-q", "-m", "seed"]):
        subprocess.run([*git, *argv], cwd=tmp_path, check=True, capture_output=True)

    def bench():
        return subprocess.run([sys.executable, "tools/bench.py", "--pr", "0"], cwd=tmp_path,
                              capture_output=True, text=True, timeout=60)

    (tmp_path / "README.md").write_text("edited\n")
    (tmp_path / "BENCH_0.json").write_text("{}\n")
    proc = bench()
    assert proc.returncode == 1 and "perfbench/run.py --workload" in proc.stderr, proc.stderr

    (tmp_path / "src" / "pkg.py").write_text("x = 2\n")
    (tmp_path / "perfbench" / "new.py").write_text("")
    (tmp_path / "BENCHMARK.json").write_text('{"run_seconds": 2}\n')
    proc = bench()
    assert proc.returncode == 1 and "perfbench/run.py --workload" not in proc.stderr, proc.stderr
    assert sorted(proc.stderr.split("\n", 1)[1].split()) == ["BENCHMARK.json", "perfbench/new.py", "src/pkg.py"]


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
