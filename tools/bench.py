"""Benchmark record: run the benchmark harness and write BENCH_<pr>.json.

    python tools/bench.py --pr N        # the full record, about 3.5 minutes

For each of the bench-soft and scale-c50 workloads it runs
`perfbench/run.py` once with `--trace 0` for the `run_seconds` of
BENCHMARK.json and once with `--trace 1` on each of three seeds, one
process at a time. It reads the result files the harness leaves in
`.perfbench/<workload>-seed<s>-trace<t>.json` and writes, at the repo
root, `BENCH_<pr>.json`: per workload the end-to-end metrics, the median of
each per-layer metric over the traced seeds, the failure counts and the
targets the harness could not wrap; and the `src/` line count, the sha256
of `tests/golden_manifest.json` and the harness's environment record, whose
`git_sha` is the commit checked out. So that this commit is what was
measured, it exits 1 before the first run, listing the paths, while
`git status` shows a change under `src/` or `perfbench/` or to
BENCHMARK.json.

The seeds are ones that no test passes to the harness: the harness names its
result file by workload, seed and trace alone, so a smoke run in the test
suite would overwrite a file of the same name.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("bench-soft", "scale-c50")
TIMED_SEED = 10
TRACED_SEEDS = (11, 12, 13)
MISSING_NOTE = "missing (not wrapped, metrics read 0): "
MEASURED = ("src", "perfbench", "BENCHMARK.json")  # what a record's git_sha must name


def dirty_paths(root: str) -> list[str]:
    """The paths under MEASURED that differ from HEAD in the git tree at `root`, untracked ones included."""
    proc = subprocess.run(["git", "status", "--porcelain", "--untracked-files=all", "--", *MEASURED],
                          cwd=root, capture_output=True, text=True, check=True)
    return [line[3:] for line in proc.stdout.splitlines()]


def harness(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One harness process; returns the result file it wrote."""
    argv = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    print(" ".join(argv[1:]), file=sys.stderr, flush=True)
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(argv[1:])} exited {proc.returncode}:\n{proc.stderr}")
    with open(os.path.join(ROOT, ".perfbench", f"{workload}-seed{seed}-trace{trace}.json"), encoding="utf-8") as fh:
        return json.load(fh)


def values(result: dict) -> dict:
    return {name: m["value"] for name, m in result["metrics"].items()}


def missing(result: dict) -> list[str]:
    return sorted({name for note in result["notes"] if note.startswith(MISSING_NOTE)
                   for name in note.removeprefix(MISSING_NOTE).split(", ")})


def record(seconds: float) -> dict:
    out = {"workloads": {}}
    for w in WORKLOADS:
        timed = harness(w, TIMED_SEED, seconds, 0)
        traced = [harness(w, seed, seconds, 1) for seed in TRACED_SEEDS]
        layers = [values(r) for r in traced]
        out["workloads"][w] = {
            "end_to_end": values(timed),
            "per_layer_median": {name: statistics.median(v[name] for v in layers) for name in layers[0]},
            "attempted": [r["attempted"] for r in [timed, *traced]],
            "failed": [r["failed"] for r in [timed, *traced]],
            "missing": sorted({name for r in traced for name in missing(r)}),
        }
        out["environment"] = timed["environment"]
    with open(os.path.join(ROOT, "tests", "golden_manifest.json"), "rb") as fh:
        manifest = hashlib.sha256(fh.read()).hexdigest()
    out.update({"src_lines": out["environment"]["src_lines"], "golden_manifest_sha256": manifest,
                "seconds": seconds, "timed_seed": TIMED_SEED, "traced_seeds": list(TRACED_SEEDS)})
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--pr", type=int, required=True, help="the change's number: the file is BENCH_<pr>.json")
    args = parser.parse_args(argv)
    dirty = dirty_paths(ROOT)
    if dirty:
        print("error: commit these first; the record names HEAD:\n  " + "\n  ".join(dirty), file=sys.stderr)
        return 1
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        seconds = json.load(fh)["run_seconds"]
    try:
        bench = {"pr": args.pr, **record(seconds)}
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    path = os.path.join(ROOT, f"BENCH_{args.pr}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(bench, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
