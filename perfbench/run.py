"""cobranch benchmark: one workload per process, through `cobranch.cli.main`.

    python3 perfbench/run.py --workload bench-soft --seed 0 --seconds 60 --trace 0

Run from a checkout that holds `src/cobranch`. With `--trace 0` it sets up
the workload's datasets, repeats the same CLI calls on them in passes for
about `--seconds` seconds and prints the end-to-end metrics, each CLI call
timed by its fastest repeat. With `--trace 1` it times one untraced call
sequence, repeats it with every layer wrapped in spans, checks the two
produce identical bytes, and prints the per-layer metrics. The last line of
standard output is the result object. Each CLI output is checked; a call
that fails or whose output check fails counts in `failed`. Runs leave their
results and spans under `.perfbench/`.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass

from tracing import MODULES, Tracer, installed, summarize
from workloads import WORKLOADS, Dataset, Workload, gen_data_argv, smoke
from workloads import write_config, write_untrained_checkpoint

# BLAS and OpenMP read these when NumPy loads, and nothing above loads it.
# One thread: at two, CPU time doubled while wall time did not improve on
# the bench-soft workload.
THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = str(THREADS)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench")

END_TO_END = {
    "setup_s": "s",
    "samples_per_s": "samples/s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "acc_all": "fraction",
}

# span name -> reported fields (inclusive seconds, self seconds, call count)
LAYER_FIELDS = {
    "losses.contrastive_objective": ("s", "self_s", "calls"),
    "losses.contrastive_loss": ("s",),
    "losses.soft_contrastive_loss": ("s",),
    "losses.classification_objective": ("s",),
    "transfer.debias": ("s",),
    "transfer.sample_pseudolabels": ("s",),
    "transfer.build_positiveness_matrix": ("s",),
    "nn.classifier_branch_forward": ("s", "calls"),
    "nn.classifier_branch_backward": ("s", "calls"),
    "nn.contrastive_branch_forward": ("s", "calls"),
    "nn.contrastive_branch_backward": ("s", "calls"),
    "nn.sgd_step": ("s", "calls"),
    "nn.encode": ("s", "calls"),
    "train.run": ("self_s",),
    "train.make_views": ("s",),
    "estimate.estimate_round": ("s",),
    "estimate.kmeans": ("s", "calls"),
    "estimate.align_clusters": ("s",),
    "estimate.hungarian": ("s", "calls"),
    "evaluation.evaluate": ("s",),
    "evaluation.score_clustering": ("self_s",),
    "cli.write_json_atomic": ("s", "calls"),
    "cli.write_text_atomic": ("s", "calls"),
    "cli.load_checkpoint": ("s",),
    "cli.build_dataset": ("s",),
    "data.load_embeddings": ("s",),
}
FIELD_UNITS = {"s": "s", "self_s": "s", "calls": "count"}
PER_LAYER_EXTRA = {
    "losses.soft_anchor_ratio": "fraction",
    "losses.gate_ratio": "fraction",
    "transfer.keep_ratio": "fraction",
    "train.batches": "count",
    "train.estimation_rounds": "count",
    "estimate.kmeans.iterations": "count",
    "estimate.hungarian.n": "count",
    "data.load_embeddings.rows": "count",
    "data.save_embeddings.s": "s",
    **{f"module.{m}.self_s": "s" for m in MODULES},
    "trace.overhead_s": "s",
    "trace.spans": "count",
    "train_samples_per_s": "samples/s",
    "eval_samples_per_s": "samples/s",
    "acc_new": "fraction",
}
PER_LAYER = {
    **{f"{name}.{f}": FIELD_UNITS[f] for name, fields in LAYER_FIELDS.items() for f in fields},
    **PER_LAYER_EXTRA,
}

REPORT_FIELDS = ("acc_all", "acc_old", "acc_new", "known", "novel", "per_class_acc",
                 "assignment", "n_test", "warnings")
GROUP_FIELDS = ("many", "median", "few", "std")


class SetupError(RuntimeError):
    """Set-up could not produce a workload's inputs; no metric can be taken."""


@dataclass
class OpResult:
    """One timed call sequence on one dataset: train (if any), then eval."""

    ok: bool
    train_s: float = 0.0
    eval_s: float = 0.0
    train_cpu_s: float = 0.0
    eval_cpu_s: float = 0.0
    report: dict | None = None
    report_bytes: bytes = b""
    checkpoint_bytes: bytes = b""

    @property
    def wall_s(self) -> float:
        return self.train_s + self.eval_s


def _fail(msg: str) -> bool:
    print(f"check failed: {msg}", file=sys.stderr)
    return False


def _accuracy_ok(value) -> bool:
    return isinstance(value, (int, float)) and math.isfinite(value) and 0.0 <= value <= 1.0


def check_report(w: Workload, payload: dict, seed: int) -> bool:
    """Every report field present, accuracies finite and in [0, 1]."""
    report = payload.get("report")
    if payload.get("seed") != seed or not isinstance(report, dict):
        return _fail(f"eval report for seed {seed} lacks seed or report")
    missing = [f for f in REPORT_FIELDS if f not in report]
    missing += [f"{g}.{f}" for g in ("known", "novel") for f in GROUP_FIELDS
                if f not in report.get(g, {})]
    if missing:
        return _fail(f"eval report lacks {missing}")
    C = w.num_classes
    if report["n_test"] != w.n_test:
        return _fail(f"n_test {report['n_test']} != {w.n_test}")
    if sorted(report["assignment"]) != list(range(C)):
        return _fail("assignment is not a permutation of the classes")
    accs = [report["acc_all"], report["acc_old"], report["acc_new"], *report["per_class_acc"]]
    if len(report["per_class_acc"]) != C or not all(_accuracy_ok(a) for a in accs):
        return _fail("an accuracy is missing, non-finite or outside [0, 1]")
    return True


def check_checkpoint(w: Workload, ds: Dataset, blob: bytes) -> bool:
    ckpt = json.loads(blob)
    if ckpt.get("epochs_done") != w.epochs:
        return _fail(f"checkpoint has {ckpt.get('epochs_done')} epochs, want {w.epochs}")
    with open(os.path.join(os.path.dirname(ds.checkpoint), "telemetry.jsonl"), "rb") as fh:
        records = fh.read().splitlines()
    if len(records) != 1 + w.epochs:
        return _fail(f"telemetry has {len(records)} lines, want {1 + w.epochs}")
    return True


class Runner:
    """Drives one workload through `cobranch.cli.main` and counts every CLI
    call made and every one that failed."""

    def __init__(self, w: Workload, workdir: str):
        from cobranch import cli

        self.w = w
        self.cli = cli
        self.workdir = workdir
        self.tracer: Tracer | None = None
        self.attempted = 0
        self.failed = 0

    def call(self, argv: list[str]) -> int | None:
        """Run one CLI call; its own output is swallowed so that the
        benchmark's last line stays the result."""
        self.attempted += 1
        span = self.tracer.span("cli.main") if self.tracer else contextlib.nullcontext()
        rc = None
        with span, contextlib.redirect_stdout(io.StringIO()):
            try:
                rc = self.cli.main(argv)
            except SystemExit as exc:
                rc = exc.code
            except Exception:  # a crash is a failed op; the run carries on
                traceback.print_exc()
        if rc != 0:
            self.failed += 1
            print(f"cobranch {' '.join(argv[:1])} returned {rc}", file=sys.stderr)
        return rc

    def dataset(self, index: int, seed: int) -> Dataset:
        return Dataset(seed=seed * 100 + index, dir=os.path.join(self.workdir, f"d{index}"))

    def setup(self, ds: Dataset) -> float:
        """Write the dataset's inputs; returns the set-up wall seconds."""
        t0 = time.perf_counter()
        write_config(self.w, ds)
        if self.call(gen_data_argv(self.w, ds)) != 0:
            raise SetupError(f"gen-data failed for dataset seed {ds.seed}")
        if self.w.train is None:
            write_untrained_checkpoint(self.w, ds)
        return time.perf_counter() - t0

    def n_train(self, ds: Dataset) -> int:
        with open(os.path.join(ds.data, "meta.json"), encoding="utf-8") as fh:
            return int(sum(json.load(fh)["true_counts"]))

    def op(self, ds: Dataset, tag: str) -> OpResult:
        """Train (if the workload trains), then eval; only the CLI calls are
        timed, the output checks run after."""
        res = OpResult(ok=False)
        if self.w.train is not None:
            t0, cpu0 = time.perf_counter(), time.process_time()
            rc = self.call(["train", "--config", ds.config, "--seed", str(ds.seed),
                            "--out", os.path.dirname(ds.checkpoint)])
            res.train_s = time.perf_counter() - t0
            res.train_cpu_s = time.process_time() - cpu0
            if rc != 0:
                return res
        t0, cpu0 = time.perf_counter(), time.process_time()
        rc = self.call(["eval", "--checkpoint", ds.checkpoint, "--seeds", str(ds.seed),
                        "--out", ds.eval_out(tag)])
        res.eval_s = time.perf_counter() - t0
        res.eval_cpu_s = time.process_time() - cpu0
        if rc != 0:
            return res
        try:
            with open(os.path.join(ds.eval_out(tag), f"report_seed{ds.seed}.json"), "rb") as fh:
                res.report_bytes = fh.read()
            with open(ds.checkpoint, "rb") as fh:
                res.checkpoint_bytes = fh.read()
            payload = json.loads(res.report_bytes)
            ok = check_report(self.w, payload, ds.seed)
            if self.w.train is not None:
                ok = check_checkpoint(self.w, ds, res.checkpoint_bytes) and ok
        except (OSError, ValueError, KeyError, TypeError, AttributeError) as exc:
            ok = _fail(f"unreadable output: {exc!r}")
        if not ok:
            self.failed += 1
            return res
        res.report = payload["report"]
        res.ok = True
        return res

    def same_output(self, a: OpResult, b: OpResult, what: str) -> None:
        """Byte-identical reruns are a promise of the program; a break counts
        as a failed op."""
        if a.ok and b.ok and (a.report_bytes != b.report_bytes
                              or a.checkpoint_bytes != b.checkpoint_bytes):
            self.failed += 1
            print(f"check failed: {what} differ in bytes", file=sys.stderr)


def measure(runner: Runner, seed: int, seconds: float) -> dict:
    """End-to-end metrics: set up every dataset, then run passes of one op
    per dataset: two, and more while the next pass still fits in `seconds`.
    Every pass repeats the same ops on the same files, so each rerun is
    checked against the first. Each CLI call of an op is timed by its
    fastest repeat, since other tenants of a shared machine only ever add
    time, and a short call is likelier than a long one to find a quiet
    stretch. Set-up is repeated after every op and reported as a median."""
    w = runner.w
    datasets = [runner.dataset(i, seed) for i in range(w.n_datasets)]
    setup_times = [runner.setup(ds) for ds in datasets]
    samples = [runner.n_train(ds) * w.epochs + w.n_test for ds in datasets]

    first: list[OpResult | None] = [None] * len(datasets)
    timed: list[list[OpResult]] = [[] for _ in datasets]  # successful ops only
    passes = 0
    start = time.perf_counter()
    longest = 0.0
    while True:
        pass_start = time.perf_counter()
        for i, ds in enumerate(datasets):
            res = runner.op(ds, f"pass{passes}")
            if first[i] is None:
                first[i] = res
            else:
                runner.same_output(first[i], res, f"reruns on dataset seed {ds.seed}")
                # drop the outputs so memory does not grow with the passes
                res.report_bytes = res.checkpoint_bytes = b""
            if res.ok:
                timed[i].append(res)
            setup_times.append(runner.setup(ds))
        passes += 1
        now = time.perf_counter()
        longest = max(longest, now - pass_start)
        if passes >= 2 and now - start + longest > seconds:
            break

    ok = [(n, done) for n, done in zip(samples, timed) if done]
    if not ok:
        raise RuntimeError("every timed op failed; no metric can be taken")

    def fastest(done, *fields):
        return sum(min(getattr(r, f) for r in done) for f in fields)

    n_samples = sum(n for n, _ in ok)
    median_wall = sum(statistics.median(r.wall_s for r in done) for _, done in ok)
    return {
        "setup_s": statistics.median(setup_times),
        "samples_per_s": n_samples / sum(fastest(done, "train_s", "eval_s") for _, done in ok),
        "cpu_s": statistics.fmean(fastest(done, "train_cpu_s", "eval_cpu_s") for _, done in ok),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "acc_all": statistics.fmean(done[0].report["acc_all"] for _, done in ok),
        "_notes": [f"passes over {w.n_datasets} datasets: {passes}",
                   f"samples_per_s from median repeats: {n_samples / median_wall:.6g}"],
    }


def _subtree(spans, root_id: int):
    keep = {root_id}
    out = []
    for sp in spans:  # parents are recorded before their children
        if sp.parent in keep:
            keep.add(sp.id)
            out.append(sp)
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(op_spans, setup_spans) -> dict:
    st = summarize(op_spans)
    setup = summarize(setup_spans)
    out = {}
    for name, fields in LAYER_FIELDS.items():
        for f in fields:
            out[f"{name}.{f}"] = float(getattr(st[name], f))
    soft = st["losses.soft_contrastive_loss"].counters
    gate = st["losses.classification_objective"].counters
    keep = st["transfer.sample_pseudolabels"].counters
    hung = st["estimate.hungarian"]
    out.update({
        "losses.soft_anchor_ratio": _ratio(soft["kept"], soft["offered"]),
        "losses.gate_ratio": _ratio(gate["gated"], gate["gate_slots"]),
        "transfer.keep_ratio": _ratio(keep["kept"], keep["scored"]),
        "train.batches": float(st["train.make_batches"].counters["batches"]),
        "train.estimation_rounds": float(st["estimate.estimate_round"].calls),
        "estimate.kmeans.iterations": float(st["estimate.kmeans"].counters["iterations"]),
        "estimate.hungarian.n": _ratio(hung.counters["n"], hung.calls),
        "data.load_embeddings.rows": float(st["data.load_embeddings"].counters["rows"]),
        "data.save_embeddings.s": setup["data.save_embeddings"].s,
    })
    for m in MODULES:
        out[f"module.{m}.self_s"] = sum(v.self_s for k, v in st.items() if k.startswith(m + "."))
    return out


def dominant(op_spans) -> str:
    st = summarize(op_spans)
    total = sum(v.self_s for v in st.values())
    modules = {m: sum(v.self_s for k, v in st.items() if k.startswith(m + ".")) for m in MODULES}
    top_module = max(modules, key=modules.get)
    top = sorted(st.items(), key=lambda kv: -kv[1].self_s)[:4]
    spans = ", ".join(f"{k} {100 * v.self_s / total:.0f}%" for k, v in top)
    return (f"dominant layer: {top_module} ({100 * modules[top_module] / total:.0f}% of traced "
            f"self time); top spans by self time: {spans}")


def traced(runner: Runner, seed: int) -> tuple[dict, list, list[str]]:
    """Per-layer metrics: one untraced op, then set-up and the same op again
    with every target wrapped, on the same files."""
    w = runner.w
    ds = runner.dataset(0, seed)
    runner.setup(ds)
    n_train = runner.n_train(ds)
    plain = runner.op(ds, "untraced")
    if not plain.ok:
        raise RuntimeError("the untraced op failed; no metric can be taken")

    tracer = Tracer(run_id=f"{w.name}-seed{seed}-pid{os.getpid()}")
    runner.tracer = tracer
    try:
        with installed(tracer) as missing:
            with tracer.span("bench.setup") as setup_span:
                runner.setup(ds)
            with tracer.span("bench.op") as op_span:
                wrapped = runner.op(ds, "traced")
    finally:
        runner.tracer = None
    runner.same_output(plain, wrapped, "traced and untraced outputs")

    op_spans = _subtree(tracer.spans, op_span.id)
    out = layer_metrics(op_spans, _subtree(tracer.spans, setup_span.id))
    out.update({
        "trace.overhead_s": wrapped.wall_s - plain.wall_s,
        "trace.spans": float(len(tracer.spans)),
        "train_samples_per_s": _ratio(n_train * w.epochs, plain.train_s),
        "eval_samples_per_s": w.n_test / plain.eval_s,
        "acc_new": plain.report["acc_new"],
    })
    notes = [dominant(op_spans)]
    if missing:
        notes.append(f"missing (not wrapped, metrics read 0): {', '.join(missing)}")
    return out, [sp.to_dict(tracer.run_id) for sp in tracer.spans], notes


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    src_lines = 0
    for dirpath, _, files in os.walk(os.path.join(SRC, "cobranch")):
        for f in files:
            if f.endswith(".py"):
                with open(os.path.join(dirpath, f), "rb") as fh:
                    src_lines += fh.read().count(b"\n")
    return {
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": THREADS,
        "nproc": len(os.sched_getaffinity(0)),
        "src_lines": src_lines,
    }


def _git_sha() -> str | None:
    """HEAD's commit, if the checkout is a git repository."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True,
                   help="repeat passes of ops while the next one fits in this time")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="shrink the workload to about a second (harness self-tests)")
    return p


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "cobranch", "cli.py")):
        print(f"error: {SRC}/cobranch not found; run from a cobranch checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    w = WORKLOADS[args.workload]
    if args.smoke:
        w = smoke(w)
    tag = f"{w.name}-seed{args.seed}-trace{args.trace}"
    workdir = os.path.join(WORK, f"{tag}-pid{os.getpid()}")
    runner = Runner(w, workdir)
    spans: list = []
    notes: list[str] = []
    try:
        if args.trace:
            values, spans, notes = traced(runner, args.seed)
            units = PER_LAYER
        else:
            values = measure(runner, args.seed, args.seconds)
            notes = values.pop("_notes")
            units = END_TO_END
    except RuntimeError as exc:  # SetupError included
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }
    env = environment()
    os.makedirs(WORK, exist_ok=True)
    with open(os.path.join(WORK, f"{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump({"environment": env, "notes": notes, **result, "spans": spans}, fh)
    for name, m in metrics.items():
        print(f"{name:40s} {m['value']:.6g} {m['unit']}")
    for note in notes:
        print(note)
    print(f"environment: {json.dumps(env, sort_keys=True)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
