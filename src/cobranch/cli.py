"""Command-line front end: dataset generation, training, evaluation,
estimation diagnostics, and ablation grids.

Subcommands: gen-data, train, eval, estimate, ablate. Every command is a
deterministic function of (config, input files, seed) at a given BLAS
thread count, one unless the caller sets it (see `cobranch/__init__.py`);
reruns produce byte-identical outputs. Exit codes: 0 success, 1 numerical
abort inside a named phase (`train._named_abort`), 2 I/O or config error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys

import numpy as np

from . import nn, train as train_mod
from ._rng import TEST
from .checkpoint import checkpoint_dict, load_checkpoint
from .config import ConfigError, load_config, read_json, to_train_objects
from .data import (
    UNLABELED_MARKER,
    DatasetSplit,
    EmbeddingFormatError,
    atomic_file,
    load_embeddings,
    make_class_means,
    make_longtail_counts,
    sample_from_means,
    save_embeddings,
    split_from_mask,
    split_independent_pools,
    split_known_novel,
)
from .estimate import estimate_round
from .evaluation import EvalReport, aggregate, evaluate
from .train import TrainingAborted

EXIT_OK = 0
EXIT_NUMERIC = 1
EXIT_CONFIG = 2


# --- atomic output helpers -----------------------------------------------------

def write_text_atomic(path: str, text: str) -> None:
    with atomic_file(path) as fh:
        fh.write(text.encode("utf-8"))


def _null_nonfinite(obj):
    """`obj` with each non-finite float, an undefined metric, made None."""
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {key: _null_nonfinite(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_null_nonfinite(value) for value in obj]
    return obj


def dump_json(obj) -> str:
    """Indented JSON, the form of every artifact but the compact checkpoint
    and telemetry: a non-finite float is written as null, since JSON has no NaN."""
    return json.dumps(_null_nonfinite(obj), sort_keys=True, indent=2, allow_nan=False) + "\n"


def write_json_atomic(path: str, obj) -> None:
    write_text_atomic(path, dump_json(obj))


def write_csv_atomic(path: str, header: list, rows: list) -> None:
    write_text_atomic(path, "".join(",".join(map(str, row)) + "\n" for row in [header, *rows]))


def write_checkpoint(path: str, result: train_mod.TrainResult, cfg: dict, train_seed: int) -> None:
    """Compact JSON: `indent` would send a checkpoint through json's pure-Python
    encoder. Every value is finite (`train.run` aborts on a non-finite one)."""
    blob = checkpoint_dict(result, cfg, train_seed)
    write_text_atomic(path, json.dumps(blob, sort_keys=True, separators=(",", ":"), allow_nan=False) + "\n")


# --- dataset construction --------------------------------------------------------

@dataclasses.dataclass
class EvalSet:
    """A labeled test pool and the training-pool facts its report needs:
    which classes are known, how many there are, and each one's training
    count."""

    X: np.ndarray
    y: np.ndarray
    num_known: int
    num_classes: int
    true_counts: np.ndarray


def _labeled_counts_ranked(ds: dict) -> np.ndarray:
    """Unequal imbalance ratios: labeled counts of the known classes, largest
    first, on their own long-tail profile (rho_l)."""
    n_max_l = max(int(math.ceil(ds["rho_l"])), int(round(ds["labeled_ratio"] * ds["n_max"])))
    if ds["num_known"] < 2:
        return np.array([n_max_l], dtype=int)
    return make_longtail_counts(ds["num_known"], ds["profile"], ds["rho_l"], n_max_l)


@np.errstate(over="ignore", invalid="ignore")  # a non-finite sample is refused below
def build_synthetic_dataset(ds: dict, seed: int) -> tuple[DatasetSplit, EvalSet]:
    C = ds["num_classes"]
    counts = make_longtail_counts(C, ds["profile"], ds["rho_u"], ds["n_max"])
    means = make_class_means(C, ds["d_in"], ds["class_separation"], seed)
    if ds["rho_l"] == ds["rho_u"]:
        # unbound, so the unsplit pool is freed once the split holds its rows
        split = split_known_novel(*sample_from_means(means, counts, ds["noise_scale"], seed),
                                  ds["num_known"], ds["labeled_ratio"], seed)
    else:
        split = split_independent_pools(
            means, counts, _labeled_counts_ranked(ds), ds["num_known"], ds["noise_scale"], seed
        )
    if split.y_lab.size == 0:
        raise ConfigError(
            f"dataset.labeled_ratio must be large enough to label a sample: {ds['labeled_ratio']!r} labels none"
        )

    # balanced disjoint test set over the same means, in split-space labels
    test_counts = np.full(C, ds["test_per_class"], dtype=int)
    test_X, test_y = sample_from_means(means, test_counts, ds["noise_scale"], seed, stream=TEST)
    if not (np.isfinite(split.X).all() and np.isfinite(test_X).all()):
        raise ConfigError(f"dataset.noise_scale={ds['noise_scale']!r} with dataset.class_separation="
                          f"{ds['class_separation']!r} overflows float64 in the generated samples")
    return split, EvalSet(test_X, split.class_remap[test_y], split.num_known, split.num_classes, split.true_counts)


def _load_meta(ds: dict) -> dict:
    """`meta.json`, checked against the config: the class counts and width
    the files were made with, and one positive training count per class."""
    path = ds["meta_path"]
    meta = read_json(path)
    for key in ("num_classes", "num_known", "d_in", "true_counts"):
        if key not in meta:
            raise ConfigError(f"{path}: missing key {key!r}")
    for key in ("num_classes", "num_known", "d_in"):
        if type(meta[key]) is not int:
            raise ConfigError(f"{path}: {key} must be an integer, got {meta[key]!r}")
        if meta[key] != ds[key]:
            raise ConfigError(f"dataset.{key}={ds[key]!r} disagrees with {key}={meta[key]!r} in {path}")
    counts = meta["true_counts"]
    if not (
        isinstance(counts, list)
        and len(counts) == ds["num_classes"]
        and all(type(c) is int for c in counts)
    ):
        raise ConfigError(f"{path}: true_counts must be {ds['num_classes']} integers, got {counts!r}")
    for c, count in enumerate(counts):
        if not 1 <= count <= np.iinfo(np.int64).max:
            why = "every class needs at least one training sample" if count < 1 else "it does not fit in int64"
            raise ConfigError(f"{path}: true_counts[{c}] is {count}: {why}")
    return meta


def _check_width(path: str, X: np.ndarray, d_in: int) -> None:
    if X.shape[1] != d_in:
        raise EmbeddingFormatError(f"{path}: {X.shape[1]} feature columns, expected d_in={d_in}")


def _file_split(ds: dict, meta: dict) -> DatasetSplit:
    """The training split of `dataset.path`, whose rows the `true_counts` of
    `meta.json` count; no class may have more labeled rows than its entry."""
    ids, labels, X = load_embeddings(ds["path"])
    _check_width(ds["path"], X, ds["d_in"])
    if np.all(labels == UNLABELED_MARKER):
        raise EmbeddingFormatError(f"{ds['path']}: no labeled rows: every label is {UNLABELED_MARKER}")
    total = sum(meta["true_counts"])  # Python ints: a sum past int64 is reported as it is
    true_counts = np.asarray(meta["true_counts"], dtype=int)
    if total != len(X):
        raise EmbeddingFormatError(f"{ds['meta_path']}: true_counts sum to {total}, "
                                   f"but {ds['path']} has {len(X)} rows")
    try:
        # meta.json's class_remap is provenance: nothing downstream reads it
        split = split_from_mask(X, labels, ids, labels != UNLABELED_MARKER, meta["num_known"],
                                meta["num_classes"], true_counts, None)
    except ValueError as exc:  # a label outside the known classes
        raise EmbeddingFormatError(f"{ds['path']}: {exc}") from exc
    labeled = np.bincount(split.y_lab, minlength=true_counts.size)
    over = np.flatnonzero(labeled > true_counts)
    if over.size:
        c = over[0]
        raise EmbeddingFormatError(f"{ds['path']}: {labeled[c]} labeled rows of class {c}, more than its "
                                   f"true_counts[{c}]={true_counts[c]} in {ds['meta_path']}")
    return split


def _file_test_set(ds: dict, meta: dict) -> EvalSet:
    C = meta["num_classes"]
    _, labels, X = load_embeddings(ds["test_path"], num_classes=C)
    _check_width(ds["test_path"], X, ds["d_in"])
    missing = np.flatnonzero(np.bincount(labels, minlength=C) == 0)
    if missing.size:
        raise EmbeddingFormatError(f"{ds['test_path']}: no rows of classes {missing.tolist()}")
    return EvalSet(X, labels, meta["num_known"], C, np.asarray(meta["true_counts"], dtype=int))


def build_dataset(cfg: dict, run_seed: int) -> DatasetSplit:
    """The training split: generated, or read from `meta.json` and `dataset.path`."""
    ds = cfg["dataset"]
    if ds["kind"] == "synthetic":
        return build_synthetic_dataset(ds, run_seed)[0]
    return _file_split(ds, _load_meta(ds))


def build_test_set(cfg: dict, run_seed: int) -> EvalSet:
    """The test set: generated, or read from `meta.json` and
    `dataset.test_path` without reading the training pool."""
    ds = cfg["dataset"]
    if ds["kind"] == "synthetic":
        return build_synthetic_dataset(ds, run_seed)[1]
    return _file_test_set(ds, _load_meta(ds))


# --- experiment runner ------------------------------------------------------------

def run_experiment(cfg: dict, seed: int):
    """gen -> train -> encode test -> evaluate, all in memory."""
    split, test = build_dataset(cfg, seed), build_test_set(cfg, seed)
    model_cfg, train_cfg = to_train_objects(cfg, seed)
    result = train_mod.run(split, model_cfg, train_cfg)
    report = evaluate_trained(cfg, test, result.params, seed)
    return report, result, test


def evaluate_trained(cfg: dict, test: EvalSet, params: nn.ModelParams, eval_seed: int) -> EvalReport:
    """The test set encoded and evaluated; a numerical failure aborts as `eval seed N`."""
    with train_mod._named_abort(f"eval seed {eval_seed}"):
        # the eval block's keys are evaluate's keyword names
        feats = nn.encode(params, test.X)
        return evaluate(feats, test.y, test.num_known, test.num_classes, test.true_counts,
                        seed=eval_seed, **cfg["eval"])


# --- subcommands ------------------------------------------------------------------

def cmd_gen_data(args) -> int:
    cfg = load_config(args.config, args.set)
    if cfg["dataset"]["kind"] != "synthetic":
        raise ConfigError("gen-data needs dataset.kind=synthetic")
    split, test = build_synthetic_dataset(cfg["dataset"], args.seed)
    os.makedirs(args.out, exist_ok=True)

    train_labels = np.full(len(split.X), UNLABELED_MARKER)
    train_labels[: split.y_lab.size] = split.y_lab
    save_embeddings(split.ids, train_labels, split.X, os.path.join(args.out, "train.csv"))
    save_embeddings(np.arange(test.y.size), test.y, test.X, os.path.join(args.out, "test.csv"))
    meta = {
        "config": cfg,
        "seed": args.seed,
        "num_known": split.num_known,
        "num_classes": split.num_classes,
        "true_counts": split.true_counts.tolist(),
        "class_remap": {str(orig): new for orig, new in enumerate(split.class_remap.tolist())},
        "d_in": cfg["dataset"]["d_in"],
    }
    write_json_atomic(os.path.join(args.out, "meta.json"), meta)

    labeled_counts = np.bincount(split.y_lab, minlength=split.num_classes)
    print("class  total  labeled  unlabeled  status")
    for c in range(split.num_classes):
        status = "known" if c < split.num_known else "novel"
        tot = int(split.true_counts[c])
        lab = int(labeled_counts[c])
        print(f"{c:5d}  {tot:5d}  {lab:7d}  {tot - lab:9d}  {status}")
    print(f"wrote train.csv, test.csv, meta.json to {args.out}")
    return EXIT_OK


def cmd_train(args) -> int:
    cfg = load_config(args.config, args.set)
    resume = None
    if args.resume:
        resume_cfg, resume_seed, resume = load_checkpoint(args.resume)
        if resume_cfg != cfg:  # both are effective configs: the same blocks and keys
            block, key = next((block, key) for block in cfg for key in cfg[block]
                              if cfg[block][key] != resume_cfg[block][key])
            raise ConfigError(f"{args.resume}: trained under {block}.{key}={resume_cfg[block][key]!r}, "
                              f"this run has {cfg[block][key]!r}")
        if resume_seed != args.seed:
            raise ConfigError(f"{args.resume}: train_seed {resume_seed}, not --seed {args.seed}")
        if resume.epochs_done >= cfg["train"]["total_epochs"]:
            raise ConfigError(f"{args.resume}: epochs_done {resume.epochs_done} reaches "
                              f"train.total_epochs={cfg['train']['total_epochs']}: nothing left to train")
    split = build_dataset(cfg, args.seed)
    model_cfg, train_cfg = to_train_objects(cfg, args.seed)
    os.makedirs(args.out, exist_ok=True)

    every = cfg["train"]["checkpoint_every"]
    total = cfg["train"]["total_epochs"]
    start = resume.epochs_done if resume else 0
    with open(os.path.join(args.out, "telemetry.jsonl"), "w", encoding="utf-8") as tel:
        tel.write(json.dumps({"config": cfg}, sort_keys=True, allow_nan=False) + "\n")

        def on_epoch(result: train_mod.TrainResult) -> None:
            # one flushed record per epoch, so an aborted run keeps the epochs it finished;
            # its losses are finite, since `train.run` aborts on a non-finite one
            tel.write(json.dumps(result.telemetry[-1], sort_keys=True, allow_nan=False) + "\n")
            tel.flush()
            n = result.epochs_done
            if every and ((n - start) % every == 0 or n == total):
                write_checkpoint(os.path.join(args.out, f"checkpoint_epoch{n:04d}.json"), result, cfg, args.seed)

        result = train_mod.run(split, model_cfg, train_cfg, resume=resume, on_epoch=on_epoch)

    write_checkpoint(os.path.join(args.out, "checkpoint.json"), result, cfg, args.seed)
    print(f"trained {result.epochs_done} epochs; wrote checkpoint.json and telemetry.jsonl to {args.out}")
    return EXIT_OK


def cmd_eval(args) -> int:
    cfg, train_seed, state = load_checkpoint(args.checkpoint)
    test = build_test_set(cfg, train_seed)
    os.makedirs(args.out, exist_ok=True)

    reports = []
    for seed in args.seeds:
        report = evaluate_trained(cfg, test, state.params, seed)
        payload = {"config": cfg, "seed": seed, "report": dataclasses.asdict(report)}
        write_json_atomic(os.path.join(args.out, f"report_seed{seed}.json"), payload)
        write_csv_atomic(os.path.join(args.out, f"report_seed{seed}.csv"), ["seed", *EvalReport.CSV_COLUMNS],
                         [[seed, *report.csv_row()]])
        reports.append(report)
        print(f"seed {seed}: all={report.acc_all:.4f} old={report.acc_old:.4f} new={report.acc_new:.4f}")

    metrics = aggregate(reports)
    write_json_atomic(
        os.path.join(args.out, "aggregate.json"),
        {"config": cfg, "seeds": args.seeds, "metrics": metrics},
    )
    write_csv_atomic(
        os.path.join(args.out, "aggregate.csv"),
        ["metric", "mean", "std"],
        [[name, m["mean"], m["std"]] for name, m in metrics.items()],
    )
    print(f"wrote per-seed reports and aggregate to {args.out}")
    return EXIT_OK


def cmd_estimate(args) -> int:
    if args.checkpoint:
        if args.config or args.set:
            raise ConfigError("estimate --checkpoint runs on the checkpoint's config: drop --config and --set")
        cfg, data_seed, state = load_checkpoint(args.checkpoint)
        split = build_dataset(cfg, data_seed)
    else:
        if not (args.config or args.set):
            raise ConfigError("estimate needs --checkpoint or --config")
        cfg = load_config(args.config, args.set)
        if args.seed is None:
            raise ConfigError("estimate needs --seed when no checkpoint is given")
        split = build_dataset(cfg, args.seed)
    with train_mod._named_abort("estimate round"):
        result, amap, pi_e = estimate_round(
            nn.encode(state.params, split.X) if args.checkpoint else split.X,
            split.num_classes,
            split.y_lab,
            split.num_known,
            seed=args.seed if args.seed is not None else 0,
            max_iter=cfg["train"]["kmeans_max_iter"],
            n_init=cfg["train"]["kmeans_n_init"],
        )
    record = {
        "config": cfg,
        "assignments": result.assignments.tolist(),
        "cluster_sizes": result.sizes.tolist(),
        "inertia": result.inertia,
        "iterations": result.iterations,
        "restart": result.restart,
        "cluster_to_class": amap.cluster_to_class.tolist(),
        "pi_e": pi_e.tolist(),
    }
    os.makedirs(args.out, exist_ok=True)
    out_path = os.path.join(args.out, "estimate.json")
    write_json_atomic(out_path, record)
    print(f"pi_e = {np.array2string(pi_e, precision=4)}")
    print(f"wrote {out_path}")
    return EXIT_OK


# axis -> [(label, --set overrides)]; a variant's overrides follow the command's own --set
ABLATIONS = {
    "similarity": [(m, [f"train.metric={m}"]) for m in ("l1", "l2", "cosine", "dot")],
    "r": [(f"r={v}", [f"train.reestimate_interval={v}"]) for v in (1, 5, 10, 25, 50)],
    "k": [(f"k={v}", [f"train.k={v}"]) for v in (0.0, 0.25, 0.5, 1.0, 1.5)],
    "alpha_beta": [
        ("baseline", ["train.soft_mode=off"]),
        ("vanilla", ["train.k=0.0", "train.alpha=0.0", "train.beta=0.0"]),
        ("debias", ["train.alpha=0.0", "train.beta=0.0"]),
        ("sampling", ["train.k=0.0"]),
        ("both", []),
    ],
    "loss_mode": [("baseline" if m == "off" else m, [f"train.soft_mode={m}"]) for m in ("off", "hard", "soft")],
}
# ablate's columns, each the seed mean of the aggregate metric it names
ABLATE_COLUMNS = {"old": "acc_old", "new": "acc_new", "all": "acc_all",
                  "std_known": "std_known", "std_novel": "std_novel"}


def cmd_ablate(args) -> int:
    cfg = load_config(args.config, args.set)
    # every variant is validated like any --set, before the first run
    grid = [(label, load_config(args.config, [*args.set, *overrides])) for label, overrides in ABLATIONS[args.axis]]

    header = ["label", *ABLATE_COLUMNS]
    rows = []
    for label, variant_cfg in grid:
        metrics = aggregate([run_experiment(variant_cfg, seed)[0] for seed in args.seeds])
        row = [label, *(metrics[name]["mean"] for name in ABLATE_COLUMNS.values())]
        rows.append(row)
        print(f"{label}: old={row[1]:.4f} new={row[2]:.4f} all={row[3]:.4f}")
    os.makedirs(args.out, exist_ok=True)
    out_path = os.path.join(args.out, f"ablate_{args.axis}.csv")
    write_csv_atomic(out_path, header, rows)
    write_json_atomic(
        os.path.join(args.out, f"ablate_{args.axis}.json"),
        {"config": cfg, "axis": args.axis, "seeds": args.seeds,
         "rows": [dict(zip(header, row)) for row in rows]},
    )
    print(f"wrote {out_path}")
    return EXIT_OK


# --- entry point --------------------------------------------------------------------

def _seed(text: str) -> int:
    """`--seed`: one non-negative integer."""
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {text!r}")
    return value


def _seeds(text: str) -> list[int]:
    """`--seeds`: comma-separated seeds, non-negative integers with no repeats."""
    try:
        seeds = [int(s) for s in text.split(",")]
    except ValueError:
        seeds = []
    if not seeds or min(seeds) < 0 or len(set(seeds)) < len(seeds):
        raise argparse.ArgumentTypeError(
            f"must be distinct non-negative integers separated by commas, got {text!r}")
    return seeds


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cobranch",
        description="Two-branch co-training for long-tailed category discovery.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, help):
        # no abbreviations: `--seed` must not pass for `--seeds`, nor `--check` for `--checkpoint`
        return sub.add_parser(name, help=help, allow_abbrev=False)

    def common(p):
        p.add_argument("--config", default=None, help="JSON config file")
        p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                       help="override a config key, e.g. train.base_lr=0.05")
        p.add_argument("--out", default=".", help="output directory")

    p = command("gen-data", "generate a synthetic dataset (train/test/meta)")
    common(p)
    p.add_argument("--seed", type=_seed, required=True, help="seeds the generated pools; recorded in meta.json")

    p = command("train", "train both branches")
    common(p)
    p.add_argument("--seed", type=_seed, required=True,
                   help="seeds initialization, batches and views, and a synthetic pool")
    p.add_argument("--resume", default=None, help="checkpoint to continue from")

    p = command("eval", "evaluate a checkpoint on its test set")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--seeds", type=_seeds, required=True, help="comma-separated eval seeds")
    p.add_argument("--out", default=".")

    p = command("estimate", "one distribution-estimation round (diagnostics)")
    common(p)
    p.add_argument("--seed", type=_seed, default=None,
                   help="seeds k-means (default 0 with --checkpoint); without --checkpoint it is "
                        "required and also seeds a synthetic pool")
    p.add_argument("--checkpoint", default=None, help="encode features with this checkpoint")

    p = command("ablate", "run an ablation grid and emit a CSV table")
    common(p)
    p.add_argument("--axis", required=True, choices=ABLATIONS)
    p.add_argument("--seeds", type=_seeds, default="0", help="comma-separated train seeds")

    return parser


COMMANDS = {
    "gen-data": cmd_gen_data,
    "train": cmd_train,
    "eval": cmd_eval,
    "estimate": cmd_estimate,
    "ablate": cmd_ablate,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return COMMANDS[args.command](args)
    except (ConfigError, EmbeddingFormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except TrainingAborted as exc:
        print(f"numerical abort: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
