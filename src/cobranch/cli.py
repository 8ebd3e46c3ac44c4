"""Command-line front end: dataset generation, training, evaluation,
estimation diagnostics, and ablation grids.

Subcommands: gen-data, train, eval, estimate, ablate. Every command is a
deterministic function of (config, input files, seed); reruns produce
byte-identical outputs. Exit codes: 0 success, 1 numerical abort,
2 I/O or config error.
"""

from __future__ import annotations

import argparse
import copy
import json
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import nn, train as train_mod
from ._rng import TEST
from .config import ConfigError, load_config, to_train_objects
from .data import (
    UNLABELED_MARKER,
    DatasetSplit,
    EmbeddingFormatError,
    ImbalanceProfile,
    load_embeddings,
    make_class_means,
    make_longtail_counts,
    sample_from_means,
    save_embeddings,
    split_from_mask,
    split_independent_pools,
    split_known_novel,
)
from .estimate import AlignmentMap, EstimationError, estimate_round
from .evaluation import EvalReport, evaluate
from .train import TrainingAborted

EXIT_OK = 0
EXIT_NUMERIC = 1
EXIT_CONFIG = 2


# --- atomic output helpers -----------------------------------------------------

def write_text_atomic(path: str, text: str) -> None:
    tmp = f"{path}.tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(text)
    os.replace(tmp, path)


def dump_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def write_json_atomic(path: str, obj) -> None:
    write_text_atomic(path, dump_json(obj))


def write_csv_atomic(path: str, header: list, rows: list) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(str(v) for v in row))
    write_text_atomic(path, "\n".join(lines) + "\n")


# --- dataset construction --------------------------------------------------------

@dataclass
class BuiltDataset:
    split: DatasetSplit
    test_features: np.ndarray
    test_labels: np.ndarray


def _labeled_counts_ranked(ds: dict) -> np.ndarray:
    """Unequal imbalance ratios: labeled counts of the known classes, largest
    first, on their own long-tail profile (rho_l)."""
    n_max_l = max(int(math.ceil(ds["rho_l"])), int(round(ds["labeled_ratio"] * ds["n_max"])))
    if ds["num_known"] < 2:
        return np.array([n_max_l], dtype=int)
    return make_longtail_counts(ds["num_known"], ImbalanceProfile(ds["profile"], ds["rho_l"], n_max_l))


def build_synthetic_dataset(ds: dict, run_seed: int) -> BuiltDataset:
    data_seed = ds["seed"] if ds["seed"] is not None else run_seed
    C = ds["num_classes"]
    counts = make_longtail_counts(C, ImbalanceProfile(ds["profile"], ds["rho_u"], ds["n_max"]))
    means = make_class_means(C, ds["d_in"], ds["class_separation"], data_seed)
    if ds["rho_l"] == ds["rho_u"]:
        X, y = sample_from_means(means, counts, ds["noise_scale"], data_seed)
        split = split_known_novel(X, y, ds["num_known"], ds["labeled_ratio"], data_seed)
    else:
        split = split_independent_pools(
            means, counts, _labeled_counts_ranked(ds), ds["num_known"], ds["noise_scale"], data_seed
        )

    # balanced disjoint test set over the same means, in split-space labels
    test_counts = np.full(C, ds["test_per_class"], dtype=int)
    test_X, test_y = sample_from_means(means, test_counts, ds["noise_scale"], data_seed, stream=TEST)
    to_split = np.array([split.class_remap[c] for c in range(C)])
    return BuiltDataset(split=split, test_features=test_X, test_labels=to_split[test_y])


def _check_meta(ds: dict, meta: dict) -> None:
    """The config's class counts and width must be the ones the files were made with."""
    for key in ("num_classes", "num_known", "d_in"):
        if key not in meta:
            raise ConfigError(f"{ds['meta_path']}: missing key {key!r}")
        if meta[key] != ds[key]:
            raise ConfigError(
                f"dataset.{key}={ds[key]!r} disagrees with {key}={meta[key]!r} in {ds['meta_path']}"
            )


def _check_width(path: str, X: np.ndarray, d_in: int) -> None:
    if X.shape[1] != d_in:
        raise EmbeddingFormatError(f"{path}: {X.shape[1]} feature columns, expected d_in={d_in}")


def build_file_dataset(ds: dict) -> BuiltDataset:
    with open(ds["meta_path"], "r", encoding="utf-8") as fh:
        meta = json.load(fh)
    _check_meta(ds, meta)
    ids, labels, X = load_embeddings(ds["path"])
    _check_width(ds["path"], X, ds["d_in"])
    try:
        split = split_from_mask(
            X,
            labels,
            ids,
            labels != UNLABELED_MARKER,
            meta["num_known"],
            meta["num_classes"],
            np.asarray(meta["true_counts"], dtype=int) if meta.get("true_counts") else None,
            {int(k): v for k, v in meta.get("class_remap", {}).items()},
        )
    except ValueError as exc:  # a label outside the known classes, counts that do not add up
        raise EmbeddingFormatError(f"{ds['path']}: {exc}") from exc
    _, test_labels, test_X = load_embeddings(ds["test_path"])
    _check_width(ds["test_path"], test_X, ds["d_in"])
    if np.any(test_labels == UNLABELED_MARKER):
        raise EmbeddingFormatError(f"{ds['test_path']}: test rows must all be labeled")
    return BuiltDataset(split=split, test_features=test_X, test_labels=test_labels)


def build_dataset(cfg: dict, run_seed: int) -> BuiltDataset:
    ds = cfg["dataset"]
    if ds["kind"] == "synthetic":
        return build_synthetic_dataset(ds, run_seed)
    return build_file_dataset(ds)


# --- experiment runner ------------------------------------------------------------

def run_experiment(cfg: dict, seed: int):
    """gen -> train -> encode test -> evaluate, all in memory."""
    built = build_dataset(cfg, seed)
    model_cfg, train_cfg = to_train_objects(cfg, seed)
    result = train_mod.run(built.split, model_cfg, train_cfg)
    report = evaluate_trained(cfg, built, result.params, seed)
    return report, result, built


def evaluate_trained(cfg: dict, built: BuiltDataset, params: nn.ModelParams, eval_seed: int) -> EvalReport:
    if built.split.true_counts is None:
        raise ConfigError("evaluation needs per-class training counts (metadata)")
    feats = nn.encode(params, built.test_features)
    return evaluate(
        feats,
        built.test_labels,
        built.split.num_known,
        built.split.num_classes,
        built.split.true_counts,
        seed=eval_seed,
        kmeans_max_iter=cfg["eval"]["kmeans_max_iter"],
        kmeans_tol=cfg["eval"]["kmeans_tol"],
        kmeans_n_init=cfg["eval"]["kmeans_n_init"],
    )


# --- checkpoints --------------------------------------------------------------------

def checkpoint_dict(result: train_mod.TrainResult, cfg: dict, train_seed: int) -> dict:
    return {
        "format": "cobranch-checkpoint-v1",
        "config": cfg,
        "config_hash": nn.config_hash(cfg),
        "train_seed": train_seed,
        "epochs_done": result.epochs_done,
        "params": nn.params_to_dict(result.params),
        "opt_cls": result.opt_cls.to_dict(),
        "opt_con": result.opt_con.to_dict(),
        "pi_e": result.pi_e.tolist(),
        "cluster_to_class": result.alignment.cluster_to_class.tolist(),
    }


def load_checkpoint(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        blob = json.load(fh)
    if blob.get("format") != "cobranch-checkpoint-v1":
        raise ConfigError(f"{path}: not a checkpoint file")
    if blob["config_hash"] != nn.config_hash(blob["config"]):
        raise ConfigError(f"{path}: config hash mismatch (corrupt or edited)")
    return blob


def checkpoint_params(blob: dict) -> nn.ModelParams:
    params = nn.params_from_dict(blob["params"])
    m = blob["config"]["model"]
    d_in = params.d_in
    expected = {
        "enc_w1": (d_in, m["d_hidden"]),
        "enc_w2": (m["d_hidden"], m["d_feat"]),
        "proj_w1": (m["d_feat"], m["d_proj_hidden"]),
        "proj_w2": (m["d_proj_hidden"], m["d_proj"]),
        "cls_w": (len(blob["pi_e"]), m["d_feat"]),
    }
    try:
        nn.check_shapes(params, expected)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return params


def resume_state(blob: dict) -> train_mod.TrainResult:
    """The inverse of `checkpoint_dict`: the training state a run resumes from."""
    return train_mod.TrainResult(
        params=checkpoint_params(blob),
        pi_e=np.asarray(blob["pi_e"], dtype=float),
        alignment=AlignmentMap(np.asarray(blob["cluster_to_class"], dtype=int)),
        opt_cls=nn.SgdState.from_dict(blob["opt_cls"]),
        opt_con=nn.SgdState.from_dict(blob["opt_con"]),
        epochs_done=blob["epochs_done"],
    )


# --- subcommands ------------------------------------------------------------------

def cmd_gen_data(args) -> int:
    cfg = load_config(args.config, args.set)
    if cfg["dataset"]["kind"] != "synthetic":
        raise ConfigError("gen-data needs dataset.kind=synthetic")
    if cfg["dataset"]["seed"] is None and args.seed is None:
        raise ConfigError("gen-data needs --seed (or dataset.seed)")
    seed = args.seed if args.seed is not None else cfg["dataset"]["seed"]
    built = build_synthetic_dataset(cfg["dataset"], seed)
    os.makedirs(args.out, exist_ok=True)

    split = built.split
    train_labels = np.full(len(split.X), UNLABELED_MARKER)
    train_labels[: split.y_lab.size] = split.y_lab
    save_embeddings(split.ids, train_labels, split.X, os.path.join(args.out, "train.csv"))
    save_embeddings(
        np.arange(built.test_labels.size),
        built.test_labels,
        built.test_features,
        os.path.join(args.out, "test.csv"),
    )
    meta = {
        "config": cfg,
        "seed": seed,
        "num_known": split.num_known,
        "num_classes": split.num_classes,
        "true_counts": split.true_counts.tolist(),
        "class_remap": {str(k): v for k, v in split.class_remap.items()},
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
    os.makedirs(args.out, exist_ok=True)
    built = build_dataset(cfg, args.seed)
    model_cfg, train_cfg = to_train_objects(cfg, args.seed)

    resume = None
    if args.resume:
        blob = load_checkpoint(args.resume)
        if blob["config_hash"] != nn.config_hash(cfg):
            raise ConfigError("resume checkpoint was trained under a different config")
        if blob["train_seed"] != args.seed:
            raise ConfigError("resume checkpoint was trained under a different seed")
        if blob["epochs_done"] >= cfg["train"]["total_epochs"]:
            raise ConfigError("checkpoint already covers total_epochs")
        resume = resume_state(blob)

    every = cfg["train"]["checkpoint_every"]
    total = cfg["train"]["total_epochs"]
    start = resume.epochs_done if resume else 0
    with open(os.path.join(args.out, "telemetry.jsonl"), "w", encoding="utf-8") as tel:
        tel.write(json.dumps({"config": cfg}, sort_keys=True) + "\n")

        def on_epoch(result: train_mod.TrainResult) -> None:
            # one flushed record per epoch, so an aborted run keeps the epochs it finished
            tel.write(json.dumps(result.telemetry[-1], sort_keys=True) + "\n")
            tel.flush()
            n = result.epochs_done
            if every and ((n - start) % every == 0 or n == total):
                write_json_atomic(
                    os.path.join(args.out, f"checkpoint_epoch{n:04d}.json"),
                    checkpoint_dict(result, cfg, args.seed),
                )

        result = train_mod.run(built.split, model_cfg, train_cfg, resume=resume, on_epoch=on_epoch)

    write_json_atomic(os.path.join(args.out, "checkpoint.json"), checkpoint_dict(result, cfg, args.seed))
    print(f"trained {result.epochs_done} epochs; wrote checkpoint.json and telemetry.jsonl to {args.out}")
    return EXIT_OK


def cmd_eval(args) -> int:
    blob = load_checkpoint(args.checkpoint)
    cfg = blob["config"]
    params = checkpoint_params(blob)
    built = build_dataset(cfg, blob["train_seed"])
    os.makedirs(args.out, exist_ok=True)

    rows = []
    for seed in args.seeds:
        report = evaluate_trained(cfg, built, params, seed)
        payload = {"config": cfg, "seed": seed, "report": report.to_dict()}
        write_json_atomic(os.path.join(args.out, f"report_seed{seed}.json"), payload)
        write_csv_atomic(
            os.path.join(args.out, f"report_seed{seed}.csv"),
            ["seed", *EvalReport.CSV_COLUMNS],
            [[seed, *report.csv_row()]],
        )
        rows.append(report.csv_row())
        print(f"seed {seed}: all={report.acc_all:.4f} old={report.acc_old:.4f} new={report.acc_new:.4f}")

    arr = np.array(rows, dtype=float)
    metrics = {}
    for j, name in enumerate(EvalReport.CSV_COLUMNS):
        col = arr[:, j]
        metrics[name] = {"mean": float(np.mean(col)), "std": float(np.std(col))}
    write_json_atomic(
        os.path.join(args.out, "aggregate.json"),
        {"config": cfg, "seeds": args.seeds, "metrics": metrics},
    )
    write_csv_atomic(
        os.path.join(args.out, "aggregate.csv"),
        ["metric", "mean", "std"],
        [[name, metrics[name]["mean"], metrics[name]["std"]] for name in EvalReport.CSV_COLUMNS],
    )
    print(f"wrote per-seed reports and aggregate to {args.out}")
    return EXIT_OK


def cmd_estimate(args) -> int:
    cfg = load_config(args.config, args.set) if (args.config or args.set) else None
    params = None
    if args.checkpoint:
        blob = load_checkpoint(args.checkpoint)
        cfg = blob["config"]
        params = checkpoint_params(blob)
        data_seed = blob["train_seed"]
    else:
        if cfg is None:
            raise ConfigError("estimate needs --checkpoint or --config")
        data_seed = args.seed
        if data_seed is None:
            raise ConfigError("estimate needs --seed when no checkpoint is given")
    built = build_dataset(cfg, data_seed)
    feats = built.split.X
    if params is not None:
        feats = nn.encode(params, feats)
    result, amap, pi_e = estimate_round(
        feats,
        built.split.num_classes,
        np.arange(built.split.y_lab.size),
        built.split.y_lab,
        built.split.num_known,
        seed=args.seed if args.seed is not None else 0,
        max_iter=cfg["train"]["kmeans_max_iter"],
        tol=cfg["train"]["kmeans_tol"],
        n_init=cfg["train"]["kmeans_n_init"],
    )
    record = {
        "config": cfg,
        "assignments": result.assignments.tolist(),
        "cluster_sizes": np.bincount(result.assignments, minlength=built.split.num_classes).tolist(),
        "inertia": result.inertia,
        "iterations": result.iterations,
        "cluster_to_class": amap.cluster_to_class.tolist(),
        "pi_e": pi_e.tolist(),
    }
    os.makedirs(args.out, exist_ok=True)
    out_path = os.path.join(args.out, "estimate.json")
    write_json_atomic(out_path, record)
    print(f"pi_e = {np.array2string(pi_e, precision=4)}")
    print(f"wrote {out_path}")
    return EXIT_OK


ABLATION_AXES = ("similarity", "r", "k", "alpha_beta", "loss_mode")


def ablation_grid(cfg: dict, axis: str) -> list[tuple[str, dict]]:
    def variant(label: str, updates: dict) -> tuple[str, dict]:
        out = copy.deepcopy(cfg)
        for key, value in updates.items():
            block, _, leaf = key.partition(".")
            out[block][leaf] = value
        return label, out

    if axis == "similarity":
        return [variant(m, {"train.metric": m}) for m in ("l1", "l2", "cosine", "dot")]
    if axis == "r":
        return [variant(f"r={v}", {"train.reestimate_interval": v}) for v in (1, 5, 10, 25, 50)]
    if axis == "k":
        return [variant(f"k={v}", {"train.k": v}) for v in (0.0, 0.25, 0.5, 1.0, 1.5)]
    if axis == "alpha_beta":
        return [
            variant("baseline", {"train.soft_mode": "off"}),
            variant("vanilla", {"train.k": 0.0, "train.alpha": 0.0, "train.beta": 0.0}),
            variant("debias", {"train.alpha": 0.0, "train.beta": 0.0}),
            variant("sampling", {"train.k": 0.0}),
            variant("both", {}),
        ]
    if axis == "loss_mode":
        return [
            variant("baseline", {"train.soft_mode": "off"}),
            variant("hard", {"train.soft_mode": "hard"}),
            variant("soft", {"train.soft_mode": "soft"}),
        ]
    raise ConfigError(f"unknown ablation axis {axis!r}; pick one of {ABLATION_AXES}")


def cmd_ablate(args) -> int:
    cfg = load_config(args.config, args.set)
    grid = ablation_grid(cfg, args.axis)
    os.makedirs(args.out, exist_ok=True)

    header = ["label", "old", "new", "all", "std_known", "std_novel"]
    rows = []
    for label, variant_cfg in grid:
        reports = [run_experiment(variant_cfg, seed)[0] for seed in args.seeds]
        row = [
            label,
            float(np.mean([r.acc_old for r in reports])),
            float(np.mean([r.acc_new for r in reports])),
            float(np.mean([r.acc_all for r in reports])),
            float(np.mean([r.std_known for r in reports])),
            float(np.mean([r.std_novel for r in reports])),
        ]
        rows.append(row)
        print(f"{label}: old={row[1]:.4f} new={row[2]:.4f} all={row[3]:.4f}")
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

def parse_seeds(text: str, option: str) -> list[int]:
    """Comma-separated seeds; ConfigError naming `option` unless they are
    non-negative integers with no repeats."""
    try:
        seeds = [int(s) for s in text.split(",")]
    except ValueError:
        seeds = []
    if not seeds or min(seeds) < 0 or len(set(seeds)) < len(seeds):
        raise ConfigError(f"{option} must be distinct non-negative integers separated by commas, got {text!r}")
    return seeds


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cobranch",
        description="Two-branch co-training for long-tailed category discovery.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, seed_required: bool):
        p.add_argument("--config", default=None, help="JSON config file")
        p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                       help="override a config key, e.g. train.base_lr=0.05")
        p.add_argument("--seed", type=int, required=seed_required, default=None)
        p.add_argument("--out", default=".", help="output directory")

    p = sub.add_parser("gen-data", help="generate a synthetic dataset (train/test/meta)")
    common(p, seed_required=False)

    p = sub.add_parser("train", help="train both branches")
    common(p, seed_required=True)
    p.add_argument("--resume", default=None, help="checkpoint to continue from")

    p = sub.add_parser("eval", help="evaluate a checkpoint on its test set")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--seeds", required=True, help="comma-separated eval seeds")
    p.add_argument("--out", default=".")

    p = sub.add_parser("estimate", help="one distribution-estimation round (diagnostics)")
    common(p, seed_required=False)
    p.add_argument("--checkpoint", default=None, help="encode features with this checkpoint")

    p = sub.add_parser("ablate", help="run an ablation grid and emit a CSV table")
    common(p, seed_required=False)
    p.add_argument("--axis", required=True, choices=ABLATION_AXES)
    p.add_argument("--seeds", default="0", help="comma-separated train seeds")

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
        if getattr(args, "seeds", None) is not None:
            args.seeds = parse_seeds(args.seeds, "--seeds")
        if getattr(args, "seed", None) is not None:
            parse_seeds(str(args.seed), "--seed")  # argparse made it an int; this rejects a negative one
        return COMMANDS[args.command](args)
    except (ConfigError, EmbeddingFormatError, FileNotFoundError, json.JSONDecodeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (TrainingAborted, EstimationError, nn.NonFiniteGradientError, ValueError) as exc:
        print(f"numerical abort: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
