"""The benchmark's workloads: what set-up writes and which CLI calls are timed.

Every workload writes its inputs with `cobranch gen-data` from seeds derived
from the benchmark seed, so the program only ever sees generated files.
"""

from __future__ import annotations

import dataclasses
import json
import os

# Model widths of the criterion-6 acceptance config, shared by every workload.
MODEL = {"d_hidden": 32, "d_feat": 16, "d_proj_hidden": 32, "d_proj": 16}
GEOMETRY = {"d_in": 64, "class_separation": 5.0, "noise_scale": 1.0, "rho_l": 20, "rho_u": 20}
# At C >= 50 Lloyd needs 30 to 60 iterations to converge, a count that moves
# with the seed and would make run time move with it; one restart that stops
# at 20 iterations does the same k-means work in every run and keeps an op
# short enough to repeat.
KMEANS_CAPPED = {"kmeans_n_init": 1, "kmeans_max_iter": 20}


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    dataset: dict
    train: dict | None  # None: untrained checkpoint written at set-up, eval only
    eval: dict
    n_datasets: int  # datasets set up per run; every pass runs one op on each

    @property
    def num_classes(self) -> int:
        return self.dataset["num_classes"]

    @property
    def n_test(self) -> int:
        return self.dataset["num_classes"] * self.dataset["test_per_class"]

    @property
    def epochs(self) -> int:
        return self.train["total_epochs"] if self.train else 0


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            # The criterion-6 acceptance config, cut to 10 of its 100 epochs
            # with the same mix per epoch: one estimation round, and the soft
            # loss in 9 of 10 epochs. Training dominates, and in it the
            # contrastive loss.
            name="bench-soft",
            dataset={"num_classes": 10, "num_known": 6, "n_max": 150, "test_per_class": 50,
                     **GEOMETRY},
            train={"total_epochs": 10, "batch_size": 128, "base_lr": 0.1, "warmup_epochs": 1,
                   "reestimate_interval": 10, "soft_mode": "soft"},
            eval={},
            n_datasets=3,
        ),
        Workload(
            # The scale tier: one estimation round (k-means and the
            # alignment-shaped assignment at C=50), one epoch, then eval.
            name="scale-c50",
            dataset={"num_classes": 50, "num_known": 30, "n_max": 400, "test_per_class": 50,
                     **GEOMETRY},
            train={"total_epochs": 1, "batch_size": 128, "base_lr": 0.1, "warmup_epochs": 0,
                   "reestimate_interval": 10, "soft_mode": "soft", **KMEANS_CAPPED},
            eval=KMEANS_CAPPED,
            n_datasets=2,
        ),
        Workload(
            # Eval only, on an untrained checkpoint: k-means and the
            # contingency-shaped assignment at C=100, no training layer.
            name="eval-c100",
            dataset={"num_classes": 100, "num_known": 60, "n_max": 100, "test_per_class": 50,
                     **GEOMETRY},
            train=None,
            eval=KMEANS_CAPPED,
            n_datasets=3,
        ),
    )
}


def smoke(w: Workload) -> Workload:
    """The same workload shape at a size that runs in about a second."""
    ds = {**w.dataset, "num_classes": min(w.num_classes, 20),
          "num_known": min(w.dataset["num_known"], 12), "n_max": 40, "test_per_class": 10}
    train = None
    if w.train:
        train = {**w.train, "total_epochs": min(w.train["total_epochs"], 3),
                 "warmup_epochs": min(w.train["warmup_epochs"], 1), "kmeans_n_init": 1}
    return dataclasses.replace(w, dataset=ds, train=train, eval={"kmeans_n_init": 1},
                               n_datasets=min(w.n_datasets, 2))


@dataclasses.dataclass
class Dataset:
    """One generated input set and where its ops write."""

    seed: int
    dir: str

    @property
    def data(self) -> str:
        return os.path.join(self.dir, "data")

    @property
    def config(self) -> str:
        return os.path.join(self.dir, "config.json")

    @property
    def checkpoint(self) -> str:
        return os.path.join(self.dir, "run", "checkpoint.json")

    def eval_out(self, tag: str) -> str:
        return os.path.join(self.dir, f"eval-{tag}")


def write_config(w: Workload, ds: Dataset) -> None:
    """The embeddings-kind config every CLI call of this dataset reads."""
    cfg = {
        "dataset": {
            **w.dataset,
            "kind": "embeddings",
            "path": os.path.join(ds.data, "train.csv"),
            "meta_path": os.path.join(ds.data, "meta.json"),
            "test_path": os.path.join(ds.data, "test.csv"),
        },
        "model": MODEL,
        "train": w.train or {},
        "eval": w.eval,
    }
    os.makedirs(ds.dir, exist_ok=True)
    with open(ds.config, "w", encoding="utf-8") as fh:
        json.dump(cfg, fh, sort_keys=True, indent=2)


def gen_data_argv(w: Workload, ds: Dataset) -> list[str]:
    argv = ["gen-data", "--seed", str(ds.seed), "--out", ds.data]
    for key, value in w.dataset.items():
        argv += ["--set", f"dataset.{key}={value}"]
    return argv


def write_untrained_checkpoint(w: Workload, ds: Dataset) -> None:
    """A checkpoint with the seeded initial encoder, built the way `train`
    builds one, so `eval` needs no training run."""
    import numpy as np
    from cobranch import cli, nn
    from cobranch.config import load_config, to_train_objects
    from cobranch.estimate import AlignmentMap
    from cobranch.train import TrainResult

    cfg = load_config(ds.config)
    model_cfg, train_cfg = to_train_objects(cfg, ds.seed)
    C = w.num_classes
    params = nn.init_params(
        w.dataset["d_in"], model_cfg.d_hidden, model_cfg.d_feat, model_cfg.d_proj_hidden,
        model_cfg.d_proj, C, seed=ds.seed, scale=model_cfg.scale,
    )
    result = TrainResult(
        params=params, telemetry=[], pi_e=np.full(C, 1.0 / C),
        alignment=AlignmentMap(np.arange(C)), opt_cls=nn.SgdState(train_cfg.momentum),
        opt_con=nn.SgdState(train_cfg.momentum), epochs_done=0,
    )
    os.makedirs(os.path.dirname(ds.checkpoint), exist_ok=True)
    cli.write_json_atomic(ds.checkpoint, cli.checkpoint_dict(result, cfg, ds.seed))
