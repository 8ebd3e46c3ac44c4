import hashlib
import json
import os

import numpy as np
import pytest

from cobranch.cli import main, run_experiment
from cobranch.config import ConfigError, effective_config, load_config

SMALL = [
    "--set", "dataset.num_classes=5",
    "--set", "dataset.d_in=6",
    "--set", "dataset.n_max=24",
    "--set", "dataset.rho_l=6",
    "--set", "dataset.rho_u=6",
    "--set", "dataset.num_known=3",
    "--set", "dataset.test_per_class=8",
    "--set", "train.total_epochs=4",
    "--set", "train.batch_size=32",
    "--set", "train.warmup_epochs=1",
    "--set", "train.reestimate_interval=2",
    "--set", "train.base_lr=0.05",
]


def sha(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def small_cfg(**extra):
    raw = {
        "dataset": {"num_classes": 5, "d_in": 6, "n_max": 24, "rho_l": 6, "rho_u": 6,
                    "num_known": 3, "test_per_class": 8},
        "train": {"total_epochs": 4, "batch_size": 32, "warmup_epochs": 1,
                  "reestimate_interval": 2, "base_lr": 0.05},
    }
    for block, kv in extra.items():
        raw[block].update(kv)
    return effective_config(raw)


class TestConfig:
    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown config key"):
            effective_config({"train": {"learning_rate": 0.1}})
        with pytest.raises(ConfigError, match="unknown config key"):
            effective_config({"trian": {}})

    def test_defaults_materialized(self):
        cfg = effective_config({})
        assert cfg["train"]["warmup_epochs"] == 20  # 10% of 200
        assert cfg["train"]["alpha"] == 0.8
        assert cfg["train"]["beta"] == 0.5
        assert cfg["train"]["k"] == 0.5
        assert cfg["train"]["smoothing_p"] == 0.5
        assert cfg["train"]["temperature"] == 1.0
        assert cfg["train"]["reestimate_interval"] == 10
        assert cfg["train"]["metric"] == "dot"

    def test_overrides_apply(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"train": {"base_lr": 0.2}}))
        cfg = load_config(str(path), ["train.base_lr=0.3", "dataset.num_known=2"])
        assert cfg["train"]["base_lr"] == 0.3
        assert cfg["dataset"]["num_known"] == 2

    def test_embeddings_kind_requires_paths(self):
        with pytest.raises(ConfigError, match="requires"):
            effective_config({"dataset": {"kind": "embeddings"}})

    def test_invalid_json_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        with pytest.raises(ConfigError, match="invalid JSON"):
            load_config(str(path), [])

    @pytest.mark.parametrize("override", [
        "dataset.d_in=abc",
        "dataset.d_in=true",
        "dataset.seed=1.5",
        "dataset.path=3",
        "model.scale=\"big\"",
        "train.total_epochs=2.5",
        "train.total_epochs=0",
        "train.warmup_epochs=false",
        "train.checkpoint_every=-1",
        "train.kmeans_n_init=0",
        "eval.kmeans_n_init=0",
        "train.base_lr=NaN",
        "train.base_lr=Infinity",
        "train.temperature=NaN",
        "train.momentum=NaN",
        "dataset.seed=-1",
        "model.d_hidden=0",
        "model.d_feat=0",
        "model.d_proj_hidden=0",
        "model.d_proj=0",
        "train.kmeans_max_iter=0",
        "eval.kmeans_max_iter=0",
    ])
    def test_bad_value_exit_2(self, tmp_path, capsys, override):
        rc = main(["train", "--seed", "0", "--out", str(tmp_path), *SMALL, "--set", override])
        assert rc == 2
        assert f"error: {override.partition('=')[0]} must be" in capsys.readouterr().err
        assert not (tmp_path / "telemetry.jsonl").exists()


@pytest.mark.parametrize("argv, option", [
    (["eval", "--checkpoint", "checkpoint.json", "--seeds", "a"], "--seeds"),
    (["eval", "--checkpoint", "checkpoint.json", "--seeds", ""], "--seeds"),
    (["eval", "--checkpoint", "checkpoint.json", "--seeds", "0,,1"], "--seeds"),
    (["eval", "--checkpoint", "checkpoint.json", "--seeds", "-1"], "--seeds"),
    (["eval", "--checkpoint", "checkpoint.json", "--seeds", "0,0"], "--seeds"),
    (["ablate", "--axis", "k", "--seeds", "x", *SMALL], "--seeds"),
    (["train", "--seed", "-1", *SMALL], "--seed"),
    (["estimate", "--seed", "-2", *SMALL], "--seed"),
], ids=["eval-a", "eval-empty", "eval-gap", "eval-negative", "eval-repeat", "ablate-x", "train-negative",
        "estimate-negative"])
def test_bad_seed_argument_exit_2(tmp_path, capsys, argv, option):
    rc = main([*argv, "--out", str(tmp_path / "out")])
    assert rc == 2
    assert f"error: {option} must be" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


class TestGenData:
    def test_deterministic_bytes(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            rc = main(["gen-data", "--seed", "5", "--out", str(out), *SMALL])
            assert rc == 0
        for name in ("train.csv", "test.csv", "meta.json"):
            assert sha(a / name) == sha(b / name)

    def test_balanced_config_counts(self, tmp_path, capsys):
        rc = main([
            "gen-data", "--seed", "1", "--out", str(tmp_path),
            "--set", "dataset.num_classes=4", "--set", "dataset.d_in=4",
            "--set", "dataset.n_max=10", "--set", "dataset.rho_l=1",
            "--set", "dataset.rho_u=1", "--set", "dataset.num_known=2",
            "--set", "dataset.test_per_class=3",
        ])
        assert rc == 0
        table = capsys.readouterr().out
        meta = json.loads((tmp_path / "meta.json").read_text())
        assert meta["true_counts"] == [10, 10, 10, 10]
        assert "known" in table and "novel" in table

    def test_unequal_ratios_accepted(self, tmp_path):
        rc = main([
            "gen-data", "--seed", "2", "--out", str(tmp_path),
            "--set", "dataset.num_classes=6", "--set", "dataset.d_in=5",
            "--set", "dataset.n_max=40", "--set", "dataset.rho_l=2",
            "--set", "dataset.rho_u=10", "--set", "dataset.num_known=3",
            "--set", "dataset.test_per_class=4",
        ])
        assert rc == 0
        meta = json.loads((tmp_path / "meta.json").read_text())
        from cobranch.data import load_embeddings

        _, labels, _ = load_embeddings(str(tmp_path / "train.csv"))
        counts = np.bincount(labels[labels >= 0], minlength=6)
        nz = counts[counts > 0]
        assert nz.max() / nz.min() <= 3.0  # labeled pool follows rho_l=2, not 10

    @pytest.mark.parametrize("overrides,key", [
        (["n_max=5", "rho_u=20", "rho_l=20"], "dataset.n_max"),
        (["d_in=1"], "dataset.d_in"),
        (["num_classes=1", "num_known=1"], "dataset.num_classes"),
        (["class_separation=0"], "dataset.class_separation"),
        (["test_per_class=0"], "dataset.test_per_class"),
        (["rho_u=0.5", "rho_l=0.5"], "dataset.rho_u"),
        (["rho_l=0.5"], "dataset.rho_l"),
    ])
    def test_generator_config_error_exit_2(self, tmp_path, capsys, overrides, key):
        sets = [arg for kv in overrides for arg in ("--set", f"dataset.{kv}")]
        assert main(["gen-data", "--seed", "1", "--out", str(tmp_path), *sets]) == 2
        assert key in capsys.readouterr().err

    def test_gen_data_needs_seed(self, capsys):
        rc = main(["gen-data", "--out", "/tmp/nowhere_gen"])
        assert rc == 2


class TestTrainEval:
    def test_train_then_eval(self, tmp_path):
        rc = main(["train", "--seed", "7", "--out", str(tmp_path / "run"), *SMALL])
        assert rc == 0
        assert (tmp_path / "run" / "checkpoint.json").exists()
        telemetry = (tmp_path / "run" / "telemetry.jsonl").read_text().splitlines()
        assert len(telemetry) == 5  # config record + 4 epochs
        assert "config" in json.loads(telemetry[0])

        rc = main(["eval", "--checkpoint", str(tmp_path / "run" / "checkpoint.json"),
                   "--seeds", "0", "--out", str(tmp_path / "eval")])
        assert rc == 0
        report = json.loads((tmp_path / "eval" / "report_seed0.json").read_text())
        agg = json.loads((tmp_path / "eval" / "aggregate.json").read_text())
        assert agg["metrics"]["acc_all"]["mean"] == report["report"]["acc_all"]
        assert agg["metrics"]["acc_all"]["std"] == 0.0

    def test_missing_data_file_exit_2(self, tmp_path, capsys):
        rc = main([
            "train", "--seed", "0", "--out", str(tmp_path),
            "--set", "dataset.kind=embeddings",
            "--set", "dataset.path=/tmp/definitely_missing.csv",
            "--set", "dataset.meta_path=/tmp/definitely_missing_meta.json",
            "--set", "dataset.test_path=/tmp/definitely_missing_test.csv",
        ])
        assert rc == 2
        assert "definitely_missing" in capsys.readouterr().err

    def train_on_edited_csv(self, tmp_path, edit, name="train.csv", extra=()):
        data = tmp_path / "data"
        assert main(["gen-data", "--seed", "5", "--out", str(data), *SMALL]) == 0
        lines = (data / name).read_text().splitlines()
        edit(lines)
        (data / name).write_text("\n".join(lines) + "\n")
        return main([
            "train", "--seed", "0", "--out", str(tmp_path / "run"), *SMALL, *extra,
            "--set", "dataset.kind=embeddings",
            "--set", f"dataset.path={data / 'train.csv'}",
            "--set", f"dataset.meta_path={data / 'meta.json'}",
            "--set", f"dataset.test_path={data / 'test.csv'}",
        ])

    def test_nonfinite_feature_exit_2(self, tmp_path, capsys):
        def edit(lines):
            parts = lines[3].split(",")
            parts[2] = "nan"
            lines[3] = ",".join(parts)

        assert self.train_on_edited_csv(tmp_path, edit) == 2
        assert "train.csv:4: non-finite" in capsys.readouterr().err

    def test_repeated_sample_id_exit_2(self, tmp_path, capsys):
        def edit(lines):
            sid = lines[3].split(",")[0]
            lines[4] = ",".join([sid, *lines[4].split(",")[1:]])

        assert self.train_on_edited_csv(tmp_path, edit) == 2
        assert "train.csv:5: sample id" in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["train.csv", "test.csv"])
    def test_feature_width_mismatch_exit_2(self, tmp_path, capsys, name):
        def drop_last_column(lines):
            lines[:] = [line.rsplit(",", 1)[0] for line in lines]

        assert self.train_on_edited_csv(tmp_path, drop_last_column, name) == 2
        err = capsys.readouterr().err
        assert f"{name}: 5 feature columns, expected d_in=6" in err

    def test_labeled_novel_class_exit_2(self, tmp_path, capsys):
        def label_novel(lines):
            parts = lines[1].split(",")
            parts[1] = "4"  # num_known=3: class 4 is novel, so never labeled
            lines[1] = ",".join(parts)

        assert self.train_on_edited_csv(tmp_path, label_novel) == 2
        assert "train.csv: labeled sample" in capsys.readouterr().err

    @pytest.mark.parametrize("key,value", [("num_classes", 7), ("num_known", 2), ("d_in", 7)])
    def test_config_disagreeing_with_meta_exit_2(self, tmp_path, capsys, key, value):
        rc = self.train_on_edited_csv(
            tmp_path, lambda lines: None, extra=["--set", f"dataset.{key}={value}"]
        )
        assert rc == 2
        err = capsys.readouterr().err
        assert f"dataset.{key}={value} disagrees" in err and "meta.json" in err

    def test_aggregate_is_mean_of_seeds(self, tmp_path):
        main(["train", "--seed", "9", "--out", str(tmp_path / "run"), *SMALL])
        rc = main(["eval", "--checkpoint", str(tmp_path / "run" / "checkpoint.json"),
                   "--seeds", "0,1,2", "--out", str(tmp_path / "eval")])
        assert rc == 0
        per_seed = []
        for s in (0, 1, 2):
            rows = (tmp_path / "eval" / f"report_seed{s}.csv").read_text().splitlines()
            header = rows[0].split(",")
            values = rows[1].split(",")
            per_seed.append(float(values[header.index("acc_all")]))
        agg = json.loads((tmp_path / "eval" / "aggregate.json").read_text())
        assert agg["metrics"]["acc_all"]["mean"] == pytest.approx(np.mean(per_seed), abs=1e-12)

    def test_perfect_features_fixture(self, tmp_path):
        args = [
            "--set", "dataset.num_classes=4", "--set", "dataset.d_in=6",
            "--set", "dataset.n_max=30", "--set", "dataset.rho_l=3",
            "--set", "dataset.rho_u=3", "--set", "dataset.num_known=2",
            "--set", "dataset.test_per_class=10",
            "--set", "dataset.class_separation=50", "--set", "dataset.noise_scale=0.01",
            "--set", "train.total_epochs=6", "--set", "train.batch_size=32",
            "--set", "train.warmup_epochs=2", "--set", "train.reestimate_interval=3",
            "--set", "train.base_lr=0.02",
        ]
        main(["train", "--seed", "3", "--out", str(tmp_path / "run"), *args])
        main(["eval", "--checkpoint", str(tmp_path / "run" / "checkpoint.json"),
              "--seeds", "0", "--out", str(tmp_path / "eval")])
        report = json.loads((tmp_path / "eval" / "report_seed0.json").read_text())
        assert report["report"]["acc_all"] == 1.0

    def test_resume_reproduces_uninterrupted_run(self, tmp_path):
        # (checkpoint_every, total_epochs, resume epoch, checkpoints the resumed run writes)
        for every, total, resume_at, resumed_stops in [(2, 4, 2, [4]), (3, 7, 3, [6, 7])]:
            base = tmp_path / f"every{every}"
            epochs = ["--set", f"train.total_epochs={total}"]
            main(["train", "--seed", "4", "--out", str(base / "full"), *SMALL, *epochs])
            staged_cfg = [*SMALL, *epochs, "--set", f"train.checkpoint_every={every}"]
            main(["train", "--seed", "4", "--out", str(base / "staged"), *staged_cfg])
            full_tel = (base / "full" / "telemetry.jsonl").read_text()
            staged_tel = (base / "staged" / "telemetry.jsonl").read_text()
            # staged run embeds a different config (checkpoint_every); compare records
            full_records = [json.loads(l) for l in full_tel.splitlines()[1:]]
            staged_records = [json.loads(l) for l in staged_tel.splitlines()[1:]]
            assert full_records == staged_records
            mid = base / "staged" / f"checkpoint_epoch{resume_at:04d}.json"
            assert mid.exists()

            # resuming the mid checkpoint reproduces the remaining epochs
            rc = main(["train", "--seed", "4", "--out", str(base / "resumed"), *staged_cfg,
                       "--resume", str(mid)])
            assert rc == 0
            resumed_records = [
                json.loads(l)
                for l in (base / "resumed" / "telemetry.jsonl").read_text().splitlines()[1:]
            ]
            assert resumed_records == full_records[resume_at:]
            assert sha(base / "resumed" / "checkpoint.json") == sha(base / "staged" / "checkpoint.json")
            # a checkpoint every `every` epochs counted from the resume epoch, plus the last
            written = sorted(p.name for p in (base / "resumed").glob("checkpoint_epoch*.json"))
            assert written == [f"checkpoint_epoch{n:04d}.json" for n in resumed_stops]

    def test_numerical_abort_keeps_finished_epochs(self, tmp_path, capsys, monkeypatch):
        from cobranch import train as train_mod

        abort_epoch = 2
        epoch_now = []
        real_batches = train_mod.make_batches
        real_loss = train_mod.losses.classification_objective

        def batches(split, batch_size, seed, epoch):
            epoch_now.append(epoch)
            return real_batches(split, batch_size, seed, epoch)

        def poisoned(*args, **kw):
            res = real_loss(*args, **kw)
            if epoch_now[-1] == abort_epoch:
                res.total = float("nan")
            return res

        monkeypatch.setattr(train_mod, "make_batches", batches)
        monkeypatch.setattr(train_mod.losses, "classification_objective", poisoned)
        out = tmp_path / "run"
        rc = main(["train", "--seed", "3", "--out", str(out), *SMALL,
                   "--set", "train.checkpoint_every=1"])
        assert rc == 1
        assert f"epoch {abort_epoch} batch 0" in capsys.readouterr().err
        lines = (out / "telemetry.jsonl").read_text().splitlines()
        assert "config" in json.loads(lines[0])
        assert [json.loads(l)["epoch"] for l in lines[1:]] == list(range(abort_epoch))
        written = sorted(p.name for p in out.glob("checkpoint*.json"))
        assert written == [f"checkpoint_epoch{n:04d}.json" for n in range(1, abort_epoch + 1)]

    def test_resume_config_mismatch_rejected(self, tmp_path, capsys):
        main(["train", "--seed", "4", "--out", str(tmp_path / "run"), *SMALL])
        rc = main([
            "train", "--seed", "4", "--out", str(tmp_path / "bad"),
            *SMALL, "--set", "train.base_lr=0.01",
            "--resume", str(tmp_path / "run" / "checkpoint.json"),
        ])
        assert rc == 2

    def test_determinism_byte_identical_outputs(self, tmp_path):
        for out in ("a", "b"):
            main(["train", "--seed", "11", "--out", str(tmp_path / out), *SMALL])
            main(["eval", "--checkpoint", str(tmp_path / out / "checkpoint.json"),
                  "--seeds", "0", "--out", str(tmp_path / out / "eval")])
        assert sha(tmp_path / "a" / "checkpoint.json") == sha(tmp_path / "b" / "checkpoint.json")
        assert sha(tmp_path / "a" / "eval" / "report_seed0.json") == \
            sha(tmp_path / "b" / "eval" / "report_seed0.json")


class TestEstimateCommand:
    def test_raw_estimate_diagnostics(self, tmp_path):
        rc = main(["estimate", "--seed", "2", "--out", str(tmp_path), *SMALL])
        assert rc == 0
        rec = json.loads((tmp_path / "estimate.json").read_text())
        assert len(rec["pi_e"]) == 5
        assert sorted(rec["cluster_to_class"]) == list(range(5))
        assert sum(rec["cluster_sizes"]) == len(rec["assignments"])

    def test_config_kmeans_keys_used(self, tmp_path):
        rc = main(["estimate", "--seed", "2", "--out", str(tmp_path), *SMALL,
                   "--set", "dataset.class_separation=1",  # overlapping classes: Lloyd needs several steps
                   "--set", "train.kmeans_max_iter=1", "--set", "train.kmeans_n_init=1"])
        assert rc == 0
        assert json.loads((tmp_path / "estimate.json").read_text())["iterations"] <= 1

    def test_checkpoint_estimate(self, tmp_path):
        main(["train", "--seed", "6", "--out", str(tmp_path / "run"), *SMALL])
        rc = main(["estimate", "--checkpoint", str(tmp_path / "run" / "checkpoint.json"),
                   "--seed", "0", "--out", str(tmp_path)])
        assert rc == 0
        rec = json.loads((tmp_path / "estimate.json").read_text())
        assert abs(sum(rec["pi_e"]) - 1.0) < 1e-9


class TestAblate:
    def run_axis(self, tmp_path, axis):
        args = [
            "ablate", "--axis", axis, "--seeds", "0", "--out", str(tmp_path),
            "--set", "dataset.num_classes=4", "--set", "dataset.d_in=5",
            "--set", "dataset.n_max=16", "--set", "dataset.rho_l=4",
            "--set", "dataset.rho_u=4", "--set", "dataset.num_known=2",
            "--set", "dataset.test_per_class=5",
            "--set", "train.total_epochs=3", "--set", "train.batch_size=32",
            "--set", "train.warmup_epochs=1", "--set", "train.reestimate_interval=2",
            "--set", "train.base_lr=0.05",
        ]
        rc = main(args)
        assert rc == 0
        rows = (tmp_path / f"ablate_{axis}.csv").read_text().splitlines()
        return rows

    def test_similarity_axis_has_four_rows(self, tmp_path):
        rows = self.run_axis(tmp_path, "similarity")
        assert len(rows) == 5  # header + l1, l2, cosine, dot
        assert [r.split(",")[0] for r in rows[1:]] == ["l1", "l2", "cosine", "dot"]

    def test_interval_axis_has_five_rows(self, tmp_path):
        rows = self.run_axis(tmp_path, "r")
        assert [r.split(",")[0] for r in rows[1:]] == ["r=1", "r=5", "r=10", "r=25", "r=50"]

    def test_loss_mode_axis_rows(self, tmp_path):
        rows = self.run_axis(tmp_path, "loss_mode")
        assert [r.split(",")[0] for r in rows[1:]] == ["baseline", "hard", "soft"]

    def test_k_axis_rows(self, tmp_path):
        rows = self.run_axis(tmp_path, "k")
        assert [r.split(",")[0] for r in rows[1:]] == ["k=0.0", "k=0.25", "k=0.5", "k=1.0", "k=1.5"]

    def test_alpha_beta_axis_rows(self, tmp_path):
        rows = self.run_axis(tmp_path, "alpha_beta")
        assert [r.split(",")[0] for r in rows[1:]] == [
            "baseline", "vanilla", "debias", "sampling", "both"
        ]


def test_run_experiment_in_memory():
    cfg = small_cfg()
    report, result, built = run_experiment(cfg, seed=0)
    assert 0.0 <= report.acc_all <= 1.0
    assert result.epochs_done == 4
    assert built.test_labels.size == 5 * 8


def test_smoke_config_runs_under_a_minute(tmp_path):
    # C=6, N around 300, T=20 on one core
    import time

    args = [
        "train", "--seed", "0", "--out", str(tmp_path),
        "--set", "dataset.num_classes=6", "--set", "dataset.d_in=8",
        "--set", "dataset.n_max=90", "--set", "dataset.rho_l=10",
        "--set", "dataset.rho_u=10", "--set", "dataset.num_known=4",
        "--set", "dataset.test_per_class=20", "--set", "train.total_epochs=20",
        "--set", "train.batch_size=64", "--set", "train.warmup_epochs=2",
        "--set", "train.reestimate_interval=10",
    ]
    t0 = time.time()
    assert main(args) == 0
    assert time.time() - t0 < 60.0
