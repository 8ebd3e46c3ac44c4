import dataclasses
import hashlib
import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest

import cobranch
from cobranch import cli, data
from cobranch.checkpoint import config_hash
from cobranch.cli import main, run_experiment
from cobranch.config import DEFAULTS, ConfigError, effective_config, load_config, to_train_objects
from cobranch.losses import MIN_TEMPERATURE

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


def cli_in_child(*argv):
    """The CLI's result in a child process, where pytest does not turn NumPy's
    overflow warning into an exception: the run sees what a user's run sees."""
    src = os.path.dirname(os.path.dirname(cobranch.__file__))
    env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1"}
    return subprocess.run([sys.executable, "-m", "cobranch.cli", *argv], env=env, capture_output=True,
                          text=True, timeout=120)


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
    def test_unknown_key_rejected(self, tmp_path, capsys):
        with pytest.raises(ConfigError, match="unknown config key"):
            effective_config({"train": {"learning_rate": 0.1}})
        with pytest.raises(ConfigError, match="unknown config key"):
            effective_config({"trian": {}})
        # the k-means tolerance keys are gone: Lloyd stops on a stable assignment
        path = tmp_path / "config.json"
        for key in ("train.kmeans_tol", "eval.kmeans_tol"):
            block, _, name = key.partition(".")
            path.write_text(json.dumps({block: {name: 1e-6}}))
            for source in (["--config", str(path)], ["--set", f"{key}=1e-6"]):
                rc = main(["train", "--seed", "0", "--out", str(tmp_path / "run"), *SMALL, *source])
                assert rc == 2
                assert f"error: unknown config key {key!r}" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

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
        pytest.param("train.base_lr=1" + "0" * 400, id="train.base_lr=int-beyond-float-range"),
        pytest.param("train.base_lr=1" + "0" * 5000, id="train.base_lr=int-over-digit-limit"),
        pytest.param("dataset.n_max=1" + "0" * 400, id="dataset.n_max=int-beyond-int64"),
        "train.temperature=NaN",
        "train.momentum=NaN",
        "model.d_hidden=0",
        "model.d_feat=0",
        "model.d_proj_hidden=0",
        "model.d_proj=0",
        "train.kmeans_max_iter=0",
        "eval.kmeans_max_iter=0",
        "train.view_dropout=1.5",
        "train.view_dropout=1",
        "train.conf_gate=-0.1",
        "train.conf_gate=1.5",
        "train.base_lr=0",
        "train.base_lr=-0.1",
        "train.momentum=1",
        "train.momentum=-0.5",
        "train.view_noise=-0.1",
        "dataset.noise_scale=-1",
        "model.scale=0",
        "train.temperature=0",
        "train.temperature=-1",
        pytest.param(f"train.temperature={float(np.nextafter(MIN_TEMPERATURE, 0))!r}",
                     id="train.temperature=just-below-the-bound"),
        "train.eta1=-1",
        "train.eta2=-1",
        "train.gamma1=-1",
        "train.gamma2=-5",
        "train.k=-0.5",
        "train.alpha=-1",
        "train.alpha=1.5",
        "train.beta=-0.1",
        "train.beta=2",
        "train.smoothing_p=-0.1",
        "train.smoothing_p=1.5",
        "train.reestimate_interval=0",
        "train.batch_size=1",
        "train.warmup_epochs=5",
        "train.warmup_epochs=-1",
        "dataset.labeled_ratio=0.01",
    ])
    def test_bad_value_exit_2(self, tmp_path, capsys, override):
        rc = main(["train", "--seed", "0", "--out", str(tmp_path), *SMALL, "--set", override])
        assert rc == 2
        assert f"error: {override.partition('=')[0]} must be" in capsys.readouterr().err
        assert not (tmp_path / "telemetry.jsonl").exists()

    @pytest.mark.parametrize("command", ["gen-data", "train", "ablate"])
    @pytest.mark.parametrize("override, noise, separation", [
        ("dataset.noise_scale=1e308", "1e+308", "6.0"),
        ("dataset.class_separation=1.79e308", "1.0", "1.79e+308"),  # the class means overflow
    ])
    def test_overflowing_samples_exit_2(self, tmp_path, capsys, command, override, noise, separation):
        # pytest turns NumPy's overflow warning into an error, so a run that warns fails here
        argv = ["--axis", "loss_mode", "--seeds", "0"] if command == "ablate" else ["--seed", "0"]
        rc = main([command, *argv, "--out", str(tmp_path / "out"), *SMALL, "--set", override])
        err = capsys.readouterr().err
        assert rc == 2
        assert f"error: dataset.noise_scale={noise} with dataset.class_separation={separation} overflows" in err, err
        assert command != "gen-data" or not (tmp_path / "out").exists()

    def test_temperature_at_the_bound_trains(self, tmp_path):
        assert main(["train", "--seed", "0", "--out", str(tmp_path), *SMALL,
                     "--set", f"train.temperature={MIN_TEMPERATURE!r}"]) == 0

    def test_int_over_digit_limit_in_config_file_exit_2(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text('{"train": {"base_lr": 1' + "0" * 5000 + "}}")
        rc = main(["train", "--seed", "0", "--out", str(tmp_path / "run"), "--config", str(path), *SMALL])
        assert rc == 2
        assert f"error: {path}: invalid JSON (" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("key, value", [
        ("train.metric", "hamming"),
        ("train.soft_mode", "fuzzy"),
        ("dataset.kind", "parquet"),
        ("dataset.profile", "zipf"),
        ("dataset.labeled_ratio", 0),
        ("dataset.labeled_ratio", 1.5),
        ("dataset.num_known", 0),
        ("dataset.num_known", 11),  # one more than the default num_classes
    ])
    def test_value_outside_its_domain_names_the_key(self, key, value):
        block, _, leaf = key.partition(".")
        with pytest.raises(ConfigError, match=rf"^{re.escape(key)} must be .*, got {re.escape(repr(value))}$"):
            effective_config({block: {leaf: value}})

    @pytest.mark.parametrize("key", ["dataset.n_max", "dataset.test_per_class", "dataset.num_classes",
                                     "dataset.d_in", "model.d_hidden", "model.d_feat", "model.d_proj_hidden",
                                     "model.d_proj", "dataset.rho_l"])
    def test_size_beyond_intp_names_the_key(self, key):
        block, _, leaf = key.partition(".")
        with pytest.raises(ConfigError, match=rf"{re.escape(key)}={2**62}\b.*np\.intp"):
            effective_config({block: {leaf: 2**62}})

    def test_rho_l_beyond_intp_exit_2(self, tmp_path, capsys):
        rc = main(["gen-data", "--seed", "0", "--set", "dataset.rho_l=1e19", "--out", str(tmp_path / "data")])
        err = capsys.readouterr().err
        assert rc == 2
        assert "error: " in err and "dataset.rho_l=1e+19" in err, err
        assert not (tmp_path / "data").exists()

    def test_size_bound_is_exact(self):
        # the widest layers (d_hidden, d_proj_hidden, d_proj: 32) times num_classes=10 rows per n_max
        fits = int(np.iinfo(np.intp).max) // (10 * 32)
        assert effective_config({"dataset": {"n_max": fits}})["dataset"]["n_max"] == fits
        with pytest.raises(ConfigError, match="dataset.n_max"):
            effective_config({"dataset": {"n_max": fits + 1}})

    def test_every_train_and_model_key_reaches_training(self):
        # a valid value for every key, none of them its default
        values = {
            "model": {"d_hidden": 7, "d_feat": 5, "d_proj_hidden": 9, "d_proj": 6, "scale": 4.0},
            "train": {
                "base_lr": 0.03, "total_epochs": 9, "batch_size": 17, "warmup_epochs": 3, "eta1": 0.1,
                "eta2": 0.2, "gamma1": 0.3, "gamma2": 0.4, "alpha": 0.6, "beta": 0.7, "k": 0.9,
                "temperature": 0.25, "smoothing_p": 0.75, "reestimate_interval": 4, "metric": "l1",
                "conf_gate": 0.35, "momentum": 0.45, "soft_mode": "hard", "view_noise": 0.15,
                "view_dropout": 0.05, "checkpoint_every": 2, "kmeans_max_iter": 33, "kmeans_n_init": 4,
            },
        }
        for block, kv in values.items():
            assert kv.keys() == DEFAULTS[block].keys()
            assert all(value != DEFAULTS[block][key] for key, value in kv.items())
        model_cfg, train_cfg = to_train_objects(effective_config(values), seed=3)
        assert dataclasses.asdict(model_cfg) == values["model"]
        for key, value in values["train"].items():
            if key != "checkpoint_every":  # the CLI's, not training's
                assert getattr(train_cfg, key) == value, key
        assert train_cfg.seed == 3


@pytest.mark.parametrize("argv, error", [
    (["eval", "--checkpoint", "checkpoint.json", "--seeds", "a"], "error: argument --seeds: must be"),
    (["eval", "--checkpoint", "checkpoint.json", "--seeds", ""], "error: argument --seeds: must be"),
    (["eval", "--checkpoint", "checkpoint.json", "--seeds", "0,,1"], "error: argument --seeds: must be"),
    (["eval", "--checkpoint", "checkpoint.json", "--seeds", "-1"], "error: argument --seeds: must be"),
    (["eval", "--checkpoint", "checkpoint.json", "--seeds", "0,0"], "error: argument --seeds: must be"),
    (["ablate", "--axis", "k", "--seeds", "x", *SMALL], "error: argument --seeds: must be"),
    (["train", "--seed", "-1", *SMALL], "error: argument --seed: must be"),
    (["estimate", "--seed", "-2", *SMALL], "error: argument --seed: must be"),
    # no flag is abbreviated: --seed is not --seeds, --check is not --checkpoint
    (["ablate", "--axis", "k", "--seed", "1", *SMALL], "error: unrecognized arguments: --seed 1"),
    (["eval", "--checkpoint", "checkpoint.json", "--seed", "0"],
     "error: the following arguments are required: --seeds"),
    (["estimate", "--check", "checkpoint.json"], "error: unrecognized arguments: --check checkpoint.json"),
    (["train", "--seed", "0", "--set", "trainbase_lr"], "error: override 'trainbase_lr' is not KEY=VALUE"),
    (["train", "--seed", "0", "--set", "train=5"], "error: 'train' must be a table"),
    (["train", "--seed", "0", "--config", "config.json", "--set", "train.base_lr.x=1"],
     "error: override 'train.base_lr.x' crosses a non-table value"),
    (["gen-data", "--seed", "0", "--config", "config.json"], "error: gen-data needs dataset.kind=synthetic"),
    (["estimate"], "error: estimate needs --checkpoint or --config"),
    (["estimate", "--config", "config.json"], "error: estimate needs --seed when no checkpoint is given"),
    # found only while the synthetic pool is generated, before --out is made
    (["train", "--seed", "0", "--set", "dataset.noise_scale=1e308", "--set", "train.total_epochs=1"],
     "error: dataset.noise_scale=1e+308"),
    (["ablate", "--axis", "loss_mode", "--seeds", "0", "--set", "dataset.noise_scale=1e308"],
     "error: dataset.noise_scale=1e+308"),
], ids=["eval-a", "eval-empty", "eval-gap", "eval-negative", "eval-repeat", "ablate-x", "train-negative",
        "estimate-negative", "ablate-seed", "eval-seed", "estimate-check", "set-no-equals", "set-table-to-scalar",
        "set-crosses-file-scalar", "gen-data-embeddings", "estimate-no-source", "estimate-config-no-seed",
        "train-overflowing-pool", "ablate-overflowing-pool"])
def test_bad_arguments_exit_2(tmp_path, monkeypatch, capsys, argv, error):
    # config.json, an embeddings-kind config that sets train.base_lr, is the one file a row can name
    monkeypatch.chdir(tmp_path)
    (tmp_path / "config.json").write_text(json.dumps({
        "dataset": {"kind": "embeddings", "path": "train.csv", "meta_path": "meta.json", "test_path": "test.csv"},
        "train": {"base_lr": 0.1},
    }))
    try:
        rc = main([*argv, "--out", str(tmp_path / "out")])
    except SystemExit as exc:  # an argparse usage error
        rc = exc.code
    assert rc == 2
    assert error in capsys.readouterr().err
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
        (["labeled_ratio=0.01", "n_max=24", "rho_u=6", "rho_l=6"], "dataset.labeled_ratio"),
    ])
    def test_generator_config_error_exit_2(self, tmp_path, capsys, overrides, key):
        sets = [arg for kv in overrides for arg in ("--set", f"dataset.{kv}")]
        assert main(["gen-data", "--seed", "1", "--out", str(tmp_path), *sets]) == 2
        assert key in capsys.readouterr().err

    def test_gen_data_needs_seed(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:  # an argparse usage error
            main(["gen-data", "--out", str(tmp_path / "data")])
        assert exc.value.code == 2
        assert "the following arguments are required: --seed" in capsys.readouterr().err
        assert not (tmp_path / "data").exists()


# gen-data whose train.csv (1,363 rows) and test.csv (1,200 rows) are each
# long enough to be written in two parts
TWO_PART_POOL = ["--set", "dataset.n_max=400", "--set", "dataset.test_per_class=120"]


class TestGenDataInParts:
    def test_pinned_to_one_cpu_writes_the_same_files(self, tmp_path):
        # On a machine with one CPU both runs write in one process and this passes trivially.
        cpu = min(os.sched_getaffinity(0))
        src = os.path.dirname(os.path.dirname(cobranch.__file__))
        env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1"}
        for side, pin in (("pinned", lambda: os.sched_setaffinity(0, {cpu})), ("free", None)):
            subprocess.run([sys.executable, "-m", "cobranch.cli", "gen-data", "--seed", "3", "--out", str(tmp_path / side),
                            *TWO_PART_POOL], env=env, check=True, capture_output=True, timeout=120, preexec_fn=pin)
        for name in ("train.csv", "test.csv", "meta.json"):
            assert sha(tmp_path / "pinned" / name) == sha(tmp_path / "free" / name)

    def test_failing_child_keeps_the_previous_file(self, tmp_path, monkeypatch, capsys):
        argv = ["gen-data", "--seed", "3", "--out", str(tmp_path), *TWO_PART_POOL]
        assert main(argv) == 0
        before = {name: sha(tmp_path / name) for name in os.listdir(tmp_path)}
        parent, csv_rows = os.getpid(), data._csv_rows

        def failing_in_a_child(*rows):
            if os.getpid() != parent:
                raise MemoryError("formatting failed")
            return csv_rows(*rows)

        monkeypatch.setattr(data, "_csv_rows", failing_in_a_child)  # the fork inherits the patch
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        capsys.readouterr()
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert f"error: {tmp_path / 'train.csv'}: a process formatting rows exited with 1" in err, err
        with pytest.raises(ChildProcessError):  # no child is left
            os.waitpid(-1, os.WNOHANG)
        assert {name: sha(tmp_path / name) for name in os.listdir(tmp_path)} == before  # and no .tmp file

    def test_directory_at_the_csv_path_exit_2(self, tmp_path, monkeypatch, capsys):
        (tmp_path / "train.csv").mkdir()
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        assert main(["gen-data", "--seed", "3", "--out", str(tmp_path), *TWO_PART_POOL]) == 2
        assert str(tmp_path / "train.csv") in capsys.readouterr().err
        with pytest.raises(ChildProcessError):  # no child is left
            os.waitpid(-1, os.WNOHANG)
        assert os.listdir(tmp_path) == ["train.csv"]


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

    def test_checkpoint_compact_and_indented_both_load(self, tmp_path):
        every = [*SMALL, "--set", "train.checkpoint_every=2"]
        assert main(["train", "--seed", "7", "--out", str(tmp_path / "run"), *every]) == 0

        def indented_copy(name):
            text = (tmp_path / "run" / name).read_text()
            blob = json.loads(text)
            assert text == json.dumps(blob, sort_keys=True, separators=(",", ":")) + "\n"
            path = tmp_path / f"indented_{name}"
            path.write_text(json.dumps(blob, sort_keys=True, indent=2) + "\n")
            return path

        final, mid = indented_copy("checkpoint.json"), indented_copy("checkpoint_epoch0002.json")
        for ckpt, out in ((tmp_path / "run" / "checkpoint.json", "a"), (final, "b")):
            assert main(["eval", "--checkpoint", str(ckpt), "--seeds", "0", "--out", str(tmp_path / out)]) == 0
        assert sha(tmp_path / "a" / "report_seed0.json") == sha(tmp_path / "b" / "report_seed0.json")
        assert main(["train", "--seed", "7", "--out", str(tmp_path / "resumed"), *every, "--resume", str(mid)]) == 0
        assert sha(tmp_path / "resumed" / "checkpoint.json") == sha(tmp_path / "run" / "checkpoint.json")

    def train_in_child(self, tmp_path, override):
        return cli_in_child("train", "--seed", "0", "--out", str(tmp_path), *SMALL, "--set", override)

    def test_numerical_abort_names_phase_epoch_batch(self, tmp_path):
        out = self.train_in_child(tmp_path, "train.gamma1=1e300")
        assert out.returncode == 1
        # the first fault: batch 0's contrastive step leaves weights near 1e300,
        # and batch 1's classification step overflows on them
        assert re.search(r"numerical abort: classification step, epoch 0 batch 1: overflow", out.stderr), out.stderr
        assert "Traceback" not in out.stderr

    def test_overflow_names_phase_epoch_batch(self, tmp_path):
        # the run aborts on the overflow itself, not after NumPy's warning
        out = self.train_in_child(tmp_path, "model.scale=1e300")
        assert out.returncode == 1
        assert re.search(r"numerical abort: classification step, epoch 0 batch \d+: overflow", out.stderr), out.stderr
        assert "Warning" not in out.stderr and "Traceback" not in out.stderr
        assert not (tmp_path / "checkpoint.json").exists()

    def test_view_noise_overflow_named(self, tmp_path):
        # the features' std overflows: the run names the view-noise scale, not a later batch step
        out = self.train_in_child(tmp_path, "dataset.class_separation=1e200")
        assert out.returncode == 1
        assert "numerical abort: view-noise scale" in out.stderr, out.stderr
        assert "Warning" not in out.stderr and "Traceback" not in out.stderr

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

    @staticmethod
    def train_argv(tmp_path, out="run", extra=(), seed=0):
        data = tmp_path / "data"
        return [
            "train", "--seed", str(seed), "--out", str(tmp_path / out), *SMALL, *extra,
            "--set", "dataset.kind=embeddings",
            "--set", f"dataset.path={data / 'train.csv'}",
            "--set", f"dataset.meta_path={data / 'meta.json'}",
            "--set", f"dataset.test_path={data / 'test.csv'}",
        ]

    def train_on_files(self, tmp_path, out="run", extra=()):
        data = tmp_path / "data"
        if not (data / "meta.json").exists():
            assert main(["gen-data", "--seed", "5", "--out", str(data), *SMALL]) == 0
        return main(self.train_argv(tmp_path, out, extra))

    def train_on_edited_csv(self, tmp_path, edit, name="train.csv", extra=()):
        data = tmp_path / "data"
        assert main(["gen-data", "--seed", "5", "--out", str(data), *SMALL]) == 0
        lines = (data / name).read_text().splitlines()
        edit(lines)
        (data / name).write_text("\n".join(lines) + "\n")
        return self.train_on_files(tmp_path, extra=extra)

    def eval_run(self, tmp_path, out="eval"):
        return main(["eval", "--checkpoint", str(tmp_path / "run" / "checkpoint.json"),
                     "--seeds", "0", "--out", str(tmp_path / out)])

    def test_nonfinite_feature_exit_2(self, tmp_path, capsys):
        def edit(lines):
            parts = lines[3].split(",")
            parts[2] = "nan"
            lines[3] = ",".join(parts)

        assert self.train_on_edited_csv(tmp_path, edit) == 2
        assert "train.csv:4: non-finite" in capsys.readouterr().err

    def test_no_labeled_row_exit_2(self, tmp_path, capsys):
        def withhold_every_label(lines):
            lines[1:] = [",".join([sid, "-1", *rest]) for sid, _, *rest in (l.split(",") for l in lines[1:])]

        assert self.train_on_edited_csv(tmp_path, withhold_every_label) == 2
        assert "train.csv: no labeled rows" in capsys.readouterr().err
        assert not (tmp_path / "run" / "telemetry.jsonl").exists()

    def test_repeated_sample_id_exit_2(self, tmp_path, capsys):
        def edit(lines):
            sid = lines[3].split(",")[0]
            lines[4] = ",".join([sid, *lines[4].split(",")[1:]])

        assert self.train_on_edited_csv(tmp_path, edit) == 2
        err = capsys.readouterr().err
        assert "train.csv:5: sample id" in err and "already used on line 4" in err

    @pytest.mark.parametrize("name", ["train.csv", "test.csv"])
    def test_feature_width_mismatch_exit_2(self, tmp_path, capsys, name):
        def drop_last_column(lines):
            lines[:] = [line.rsplit(",", 1)[0] for line in lines]

        rc = self.train_on_edited_csv(tmp_path, drop_last_column, name)
        if name == "test.csv":  # train never reads the test pool; eval reports it
            assert rc == 0
            rc = self.eval_run(tmp_path)
        assert rc == 2
        err = capsys.readouterr().err
        assert f"{name}: 5 feature columns, expected d_in=6" in err

    def test_train_does_not_read_test_csv(self, tmp_path):
        assert self.train_on_files(tmp_path, out="with") == 0
        (tmp_path / "data" / "test.csv").unlink()
        assert self.train_on_files(tmp_path, out="without") == 0
        assert sha(tmp_path / "with" / "checkpoint.json") == sha(tmp_path / "without" / "checkpoint.json")

    def test_eval_does_not_read_train_csv(self, tmp_path):
        assert self.train_on_files(tmp_path) == 0
        assert self.eval_run(tmp_path, out="with") == 0
        (tmp_path / "data" / "train.csv").unlink()
        assert self.eval_run(tmp_path, out="without") == 0
        for name in ("report_seed0.json", "report_seed0.csv", "aggregate.json", "aggregate.csv"):
            assert sha(tmp_path / "with" / name) == sha(tmp_path / "without" / name)

    @pytest.mark.parametrize("rho_l", [6, 2], ids=["rho_l=rho_u", "rho_l<rho_u"])
    def test_generated_files_train_like_the_synthetic_kind(self, tmp_path, rho_l):
        # several train seeds on one fixed pool: `gen-data --seed s` once, then the
        # embeddings kind; at train seed s that run is the synthetic kind's
        ratio = ["--set", f"dataset.rho_l={rho_l}"]
        assert main(["gen-data", "--seed", "5", "--out", str(tmp_path / "data"), *SMALL, *ratio]) == 0
        synthetic = ["train", "--seed", "5", "--out", str(tmp_path / "synthetic"), *SMALL, *ratio]
        runs = {}
        for name, argv in [("synthetic", synthetic), ("files", self.train_argv(tmp_path, "files", ratio, seed=5))]:
            run = tmp_path / name
            assert main(argv) == 0
            assert main(["eval", "--checkpoint", str(run / "checkpoint.json"), "--seeds", "0",
                         "--out", str(run / "eval")]) == 0
            checkpoint = json.loads((run / "checkpoint.json").read_text())
            runs[name] = (
                {key: checkpoint[key] for key in ("params", "opt_cls", "opt_con", "pi_e", "cluster_to_class")},
                (run / "telemetry.jsonl").read_text().splitlines()[1:],  # line 1 holds the config
                json.loads((run / "eval" / "report_seed0.json").read_text())["report"],
                (run / "eval" / "report_seed0.csv").read_text(),
            )
        assert runs["synthetic"] == runs["files"]

    @pytest.mark.parametrize("label", ["99", "5", "-1"])
    def test_test_label_out_of_range_exit_2(self, tmp_path, capsys, label):
        def relabel(lines):
            parts = lines[3].split(",")
            parts[1] = label  # num_classes=5
            lines[3] = ",".join(parts)

        assert self.train_on_edited_csv(tmp_path, relabel, "test.csv") == 0
        assert self.eval_run(tmp_path) == 2
        assert f"test.csv:4: label index {label} is invalid" in capsys.readouterr().err
        assert not (tmp_path / "eval" / "report_seed0.json").exists()

    def test_test_class_without_rows_exit_2(self, tmp_path, capsys):
        def drop_class_2(lines):
            lines[1:] = [line for line in lines[1:] if line.split(",")[1] != "2"]

        assert self.train_on_edited_csv(tmp_path, drop_class_2, "test.csv") == 0
        assert self.eval_run(tmp_path) == 2
        assert "test.csv: no rows of classes [2]" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [
        *(("true_counts", counts) for counts in [
            [10, 10, 10, 10], [10, 10, 10, 10, 10, 10], [10, -1, 10, 10, 10], [10, 1.5, 10, 10, 10],
            [10, "10", 10, 10, 10], [10, True, 10, 10, 10], None, "MISSING",
        ]),
        # not JSON integers, though 5.0 and 6.0 equal the config's num_classes and d_in
        ("num_classes", 5.0), ("d_in", 6.0), ("num_known", True),
    ], ids=["one-short", "one-long", "negative", "float", "string", "bool", "null", "missing",
            "num_classes-float", "d_in-float", "num_known-bool"])
    def test_bad_true_counts_exit_2(self, tmp_path, capsys, key, value):
        assert self.train_on_files(tmp_path) == 0
        meta_path = tmp_path / "data" / "meta.json"
        meta = json.loads(meta_path.read_text())
        if value == "MISSING":
            del meta[key]
        else:
            meta[key] = value
        meta_path.write_text(json.dumps(meta))
        assert self.eval_run(tmp_path) == 2
        assert self.train_on_files(tmp_path, out="again") == 2
        err = capsys.readouterr().err
        assert err.count(f"{meta_path}: ") == 2 and key in err

    @staticmethod
    def edit_meta(tmp_path, edit):
        path = tmp_path / "data" / "meta.json"
        meta = json.loads(path.read_text())
        edit(meta)
        path.write_text(json.dumps(meta))

    def test_zero_true_count_exit_2(self, tmp_path):
        # three labeled rows, one per known class, and no sample of classes 3 and 4
        assert main(["gen-data", "--seed", "5", "--out", str(tmp_path / "data"), *SMALL]) == 0
        path = tmp_path / "data" / "train.csv"
        header, *rows = path.read_text().splitlines()
        first = {}
        for row in rows:
            first.setdefault(row.split(",")[1], row)
        path.write_text("\n".join([header, first["0"], first["1"], first["2"]]) + "\n")
        self.edit_meta(tmp_path, lambda meta: meta.update(true_counts=[1, 1, 1, 0, 0]))
        out = cli_in_child(*self.train_argv(tmp_path))
        assert out.returncode == 2
        meta_path = tmp_path / "data" / "meta.json"
        assert f"error: {meta_path}: true_counts[3] is 0" in out.stderr
        assert "Traceback" not in out.stderr

    def test_true_count_beyond_int64_exit_2(self, tmp_path, capsys):
        assert self.train_on_files(tmp_path) == 0

        def huge_class_2(meta):
            meta["true_counts"][2] = 2**63

        self.edit_meta(tmp_path, huge_class_2)
        assert self.eval_run(tmp_path) == 2
        assert self.train_on_files(tmp_path, out="again") == 2
        meta_path = tmp_path / "data" / "meta.json"
        err = capsys.readouterr().err
        assert err.count(f"error: {meta_path}: true_counts[2] is {2**63}: it does not fit in int64") == 2

    def test_true_counts_summing_past_int64_reported_exactly(self, tmp_path, capsys):
        assert main(["gen-data", "--seed", "5", "--out", str(tmp_path / "data"), *SMALL]) == 0
        train_path, meta_path = tmp_path / "data" / "train.csv", tmp_path / "data" / "meta.json"
        rows = len(train_path.read_text().splitlines()) - 1
        total = []

        def two_near_the_int64_limit(meta):  # each entry fits in int64, their sum does not
            meta["true_counts"][:2] = [2**63 - 1, 2**63 - 1]
            total.append(sum(meta["true_counts"]))

        self.edit_meta(tmp_path, two_near_the_int64_limit)
        assert self.train_on_files(tmp_path) == 2
        err = capsys.readouterr().err
        assert f"error: {meta_path}: true_counts sum to {total[0]}, but {train_path} has {rows} rows" in err

    def test_true_counts_not_summing_to_the_pool_exit_2(self, tmp_path, capsys):
        assert main(["gen-data", "--seed", "5", "--out", str(tmp_path / "data"), *SMALL]) == 0
        train_path, meta_path = tmp_path / "data" / "train.csv", tmp_path / "data" / "meta.json"
        rows = len(train_path.read_text().splitlines()) - 1

        def one_more_in_class_0(meta):
            meta["true_counts"][0] += 1

        self.edit_meta(tmp_path, one_more_in_class_0)
        assert self.train_on_files(tmp_path) == 2
        err = capsys.readouterr().err
        assert f"error: {meta_path}: true_counts sum to {rows + 1}, but {train_path} has {rows} rows" in err

    def test_labeled_rows_beyond_true_count_exit_2(self, tmp_path):
        assert self.train_on_files(tmp_path) == 0
        labels = [line.split(",")[1] for line in (tmp_path / "data" / "train.csv").read_text().splitlines()[1:]]
        n0 = labels.count("0")

        def shift_class_0_to_class_4(meta):  # the counts still sum to the pool size
            counts = meta["true_counts"]
            counts[4] += counts[0] - (n0 - 1)
            counts[0] = n0 - 1

        self.edit_meta(tmp_path, shift_class_0_to_class_4)
        out = cli_in_child(*self.train_argv(tmp_path, out="again"))
        assert out.returncode == 2
        train_path, meta_path = tmp_path / "data" / "train.csv", tmp_path / "data" / "meta.json"
        assert (f"error: {train_path}: {n0} labeled rows of class 0, more than its true_counts[0]={n0 - 1} "
                f"in {meta_path}") in out.stderr
        assert "Traceback" not in out.stderr

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

    @pytest.mark.parametrize("name", ["train.csv", "meta.json", "config.json", "checkpoint.json"])
    def test_non_utf8_file_exit_2(self, tmp_path, capsys, name):
        assert self.train_on_files(tmp_path) == 0
        path = {"config.json": tmp_path, "checkpoint.json": tmp_path / "run"}.get(name, tmp_path / "data") / name
        if name == "config.json":
            path.write_text('{"train": {"base_lr": 0.05}}\n')
        raw = path.read_bytes()
        if name == "train.csv":  # the byte on line 3
            lines = raw.split(b"\n")
            lines[2] += b"\xff"
            raw, path_line = b"\n".join(lines), f"{path}:3"
        else:
            raw, path_line = raw.replace(b"{", b"{\xff", 1), str(path)
        path.write_bytes(raw)
        if name == "checkpoint.json":
            rc = self.eval_run(tmp_path)
        else:
            extra = ["--config", str(path)] if name == "config.json" else []
            rc = self.train_on_files(tmp_path, out="again", extra=extra)
        assert rc == 2
        assert f"error: {path_line}: not UTF-8 (" in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["meta.json", "checkpoint.json"])
    @pytest.mark.parametrize("text, message", [("{nope", "invalid JSON ("), ("[1]", "expected a JSON object")])
    def test_invalid_json_file_exit_2(self, tmp_path, capsys, name, text, message):
        assert self.train_on_files(tmp_path) == 0
        path = tmp_path / ("run" if name == "checkpoint.json" else "data") / name
        path.write_text(text)
        assert self.eval_run(tmp_path) == 2
        assert f"error: {path}: {message}" in capsys.readouterr().err

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


@pytest.fixture(scope="module")
def two_epoch_run(tmp_path_factory):
    """A finished 2-epoch run with a checkpoint after each epoch, and the train argv that made it."""
    out = tmp_path_factory.mktemp("two_epoch_run")
    argv = ["train", "--seed", "4", *SMALL, "--set", "train.total_epochs=2", "--set", "train.checkpoint_every=1"]
    assert main([*argv, "--out", str(out)]) == 0
    return out, argv


def _format_only(blob):
    for key in [k for k in blob if k != "format"]:
        del blob[key]


def _drop(key):
    def edit(blob):
        del blob[key]
    return edit


def _put(key, value):
    def edit(blob):
        blob[key] = value
    return edit


def _short_enc_b1(blob):
    blob["params"]["enc_b1"] = [0.0]


def _short_pi_e(blob):
    blob["pi_e"] = blob["pi_e"][:-1]


def _bad_velocity(blob):
    blob["opt_con"]["proj_w1"] = [[0.0]]


def _nan_cls_w(blob):
    blob["params"]["cls_w"][0][0] = float("nan")


def _repeated_cluster(blob):
    blob["cluster_to_class"][0] = blob["cluster_to_class"][1]


def _float_clusters(blob):
    blob["cluster_to_class"] = [float(c) for c in blob["cluster_to_class"]]


def _huge_pi_e(blob):
    blob["pi_e"][0] = 10**400  # beyond float range


def _pi_e_entry(value):
    def edit(blob):  # the sum stays 1: entry 1 takes up the difference
        pi_e = blob["pi_e"]
        pi_e[0], pi_e[1] = value, pi_e[1] + pi_e[0] - value
    return edit


def _pi_e_times_4(blob):
    blob["pi_e"] = [4 * p for p in blob["pi_e"]]


def _as_strings(*keys):
    def edit(blob):  # every entry written as a JSON string, which NumPy would parse as a number
        node = blob
        for key in keys[:-1]:
            node = node[key]
        node[keys[-1]] = np.asarray(node[keys[-1]]).astype(str).tolist()
    return edit


def _true_in_velocity(blob):
    blob["opt_con"]["proj_w1"][1][2] = True


def _bogus_velocity(blob):
    blob["opt_con"]["bogus"] = [0.0]


def _stale_hash(blob):
    blob["config"]["train"]["base_lr"] = 0.5


def _config_value(block, key, value):
    def edit(blob):  # a hand edit that recomputes the hash, so only the value check can catch it
        blob["config"][block][key] = value
        blob["config_hash"] = config_hash(blob["config"])
    return edit


# (command, edit, what the error names besides the path); eval reads the
# final checkpoint, --resume the epoch-1 one
CHECKPOINT_FAULTS = [
    pytest.param("eval", _put("format", "cobranch-checkpoint-v0"), ["not a checkpoint file", "'format'"],
                 id="wrong-format"),
    # v1 stored shapes, scale and momentum beside the config; it has no reader
    pytest.param("eval", _put("format", "cobranch-checkpoint-v1"), ["not a checkpoint file", "'format'"],
                 id="v1-format"),
    pytest.param("eval", _format_only, ["'config'"], id="format-only"),
    *[pytest.param("eval", _drop(key), [repr(key)], id=f"no-{key}")
      for key in ("params", "pi_e", "train_seed", "cluster_to_class")],
    pytest.param("eval", _put("params", "x"), ["'params'"], id="params-string"),
    pytest.param("eval", _short_enc_b1, ["'params'", "enc_b1"], id="short-enc_b1"),
    pytest.param("eval", _short_pi_e, ["'pi_e'"], id="short-pi_e"),
    pytest.param("eval", _nan_cls_w, ["'params'", "cls_w holds a non-finite value"], id="nan-cls_w"),
    pytest.param("eval", _repeated_cluster, ["'cluster_to_class'", "permutation"], id="cluster_to_class-repeat"),
    pytest.param("eval", _float_clusters, ["'cluster_to_class'", "integers"], id="cluster_to_class-floats"),
    pytest.param("eval", _huge_pi_e, ["'pi_e'"], id="pi_e-huge-int"),
    # every entry must be a JSON number: a string or a bool is refused, not converted
    pytest.param("eval", _as_strings("params", "enc_w1"), ["'params'", "enc_w1 holds '"],
                 id="enc_w1-strings"),
    pytest.param("eval", _as_strings("pi_e"), ["'pi_e'", "holds '", "not a number"], id="pi_e-strings"),
    pytest.param("eval", _stale_hash, ["'config_hash'", "does not match"], id="stale-hash"),
    pytest.param("eval", _config_value("eval", "kmeans_n_init", 0), ["'config'", "eval.kmeans_n_init"],
                 id="config-kmeans_n_init-0"),
    pytest.param("eval", _config_value("dataset", "num_classes", "5"), ["'config'", "dataset.num_classes"],
                 id="config-num_classes-string"),
    pytest.param("eval", _config_value("dataset", "seed", 5), ["'config'", "unknown config key 'dataset.seed'"],
                 id="config-removed-dataset.seed"),
    *[pytest.param("eval", _config_value(block, "kmeans_tol", 1e-6),
                   ["'config'", f"unknown config key '{block}.kmeans_tol'"], id=f"config-removed-{block}.kmeans_tol")
      for block in ("train", "eval")],
    pytest.param("resume", _drop("epochs_done"), ["'epochs_done'"], id="resume-no-epochs_done"),
    pytest.param("resume", _drop("train_seed"), ["'train_seed'"], id="resume-no-train_seed"),
    pytest.param("resume", _put("epochs_done", "1"), ["'epochs_done'"], id="resume-epochs_done-string"),
    pytest.param("resume", _bad_velocity, ["'opt_con'", "velocity proj_w1"], id="resume-velocity-shape"),
    pytest.param("resume", _bogus_velocity, ["'opt_con'", "'bogus' names no parameter"], id="resume-velocity-bogus"),
    pytest.param("resume", _true_in_velocity, ["'opt_con'", "velocity proj_w1 holds True, not a number"],
                 id="resume-velocity-true"),
    # the checkpoint loads, but does not continue this run
    pytest.param("resume", _config_value("train", "base_lr", 0.07),
                 ["trained under train.base_lr=0.07, this run has 0.05"], id="resume-other-config"),
    pytest.param("resume", _put("train_seed", 5), ["train_seed 5, not --seed 4"], id="resume-other-seed"),
    pytest.param("resume", _put("epochs_done", 2), ["epochs_done 2 reaches train.total_epochs=2"],
                 id="resume-nothing-left"),
    # pi_e must be a positive distribution that kl_regularizer accepts as its target
    pytest.param("resume", _pi_e_entry(0.0), ["'pi_e'", "min 0, sum 1"], id="resume-pi_e-zero-entry"),
    pytest.param("resume", _pi_e_entry(-0.1), ["'pi_e'", "min -0.1, sum 1"], id="resume-pi_e-negative-entry"),
    pytest.param("resume", _pi_e_times_4, ["'pi_e'", "sum 4"], id="resume-pi_e-sum-4"),
]


@pytest.mark.parametrize("command, edit, names", CHECKPOINT_FAULTS)
def test_bad_checkpoint_exit_2(two_epoch_run, tmp_path, capsys, command, edit, names):
    run, train_argv = two_epoch_run
    source = run / ("checkpoint.json" if command == "eval" else "checkpoint_epoch0001.json")
    blob = json.loads(source.read_text())
    edit(blob)
    path = tmp_path / "edited.json"
    path.write_text(json.dumps(blob))
    if command == "eval":
        rc = main(["eval", "--checkpoint", str(path), "--seeds", "0", "--out", str(tmp_path / "out")])
    else:
        rc = main([*train_argv, "--out", str(tmp_path / "out"), "--resume", str(path)])
    err = capsys.readouterr().err
    assert rc == 2, err
    assert f"error: {path}: " in err and all(name in err for name in names), err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()  # checked before any output or data is touched


def test_failed_write_leaves_no_temporary_file(two_epoch_run, tmp_path, capsys):
    # a directory holds the report's path: the move onto it fails after the write
    run, _ = two_epoch_run
    out = tmp_path / "out"
    (out / "report_seed0.json").mkdir(parents=True)
    rc = main(["eval", "--checkpoint", str(run / "checkpoint.json"), "--seeds", "0", "--out", str(out)])
    assert rc == 2
    assert "report_seed0.json" in capsys.readouterr().err
    assert [path.name for path in out.iterdir()] == ["report_seed0.json"]


@pytest.mark.parametrize("command, phase", [
    ("eval", "eval seed 0"),
    ("estimate", "estimate round"),
    ("train", "estimation round, epoch 2"),
])
def test_overflowing_checkpoint_names_the_phase(two_epoch_run, tmp_path, command, phase):
    path = tmp_path / "huge.json"
    if command == "train":
        # epoch 2 opens with an estimation round (SMALL re-estimates every 2 epochs)
        train_argv = ["train", "--seed", "4", *SMALL, "--set", "train.checkpoint_every=2"]
        assert main([*train_argv, "--out", str(tmp_path / "run")]) == 0
        source, names = tmp_path / "run" / "checkpoint_epoch0002.json", ("enc_w2",)
        argv = [*train_argv, "--resume", str(path)]
    else:
        source, names = two_epoch_run[0] / "checkpoint.json", ("enc_w2", "enc_b2")
        argv = [command, "--checkpoint", str(path), *(["--seeds", "0"] if command == "eval" else [])]
    blob = json.loads(source.read_text())
    for name in names:  # finite, but the encoder's output overflows
        blob["params"][name] = np.full(np.shape(blob["params"][name]), 1.7e308).tolist()
    path.write_text(json.dumps(blob))
    out = cli_in_child(*argv, "--out", str(tmp_path / "out"))
    assert out.returncode == 1
    assert f"numerical abort: {phase}: overflow" in out.stderr, out.stderr
    assert "Warning" not in out.stderr and "Traceback" not in out.stderr


def test_value_error_outside_a_phase_propagates(tmp_path, monkeypatch, capsys):
    def broken_build(cfg, run_seed):
        raise ValueError("not from a named phase")

    monkeypatch.setattr(cli, "build_dataset", broken_build)
    with pytest.raises(ValueError, match="not from a named phase"):
        main(["train", "--seed", "0", "--out", str(tmp_path), *SMALL])
    assert "numerical abort" not in capsys.readouterr().err


class TestEstimateCommand:
    def test_raw_estimate_diagnostics(self, tmp_path):
        rc = main(["estimate", "--seed", "2", "--out", str(tmp_path), *SMALL])
        assert rc == 0
        rec = json.loads((tmp_path / "estimate.json").read_text())
        assert len(rec["pi_e"]) == 5
        assert sorted(rec["cluster_to_class"]) == list(range(5))
        assert sum(rec["cluster_sizes"]) == len(rec["assignments"])
        assert 0 <= rec["restart"] < 10

    def test_config_kmeans_keys_used(self, tmp_path):
        rc = main(["estimate", "--seed", "2", "--out", str(tmp_path), *SMALL,
                   "--set", "dataset.class_separation=1",  # overlapping classes: Lloyd needs several steps
                   "--set", "train.kmeans_max_iter=1", "--set", "train.kmeans_n_init=1"])
        assert rc == 0
        rec = json.loads((tmp_path / "estimate.json").read_text())
        assert rec["iterations"] <= 1 and rec["restart"] == 0

    def test_checkpoint_estimate(self, tmp_path):
        main(["train", "--seed", "6", "--out", str(tmp_path / "run"), *SMALL])
        rc = main(["estimate", "--checkpoint", str(tmp_path / "run" / "checkpoint.json"),
                   "--seed", "0", "--out", str(tmp_path)])
        assert rc == 0
        rec = json.loads((tmp_path / "estimate.json").read_text())
        assert abs(sum(rec["pi_e"]) - 1.0) < 1e-9

    @pytest.mark.parametrize("extra", [["--set", "train.kmeans_n_init=3"], ["--config", "config.json"]])
    def test_checkpoint_with_config_exit_2(self, two_epoch_run, tmp_path, capsys, extra):
        # the checkpoint's own config would silently replace the given one
        run, _ = two_epoch_run
        (tmp_path / "config.json").write_text("{}\n")
        extra = [str(tmp_path / a) if a == "config.json" else a for a in extra]
        rc = main(["estimate", "--checkpoint", str(run / "checkpoint.json"), "--seed", "0",
                   "--out", str(tmp_path), *extra])
        assert rc == 2
        assert "--checkpoint" in capsys.readouterr().err
        assert not (tmp_path / "estimate.json").exists()


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

    def test_rows_are_seed_means_of_independent_runs(self, tmp_path):
        assert main(["ablate", "--axis", "loss_mode", "--seeds", "0,1", "--out", str(tmp_path), *SMALL]) == 0
        rows = json.loads((tmp_path / "ablate_loss_mode.json").read_text())["rows"]
        assert [row["label"] for row in rows] == ["baseline", "hard", "soft"]
        for row, mode in zip(rows, ("off", "hard", "soft")):
            reports = [run_experiment(small_cfg(train={"soft_mode": mode}), seed)[0] for seed in (0, 1)]
            assert row["old"] == np.mean([r.acc_old for r in reports])
            assert row["new"] == np.mean([r.acc_new for r in reports])
            assert row["all"] == np.mean([r.acc_all for r in reports])
            assert row["std_known"] == np.mean([r.known["std"] for r in reports])
            assert row["std_novel"] == np.mean([r.novel["std"] for r in reports])


def _no_constant(token):
    raise ValueError(f"{token} is not JSON")


@pytest.mark.parametrize("num_classes", [6, 4], ids=["4-of-6", "4-of-4"])
def test_undefined_metric_is_null_in_every_json_artifact(tmp_path, num_classes):
    """Two novel classes leave Few undefined, and no novel class every novel
    metric: each is null in JSON, which has no NaN, and nan in CSV."""
    sets = [*SMALL, "--set", f"dataset.num_classes={num_classes}", "--set", "dataset.num_known=4"]
    run, ev, abl = tmp_path / "run", tmp_path / "eval", tmp_path / "ablate"
    assert main(["train", "--seed", "0", "--out", str(run), *sets]) == 0
    assert main(["eval", "--checkpoint", str(run / "checkpoint.json"), "--seeds", "0,1", "--out", str(ev)]) == 0
    assert main(["estimate", "--checkpoint", str(run / "checkpoint.json"), "--out", str(tmp_path / "est")]) == 0
    assert main(["ablate", "--axis", "loss_mode", "--out", str(abl), *sets]) == 0
    docs = {path.relative_to(tmp_path).as_posix(): json.loads(path.read_text(), parse_constant=_no_constant)
            for path in tmp_path.rglob("*.json")}
    assert sorted(docs) == ["ablate/ablate_loss_mode.json", "est/estimate.json", "eval/aggregate.json",
                            "eval/report_seed0.json", "eval/report_seed1.json", "run/checkpoint.json"]
    for line in (run / "telemetry.jsonl").read_text().splitlines():
        json.loads(line, parse_constant=_no_constant)
    assert docs["eval/aggregate.json"]["metrics"]["novel_few"]["mean"] is None
    assert "novel_few,nan,nan" in (ev / "aggregate.csv").read_text().splitlines()
    for seed in (0, 1):
        assert docs[f"eval/report_seed{seed}.json"]["report"]["novel"]["few"] is None
    no_novel = num_classes == 4
    assert [row["new"] is None for row in docs["ablate/ablate_loss_mode.json"]["rows"]] == [no_novel] * 3
    assert all((row.split(",")[2] == "nan") == no_novel
               for row in (abl / "ablate_loss_mode.csv").read_text().splitlines()[1:])


def test_run_experiment_in_memory():
    cfg = small_cfg()
    report, result, test = run_experiment(cfg, seed=0)
    assert 0.0 <= report.acc_all <= 1.0
    assert result.epochs_done == 4
    assert test.y.size == 5 * 8


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
