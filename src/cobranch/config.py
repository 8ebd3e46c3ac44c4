"""Experiment configuration: defaults, validation, materialization.

A config is a nested dict with four blocks (dataset / model / train / eval).
Every key has a documented default below; unknown keys are rejected so typos
fail loudly. The effective (fully materialized) config is embedded in every
output artifact, and its hash ties checkpoints to the config that made them.
"""

from __future__ import annotations

import copy
import json
import math

from . import losses, nn, transfer
from .train import ModelConfig, TrainConfig


class ConfigError(ValueError):
    """Bad configuration file or override."""


# Defaults. train.warmup_epochs null means 10% of total_epochs.
DEFAULTS: dict = {
    "dataset": {
        "kind": "synthetic",        # synthetic | embeddings
        "path": None,                # embeddings kind: pre-split train CSV
        "meta_path": None,           # embeddings kind: metadata JSON
        "test_path": None,           # embeddings kind: balanced test CSV
        "num_classes": 10,
        "d_in": 12,
        "profile": "exponential",    # exponential | pareto
        "rho_l": 20.0,
        "rho_u": 20.0,
        "n_max": 150,
        "num_known": 6,
        "labeled_ratio": 0.5,
        "class_separation": 6.0,
        "noise_scale": 1.0,
        "test_per_class": 50,
        "seed": None,                # null: follow the run seed
    },
    "model": {
        "d_hidden": 32,
        "d_feat": 16,
        "d_proj_hidden": 32,
        "d_proj": 32,
        "scale": 10.0,
    },
    "train": {
        "base_lr": 0.1,
        "total_epochs": 200,
        "batch_size": 256,
        "warmup_epochs": None,
        "eta1": 1.0,
        "eta2": 1.0,
        "gamma1": 1.0,
        "gamma2": 1.0,
        "alpha": 0.8,
        "beta": 0.5,
        "k": 0.5,
        "temperature": 1.0,
        "smoothing_p": 0.5,
        "reestimate_interval": 10,
        "metric": "dot",
        "conf_gate": 0.5,
        "momentum": 0.9,
        "soft_mode": "soft",         # soft | hard | off
        "view_noise": 0.1,
        "view_dropout": 0.1,
        "checkpoint_every": 0,       # 0: final checkpoint only
        "kmeans_max_iter": 100,
        "kmeans_tol": 1e-6,
        "kmeans_n_init": 10,
        "aux_encoder_weight": 1.0,   # damp the classifier branch's encoder imprint
    },
    "eval": {
        "kmeans_max_iter": 100,
        "kmeans_tol": 1e-6,
        "kmeans_n_init": 10,
    },
}


def _merge(defaults: dict, override: dict, path: str) -> dict:
    out = copy.deepcopy(defaults)
    for key, value in override.items():
        here = f"{path}.{key}" if path else key
        if key not in defaults:
            raise ConfigError(f"unknown config key {here!r}")
        if isinstance(defaults[key], dict) and not isinstance(value, dict):
            raise ConfigError(f"{here!r} must be a table")
        if isinstance(defaults[key], dict):
            out[key] = _merge(defaults[key], value, here)
        else:
            out[key] = value
    return out


def effective_config(raw: dict | None) -> dict:
    """Defaults overlaid with `raw`; unknown keys rejected."""
    cfg = _merge(DEFAULTS, raw or {}, "")
    _validate(cfg)
    if cfg["train"]["warmup_epochs"] is None:
        cfg["train"]["warmup_epochs"] = int(0.1 * cfg["train"]["total_epochs"])
    return cfg


def _check_types(cfg: dict) -> None:
    """Each value has its default's type: an int also serves a float key, a
    bool is never a number, and NaN and infinities are never allowed. Where the
    default is null, null is allowed, and otherwise a string for the paths and
    an int for the rest."""
    for block, defaults in DEFAULTS.items():
        for key, default in defaults.items():
            value, nullable = cfg[block][key], default is None
            if nullable and value is None:
                continue
            want = (str if key.endswith("path") else int) if nullable else type(default)
            if isinstance(value, bool) or not isinstance(value, (int, float) if want is float else want):
                null = " or null" if nullable else ""
                raise ConfigError(f"{block}.{key} must be {want.__name__}{null}, got {value!r}")
            if isinstance(value, float) and not math.isfinite(value):
                raise ConfigError(f"{block}.{key} must be finite, got {value!r}")


def _validate(cfg: dict) -> None:
    _check_types(cfg)
    ds = cfg["dataset"]
    if ds["kind"] not in ("synthetic", "embeddings"):
        raise ConfigError(f"dataset.kind must be synthetic or embeddings, got {ds['kind']!r}")
    if ds["kind"] == "embeddings":
        for key in ("path", "meta_path", "test_path"):
            if not ds[key]:
                raise ConfigError(f"dataset.kind=embeddings requires dataset.{key}")
    if ds["profile"] not in ("exponential", "pareto"):
        raise ConfigError(f"unknown dataset.profile {ds['profile']!r}")
    if not 0 < ds["labeled_ratio"] <= 1:
        raise ConfigError("dataset.labeled_ratio must be in (0, 1]")
    if not 1 <= ds["num_known"] <= ds["num_classes"]:
        raise ConfigError("dataset.num_known must be in [1, num_classes]")
    if ds["kind"] == "synthetic":  # what the generator would reject later
        lows = (("num_classes", 2), ("d_in", 2), ("test_per_class", 1), ("rho_u", 1), ("rho_l", 1))
        for key, low in lows:
            if ds[key] < low:
                raise ConfigError(f"dataset.{key} must be >= {low}, got {ds[key]!r}")
        if ds["class_separation"] <= 0:
            raise ConfigError(f"dataset.class_separation must be positive, got {ds['class_separation']!r}")
        if ds["n_max"] < ds["rho_u"]:
            raise ConfigError(
                f"dataset.n_max={ds['n_max']!r} < dataset.rho_u={ds['rho_u']!r}: "
                "the smallest class would round to 0"
            )
    tr = cfg["train"]
    lows = [("dataset", "seed", 0), ("train", "total_epochs", 1), ("train", "checkpoint_every", 0)]
    lows += [("model", key, 1) for key in ("d_hidden", "d_feat", "d_proj_hidden", "d_proj")]
    lows += [(block, key, 1) for block in ("train", "eval") for key in ("kmeans_n_init", "kmeans_max_iter")]
    for block, key, low in lows:
        if cfg[block][key] is not None and cfg[block][key] < low:
            raise ConfigError(f"{block}.{key} must be >= {low}, got {cfg[block][key]!r}")
    if tr["soft_mode"] not in ("soft", "hard", "off"):
        raise ConfigError(f"train.soft_mode must be soft/hard/off, got {tr['soft_mode']!r}")
    if tr["metric"] not in transfer.SIMILARITY_METRICS:
        raise ConfigError(f"train.metric must be one of {transfer.SIMILARITY_METRICS}")


def load_config(path: str | None, overrides: list[str] | None = None) -> dict:
    """Read a JSON config file and apply dotted-path overrides.

    Overrides look like `train.base_lr=0.05`; values are parsed as JSON with
    a fallback to bare strings.
    """
    raw: dict = {}
    if path is not None:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: invalid JSON ({exc})") from exc
    for item in overrides or []:
        if "=" not in item:
            raise ConfigError(f"override {item!r} is not KEY=VALUE")
        key, _, value = item.partition("=")
        try:
            parsed = json.loads(value)
        except json.JSONDecodeError:
            parsed = value
        node = raw
        parts = key.split(".")
        for part in parts[:-1]:
            node = node.setdefault(part, {})
            if not isinstance(node, dict):
                raise ConfigError(f"override {key!r} crosses a non-table value")
        node[parts[-1]] = parsed
    return effective_config(raw)


def to_train_objects(cfg: dict, seed: int) -> tuple[ModelConfig, TrainConfig]:
    m = cfg["model"]
    t = cfg["train"]
    model_cfg = ModelConfig(
        d_hidden=m["d_hidden"],
        d_feat=m["d_feat"],
        d_proj_hidden=m["d_proj_hidden"],
        d_proj=m["d_proj"],
        scale=m["scale"],
    )
    try:
        schedule = nn.TrainSchedule(
            base_lr=t["base_lr"],
            total_epochs=t["total_epochs"],
            batch_size=t["batch_size"],
            warmup_epochs=t["warmup_epochs"],
        )
        train_cfg = TrainConfig(
            schedule=schedule,
            weights=losses.LossWeights(t["eta1"], t["eta2"], t["gamma1"], t["gamma2"]),
            sampling=transfer.SamplingConfig(alpha=t["alpha"], beta=t["beta"], k=t["k"]),
            seed=seed,
            temperature=t["temperature"],
            smoothing_p=t["smoothing_p"],
            reestimate_interval=t["reestimate_interval"],
            metric=t["metric"],
            conf_gate=t["conf_gate"],
            momentum=t["momentum"],
            soft_mode=t["soft_mode"],
            view_noise=t["view_noise"],
            view_dropout=t["view_dropout"],
            kmeans_max_iter=t["kmeans_max_iter"],
            kmeans_tol=t["kmeans_tol"],
            kmeans_n_init=t["kmeans_n_init"],
            aux_encoder_weight=t["aux_encoder_weight"],
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return model_cfg, train_cfg
