"""Experiment configuration: defaults, validation, materialization.

A config is a nested dict with four blocks (dataset / model / train / eval).
Every key has a documented default below; unknown keys are rejected so typos
fail loudly. The effective (fully materialized) config is embedded in every
output artifact, and its hash ties checkpoints to the config that made them.
"""

from __future__ import annotations

import copy
import dataclasses
import json
import math

import numpy as np

from . import losses, transfer


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
        "kmeans_n_init": 10,
    },
    "eval": {
        "kmeans_max_iter": 100,
        "kmeans_n_init": 10,
    },
}

# The training objects that `to_train_objects` builds from a validated config:
# ModelConfig holds the `model` block, and TrainConfig the `train` block but
# `checkpoint_every` (the CLI's) plus the run seed. Each field is typed Any,
# since DEFAULTS and `_check_types` hold the types; `namespace` sets the module
# because make_dataclass's `module` argument needs Python 3.12.
ModelConfig = dataclasses.make_dataclass("ModelConfig", list(DEFAULTS["model"]), frozen=True,
                                         namespace={"__module__": __name__})
TrainConfig = dataclasses.make_dataclass(
    "TrainConfig", [key for key in DEFAULTS["train"] if key != "checkpoint_every"] + ["seed"],
    frozen=True, namespace={"__module__": __name__})


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
    """Each value has its default's type: an int within float range also
    serves a float key, an int key takes an int64, a bool is never a number,
    and NaN and infinities are never allowed. Where the default is null, null
    is allowed, and otherwise a string for the paths and an int for the rest."""
    for block, defaults in DEFAULTS.items():
        for key, default in defaults.items():
            value, nullable = cfg[block][key], default is None
            if nullable and value is None:
                continue
            want = (str if key.endswith("path") else int) if nullable else type(default)
            if isinstance(value, bool) or not isinstance(value, (int, float) if want is float else want):
                null = " or null" if nullable else ""
                raise ConfigError(f"{block}.{key} must be {want.__name__}{null}, got {value!r}")
            if want is int and not -(2**63) <= value < 2**63:
                raise ConfigError(f"{block}.{key} must be within int64 range, got a {value.bit_length()}-bit int")
            if want is float:
                try:
                    number = float(value)
                except OverflowError:  # an int beyond float range
                    raise ConfigError(f"{block}.{key} must be within float range, got a "
                                      f"{value.bit_length()}-bit int") from None
                if not math.isfinite(number):
                    raise ConfigError(f"{block}.{key} must be finite, got {value!r}")


def _check_sizes(cfg: dict) -> None:
    """Each array the config implies has an element count that fits in
    np.intp: the weight matrices, the class-mean differences, and the
    synthetic pools in each width they pass through: the unlabeled pool and
    the test set (at most num_classes times n_max or test_per_class rows),
    and the labeled pool, whose largest class may hold ceil(rho_l) rows."""
    C = ("dataset", "num_classes")
    widths = [("dataset", "d_in"), *(("model", key) for key in ("d_hidden", "d_feat", "d_proj_hidden", "d_proj"))]
    counts = [[*pair] for pair in zip(widths, widths[1:])] + [[C, ("model", "d_feat")]]
    if cfg["dataset"]["kind"] == "synthetic":
        counts.append([C, C, ("dataset", "d_in")])
        rows = ("n_max", "test_per_class", "rho_l")
        counts += [[C, ("dataset", key), width] for key in rows for width in [*widths, C]]
    limit = int(np.iinfo(np.intp).max)
    for keys in counts:
        if math.prod(math.ceil(cfg[block][key]) for block, key in keys) > limit:
            product = " * ".join(f"{block}.{key}={cfg[block][key]!r}" for block, key in keys)
            raise ConfigError(f"{product} elements do not fit in np.intp (at most {limit})")


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
        raise ConfigError(f"dataset.profile must be exponential or pareto, got {ds['profile']!r}")
    if not 0 < ds["labeled_ratio"] <= 1:
        raise ConfigError(f"dataset.labeled_ratio must be in (0, 1], got {ds['labeled_ratio']!r}")
    if not 1 <= ds["num_known"] <= ds["num_classes"]:
        raise ConfigError(f"dataset.num_known must be in [1, dataset.num_classes={ds['num_classes']!r}], "
                          f"got {ds['num_known']!r}")
    if ds["kind"] == "synthetic":  # the generator's domain: it assumes these hold
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
    lows = [("train", "total_epochs", 1), ("train", "checkpoint_every", 0), ("train", "reestimate_interval", 1),
            ("train", "batch_size", 2)]
    lows += [("model", key, 1) for key in ("d_hidden", "d_feat", "d_proj_hidden", "d_proj")]
    lows += [(block, key, 1) for block in ("train", "eval") for key in ("kmeans_n_init", "kmeans_max_iter")]
    for block, key, low in lows:
        if cfg[block][key] < low:
            raise ConfigError(f"{block}.{key} must be >= {low}, got {cfg[block][key]!r}")
    _check_sizes(cfg)
    if tr["warmup_epochs"] is not None and not 0 <= tr["warmup_epochs"] <= tr["total_epochs"]:
        raise ConfigError(
            f"train.warmup_epochs must be in [0, train.total_epochs={tr['total_epochs']}], "
            f"got {tr['warmup_epochs']!r}"
        )
    ranges = [
        ("dataset", "noise_scale", lambda v: v >= 0, ">= 0"),
        ("model", "scale", lambda v: v > 0, "> 0"),
        ("train", "base_lr", lambda v: v > 0, "> 0"),
        ("train", "temperature", lambda v: v >= losses.MIN_TEMPERATURE, f">= {losses.MIN_TEMPERATURE}"),
        ("train", "momentum", lambda v: 0 <= v < 1, "in [0, 1)"),
        ("train", "conf_gate", lambda v: 0 <= v <= 1, "in [0, 1]"),
        ("train", "view_noise", lambda v: v >= 0, ">= 0"),
        ("train", "view_dropout", lambda v: 0 <= v < 1, "in [0, 1)"),
    ]
    ranges += [("train", key, lambda v: v >= 0, ">= 0") for key in ("eta1", "eta2", "gamma1", "gamma2", "k")]
    ranges += [("train", key, lambda v: 0 <= v <= 1, "in [0, 1]") for key in ("alpha", "beta", "smoothing_p")]
    for block, key, ok, rule in ranges:
        if not ok(cfg[block][key]):
            raise ConfigError(f"{block}.{key} must be {rule}, got {cfg[block][key]!r}")
    if tr["soft_mode"] not in ("soft", "hard", "off"):
        raise ConfigError(f"train.soft_mode must be soft/hard/off, got {tr['soft_mode']!r}")
    if tr["metric"] not in transfer.SIMILARITY_METRICS:
        raise ConfigError(f"train.metric must be one of {transfer.SIMILARITY_METRICS}, got {tr['metric']!r}")


def read_json(path: str) -> dict:
    """The JSON object in `path`; ConfigError naming the path if the file is
    not UTF-8, not JSON or not an object."""
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        doc = json.loads(raw.decode("utf-8"))
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 ({exc})") from exc
    except ValueError as exc:  # a JSONDecodeError, or an int over Python's digit limit
        raise ConfigError(f"{path}: invalid JSON ({exc})") from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: expected a JSON object, got {type(doc).__name__}")
    return doc


def load_config(path: str | None, overrides: list[str] | None = None) -> dict:
    """Read a JSON config file and apply dotted-path overrides.

    Overrides look like `train.base_lr=0.05`; values are parsed as JSON with
    a fallback to bare strings.
    """
    raw = read_json(path) if path is not None else {}
    for item in overrides or []:
        if "=" not in item:
            raise ConfigError(f"override {item!r} is not KEY=VALUE")
        key, _, value = item.partition("=")
        try:
            parsed = json.loads(value)
        except ValueError:  # not JSON, or an int over Python's digit limit
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
    """The training objects of a validated config; `train.checkpoint_every` is the CLI's."""
    train_cfg = TrainConfig(**{k: v for k, v in cfg["train"].items() if k != "checkpoint_every"}, seed=seed)
    return ModelConfig(**cfg["model"]), train_cfg
