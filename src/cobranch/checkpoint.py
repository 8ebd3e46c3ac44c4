"""The checkpoint format: a run's whole state as one JSON object.

`checkpoint_dict` writes it, and `load_checkpoint` is the one reader that
`eval`, `estimate` and `train --resume` share. Every array, a parameter or a
velocity, is one nested list keyed by its `ModelParams` field name. Its
shape, `model.scale` and `train.momentum` are not stored: the embedded
config gives them.
"""

from __future__ import annotations

import hashlib
import itertools
import json

import numpy as np

from . import losses, nn
from .config import ConfigError, effective_config, read_json
from .estimate import AlignmentMap
from .train import TrainResult

FORMAT = "cobranch-checkpoint-v2"


def config_hash(config: dict) -> str:
    return hashlib.sha256(json.dumps(config, sort_keys=True, allow_nan=False).encode("utf-8")).hexdigest()


def checkpoint_dict(result: TrainResult, cfg: dict, train_seed: int) -> dict:
    return {
        "format": FORMAT,
        "config": cfg,
        "config_hash": config_hash(cfg),
        "train_seed": train_seed,
        "epochs_done": result.epochs_done,
        "params": {name: getattr(result.params, name).tolist() for name in result.params.array_fields()},
        "opt_cls": {name: v.tolist() for name, v in result.opt_cls.velocity.items()},
        "opt_con": {name: v.tolist() for name, v in result.opt_con.velocity.items()},
        "pi_e": result.pi_e.tolist(),
        "cluster_to_class": result.alignment.cluster_to_class.tolist(),
    }


def _floats(values, shape: tuple, what: str) -> np.ndarray:
    """`values` as a finite float array of `shape`; ValueError naming `what`
    if not, or if an entry is not a number (NumPy reads "0.5" as 0.5 and true as 1.0)."""
    arr = np.asarray(values, dtype=float)
    if arr.shape != shape:
        raise ValueError(f"expected shape {shape} for {what}, got {arr.shape}")
    rows = values if arr.ndim == 2 else [values]
    if not set(map(type, itertools.chain.from_iterable(rows))) <= {int, float}:
        bad = next(v for v in itertools.chain.from_iterable(rows) if type(v) not in (int, float))
        raise ValueError(f"{what} holds {bad!r}, not a number")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{what} holds a non-finite value")
    return arr


def _arrays(d: dict, shapes: dict, what: str) -> dict:
    """Each named array of `d`, shaped as `shapes` gives its name."""
    if not d.keys() <= shapes.keys():
        raise ValueError(f"{min(d.keys() - shapes.keys())!r} names no parameter")
    return {name: _floats(values, shapes[name], f"{what}{name}") for name, values in d.items()}


def _distribution(values, num_classes: int) -> np.ndarray:
    """A class distribution with no entry <= 0 that `kl_regularizer` accepts as a target."""
    arr = _floats(values, (num_classes,), "the class distribution")
    if not (arr.min() > 0 and abs(arr.sum() - 1.0) <= losses._SIMPLEX_TOL):
        raise ValueError(f"not a positive probability vector: min {arr.min():g}, sum {arr.sum():g}")
    return arr


def _count(value) -> int:
    if type(value) is not int or value < 0:
        raise ValueError(f"expected a non-negative integer, got {value!r}")
    return value


def _checked_config(cfg: dict) -> dict:
    if effective_config(cfg) != cfg:
        raise ValueError("not a complete effective config")
    return cfg


def _alignment(values, num_classes: int) -> AlignmentMap:
    arr = np.asarray(values)
    if arr.shape != (num_classes,) or arr.dtype.kind != "i":
        raise ValueError(f"expected {num_classes} integers, got shape {arr.shape} of {arr.dtype}")
    return AlignmentMap(arr)


def load_checkpoint(path: str) -> tuple[dict, int, TrainResult]:
    """The inverse of `checkpoint_dict`: (config, train seed, training state).

    The embedded config must be one `effective_config` accepts unchanged and
    match its hash. Every array is checked against the shapes that config
    gives. A fault raises ConfigError naming the path and the key.
    """
    blob = read_json(path)
    if blob.get("format") != FORMAT:
        raise ConfigError(f"{path}: not a checkpoint file (key 'format' is not {FORMAT!r})")

    def field(key: str, decode):
        if key not in blob:
            raise ConfigError(f"{path}: missing checkpoint key {key!r}")
        try:
            return decode(blob[key])
        except (KeyError, TypeError, ValueError, AttributeError, OverflowError) as exc:  # OverflowError: a huge int
            reason = f"missing key {exc}" if isinstance(exc, KeyError) else exc
            raise ConfigError(f"{path}: checkpoint key {key!r}: {reason}") from exc

    def check_hash(value):
        if value != config_hash(cfg):
            raise ValueError("does not match the config (corrupt or edited)")

    cfg = field("config", _checked_config)
    field("config_hash", check_hash)
    C, scale, momentum = cfg["dataset"]["num_classes"], cfg["model"]["scale"], cfg["train"]["momentum"]
    # the model block's keys are init_params' parameter names; only the shapes of its arrays are read
    template = nn.init_params(cfg["dataset"]["d_in"], num_classes=C, seed=0, **cfg["model"])
    shapes = {name: getattr(template, name).shape for name in template.array_fields()}
    state = TrainResult(
        params=field("params", lambda d: nn.ModelParams(**_arrays(d, shapes, ""), scale=scale)),
        opt_cls=field("opt_cls", lambda d: nn.SgdState(momentum, _arrays(d, shapes, "velocity "))),
        opt_con=field("opt_con", lambda d: nn.SgdState(momentum, _arrays(d, shapes, "velocity "))),
        pi_e=field("pi_e", lambda v: _distribution(v, C)),
        alignment=field("cluster_to_class", lambda v: _alignment(v, C)),
        epochs_done=field("epochs_done", _count),
    )
    return cfg, field("train_seed", _count), state
