"""Minimal differentiable core: encoder MLP, unit-norm projector, cosine
classifier, SGD with momentum, cosine LR schedule, checkpoint (de)serialization.

Everything is float64 numpy with hand-written backward passes. Forward
functions return caches consumed by the matching backward functions;
parameter gradients are plain dicts keyed by ModelParams field names so an
optimizer step can touch exactly one branch's parameters.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, fields

import numpy as np

from ._rng import INIT, rng_for

_ZERO_NORM_EPS = 1e-12


class NonFiniteGradientError(FloatingPointError):
    """Raised when an optimizer step sees a NaN/inf gradient."""


@dataclass
class ModelParams:
    """Trainable state of both branches over a shared encoder.

    encoder: d_in -> d_hidden -> d_feat (tanh hidden)
    projector: d_feat -> d_proj_hidden -> d_proj (tanh hidden, output L2-normalized)
    classifier: one weight row per class; logits are scaled cosines.
    """

    enc_w1: np.ndarray
    enc_b1: np.ndarray
    enc_w2: np.ndarray
    enc_b2: np.ndarray
    proj_w1: np.ndarray
    proj_b1: np.ndarray
    proj_w2: np.ndarray
    proj_b2: np.ndarray
    cls_w: np.ndarray
    scale: float = 10.0

    ENCODER_FIELDS = ("enc_w1", "enc_b1", "enc_w2", "enc_b2")
    PROJECTOR_FIELDS = ("proj_w1", "proj_b1", "proj_w2", "proj_b2")

    @property
    def d_in(self) -> int:
        return self.enc_w1.shape[0]

    @property
    def d_feat(self) -> int:
        return self.enc_w2.shape[1]

    @property
    def num_classes(self) -> int:
        return self.cls_w.shape[0]

    def array_fields(self) -> list[str]:
        return [f.name for f in fields(self) if f.name != "scale"]

    def copy(self) -> "ModelParams":
        kw = {name: getattr(self, name).copy() for name in self.array_fields()}
        return ModelParams(**kw, scale=self.scale)

    def check_finite(self) -> None:
        for name in self.array_fields():
            if not np.all(np.isfinite(getattr(self, name))):
                raise NonFiniteGradientError(f"parameter {name} is not finite")


@dataclass(frozen=True)
class TrainSchedule:
    """Learning-rate / epoch bookkeeping for one training run.

    warmup_epochs == total_epochs is allowed: the run never leaves warm-up.
    """

    base_lr: float
    total_epochs: int
    batch_size: int
    warmup_epochs: int

    def __post_init__(self):
        if not 0 <= self.warmup_epochs <= self.total_epochs:
            raise ValueError("need 0 <= warmup_epochs <= total_epochs")
        if self.batch_size < 2:
            raise ValueError("batch_size must be >= 2")


def init_params(
    d_in: int,
    d_hidden: int,
    d_feat: int,
    d_proj_hidden: int,
    d_proj: int,
    num_classes: int,
    seed: int,
    scale: float = 10.0,
) -> ModelParams:
    """Random initialization, weights scaled by 1/sqrt(fan_in)."""
    rng = rng_for(seed, INIT)

    def w(n_in, n_out):
        return rng.standard_normal((n_in, n_out)) / math.sqrt(n_in)

    return ModelParams(
        enc_w1=w(d_in, d_hidden),
        enc_b1=np.zeros(d_hidden),
        enc_w2=w(d_hidden, d_feat),
        enc_b2=np.zeros(d_feat),
        proj_w1=w(d_feat, d_proj_hidden),
        proj_b1=np.zeros(d_proj_hidden),
        proj_w2=w(d_proj_hidden, d_proj),
        proj_b2=np.zeros(d_proj),
        cls_w=rng.standard_normal((num_classes, d_feat)) / math.sqrt(d_feat),
        scale=scale,
    )


def _as_batch(x: np.ndarray, dim: int, what: str) -> tuple[np.ndarray, bool]:
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    if single:
        x = x[None, :]
    if x.ndim != 2 or x.shape[1] != dim:
        raise ValueError(f"{what}: expected dimension {dim}, got shape {x.shape}")
    return x, single


# --- encoder ---------------------------------------------------------------

def encode_forward(params: ModelParams, x: np.ndarray):
    X, single = _as_batch(x, params.d_in, "encode")
    H = np.tanh(X @ params.enc_w1 + params.enc_b1)
    Z = H @ params.enc_w2 + params.enc_b2
    cache = (X, H)
    return (Z[0] if single else Z), cache


def encode(params: ModelParams, x: np.ndarray) -> np.ndarray:
    return encode_forward(params, x)[0]


def encode_backward(params: ModelParams, cache, dZ: np.ndarray):
    """Returns (param grads dict, gradient w.r.t. the input)."""
    X, H = cache
    dZ = np.atleast_2d(dZ)
    grads = {
        "enc_w2": H.T @ dZ,
        "enc_b2": dZ.sum(axis=0),
    }
    dH = dZ @ params.enc_w2.T
    dA = dH * (1.0 - H**2)
    grads["enc_w1"] = X.T @ dA
    grads["enc_b1"] = dA.sum(axis=0)
    dX = dA @ params.enc_w1.T
    return grads, dX


# --- projector ---------------------------------------------------------------

def project_forward(params: ModelParams, z: np.ndarray):
    Z, single = _as_batch(z, params.d_feat, "project")
    G = np.tanh(Z @ params.proj_w1 + params.proj_b1)
    Q = G @ params.proj_w2 + params.proj_b2
    norms = np.linalg.norm(Q, axis=1)
    fallback = norms <= _ZERO_NORM_EPS
    U = np.empty_like(Q)
    ok = ~fallback
    U[ok] = Q[ok] / norms[ok, None]
    if fallback.any():
        U[fallback] = 0.0
        U[fallback, 0] = 1.0
    cache = (Z, G, Q, norms, fallback)
    return (U[0] if single else U), cache


def project(params: ModelParams, z: np.ndarray) -> np.ndarray:
    """Unit-norm contrastive feature. Zero pre-normalization vectors fall
    back to the first basis vector (see project_forward cache for the flag)."""
    return project_forward(params, z)[0]


def project_backward(params: ModelParams, cache, dU: np.ndarray):
    Z, G, Q, norms, fallback = cache
    dU = np.atleast_2d(dU)
    dQ = np.zeros_like(Q)
    ok = ~fallback
    if ok.any():
        u = Q[ok] / norms[ok, None]
        inner = (dU[ok] * u).sum(axis=1, keepdims=True)
        dQ[ok] = (dU[ok] - inner * u) / norms[ok, None]
    # fallback rows have no usable direction: gradient dropped
    grads = {
        "proj_w2": G.T @ dQ,
        "proj_b2": dQ.sum(axis=0),
    }
    dG = dQ @ params.proj_w2.T
    dA = dG * (1.0 - G**2)
    grads["proj_w1"] = Z.T @ dA
    grads["proj_b1"] = dA.sum(axis=0)
    dZ = dA @ params.proj_w1.T
    return grads, dZ


# --- cosine classifier -------------------------------------------------------

def classify_forward(params: ModelParams, z: np.ndarray):
    Z, single = _as_batch(z, params.d_feat, "classify")
    z_norms = np.linalg.norm(Z, axis=1)
    if np.any(z_norms <= _ZERO_NORM_EPS):
        raise ValueError("classify: zero feature vector has no direction")
    w_norms = np.linalg.norm(params.cls_w, axis=1)
    if np.any(w_norms <= _ZERO_NORM_EPS):
        raise ValueError("classify: zero classifier row has no direction")
    Zh = Z / z_norms[:, None]
    Wh = params.cls_w / w_norms[:, None]
    L = params.scale * (Zh @ Wh.T)
    cache = (Z, z_norms, Zh, Wh, w_norms)
    return (L[0] if single else L), cache


def classify(params: ModelParams, z: np.ndarray) -> np.ndarray:
    """Scaled cosine logits, one per class; invariant to positive rescaling of z."""
    return classify_forward(params, z)[0]


def classify_backward(params: ModelParams, cache, dL: np.ndarray):
    Z, z_norms, Zh, Wh, w_norms = cache
    dL = np.atleast_2d(dL)
    s = params.scale
    dZh = s * (dL @ Wh)
    inner = (dZh * Zh).sum(axis=1, keepdims=True)
    dZ = (dZh - inner * Zh) / z_norms[:, None]
    dWh = s * (dL.T @ Zh)
    winner = (dWh * Wh).sum(axis=1, keepdims=True)
    dW = (dWh - winner * Wh) / w_norms[:, None]
    return {"cls_w": dW}, dZ


# --- composite branch passes -------------------------------------------------

def classifier_branch_forward(params: ModelParams, x: np.ndarray):
    """Encoder + cosine classifier: logits plus a joint cache."""
    Z, enc_cache = encode_forward(params, np.atleast_2d(np.asarray(x, float)))
    L, cls_cache = classify_forward(params, Z)
    return L, (enc_cache, cls_cache)


def classifier_branch_backward(params: ModelParams, cache, dL: np.ndarray) -> dict:
    enc_cache, cls_cache = cache
    cls_grads, dZ = classify_backward(params, cls_cache, dL)
    enc_grads, _ = encode_backward(params, enc_cache, dZ)
    return {**enc_grads, **cls_grads}


def contrastive_branch_forward(params: ModelParams, x: np.ndarray):
    """Encoder + projector: unit features plus a joint cache."""
    Z, enc_cache = encode_forward(params, np.atleast_2d(np.asarray(x, float)))
    U, proj_cache = project_forward(params, Z)
    return U, (enc_cache, proj_cache)


def contrastive_branch_backward(params: ModelParams, cache, dU: np.ndarray) -> dict:
    enc_cache, proj_cache = cache
    proj_grads, dZ = project_backward(params, proj_cache, dU)
    enc_grads, _ = encode_backward(params, enc_cache, dZ)
    return {**enc_grads, **proj_grads}


# --- optimization -------------------------------------------------------------

def cosine_lr(epoch: int, schedule: TrainSchedule) -> float:
    """base_lr * 0.5 * (1 + cos(pi * epoch / total_epochs))."""
    if not 0 <= epoch < schedule.total_epochs:
        raise ValueError(f"epoch {epoch} outside [0, {schedule.total_epochs})")
    return schedule.base_lr * 0.5 * (1.0 + math.cos(math.pi * epoch / schedule.total_epochs))


class SgdState:
    """Momentum buffers, lazily created per parameter name."""

    def __init__(self, momentum: float = 0.9):
        self.momentum = momentum
        self.velocity: dict[str, np.ndarray] = {}

    def to_dict(self) -> dict:
        return {
            "momentum": self.momentum,
            "velocity": {k: v.tolist() for k, v in self.velocity.items()},
        }

    @classmethod
    def from_dict(cls, d: dict) -> "SgdState":
        state = cls(momentum=d["momentum"])
        state.velocity = {k: np.asarray(v, dtype=float) for k, v in d["velocity"].items()}
        return state


def sgd_step(
    params: ModelParams,
    grads: dict[str, np.ndarray],
    lr: float,
    state: SgdState | None = None,
) -> ModelParams:
    """In-place SGD update of exactly the parameters named in `grads`."""
    for name, g in grads.items():
        if not np.all(np.isfinite(g)):
            raise NonFiniteGradientError(f"non-finite gradient for {name}")
        p = getattr(params, name)
        if p.shape != np.shape(g):
            raise ValueError(f"gradient shape {np.shape(g)} != param shape {p.shape} for {name}")
        if state is not None and state.momentum > 0:
            v = state.velocity.get(name)
            if v is None:
                v = np.zeros_like(p)
            v = state.momentum * v + g
            state.velocity[name] = v
            p -= lr * v
        else:
            p -= lr * np.asarray(g)
    return params


# --- checkpoints ---------------------------------------------------------------

def config_hash(config: dict) -> str:
    blob = json.dumps(config, sort_keys=True).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


def params_to_dict(params: ModelParams) -> dict:
    return {
        "scale": params.scale,
        "arrays": {
            name: {"shape": list(getattr(params, name).shape),
                   "data": getattr(params, name).ravel().tolist()}
            for name in params.array_fields()
        },
    }


def params_from_dict(d: dict) -> ModelParams:
    kw = {}
    for name, spec in d["arrays"].items():
        arr = np.asarray(spec["data"], dtype=float)
        expected = int(np.prod(spec["shape"]))
        if arr.size != expected:
            raise ValueError(f"checkpoint array {name}: {arr.size} values for shape {spec['shape']}")
        kw[name] = arr.reshape(spec["shape"])
    return ModelParams(**kw, scale=float(d["scale"]))


def check_shapes(params: ModelParams, expected: dict[str, tuple[int, ...]]) -> None:
    """Reject a loaded checkpoint whose shapes do not match the config."""
    for name, shape in expected.items():
        actual = getattr(params, name).shape
        if tuple(actual) != tuple(shape):
            raise ValueError(f"checkpoint shape mismatch for {name}: {actual} != {tuple(shape)}")
