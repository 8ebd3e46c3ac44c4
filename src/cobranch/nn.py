"""Minimal differentiable core: encoder MLP, unit-norm projector, cosine
classifier, SGD with momentum, cosine LR schedule.

Everything is float64 numpy with hand-written backward passes. Forward
functions return caches consumed by the matching backward functions;
parameter gradients are plain dicts keyed by ModelParams field names so an
optimizer step can touch exactly one branch's parameters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np

from ._rng import INIT, rng_for

_ZERO_NORM_EPS = 1e-12


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
    scale: float

    ENCODER_FIELDS = ("enc_w1", "enc_b1", "enc_w2", "enc_b2")
    PROJECTOR_FIELDS = ("proj_w1", "proj_b1", "proj_w2", "proj_b2")

    @property
    def d_in(self) -> int:
        return self.enc_w1.shape[0]

    @property
    def d_feat(self) -> int:
        return self.enc_w2.shape[1]

    def array_fields(self) -> list[str]:
        return [f.name for f in fields(self) if f.name != "scale"]

    def check_finite(self) -> None:
        for name in self.array_fields():
            if not np.all(np.isfinite(getattr(self, name))):
                raise FloatingPointError(f"parameter {name} is not finite")


def init_params(
    d_in: int,
    d_hidden: int,
    d_feat: int,
    d_proj_hidden: int,
    d_proj: int,
    num_classes: int,
    seed: int,
    scale: float,
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


def _as_batch(x: np.ndarray, dim: int, what: str) -> np.ndarray:
    """`x` as a float array of rows of width `dim`."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 2 or x.shape[1] != dim:
        raise ValueError(f"{what}: expected rows of dimension {dim}, got shape {x.shape}")
    return x


# --- shared pieces -------------------------------------------------------------

def _mlp_forward(X: np.ndarray, w1, b1, w2, b2):
    """`tanh(X w1 + b1) w2 + b2` and the hidden activations."""
    H = np.tanh(X @ w1 + b1)
    return H @ w2 + b2, H


def _mlp_backward(X: np.ndarray, H: np.ndarray, w1, w2, dY: np.ndarray):
    """Returns (dw1, db1, dw2, db2, gradient w.r.t. X) of `_mlp_forward`."""
    dw2, db2 = H.T @ dY, dY.sum(axis=0)
    dA = (dY @ w2.T) * (1.0 - H**2)
    return X.T @ dA, dA.sum(axis=0), dw2, db2, dA @ w1.T


def _unit_row_backward(dU: np.ndarray, U: np.ndarray, norms: np.ndarray) -> np.ndarray:
    """Gradient w.r.t. the rows whose unit rows are `U` and norms `norms`."""
    inner = (dU * U).sum(axis=1, keepdims=True)
    return (dU - inner * U) / norms[:, None]


# --- encoder ---------------------------------------------------------------

def encode_forward(params: ModelParams, x: np.ndarray):
    X = _as_batch(x, params.d_in, "encode")
    Z, H = _mlp_forward(X, params.enc_w1, params.enc_b1, params.enc_w2, params.enc_b2)
    return Z, (X, H)


def encode(params: ModelParams, x: np.ndarray) -> np.ndarray:
    return encode_forward(params, x)[0]


def encode_backward(params: ModelParams, cache, dZ: np.ndarray):
    """Returns (param grads dict, gradient w.r.t. the input)."""
    *grads, dX = _mlp_backward(*cache, params.enc_w1, params.enc_w2, dZ)
    return dict(zip(params.ENCODER_FIELDS, grads)), dX


# --- projector ---------------------------------------------------------------

def project_forward(params: ModelParams, z: np.ndarray):
    Z = _as_batch(z, params.d_feat, "project")
    Q, G = _mlp_forward(Z, params.proj_w1, params.proj_b1, params.proj_w2, params.proj_b2)
    norms = np.linalg.norm(Q, axis=1)
    fallback = norms <= _ZERO_NORM_EPS
    U = np.zeros_like(Q)
    U[~fallback] = Q[~fallback] / norms[~fallback, None]
    U[fallback, 0] = 1.0
    return U, (Z, G, Q, norms, fallback)


def project_backward(params: ModelParams, cache, dU: np.ndarray):
    Z, G, Q, norms, fallback = cache
    ok = ~fallback  # a fallback row has no usable direction: its gradient is dropped
    dQ = np.zeros_like(Q)
    dQ[ok] = _unit_row_backward(dU[ok], Q[ok] / norms[ok, None], norms[ok])
    *grads, dZ = _mlp_backward(Z, G, params.proj_w1, params.proj_w2, dQ)
    return dict(zip(params.PROJECTOR_FIELDS, grads)), dZ


# --- cosine classifier -------------------------------------------------------

def classify_forward(params: ModelParams, z: np.ndarray):
    Z = _as_batch(z, params.d_feat, "classify")
    z_norms = np.linalg.norm(Z, axis=1)
    if np.any(z_norms <= _ZERO_NORM_EPS):
        raise ValueError("classify: zero feature vector has no direction")
    w_norms = np.linalg.norm(params.cls_w, axis=1)
    if np.any(w_norms <= _ZERO_NORM_EPS):
        raise ValueError("classify: zero classifier row has no direction")
    Zh = Z / z_norms[:, None]
    Wh = params.cls_w / w_norms[:, None]
    L = params.scale * (Zh @ Wh.T)
    return L, (Z, z_norms, Zh, Wh, w_norms)


def classify(params: ModelParams, z: np.ndarray) -> np.ndarray:
    """Scaled cosine logits, one per class; invariant to positive rescaling of z."""
    return classify_forward(params, z)[0]


def classify_backward(params: ModelParams, cache, dL: np.ndarray):
    Z, z_norms, Zh, Wh, w_norms = cache
    s = params.scale
    dZ = _unit_row_backward(s * (dL @ Wh), Zh, z_norms)
    dW = _unit_row_backward(s * (dL.T @ Zh), Wh, w_norms)
    return {"cls_w": dW}, dZ


# --- composite branch passes -------------------------------------------------

def classifier_branch_forward(params: ModelParams, x: np.ndarray):
    """Encoder + cosine classifier: logits plus a joint cache."""
    Z, enc_cache = encode_forward(params, x)
    L, cls_cache = classify_forward(params, Z)
    return L, (enc_cache, cls_cache)


def classifier_branch_backward(params: ModelParams, cache, dL: np.ndarray) -> dict:
    enc_cache, cls_cache = cache
    cls_grads, dZ = classify_backward(params, cls_cache, dL)
    enc_grads, _ = encode_backward(params, enc_cache, dZ)
    return {**enc_grads, **cls_grads}


def contrastive_branch_forward(params: ModelParams, x: np.ndarray):
    """Encoder + projector: unit features plus a joint cache."""
    Z, enc_cache = encode_forward(params, x)
    U, proj_cache = project_forward(params, Z)
    return U, (enc_cache, proj_cache)


def contrastive_branch_backward(params: ModelParams, cache, dU: np.ndarray) -> dict:
    enc_cache, proj_cache = cache
    proj_grads, dZ = project_backward(params, proj_cache, dU)
    enc_grads, _ = encode_backward(params, enc_cache, dZ)
    return {**enc_grads, **proj_grads}


# --- optimization -------------------------------------------------------------

def cosine_lr(epoch: int, base_lr: float, total_epochs: int) -> float:
    """base_lr * 0.5 * (1 + cos(pi * epoch / total_epochs))."""
    if not 0 <= epoch < total_epochs:
        raise ValueError(f"epoch {epoch} outside [0, {total_epochs})")
    return base_lr * 0.5 * (1.0 + math.cos(math.pi * epoch / total_epochs))


@dataclass
class SgdState:
    """Momentum buffers, lazily created per parameter name."""

    momentum: float
    velocity: dict[str, np.ndarray] = field(default_factory=dict)


def sgd_step(
    params: ModelParams,
    grads: dict[str, np.ndarray],
    lr: float,
    state: SgdState,
) -> None:
    """In-place SGD update of exactly the parameters named in `grads`; plain
    SGD when `state.momentum` is 0."""
    for name, g in grads.items():
        if not np.all(np.isfinite(g)):
            raise FloatingPointError(f"non-finite gradient for {name}")
        p = getattr(params, name)
        if p.shape != np.shape(g):
            raise ValueError(f"gradient shape {np.shape(g)} != param shape {p.shape} for {name}")
        if state.momentum > 0:
            v = state.velocity.get(name)
            if v is None:
                v = np.zeros_like(p)
            v = state.momentum * v + g
            state.velocity[name] = v
            p -= lr * v
        else:
            p -= lr * np.asarray(g)

