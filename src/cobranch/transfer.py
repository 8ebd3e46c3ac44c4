"""Knowledge transfer from the pseudo-labeling branch to the contrastive one.

Three steps: rectify classifier logits against the estimated class
distribution (post-hoc logit adjustment), subsample pseudo-labeled instances
at class-dependent rates favoring rare classes, and score pairwise
positiveness between class-probability vectors for the soft contrastive loss.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .losses import softmax

SIMILARITY_METRICS = ("dot", "cosine", "l1", "l2")
_SIMPLEX_TOL = 1e-6


@dataclass(frozen=True)
class SamplingConfig:
    """Debias strength k and the two sampling-rate exponents."""

    alpha: float = 0.8
    beta: float = 0.5
    k: float = 0.5

    def __post_init__(self):
        if not 0 <= self.alpha <= 1 or not 0 <= self.beta <= 1:
            raise ValueError("alpha and beta must lie in [0, 1]")
        if self.k < 0:
            raise ValueError("debias strength k must be nonnegative")


@dataclass
class PseudoLabelBatch:
    """Rectified probabilities with argmax class, confidence and a mask."""

    probs: np.ndarray
    pred_class: np.ndarray
    confidence: np.ndarray
    mask: np.ndarray
    ids: np.ndarray

    @classmethod
    def from_probs(cls, probs: np.ndarray, ids: np.ndarray | None = None) -> "PseudoLabelBatch":
        probs = np.atleast_2d(np.asarray(probs, dtype=float))
        if ids is None:
            ids = np.arange(probs.shape[0])
        # argmax ties break toward the lowest class index
        pred = probs.argmax(axis=1)
        return cls(
            probs=probs,
            pred_class=pred.astype(int),
            confidence=probs.max(axis=1),
            mask=np.zeros(probs.shape[0], dtype=bool),
            ids=np.asarray(ids, dtype=int),
        )


def debias(logits: np.ndarray, pi_e: np.ndarray, k: float) -> np.ndarray:
    """Rectified probabilities: softmax(logits - k * log(pi_e)).

    pi_e must be strictly positive (floor it upstream); k=0 is plain softmax.
    """
    L = np.asarray(logits, dtype=float)
    if not np.all(np.isfinite(L)):
        raise ValueError("logits contain non-finite values")
    pi = np.asarray(pi_e, dtype=float)
    if np.any(pi <= 0):
        raise ValueError("estimated distribution must be strictly positive")
    return softmax(L - k * np.log(pi))


def sampling_rates(
    pi_e: np.ndarray,
    batch_known_labels,
    alpha: float,
    beta: float,
) -> np.ndarray:
    """Per-class selection rate (pi_c / min(pi))^-alpha or ^-beta.

    The alpha branch applies to known classes present in the current batch's
    labeled samples; everything else (including all novel classes) uses beta.
    """
    if not 0 <= alpha <= 1 or not 0 <= beta <= 1:
        raise ValueError("alpha and beta must lie in [0, 1]")
    pi = np.asarray(pi_e, dtype=float)
    if np.any(pi <= 0):
        raise ValueError("estimated distribution must be strictly positive")
    ratio = pi / pi.min()
    in_batch = np.zeros(pi.size, dtype=bool)
    for c in set(int(c) for c in batch_known_labels):
        if not 0 <= c < pi.size:
            raise ValueError(f"batch label {c} outside the class range")
        in_batch[c] = True
    exponent = np.where(in_batch, alpha, beta)
    return ratio ** (-exponent)


def sample_pseudolabels(batch: PseudoLabelBatch, rates: np.ndarray) -> PseudoLabelBatch:
    """Confidence-prioritized selection: per predicted class c with m_c
    instances, keep the ceil(SR_c * m_c) most confident (ties: lower id)."""
    rates = np.asarray(rates, dtype=float)
    if np.any(rates < 0) or np.any(rates > 1):
        raise ValueError("sampling rates must lie in [0, 1]")
    mask = np.zeros(batch.probs.shape[0], dtype=bool)
    for c in np.unique(batch.pred_class):
        members = np.flatnonzero(batch.pred_class == c)
        take = math.ceil(rates[c] * members.size)
        if take <= 0:
            continue
        order = members[np.lexsort((batch.ids[members], -batch.confidence[members]))]
        mask[order[:take]] = True
    return replace(batch, mask=mask)


def build_positiveness_matrix(probs: np.ndarray, metric: str = "dot") -> np.ndarray:
    """Pairwise positiveness over a batch of simplex vectors.

    dot:    <p_i, p_j>                      (same-class probability reading)
    cosine: <p_i, p_j> / (|p_i| |p_j|)
    l1:     1 - |p_i - p_j|_1 / 2
    l2:     1 - |p_i - p_j|_2 / sqrt(2)
    The l1/l2 denominators are the maximal simplex distances, so every metric
    lands in [0, 1]. The diagonal is zeroed: self-pairs are never used.
    """
    if metric not in SIMILARITY_METRICS:
        raise ValueError(f"unknown similarity metric {metric!r}")
    P = np.atleast_2d(np.asarray(probs, dtype=float))
    if np.any(P < -_SIMPLEX_TOL) or np.any(np.abs(P.sum(axis=1) - 1.0) > _SIMPLEX_TOL):
        raise ValueError("positiveness inputs must be probability vectors")
    if metric == "dot":
        W = P @ P.T
    elif metric == "cosine":
        norms = np.linalg.norm(P, axis=1)
        W = (P @ P.T) / np.outer(norms, norms)
    elif metric == "l1":
        d = np.abs(P[:, None, :] - P[None, :, :]).sum(axis=2)
        W = 1.0 - d / 2.0
    else:
        d = np.sqrt(((P[:, None, :] - P[None, :, :]) ** 2).sum(axis=2))
        W = 1.0 - d / math.sqrt(2.0)
    np.clip(W, 0.0, 1.0, out=W)
    np.fill_diagonal(W, 0.0)
    return W


def one_hot(classes: np.ndarray, num_classes: int) -> np.ndarray:
    """Ground-truth probability vectors for labeled samples."""
    classes = np.asarray(classes, dtype=int)
    out = np.zeros((classes.size, num_classes))
    out[np.arange(classes.size), classes] = 1.0
    return out

