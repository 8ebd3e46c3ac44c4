"""Training objectives of both branches, with analytic gradients.

Three building blocks and two composites:

* contrastive_loss       -- weighted cross-entropy over the off-diagonal softmax
                            of pairwise similarities: the one kernel behind every
                            contrastive term (one-hot rows give the unsupervised
                            term, the same-class indicator the supervised one,
                            positiveness weights the soft one)
* hard_indicator_weights -- the same-class indicator weight matrix
* kl_regularizer         -- KL(mean prediction || smoothed target distribution)
* classification_objective -- supervised CE + cross pseudo supervision + KL
* contrastive_objective    -- unsupervised + supervised + soft contrastive

All softmax/log-softmax paths are max-subtracted. Gradients are with respect
to the raw feature/logit arrays; callers chain them through the network.
"""

from __future__ import annotations

import logging
import mmap
from dataclasses import dataclass

import numpy as np

logger = logging.getLogger(__name__)

_UNIT_NORM_TOL = 1e-3
_SIMPLEX_TOL = 1e-4


@dataclass(frozen=True)
class LossWeights:
    """Composite-objective weights: eta* for the pseudo-labeling branch,
    gamma* for the contrastive branch."""

    eta1: float = 1.0
    eta2: float = 1.0
    gamma1: float = 1.0
    gamma2: float = 1.0

    def __post_init__(self):
        if min(self.eta1, self.eta2, self.gamma1, self.gamma2) < 0:
            raise ValueError("loss weights must be nonnegative")


class Scratch(dict):
    """Flat float buffers by slot, grown on demand: one run's contrastive calls
    reuse them as n x n work arrays instead of faulting in fresh pages. Each is
    an anonymous mapping, not heap memory, so holding it through a run leaves
    no hole in the heap, and its pages go back to the OS when the run ends."""

    def view(self, slot: str, n: int) -> np.ndarray:
        if slot not in self or self[slot].size < n * n:
            self[slot] = np.frombuffer(mmap.mmap(-1, 8 * n * n), dtype=float)
        return self[slot][: n * n].reshape(n, n)


def contrastive_loss(features: np.ndarray, weights: np.ndarray, temperature: float, scratch: Scratch | None = None):
    """Weighted contrastive loss; returns (scalar, grad wrt features, n_excluded).

    Per anchor i: sum_j w_ij * (-log p_ij) / sum_j w_ij over j != i, where
    p_i is the softmax of z_i.z_a / temperature over a != i. The diagonal of
    `weights` is ignored. Anchors whose off-diagonal weight mass is zero are
    excluded; the scalar is the mean over the included anchors. The n x n work
    happens in `scratch` (a new one when None); `weights` is left unchanged.
    """
    F = np.asarray(features, dtype=float)
    if temperature <= 0:
        raise ValueError(f"temperature must be positive, got {temperature}")
    n = F.shape[0]
    if n < 2:
        raise ValueError("a contrastive batch needs at least 2 rows")
    norms = np.linalg.norm(F, axis=1)
    if np.any(np.abs(norms - 1.0) > _UNIT_NORM_TOL):
        raise ValueError("contrastive features must be unit norm")
    if np.shape(weights) != (n, n):
        raise ValueError(f"weights must be {n}x{n}, got {np.shape(weights)}")
    scratch = Scratch() if scratch is None else scratch
    W = scratch.view("W", n)
    W[...] = weights
    if not (W.min() >= 0 and W.max() < np.inf):  # NaN fails both comparisons
        raise ValueError("contrastive weights must be finite and nonnegative")
    np.fill_diagonal(W, 0.0)
    row_mass = W.sum(axis=1)
    included = row_mass > 0
    n_inc = int(included.sum())
    n_exc = n - n_inc
    if n_inc == 0:
        raise ValueError("every anchor has zero weight mass")
    if n_exc:
        logger.debug("contrastive loss: %d anchors excluded (zero weight mass)", n_exc)

    # three buffers: S (logits, then -log p, then G + G.T), E (p, then G), W (Wbar)
    S = np.matmul(F, F.T, out=scratch.view("S", n))  # F @ F.T takes the SYRK path
    S /= temperature
    np.fill_diagonal(S, -np.inf)  # self is not a candidate
    S -= S.max(axis=1, keepdims=True)
    E = np.exp(S, out=scratch.view("E", n))
    denom = E.sum(axis=1, keepdims=True)
    E /= denom
    neg_log_p = np.subtract(np.log(denom), S, out=S)
    np.fill_diagonal(neg_log_p, 0.0)  # diagonal weight is zero; avoid 0 * inf
    W /= np.where(included, row_mass, 1.0)[:, None]
    loss = float(np.multiply(W, neg_log_p, out=S).sum() / n_inc)
    G = np.subtract(E, W, out=E)
    G /= n_inc
    G[~included] = 0.0
    grad = np.add(G, G.T, out=S) @ F / temperature  # into S: no overlap copy of G.T
    return loss, grad, n_exc


def hard_indicator_weights(classes: np.ndarray) -> np.ndarray:
    """Same-class indicator weights with a zero diagonal: the supervised
    term's positives. soft_mode="hard" needs no call here: the positiveness
    matrix of one-hot rows is this same indicator under every metric."""
    c = np.asarray(classes, dtype=int)
    W = (c[:, None] == c[None, :]).astype(float)
    np.fill_diagonal(W, 0.0)
    return W


# --- distribution regularizer -------------------------------------------------

def smooth_target(target: np.ndarray, smoothing_p: float) -> np.ndarray:
    """Elementwise power then renormalize; p=0 gives uniform, p=1 the input."""
    if not 0 <= smoothing_p <= 1:
        raise ValueError(f"smoothing exponent must be in [0, 1], got {smoothing_p}")
    t = np.asarray(target, dtype=float) ** smoothing_p
    s = t.sum()
    if s <= 0:
        raise ValueError("smoothed target has no mass")
    return t / s


def kl_regularizer(mean_pred: np.ndarray, target: np.ndarray, smoothing_p: float):
    """KL(mean_pred || smooth_target(target, p)); returns (scalar, grad).

    The gradient is with respect to mean_pred as a free vector (the simplex
    constraint is the caller's concern). 0 * log 0 counts as 0.
    """
    m = np.asarray(mean_pred, dtype=float)
    t = np.asarray(target, dtype=float)
    if m.shape != t.shape:
        raise ValueError("distribution shapes differ")
    for name, v in (("mean_pred", m), ("target", t)):
        if np.any(v < 0) or abs(v.sum() - 1.0) > _SIMPLEX_TOL:
            raise ValueError(f"{name} is not a probability vector")
    st = smooth_target(t, smoothing_p)
    pos = m > 0
    if np.any(pos & (st <= 0)):
        raise ValueError("support mismatch: smoothed target is zero where mean_pred is positive")
    loss = float((m[pos] * np.log(m[pos] / st[pos])).sum())
    grad = np.zeros_like(m)
    grad[pos] = np.log(m[pos] / st[pos]) + 1.0
    return loss, grad


# --- softmax helpers ------------------------------------------------------------

def softmax(logits: np.ndarray) -> np.ndarray:
    L = np.asarray(logits, dtype=float)
    m = L.max(axis=-1, keepdims=True)
    E = np.exp(L - m)
    return E / E.sum(axis=-1, keepdims=True)


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    L = np.asarray(logits, dtype=float)
    m = L.max(axis=-1, keepdims=True)
    return (L - m) - np.log(np.exp(L - m).sum(axis=-1, keepdims=True))


def _mean_cross_entropy(logits: np.ndarray, labels: np.ndarray):
    """Mean CE and its gradient w.r.t. the logits."""
    n = logits.shape[0]
    log_p = _log_softmax(logits)
    idx = np.arange(n)
    loss = float(-log_p[idx, labels].mean())
    grad = softmax(logits)
    grad[idx, labels] -= 1.0
    grad /= n
    return loss, grad


# --- pseudo-labeling branch objective --------------------------------------------

@dataclass
class ClassificationLoss:
    total: float
    l_s: float
    l_u: float
    l_reg: float
    grad_labeled: np.ndarray
    grad_unl_v1: np.ndarray
    grad_unl_v2: np.ndarray
    n_gated: int
    l_s_omitted: bool


def classification_objective(
    labeled_logits: np.ndarray,
    labels: np.ndarray,
    unl_logits_v1: np.ndarray,
    unl_logits_v2: np.ndarray,
    target_dist: np.ndarray,
    weights: LossWeights,
    smoothing_p: float,
    conf_gate: float = 0.5,
) -> ClassificationLoss:
    """Composite pseudo-labeling objective: L_s + eta1*L_u + eta2*L_reg.

    L_s: mean cross-entropy on the labeled logits (omitted when empty).
    L_u: cross pseudo supervision between two views of every unlabeled
         sample; each view is supervised by the other view's argmax when that
         view's confidence clears `conf_gate`, normalized by 2 * n_unlabeled.
    L_reg: KL between the mean softmax prediction over every row passed in
         and the smoothed target distribution.
    """
    labeled_logits = np.asarray(labeled_logits, dtype=float).reshape(-1, len(target_dist))
    unl_logits_v1 = np.asarray(unl_logits_v1, dtype=float).reshape(-1, len(target_dist))
    unl_logits_v2 = np.asarray(unl_logits_v2, dtype=float).reshape(-1, len(target_dist))
    if unl_logits_v1.shape != unl_logits_v2.shape:
        raise ValueError("the two unlabeled views must pair up")
    n_l, n_u = labeled_logits.shape[0], unl_logits_v1.shape[0]

    grad_lab = np.zeros_like(labeled_logits)
    grad_v1 = np.zeros_like(unl_logits_v1)
    grad_v2 = np.zeros_like(unl_logits_v2)

    l_s_omitted = n_l == 0
    if l_s_omitted:
        logger.warning("classification objective: empty labeled batch, L_s omitted")
        l_s = 0.0
    else:
        l_s, g = _mean_cross_entropy(labeled_logits, np.asarray(labels, dtype=int))
        grad_lab += g

    l_u = 0.0
    n_gated = 0
    p1 = softmax(unl_logits_v1)
    p2 = softmax(unl_logits_v2)
    norm = 2.0 * n_u
    # view 2 supervised by view 1's pseudo-label, and vice versa
    for p_src, p_dst, logits_dst, grad_dst in (
        (p1, p2, unl_logits_v2, grad_v2),
        (p2, p1, unl_logits_v1, grad_v1),
    ):
        gated = np.flatnonzero(p_src.max(axis=1) >= conf_gate)
        y = p_src[gated].argmax(axis=1)
        l_u += (-_log_softmax(logits_dst)[gated, y] / norm).sum()
        g = p_dst[gated]
        g[np.arange(gated.size), y] -= 1.0
        grad_dst[gated] += weights.eta1 * g / norm
        n_gated += gated.size

    all_logits = np.concatenate([labeled_logits, unl_logits_v1, unl_logits_v2], axis=0)
    if all_logits.shape[0] == 0:
        raise ValueError("classification objective needs at least one logit row")
    P = softmax(all_logits)
    mean_pred = P.mean(axis=0)
    l_reg, g_mean = kl_regularizer(mean_pred, target_dist, smoothing_p)
    # chain through softmax and the row mean
    g_rows = (P * (g_mean[None, :] - (P @ g_mean)[:, None])) / all_logits.shape[0]
    g_rows *= weights.eta2
    grad_lab += g_rows[:n_l]
    grad_v1 += g_rows[n_l : n_l + n_u]
    grad_v2 += g_rows[n_l + n_u :]

    l_u = float(l_u)
    total = float(l_s + weights.eta1 * l_u + weights.eta2 * l_reg)
    return ClassificationLoss(
        total=total,
        l_s=l_s,
        l_u=l_u,
        l_reg=l_reg,
        grad_labeled=grad_lab,
        grad_unl_v1=grad_v1,
        grad_unl_v2=grad_v2,
        n_gated=n_gated,
        l_s_omitted=l_s_omitted,
    )


# --- contrastive branch objective --------------------------------------------------

@dataclass
class ContrastiveLossParts:
    total: float
    l_unsup: float
    l_sup: float
    l_soft: float
    grad: np.ndarray
    n_soft_excluded: int


def contrastive_objective(
    features: np.ndarray,
    other_view: np.ndarray,
    labeled_idx: np.ndarray,
    labeled_classes: np.ndarray,
    soft_idx: np.ndarray,
    soft_weights: np.ndarray | None,
    temperature: float,
    weights: LossWeights,
    scratch: Scratch | None = None,
) -> ContrastiveLossParts:
    """Composite contrastive objective over one batch of projected views.

    features holds every view in the batch (unit rows); other_view[i] is the
    index of the same sample's second view. Each term is one contrastive_loss
    call: the unsupervised term over all rows with the other view as the only
    positive, the supervised term over the labeled subset with same-class
    positives, and the soft term over `soft_idx` with pairwise weights
    `soft_weights`. The soft term is skipped (l_soft = 0) when `soft_idx` has
    fewer than two rows, so warm-up passes an empty `soft_idx` and no weights.
    All three calls share `scratch` (a new one when None).
    """
    features = np.asarray(features, dtype=float)
    n = features.shape[0]
    grad = np.zeros_like(features)
    scratch = Scratch() if scratch is None else scratch

    W = scratch.view("one_hot", n)
    W.fill(0.0)
    W[np.arange(n), other_view] = 1.0
    l_unsup, g, _ = contrastive_loss(features, W, temperature, scratch)
    grad += g

    l_sup = 0.0
    labeled_idx = np.asarray(labeled_idx, dtype=int)
    if labeled_idx.size >= 2 and weights.gamma1 > 0:
        W = hard_indicator_weights(labeled_classes)
        l_sup, g, _ = contrastive_loss(features[labeled_idx], W, temperature, scratch)
        grad[labeled_idx] += weights.gamma1 * g

    l_soft = 0.0
    n_excluded = 0
    soft_idx = np.asarray(soft_idx, dtype=int)
    if soft_idx.size >= 2 and weights.gamma2 > 0:
        if soft_weights is None:
            raise ValueError("soft term requested without a positiveness matrix")
        l_soft, g, n_excluded = contrastive_loss(features[soft_idx], soft_weights, temperature, scratch)
        grad[soft_idx] += weights.gamma2 * g

    total = float(l_unsup + weights.gamma1 * l_sup + weights.gamma2 * l_soft)
    return ContrastiveLossParts(
        total=total,
        l_unsup=l_unsup,
        l_sup=l_sup,
        l_soft=l_soft,
        grad=grad,
        n_soft_excluded=n_excluded,
    )
