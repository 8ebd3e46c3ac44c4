"""Training objectives of both branches, with analytic gradients.

Two building blocks and two composites:

* _prefix_terms  -- the contrastive kernel: weighted cross-entropy over the
                    off-diagonal softmax of pairwise similarities, for every
                    term at once (the pair index gives the unsupervised term;
                    blocks of one positiveness matrix the supervised and soft
                    ones)
* kl_regularizer -- KL(mean prediction || smoothed target distribution)
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
# The smallest temperature: a row's logits span at most 2 (1 + tol)^2 / T,
# which this bounds at 600. exp(-600) ~ 2.6e-261 is a normal double, with
# e^100 to spare for gamma / n_inc, so every prefix shares its row's shift.
MIN_TEMPERATURE = 2 * (1 + _UNIT_NORM_TOL) ** 2 / 600.0


class Scratch(dict):
    """Flat float buffers by slot, grown on demand: one run's contrastive calls
    reuse them as n x n work arrays instead of faulting in fresh pages. Each is
    an anonymous mapping, not heap memory, so holding it through a run leaves
    no hole in the heap, and its pages go back to the OS when the run ends."""

    def view(self, slot: str, n: int) -> np.ndarray:
        if slot not in self or self[slot].size < n * n:
            self[slot] = np.frombuffer(mmap.mmap(-1, 8 * n * n), dtype=float)
        return self[slot][: n * n].reshape(n, n)


def _prefix_terms(features, temperature: float, blocks: list, pairs: np.ndarray | None, scratch: Scratch | None):
    """The contrastive kernel: weighted terms over nested row prefixes of one
    batch, sharing one similarity GEMM, one row softmax and one gradient GEMM.

    Each (gamma, W) in `blocks` is a term over rows [0, k) with k x k weights
    `W`: per anchor i, sum_j W_ij * (-log p_ij) / sum_j W_ij over j != i,
    where p_i is the softmax of f_i.f_a / temperature over a != i. The
    diagonal of `W` is ignored, and `W` is left unchanged. Anchors whose
    off-diagonal mass is zero are excluded; a term's loss is the mean over
    the included anchors. `pairs[i]` (None: no such term) is row i's one
    positive among all rows, at weight 1. Returns the gradient of the
    gamma-weighted sum and [(loss, n_excluded)]: one per block, then the pairs
    term's. The n x n work happens in `scratch` (a new one when None).
    """
    F = np.asarray(features, dtype=float)
    if not temperature >= MIN_TEMPERATURE:  # NaN fails too
        raise ValueError(f"temperature must be >= {MIN_TEMPERATURE}, got {temperature}")
    n = F.shape[0]
    if n < 2:
        raise ValueError("a contrastive batch needs at least 2 rows")
    norms = np.linalg.norm(F, axis=1)
    if np.any(np.abs(norms - 1.0) > _UNIT_NORM_TOL):
        raise ValueError("contrastive features must be unit norm")
    scratch = Scratch() if scratch is None else scratch

    normed = []  # per block: W / (row mass * anchors included), the included rows, their count
    for t, (_, weights) in enumerate(blocks):
        k = np.shape(weights)[0]
        if np.shape(weights) != (k, k) or not 2 <= k <= n:
            raise ValueError(f"weights must be square over 2 to {n} rows, got {np.shape(weights)}")
        W = scratch.view(f"W{t}", k)
        W[...] = weights
        if not (W.min() >= 0 and W.max() < np.inf):  # NaN fails both comparisons
            raise ValueError("contrastive weights must be finite and nonnegative")
        np.fill_diagonal(W, 0.0)
        mass = W.sum(axis=1)
        included = mass > 0
        n_inc = int(included.sum())
        if n_inc == 0:
            raise ValueError("every anchor has zero weight mass")
        if n_inc < k:
            logger.debug("contrastive loss: %d anchors excluded (zero weight mass)", k - n_inc)
        W *= np.divide(1.0, mass * n_inc, out=np.zeros(k), where=included)[:, None]
        normed.append((W, included, n_inc))
    if pairs is not None and np.any(pairs == np.arange(n)):
        raise ValueError("a row cannot be its own positive")

    # two n x n buffers: S (logits - row max), E (exp, then G)
    F_t = F / temperature
    S = np.matmul(F_t, F.T, out=scratch.view("S", n))  # a GEMM: the operands are distinct buffers
    np.fill_diagonal(S, -np.inf)  # self is not a candidate
    S -= S.max(axis=1, keepdims=True)
    E = np.exp(S, out=scratch.view("E", n))
    ends = sorted({W.shape[0] for W, _, _ in normed} | {n})  # column bands [previous end, end)
    starts = [0] + ends[:-1]
    denom = np.cumsum(np.add.reduceat(E, starts, axis=1), axis=1)  # each row's sum over each prefix
    np.fill_diagonal(S, 0.0)  # the diagonal's weight is zero; avoid 0 * inf

    parts = []
    coef = np.zeros((n, len(ends)))  # per row and column band: the weight of E in G
    for (gamma, _), (W, included, n_inc) in zip(blocks, normed):
        k, band = W.shape[0], ends.index(W.shape[0])
        den = denom[:k, band]
        loss = np.log(den)[included].sum() / n_inc - np.einsum("ij,ij->", W, S[:k, :k])
        parts.append((float(loss), k - n_inc))
        coef[:k, : band + 1] += np.where(included, gamma / (n_inc * den), 0.0)[:, None]
    if pairs is not None:
        rows = np.arange(n)
        parts.append((float(np.log(denom[:, -1]).mean() - S[rows, pairs].mean()), 0))
        coef += 1.0 / (n * denom[:, -1:])

    G = E
    for band, (start, end) in enumerate(zip(starts, ends)):
        G[:, start:end] *= coef[:, band : band + 1]
    for (gamma, _), (W, _, _) in zip(blocks, normed):
        k = W.shape[0]
        G[:k, :k] -= W if gamma == 1.0 else np.multiply(W, gamma, out=W)
    if pairs is not None:
        G[rows, pairs] -= 1.0 / n
    grad = G @ F_t
    grad += G.T @ F_t  # BLAS reads G.T in place: cheaper than forming G + G.T
    return grad, parts


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


# --- pseudo-labeling branch objective --------------------------------------------

@dataclass
class ClassificationLoss:
    total: float
    l_s: float
    l_u: float
    l_reg: float
    grad: np.ndarray  # w.r.t. the stacked [labeled; unlabeled view 1; unlabeled view 2] logit rows
    n_gated: int


def classification_objective(
    labeled_logits: np.ndarray,
    labels: np.ndarray,
    unl_logits_v1: np.ndarray,
    unl_logits_v2: np.ndarray,
    target_dist: np.ndarray,
    eta1: float,
    eta2: float,
    smoothing_p: float,
    conf_gate: float,
) -> ClassificationLoss:
    """Composite pseudo-labeling objective: L_s + eta1*L_u + eta2*L_reg.

    L_s: mean cross-entropy on the labeled logits (omitted when empty).
    L_u: cross pseudo supervision between two views of every unlabeled
         sample; each view is supervised by the other view's argmax when that
         view's confidence clears `conf_gate`, normalized by 2 * n_unlabeled.
    L_reg: KL between the mean softmax prediction over every row passed in
         and the smoothed target distribution.

    The blocks are stacked and normalized once, and every term reads rows of
    that softmax; `grad` covers the stacked rows.
    """
    C = len(target_dist)
    blocks = [np.asarray(a, dtype=float).reshape(-1, C) for a in (labeled_logits, unl_logits_v1, unl_logits_v2)]
    if blocks[1].shape != blocks[2].shape:
        raise ValueError("the two unlabeled views must pair up")
    n_l, n_u = blocks[0].shape[0], blocks[1].shape[0]
    L = np.concatenate(blocks, axis=0)
    if L.shape[0] == 0:
        raise ValueError("classification objective needs at least one logit row")
    shifted = L - L.max(axis=1, keepdims=True)
    E = np.exp(shifted)
    mass = E.sum(axis=1, keepdims=True)
    P = E / mass
    log_P = shifted - np.log(mass)
    grad = np.zeros_like(L)

    def cross_entropy(rows, y, weight, norm):
        """Adds weight / norm times the cross-entropy gradient of `rows`
        toward classes `y` to `grad`; returns their log-probabilities of `y`."""
        g = P[rows]
        g[np.arange(rows.size), y] -= 1.0
        grad[rows] += weight * g / norm
        return log_P[rows, y]

    if n_l == 0:
        logger.warning("classification objective: empty labeled batch, L_s omitted")
        l_s = 0.0
    else:
        l_s = float(-cross_entropy(np.arange(n_l), np.asarray(labels, dtype=int), 1.0, n_l).mean())

    l_u = 0.0
    n_gated = 0
    norm = 2.0 * n_u
    # view 2 (rows from n_l + n_u) supervised by view 1's (rows from n_l) pseudo-label, and vice versa
    for src, dst in ((n_l, n_l + n_u), (n_l + n_u, n_l)):
        p_src = P[src : src + n_u]
        gated = np.flatnonzero(p_src.max(axis=1) >= conf_gate)
        l_u += (-cross_entropy(dst + gated, p_src[gated].argmax(axis=1), eta1, norm) / norm).sum()
        n_gated += gated.size

    mean_pred = P.mean(axis=0)
    l_reg, g_mean = kl_regularizer(mean_pred, target_dist, smoothing_p)
    # chain through softmax and the row mean
    g_rows = (P * (g_mean[None, :] - (P @ g_mean)[:, None])) / L.shape[0]
    g_rows *= eta2
    grad += g_rows

    l_u = float(l_u)
    total = float(l_s + eta1 * l_u + eta2 * l_reg)
    return ClassificationLoss(total=total, l_s=l_s, l_u=l_u, l_reg=l_reg, grad=grad, n_gated=n_gated)


# --- contrastive branch objective --------------------------------------------------

@dataclass
class ContrastiveLossParts:
    total: float
    l_unsup: float
    l_sup: float
    l_soft: float
    grad: np.ndarray
    n_soft_anchors: int
    n_soft_excluded: int


def contrastive_objective(
    features: np.ndarray,
    other_view: np.ndarray,
    weights: np.ndarray,
    n_labeled: int,
    temperature: float,
    gamma1: float,
    gamma2: float,
    scratch: Scratch | None = None,
) -> ContrastiveLossParts:
    """Composite contrastive objective over one batch of projected views.

    features holds every view in the batch (unit rows), ordered so that each
    term covers a prefix: the unsupervised term covers every row, with
    other_view[i] (the same sample's second view) as row i's one positive.
    `weights` is the m x m positiveness matrix of rows [0, m), whose first
    `n_labeled` rows are labeled views entered as their one-hot labels, so
    that block is the same-class indicator. The supervised term is that
    block and the soft term the whole matrix. A term over fewer than two
    rows or at a zero gamma (warm-up passes gamma2 = 0) is skipped and reads
    0. All terms are one `_prefix_terms` call, in `scratch` (a new one when
    None).
    """
    m = len(weights)
    if not 0 <= n_labeled <= m:
        raise ValueError(f"{n_labeled} labeled rows do not fit the {m}-row weight matrix")
    sup_on = n_labeled >= 2 and gamma1 > 0
    soft_on = m >= 2 and gamma2 > 0
    blocks = [(gamma1, weights[:n_labeled, :n_labeled])] if sup_on else []
    if soft_on:
        blocks.append((gamma2, weights))
    grad, parts = _prefix_terms(features, temperature, blocks, np.asarray(other_view), scratch)
    l_unsup = parts.pop()[0]
    l_sup = parts.pop(0)[0] if sup_on else 0.0
    l_soft, n_soft_excluded = parts.pop(0) if soft_on else (0.0, 0)
    return ContrastiveLossParts(
        total=float(l_unsup + gamma1 * l_sup + gamma2 * l_soft),
        l_unsup=l_unsup,
        l_sup=l_sup,
        l_soft=l_soft,
        grad=grad,
        n_soft_anchors=m if soft_on else 0,
        n_soft_excluded=n_soft_excluded,
    )
