"""Independent verification machinery for the test suite.

Everything here deliberately avoids the library's own computational paths:
finite differences instead of analytic gradients, exhaustive enumeration
and a re-solving tie-break instead of the assignment solver, broadcast
distances and per-cluster loops instead of the GEMM k-means, projected
gradient descent instead of the closed-form optimum, nearest-mean
classification instead of the encoder, a per-anchor loop over positive-set
lists and one softmax per term instead of the shared contrastive kernel,
an explicit same-class comparison instead of the labeled block of the
positiveness matrix,
one softmax per logit block instead of the stacked pseudo-labeling
objective, one `float()` call per value instead of the one-pass CSV
parser, one `repr()` per value in one process instead of the forked
CSV writer, one sort per predicted class instead of one batch-wide
pseudo-label ranking, each backward pass of the network written out in
full instead of the shared two-layer block and unit-row step, one
rounding per class instead of the long-tail profile's array rounding. The
parameter-vector and two-vector positiveness helpers only reshape what the
library computes; the package itself has no use for them, nor for the
synthetic pool and the inverse alignment kept here for tests. Two helpers
are not oracles at all: `cli_defaults` hands tests the objects a CLI run
builds from `config.DEFAULTS`, the only place a default is written, and
`contrastive_loss` calls the package's contrastive kernel on one term.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from cobranch import config, losses
from cobranch._rng import KMEANS, rng_for
from cobranch.config import ModelConfig, TrainConfig
from cobranch.data import EmbeddingFormatError, make_class_means, sample_from_means
from cobranch.estimate import AlignmentMap
from cobranch.nn import ModelParams
from cobranch.transfer import build_positiveness_matrix


def cli_defaults(overrides: dict | None = None, seed: int = 0) -> tuple[ModelConfig, TrainConfig]:
    """The model and training objects a CLI run builds from the defaults
    overlaid with `overrides`, a nested config dict."""
    return config.to_train_objects(config.effective_config(overrides), seed)


MODEL, TRAIN = cli_defaults()
# keyword arguments of `estimate.kmeans` and `estimate.estimate_round`, and of `evaluation.evaluate`
KMEANS_ARGS = {"max_iter": TRAIN.kmeans_max_iter, "n_init": TRAIN.kmeans_n_init}
EVAL_ARGS = config.effective_config(None)["eval"]


def contrastive_loss(features, weights, temperature: float, scratch: losses.Scratch | None = None):
    """The contrastive kernel on one term over every row, at weight 1:
    (loss, grad wrt features, n_excluded); `weights` must be n x n."""
    n = np.shape(features)[0]
    if np.shape(weights) != (n, n):
        raise ValueError(f"weights must be {n}x{n}, got {np.shape(weights)}")
    grad, [(loss, n_excluded)] = losses._prefix_terms(features, temperature, [(1.0, weights)], None, scratch)
    return loss, grad, n_excluded


def central_fd(fn, x0: np.ndarray, step: float = 1e-5) -> np.ndarray:
    """Central finite-difference gradient of a scalar function."""
    x0 = np.asarray(x0, dtype=float)
    g = np.empty_like(x0)
    for i in range(x0.size):
        xp = x0.copy()
        xp[i] += step
        xm = x0.copy()
        xm[i] -= step
        g[i] = (fn(xp) - fn(xm)) / (2.0 * step)
    return g


def max_rel_err(analytic: np.ndarray, numeric: np.ndarray, floor: float = 1e-6) -> float:
    a = np.asarray(analytic, float).ravel()
    n = np.asarray(numeric, float).ravel()
    denom = np.maximum(floor, np.maximum(np.abs(a), np.abs(n)))
    return float((np.abs(a - n) / denom).max())


@dataclass(frozen=True)
class GradCheckReport:
    max_rel_err: float
    worst_index: int
    passed: bool


def grad_check(loss_fn, x0: np.ndarray, tol: float = 1e-4, step: float = 1e-5) -> GradCheckReport:
    """Compare loss_fn's analytic gradient against central finite differences.

    loss_fn maps a flat float64 vector to (scalar, gradient). Relative error
    per component uses a 1e-6 floor so near-zero gradients are judged on an
    absolute scale.
    """
    x0 = np.asarray(x0, dtype=float)
    analytic = np.asarray(loss_fn(x0)[1], dtype=float)
    numeric = central_fd(lambda x: loss_fn(x)[0], x0, step)
    denom = np.maximum(1e-6, np.maximum(np.abs(analytic), np.abs(numeric)))
    rel = np.abs(analytic - numeric) / denom
    worst = int(np.argmax(rel))
    return GradCheckReport(max_rel_err=float(rel[worst]), worst_index=worst, passed=bool(rel[worst] < tol))


def brute_force_assignment(cost: np.ndarray):
    """Exhaustive minimum-cost assignment; first optimum in lexicographic
    permutation order (itertools.permutations yields lexicographically)."""
    cost = np.asarray(cost, dtype=float)
    n = cost.shape[0]
    rows = np.arange(n)
    best_total = None
    best_perm = None
    for perm in itertools.permutations(range(n)):
        total = float(cost[rows, perm].sum())
        if best_total is None or total < best_total - 1e-12:
            best_total = total
            best_perm = perm
    return np.array(best_perm, dtype=int), best_total


def brute_force_assignment_batch(costs: np.ndarray):
    """Vectorized exhaustive solve over a stack of same-size matrices."""
    costs = np.asarray(costs, dtype=float)
    n = costs.shape[1]
    perms = np.array(list(itertools.permutations(range(n))), dtype=int)
    rows = np.arange(n)
    totals = costs[:, rows, perms].sum(axis=2)  # (B, n!, n) summed over n
    best = totals.argmin(axis=1)  # first minimum = lexicographically smallest
    return perms[best], totals[np.arange(costs.shape[0]), best]


def _list_assignment(cost: list) -> tuple[list, float]:
    """Shortest-augmenting-path solver in potentials form, in plain Python
    lists; returns (col_for_row, total)."""
    n = len(cost)
    INF = float("inf")
    u = [0.0] * (n + 1)
    v = [0.0] * (n + 1)
    p = [0] * (n + 1)  # p[j] = 1-based row matched to column j
    way = [0] * (n + 1)
    for i in range(1, n + 1):
        p[0] = i
        j0 = 0
        minv = [INF] * (n + 1)
        used = [False] * (n + 1)
        while True:
            used[j0] = True
            i0 = p[j0]
            delta = INF
            j1 = 0
            for j in range(1, n + 1):
                if used[j]:
                    continue
                cur = cost[i0 - 1][j - 1] - u[i0] - v[j]
                if cur < minv[j]:
                    minv[j] = cur
                    way[j] = j0
                if minv[j] < delta:
                    delta = minv[j]
                    j1 = j
            for j in range(n + 1):
                if used[j]:
                    u[p[j]] += delta
                    v[j] -= delta
                else:
                    minv[j] -= delta
            j0 = j1
            if p[j0] == 0:
                break
        while j0:
            j1 = way[j0]
            p[j0] = p[j1]
            j0 = j1
    perm = [0] * n
    total = 0.0
    for j in range(1, n + 1):
        perm[p[j] - 1] = j - 1
        total += cost[p[j] - 1][j - 1]
    return perm, total


def resolving_assignment(cost: np.ndarray) -> np.ndarray:
    """Lexicographically smallest minimum-cost permutation by re-solving:
    row by row, each smaller free column is tried and kept iff the best
    completion of the remaining rows still reaches the optimum (within
    1e-9 * (1 + |optimum|)). O(n^2) solves; usable where brute force is not."""
    rows = np.asarray(cost, dtype=float).tolist()
    n = len(rows)
    base, best = _list_assignment(rows)
    tol = 1e-9 * (1.0 + abs(best))
    avail = list(range(n))
    result = []
    fixed = 0.0
    completion = dict(enumerate(base))  # a known-optimal column for every unfixed row
    for i in range(n):
        chosen = completion[i]
        for j in avail:
            if j >= completion[i]:
                break
            sub_rows = range(i + 1, n)
            sub_cols = [c for c in avail if c != j]
            sub_perm, sub_total = _list_assignment([[rows[r][c] for c in sub_cols] for r in sub_rows])
            if fixed + rows[i][j] + sub_total <= best + tol:
                chosen = j
                completion = {r: sub_cols[c] for r, c in zip(sub_rows, sub_perm)}
                break
        result.append(chosen)
        fixed += rows[i][chosen]
        avail.remove(chosen)
    return np.array(result, dtype=int)


def broadcast_sq_dists(X: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """(N, K) squared distances through an (N, K, D) difference array."""
    return ((X[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)


def _reference_kmeanspp(X, k, rng):
    n = X.shape[0]
    n_candidates = 2 + int(math.log(max(k, 2)))
    centers = np.empty((k, X.shape[1]))
    centers[0] = X[int(rng.integers(n))]
    d2 = ((X - centers[0]) ** 2).sum(axis=1)
    for j in range(1, k):
        total = float(d2.sum())
        if total <= 0:
            cand_ids = rng.integers(n, size=n_candidates)
        else:
            cand_ids = rng.choice(n, size=n_candidates, p=d2 / total)
        best_d2, best_pot, best_id = None, np.inf, int(cand_ids[0])
        for cid in cand_ids:
            nd2 = np.minimum(d2, ((X - X[int(cid)]) ** 2).sum(axis=1))
            pot = float(nd2.sum())
            if pot < best_pot:
                best_id, best_pot, best_d2 = int(cid), pot, nd2
        centers[j] = X[best_id]
        d2 = best_d2
    return centers


def _reference_assign(X, centers, k):
    d2 = broadcast_sq_dists(X, centers)
    assign = d2.argmin(axis=1)
    point_cost = d2[np.arange(X.shape[0]), assign]
    counts = np.bincount(assign, minlength=k)
    centers = centers.copy()
    for c in np.flatnonzero(counts == 0):
        far = int(np.where(counts[assign] > 1, point_cost, -np.inf).argmax())
        counts[assign[far]] -= 1
        assign[far] = c
        counts[c] = 1
        centers[c] = X[far]
        point_cost[far] = 0.0
    return assign, centers, float(point_cost.sum())


def reference_kmeans(X: np.ndarray, k: int, seed: int, max_iter: int, n_init: int):
    """Best of `n_init` Lloyd runs from greedy k-means++ starts, written as
    direct loops on the raw features: broadcast distances, one potential per
    k-means++ candidate, `X[assign == c].mean(0)` per cluster, and the same
    farthest-point repair of empty clusters. A run ends on the first step
    that leaves its assignment unchanged, or after `max_iter` steps. It
    draws the same random numbers as `estimate.kmeans`. Returns
    (assignments, centers, inertia, iterations, restart, inertias) of the
    winning run (ties: earliest); `inertias` holds its inertia after the
    start and after each iteration."""
    X = np.asarray(X, dtype=float)
    best = None
    for trial in range(n_init):
        centers = _reference_kmeanspp(X, k, rng_for(seed, KMEANS, trial))
        assign, centers, inertia = _reference_assign(X, centers, k)
        inertias = [inertia]
        iterations = 0
        for iterations in range(1, max_iter + 1):
            means = np.array([X[assign == c].mean(axis=0) for c in range(k)])
            new_assign, centers, inertia = _reference_assign(X, means, k)
            inertias.append(inertia)
            stable = np.array_equal(new_assign, assign)
            assign = new_assign
            if stable:
                break
        if best is None or inertia < best[2]:
            best = (assign, centers, inertia, iterations, trial, inertias)
    return best


def positive_set_contrastive_loss(features: np.ndarray, positive_sets: list, temperature: float):
    """Positive-set contrastive loss, one anchor at a time; returns (loss, grad).

    positive_sets[i] is a nonempty index sequence (excluding i), or None to
    drop row i as an anchor while keeping it as a candidate for others. Per
    anchor: mean over p in P(i) of -log softmax_{a != i}(z_i.z_a / tau) at p;
    the loss is the mean over the kept anchors.
    """
    F = np.asarray(features, dtype=float)
    n = F.shape[0]
    anchors = [i for i, pos in enumerate(positive_sets) if pos is not None]
    if not anchors:
        raise ValueError("no anchors")
    G = np.zeros((n, n))
    total = 0.0
    for i in anchors:
        pos = np.asarray(positive_sets[i], dtype=int)
        if pos.size == 0 or np.any(pos == i):
            raise ValueError(f"anchor {i} has an invalid positive set")
        others = np.delete(np.arange(n), i)
        s = F[others] @ F[i] / temperature
        s_max = s.max()
        log_z = s_max + np.log(np.exp(s - s_max).sum())
        log_p = np.zeros(n)
        log_p[others] = s - log_z
        total += -log_p[pos].mean()
        G[i, others] = np.exp(s - log_z)
        G[i, pos] -= 1.0 / pos.size
    G /= len(anchors)
    return total / len(anchors), (G + G.T) @ F / temperature


def per_term_contrastive_loss(features: np.ndarray, weights: np.ndarray, temperature: float):
    """Weighted contrastive loss over one term's own softmax, as the package
    computed it before its terms shared one kernel; returns (loss, grad,
    n_excluded). Row-normalized weights, each anchor shifted by its own max."""
    F = np.asarray(features, dtype=float)
    n = F.shape[0]
    W = np.array(weights, dtype=float)
    np.fill_diagonal(W, 0.0)
    row_mass = W.sum(axis=1)
    included = row_mass > 0
    n_inc = int(included.sum())
    if n_inc == 0:
        raise ValueError("every anchor has zero weight mass")
    S = F @ F.T / temperature
    np.fill_diagonal(S, -np.inf)
    S -= S.max(axis=1, keepdims=True)
    E = np.exp(S)
    denom = E.sum(axis=1, keepdims=True)
    neg_log_p = np.log(denom) - S
    np.fill_diagonal(neg_log_p, 0.0)
    W /= np.where(included, row_mass, 1.0)[:, None]
    loss = float((W * neg_log_p).sum() / n_inc)
    G = (E / denom - W) / n_inc
    G[~included] = 0.0
    return loss, (G + G.T) @ F / temperature, n - n_inc


def indicator_weights(classes: np.ndarray) -> np.ndarray:
    """Same-class indicator weights with a zero diagonal: the supervised
    term's positives, compared class by class."""
    c = np.asarray(classes, dtype=int)
    W = (c[:, None] == c[None, :]).astype(float)
    np.fill_diagonal(W, 0.0)
    return W


def per_term_contrastive_objective(features, other_view, labeled_classes, soft_weights, temperature, gamma1, gamma2):
    """The composite contrastive objective as three `per_term_contrastive_loss`
    calls on gathered rows, scattered back: the unsupervised term on every
    row, the supervised term on rows [0, L) and the soft term on rows [0, m).
    Returns (l_unsup, l_sup, l_soft, grad, n_soft_excluded)."""
    F = np.asarray(features, dtype=float)
    n = F.shape[0]
    one_hot = np.zeros((n, n))
    one_hot[np.arange(n), other_view] = 1.0
    l_unsup, grad, _ = per_term_contrastive_loss(F, one_hot, temperature)
    l_sup = l_soft = 0.0
    n_excluded = 0
    c = np.asarray(labeled_classes)
    if c.size >= 2 and gamma1 > 0:
        l_sup, g, _ = per_term_contrastive_loss(F[: c.size], indicator_weights(c), temperature)
        grad[: c.size] += gamma1 * g
    if soft_weights is not None and len(soft_weights) >= 2 and gamma2 > 0:
        m = len(soft_weights)
        l_soft, g, n_excluded = per_term_contrastive_loss(F[:m], soft_weights, temperature)
        grad[:m] += gamma2 * g
    return l_unsup, l_sup, l_soft, grad, n_excluded


def _ref_softmax(logits: np.ndarray) -> np.ndarray:
    m = logits.max(axis=-1, keepdims=True)
    E = np.exp(logits - m)
    return E / E.sum(axis=-1, keepdims=True)


def _ref_log_softmax(logits: np.ndarray) -> np.ndarray:
    m = logits.max(axis=-1, keepdims=True)
    return (logits - m) - np.log(np.exp(logits - m).sum(axis=-1, keepdims=True))


def three_block_classification_objective(lab, labels, v1, v2, target, eta1, eta2, smoothing_p, conf_gate):
    """The pseudo-labeling objective as the package computed it before its
    blocks shared one softmax: each block normalized on its own, each term
    normalizing again, three gradients concatenated at the end. The KL term
    is written out here too. Returns (total, l_s, l_u, l_reg, grad, n_gated),
    grad over the [labeled; view 1; view 2] rows."""
    C = len(target)
    lab, v1, v2 = (np.asarray(a, dtype=float).reshape(-1, C) for a in (lab, v1, v2))
    n_l, n_u = lab.shape[0], v1.shape[0]
    grad_lab, grad_v1, grad_v2 = np.zeros_like(lab), np.zeros_like(v1), np.zeros_like(v2)

    l_s = 0.0
    if n_l:
        idx, labels = np.arange(n_l), np.asarray(labels, dtype=int)
        l_s = float(-_ref_log_softmax(lab)[idx, labels].mean())
        g = _ref_softmax(lab)
        g[idx, labels] -= 1.0
        g /= n_l
        grad_lab += g

    l_u, n_gated, norm = 0.0, 0, 2.0 * n_u
    p1, p2 = _ref_softmax(v1), _ref_softmax(v2)
    for p_src, p_dst, logits_dst, grad_dst in ((p1, p2, v2, grad_v2), (p2, p1, v1, grad_v1)):
        gated = np.flatnonzero(p_src.max(axis=1) >= conf_gate)
        y = p_src[gated].argmax(axis=1)
        l_u += (-_ref_log_softmax(logits_dst)[gated, y] / norm).sum()
        g = p_dst[gated]
        g[np.arange(gated.size), y] -= 1.0
        grad_dst[gated] += eta1 * g / norm
        n_gated += gated.size

    all_logits = np.concatenate([lab, v1, v2], axis=0)
    P = _ref_softmax(all_logits)
    m = P.mean(axis=0)
    t = np.asarray(target, dtype=float) ** smoothing_p
    st = t / t.sum()
    pos = m > 0
    l_reg = float((m[pos] * np.log(m[pos] / st[pos])).sum())
    g_mean = np.zeros_like(m)
    g_mean[pos] = np.log(m[pos] / st[pos]) + 1.0
    g_rows = (P * (g_mean[None, :] - (P @ g_mean)[:, None])) / all_logits.shape[0]
    g_rows *= eta2
    grad_lab += g_rows[:n_l]
    grad_v1 += g_rows[n_l : n_l + n_u]
    grad_v2 += g_rows[n_l + n_u :]

    l_u = float(l_u)
    total = float(l_s + eta1 * l_u + eta2 * l_reg)
    return total, l_s, l_u, l_reg, np.concatenate([grad_lab, grad_v1, grad_v2], axis=0), n_gated


def project_simplex(v: np.ndarray) -> np.ndarray:
    """Euclidean projection onto the probability simplex."""
    v = np.asarray(v, dtype=float)
    u = np.sort(v)[::-1]
    css = np.cumsum(u)
    idx = np.arange(1, v.size + 1)
    rho = np.nonzero(u + (1.0 - css) / idx > 0)[0][-1]
    theta = (1.0 - css[rho]) / (rho + 1)
    return np.maximum(v + theta, 0.0)


def pgd_anchor_minimizer(w: np.ndarray, steps: int = 10000):
    """Minimize -sum_j w_j log p_j over the simplex by projected gradient
    descent with Armijo backtracking. Returns (p, steps_used)."""
    w = np.asarray(w, dtype=float)
    n = w.size
    pos = w > 0

    def value(p):
        if np.any(p[pos] <= 0):
            return np.inf
        return float(-(w[pos] * np.log(p[pos])).sum())

    p = np.full(n, 1.0 / n)
    fp = value(p)
    lr = 1.0
    used = 0
    for t in range(steps):
        used = t + 1
        g = np.zeros(n)
        g[pos] = -w[pos] / p[pos]
        for _ in range(60):
            cand = project_simplex(p - lr * g)
            fc = value(cand)
            diff = cand - p
            if fc <= fp + g @ diff + (diff @ diff) / (2.0 * lr) + 1e-15:
                break
            lr *= 0.5
        moved = float(np.abs(cand - p).max())
        p, fp = cand, fc
        if moved < 1e-9:
            break
        lr *= 1.3
    return p, used


def nearest_mean_accuracy(features: np.ndarray, labels: np.ndarray) -> float:
    """Classification accuracy of the nearest-class-mean rule."""
    X = np.asarray(features, float)
    y = np.asarray(labels, int)
    classes = np.unique(y)
    means = np.stack([X[y == c].mean(axis=0) for c in classes])
    d2 = ((X[:, None, :] - means[None, :, :]) ** 2).sum(axis=2)
    pred = classes[d2.argmin(axis=1)]
    return float((pred == y).mean())


def recount_accuracy(cluster_assignments, labels, assignment) -> float:
    """Mean of the per-sample indicator assignment[cluster] == label,
    recomputed from scratch."""
    hits = 0
    for clu, lab in zip(cluster_assignments, labels):
        if assignment[clu] == lab:
            hits += 1
    return hits / len(labels)


def optimal_soft_logits(w_row: np.ndarray) -> np.ndarray:
    """The contrastive logits minimizing one anchor's soft term: w / sum(w)."""
    w = np.asarray(w_row, dtype=float)
    if np.any(w < 0):
        raise ValueError("weights must be nonnegative")
    s = w.sum()
    if s <= 0:
        raise ValueError("weight row sums to zero")
    return w / s


def written_out_encode_backward(params: ModelParams, cache, dZ: np.ndarray):
    """The encoder's backward pass spelled out layer by layer, operation for
    operation as `nn.encode_backward` must compute it."""
    X, H = cache
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


def written_out_project_backward(params: ModelParams, cache, dU: np.ndarray):
    """The projector's backward pass spelled out: the unit-norm step of each
    row with a direction, then both layers; fallback rows get no gradient."""
    Z, G, Q, norms, fallback = cache
    dQ = np.zeros_like(Q)
    ok = ~fallback
    if ok.any():
        u = Q[ok] / norms[ok, None]
        inner = (dU[ok] * u).sum(axis=1, keepdims=True)
        dQ[ok] = (dU[ok] - inner * u) / norms[ok, None]
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


def written_out_classify_backward(params: ModelParams, cache, dL: np.ndarray):
    """The cosine classifier's backward pass spelled out: the unit-norm step
    of the feature rows, then of the classifier rows."""
    Z, z_norms, Zh, Wh, w_norms = cache
    s = params.scale
    dZh = s * (dL @ Wh)
    inner = (dZh * Zh).sum(axis=1, keepdims=True)
    dZ = (dZh - inner * Zh) / z_norms[:, None]
    dWh = s * (dL.T @ Zh)
    winner = (dWh * Wh).sum(axis=1, keepdims=True)
    dW = (dWh - winner * Wh) / w_norms[:, None]
    return {"cls_w": dW}, dZ


def params_to_vector(params: ModelParams) -> np.ndarray:
    return np.concatenate([getattr(params, n).ravel() for n in params.array_fields()])


def vector_to_params(template: ModelParams, vec: np.ndarray) -> ModelParams:
    arrays = {}
    i = 0
    for name in template.array_fields():
        shape = getattr(template, name).shape
        size = int(np.prod(shape))
        arrays[name] = vec[i : i + size].reshape(shape).copy()
        i += size
    if i != vec.size:
        raise ValueError("vector length does not match parameter count")
    return ModelParams(**arrays, scale=template.scale)


def loop_pseudolabel_mask(pred_class, confidence, ids, rates) -> np.ndarray:
    """The sampled pseudo-label mask, one predicted class at a time: keep the
    ceil(rates[c] * m_c) most confident of class c's m_c rows, ties to the
    lower id."""
    mask = np.zeros(len(pred_class), dtype=bool)
    for c in np.unique(pred_class):
        members = np.flatnonzero(pred_class == c)
        take = math.ceil(rates[c] * members.size)
        if take <= 0:
            continue
        order = members[np.lexsort((ids[members], -confidence[members]))]
        mask[order[:take]] = True
    return mask


def positiveness(p: np.ndarray, q: np.ndarray, metric: str) -> float:
    """Positiveness of one pair of class-probability vectors: the off-diagonal
    entry of the library's matrix over the two."""
    W = build_positiveness_matrix(np.stack([np.asarray(p, float), np.asarray(q, float)]), metric)
    return float(W[0, 1])


def reference_load_embeddings(path: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The embedding CSV reader as one `float()` call per value, one line at
    a time: `(ids, labels, X)` in file order, or EmbeddingFormatError at the
    first line with a fault."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise EmbeddingFormatError(f"{path}: empty file")
    header = lines[0].split(",")
    if len(header) < 3 or header[0] != "id" or header[1] != "label":
        raise EmbeddingFormatError(f"{path}:1: bad header {lines[0]!r}")
    d = len(header) - 2
    for i, name in enumerate(header[2:]):
        if name != f"f{i}":
            raise EmbeddingFormatError(f"{path}:1: expected column f{i}, got {name!r}")

    ids = np.empty(len(lines) - 1, dtype=int)
    labels = np.empty(len(lines) - 1, dtype=int)
    X = np.empty((len(lines) - 1, d))
    n = 0
    id_lines: dict[int, int] = {}
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != d + 2:
            raise EmbeddingFormatError(
                f"{path}:{lineno}: expected {d + 2} fields, got {len(parts)}"
            )
        try:
            sid = ids[n] = int(parts[0])
            label = labels[n] = int(parts[1])
            X[n] = [float(x) for x in parts[2:]]
        except (ValueError, OverflowError) as exc:
            raise EmbeddingFormatError(f"{path}:{lineno}: {exc}") from exc
        if not np.isfinite(X[n]).all():
            raise EmbeddingFormatError(f"{path}:{lineno}: non-finite feature value")
        if sid in id_lines:
            raise EmbeddingFormatError(
                f"{path}:{lineno}: sample id {sid} already used on line {id_lines[sid]}"
            )
        id_lines[sid] = lineno
        if label < -1:  # the unlabeled marker is -1
            raise EmbeddingFormatError(
                f"{path}:{lineno}: label index {label} is invalid"
            )
        n += 1
    if n == 0:
        raise EmbeddingFormatError(f"{path}: no data rows")
    return ids[:n], labels[:n], X[:n]


def reference_save_embeddings(ids, labels, X, path: str) -> None:
    """The embedding CSV writer in one process, one `repr()` per value and
    one line at a time."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("id,label," + ",".join(f"f{j}" for j in range(X.shape[1])) + "\n")
        for i in range(len(X)):
            fh.write(",".join([str(int(ids[i])), str(int(labels[i]))] + [repr(float(v)) for v in X[i]]) + "\n")


def gen_synthetic(
    num_classes: int,
    d_in: int,
    counts: np.ndarray,
    class_separation: float,
    noise_scale: float,
    seed: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Gaussian-blob pool `(X, y)`: one mean per class, isotropic noise around it.

    Deterministic in `seed`; the package builds its pools from
    make_class_means/sample_from_means directly.
    """
    counts = np.asarray(counts, dtype=int)
    if len(counts) != num_classes:
        raise ValueError("counts length must equal num_classes")
    if np.any(counts < 1):
        raise ValueError("every class needs at least one sample")
    means = make_class_means(num_classes, d_in, class_separation, seed)
    return sample_from_means(means, counts, noise_scale, seed)


def loop_longtail_counts(num_classes: int, kind: str, rho: float, n_max: int) -> np.ndarray:
    """The long-tail profile's raw sizes, each rounded half away from zero
    by its own Python call and floored at one sample."""
    c = np.arange(num_classes, dtype=float)
    if kind == "exponential":
        raw = n_max * rho ** (-c / (num_classes - 1))
    else:
        a = math.log(rho) / math.log(num_classes) if rho > 1 else 0.0
        raw = n_max * (c + 1.0) ** (-a)
    counts = []
    for v in raw.tolist():
        half_away = math.floor(v + 0.5) if v >= 0 else -math.floor(-v + 0.5)
        counts.append(max(1, half_away))
    return np.array(counts, dtype=int)


def class_to_cluster(amap: AlignmentMap) -> np.ndarray:
    """The inverse of an alignment: class id -> cluster id."""
    inv = np.empty_like(amap.cluster_to_class)
    inv[amap.cluster_to_class] = np.arange(amap.cluster_to_class.size)
    return inv


def group_sizes(m: int) -> tuple[int, int, int]:
    """Sizes of the Many/Median/Few groups of m classes: a ceiling third,
    then a ceiling half of the rest, then the rest."""
    g1 = -(-m // 3)
    g2 = -(-(m - g1) // 2)
    return g1, g2, m - g1 - g2
