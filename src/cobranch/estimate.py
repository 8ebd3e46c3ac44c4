"""Training-set class-distribution estimation from feature space.

k-means over all training features gives cluster sizes; normalizing them
yields an estimated class-frequency vector. Labeled samples anchor the
cluster-to-class correspondence: known classes are matched to clusters by a
minimum-cost assignment on negated agreement counts, and the leftover
clusters map to novel classes in descending size order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from ._rng import KMEANS, rng_for


@dataclass
class KMeansResult:
    assignments: np.ndarray
    sizes: np.ndarray  # rows per cluster
    inertia: float
    iterations: int
    restart: int = 0  # index of the winning initialization


@dataclass(frozen=True)
class AlignmentMap:
    """Total bijection cluster id -> class id."""

    cluster_to_class: np.ndarray

    def __post_init__(self):
        c2c = np.asarray(self.cluster_to_class, dtype=int)
        n = c2c.size
        if sorted(c2c.tolist()) != list(range(n)):
            raise ValueError("cluster_to_class must be a permutation of 0..C-1")
        object.__setattr__(self, "cluster_to_class", c2c)


# --- k-means -----------------------------------------------------------------

def _sq_dists(X: np.ndarray, centers: np.ndarray, x_sq: np.ndarray) -> np.ndarray:
    """(N, K) squared distances in GEMM form |x|^2 - 2 x.c + |c|^2, clamped at
    0; `x_sq` holds the squared row norms of X. Needs O(N K) memory. X should
    be centred, or the form cancels on data far from the origin."""
    d2 = X @ (-2.0 * centers).T
    d2 += x_sq[:, None]
    d2 += np.einsum("ij,ij->i", centers, centers)
    return np.maximum(d2, 0.0, out=d2)


def _kmeanspp_init(X: np.ndarray, x_sq: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """Greedy k-means++: per step, draw a few D^2-weighted candidates and
    keep the one minimizing the total potential (first minimum on ties). The
    greedy variant is what makes small far-away blobs reliably receive a seed."""
    n = X.shape[0]
    n_candidates = 2 + int(math.log(max(k, 2)))
    ids = [int(rng.integers(n))]
    d2 = _sq_dists(X, X[ids], x_sq)[:, 0]
    for _ in range(1, k):
        total = float(d2.sum())
        if total <= 0:
            cand_ids = rng.integers(n, size=n_candidates)
        else:
            cand_ids = rng.choice(n, size=n_candidates, p=d2 / total)
        # one contiguous row per candidate, so each potential is a pairwise sum
        nd2 = np.minimum(d2, _sq_dists(X, X[cand_ids], x_sq).T, order="C")
        best = int(nd2.sum(axis=1).argmin())
        ids.append(int(cand_ids[best]))
        d2 = nd2[best]
    return X[ids]


def _assign_with_repair(X: np.ndarray, x_sq: np.ndarray, centers: np.ndarray, k: int):
    """Nearest-center assignment, its cluster sizes and its inertia; an
    empty cluster steals the point currently farthest from its own center
    (at zero cost: the point becomes the cluster's center)."""
    d2 = _sq_dists(X, centers, x_sq)
    assign = d2.argmin(axis=1)
    point_cost = d2[np.arange(X.shape[0]), assign]
    sizes = np.bincount(assign, minlength=k)
    for c in np.flatnonzero(sizes == 0):
        donors = sizes[assign] > 1
        if not donors.any():
            raise ValueError("cannot repair empty cluster: no donor cluster")
        masked = np.where(donors, point_cost, -np.inf)
        far = int(masked.argmax())
        sizes[assign[far]] -= 1
        assign[far] = c
        sizes[c] = 1
        point_cost[far] = 0.0
    return assign, sizes, float(point_cost.sum())


def _cluster_means(X: np.ndarray, assign: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """Per-cluster means; each (cluster, column) sum runs over the rows in
    order, as `X[assign == c].mean(axis=0)` does. Every cluster is non-empty."""
    k, d = sizes.size, X.shape[1]
    flat = (assign[:, None] * d + np.arange(d)).ravel()
    sums = np.bincount(flat, weights=X.ravel(), minlength=k * d).reshape(k, d)
    return sums / sizes[:, None]


def _lloyd(X: np.ndarray, x_sq: np.ndarray, n_clusters: int, rng, max_iter: int) -> KMeansResult:
    centers = _kmeanspp_init(X, x_sq, n_clusters, rng)
    assign, sizes, inertia = _assign_with_repair(X, x_sq, centers, n_clusters)
    iterations = 0
    for iterations in range(1, max_iter + 1):
        means = _cluster_means(X, assign, sizes)
        new_assign, sizes, inertia = _assign_with_repair(X, x_sq, means, n_clusters)
        if np.array_equal(new_assign, assign):
            break
        assign = new_assign
    return KMeansResult(assignments=assign, sizes=sizes, inertia=inertia, iterations=iterations)


def kmeans(
    features: np.ndarray,
    n_clusters: int,
    seed: int,
    max_iter: int,
    n_init: int,
) -> KMeansResult:
    """Best of `n_init` Lloyd runs from k-means++ starts; deterministic
    given seed.

    Each run stops when its assignment is stable (Lloyd's rule) or after
    max_iter steps; the run with the lowest inertia wins, and `restart` is
    its index. Restarts matter under heavy class imbalance, where a single
    k-means++ start regularly leaves a small blob uncovered. Inertia is
    non-increasing over each run's iterations. The runs see the features
    minus their column mean, which changes no distance but keeps the GEMM
    distance form from cancelling.

    Ties go to the first minimum among a k-means++ step's candidates, to
    the lowest cluster index at equal distance, and to the earliest restart
    at equal inertia. These rules see the computed values, so a tie that
    is exact in real arithmetic can be broken by rounding instead: on a
    0.25 grid, two restarts that both reach inertia 0.1 read as
    0.1000000000000002 and 0.09999999999999998, and the later one wins.
    """
    X = np.asarray(features, dtype=float)
    if X.ndim != 2:
        raise ValueError("features must be a 2-D array")
    if not np.all(np.isfinite(X)):
        raise ValueError("features contain non-finite values")
    n = X.shape[0]
    if n_clusters < 1:
        raise ValueError("need at least one cluster")
    if n < n_clusters:
        raise ValueError(f"{n} samples cannot fill {n_clusters} clusters")
    if n_init < 1:
        raise ValueError("need at least one initialization")

    X = X - X.mean(axis=0)
    x_sq = np.einsum("ij,ij->i", X, X)
    best: KMeansResult | None = None
    for trial in range(n_init):
        rng = rng_for(seed, KMEANS, trial)
        result = _lloyd(X, x_sq, n_clusters, rng, max_iter)
        if best is None or result.inertia < best.inertia:
            best = replace(result, restart=trial)
    return best


# --- minimum-cost assignment ----------------------------------------------------

def _solve_assignment(C: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """O(n^3) shortest-augmenting-path solver in potentials form (Jonker &
    Volgenant, Computing 1987): rows enter one at a time, each by a
    Dijkstra-like scan over the columns not yet on its search tree.

    Returns (col_of_row, u, v): an optimal column per row and dual
    potentials with C[i, j] - u[i] - v[j] >= 0, zero on the matched edges.
    """
    n = C.shape[0]
    u = np.zeros(n + 1)
    v = np.zeros(n + 1)
    p = np.zeros(n + 1, dtype=int)  # p[j] = 1-based row matched to column j; column 0 is the root
    way = np.zeros(n + 1, dtype=int)
    Cp = np.zeros((n + 1, n + 1))
    Cp[1:, 1:] = C
    for i in range(1, n + 1):
        p[0] = i
        j0 = 0
        minv = np.full(n + 1, np.inf)
        used = np.zeros(n + 1, dtype=bool)
        while True:
            used[j0] = True
            i0 = p[j0]
            cur = Cp[i0] - u[i0] - v
            better = (cur < minv) & ~used
            minv[better] = cur[better]
            way[better] = j0
            j1 = int(np.where(used, np.inf, minv).argmin())  # first minimum among unused columns
            delta = minv[j1]
            u[p[used]] += delta
            v[used] -= delta
            minv -= delta  # only the unused entries are read again
            j0 = j1
            if p[j0] == 0:
                break
        while j0:
            j1 = way[j0]
            p[j0] = p[j1]
            j0 = j1
    col_of_row = np.empty(n, dtype=int)
    col_of_row[p[1:] - 1] = np.arange(n)
    return col_of_row, u[1:], v[1:]


def hungarian(cost: np.ndarray) -> np.ndarray:
    """Permutation sigma minimizing sum_i cost[i][sigma(i)]; among optimal
    permutations, the lexicographically smallest.

    One solve gives an optimal matching and dual potentials. A permutation
    is optimal iff it uses only tight edges, those whose reduced cost is
    zero within 1e-9 * (1 + |optimum|). Rows are then fixed in order: row i
    moves to the smallest tight column j < col[i] whose row reaches col[i]
    by an alternating path of tight edges through later rows, and the
    matching shifts along that cycle. No sub-problem is re-solved.
    """
    C = np.asarray(cost, dtype=float)
    if C.ndim != 2 or C.shape[0] != C.shape[1]:
        raise ValueError(f"cost matrix must be square, got {C.shape}")
    if not np.all(np.isfinite(C)):
        raise ValueError("cost matrix must be finite")
    n = C.shape[0]
    col, u, v = _solve_assignment(C)
    best = float(C[np.arange(n), col].sum())
    tight = C - u[:, None] - v[None, :] <= 1e-9 * (1.0 + abs(best))
    row_of = np.empty(n, dtype=int)
    row_of[col] = np.arange(n)
    for i in range(n):
        # breadth-first, backwards from col[i]: step[r] is the column that
        # row r > i moves to on its alternating path to col[i]
        step = np.full(n, -1)
        frontier = col[[i]]
        while frontier.size:
            hit = tight[:, frontier]
            hit[: i + 1] = False
            new = np.flatnonzero(hit.any(axis=1) & (step < 0))
            step[new] = frontier[hit[new].argmax(axis=1)]
            frontier = col[new]
        j = np.flatnonzero(tight[i, : col[i]] & (step[row_of[: col[i]]] >= 0))
        if j.size:
            r, col[i] = row_of[j[0]], j[0]
            while r != i:
                col[r] = step[r]
                r = row_of[col[r]]
            row_of[col] = np.arange(n)
    return col


# --- distribution + alignment ------------------------------------------------------

def align_clusters(result: KMeansResult, y_lab: np.ndarray, num_known: int) -> AlignmentMap:
    """Map clusters to classes using labeled agreement: the clustered rows
    start with the labeled ones, in the order of `y_lab`.

    Known classes are matched to clusters by a minimum-cost assignment on
    negated agreement counts (zero-padded to square, so fewer label-bearing
    clusters than known classes is fine). Remaining clusters are sorted by
    size descending and assigned to novel classes in ascending index order.
    """
    n_clusters = result.sizes.size
    y_lab = np.asarray(y_lab, dtype=int)
    if num_known < 1 or num_known > n_clusters:
        raise ValueError("num_known must be in [1, n_clusters]")
    if y_lab.size == 0:
        raise ValueError("no labeled samples to anchor the alignment")
    if y_lab.size > result.assignments.size:
        raise ValueError("more labeled classes than clustered samples")
    if y_lab.min() < 0 or y_lab.max() >= num_known:
        raise ValueError("labeled classes must lie in the known set")

    agreement = np.zeros((num_known, n_clusters))
    np.add.at(agreement, (y_lab, result.assignments[: y_lab.size]), 1.0)

    cost = np.zeros((n_clusters, n_clusters))
    cost[:num_known, :] = -agreement
    perm = hungarian(cost)

    cluster_to_class = np.full(n_clusters, -1, dtype=int)
    cluster_to_class[perm[:num_known]] = np.arange(num_known)
    leftovers = np.flatnonzero(cluster_to_class < 0)
    order = leftovers[np.lexsort((leftovers, -result.sizes[leftovers]))]
    cluster_to_class[order] = np.arange(num_known, n_clusters)
    return AlignmentMap(cluster_to_class=cluster_to_class)


def aligned_distribution(result: KMeansResult, amap: AlignmentMap) -> np.ndarray:
    """Cluster frequencies (sizes over their total) permuted into class order."""
    out = np.empty(result.sizes.size)
    out[amap.cluster_to_class] = result.sizes / result.sizes.sum()
    return out


def floor_distribution(freq: np.ndarray, n_samples: int) -> np.ndarray:
    """Clamp frequencies below at 1/(2N) so logs and ratios stay defined."""
    if n_samples < 1:
        raise ValueError("n_samples must be positive")
    return np.maximum(np.asarray(freq, dtype=float), 1.0 / (2.0 * n_samples))


def estimate_round(
    features: np.ndarray,
    n_classes: int,
    y_lab: np.ndarray,
    num_known: int,
    seed: int,
    max_iter: int,
    n_init: int,
):
    """One full estimation round: cluster, align, normalize. The labeled
    rows of `features` come first, in the order of `y_lab`.

    Returns (KMeansResult, AlignmentMap, class-indexed frequency vector).
    """
    result = kmeans(features, n_classes, seed=seed, max_iter=max_iter, n_init=n_init)
    amap = align_clusters(result, y_lab, num_known)
    return result, amap, aligned_distribution(result, amap)
