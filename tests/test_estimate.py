import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cobranch._rng import KMEANS, rng_for
from cobranch.data import make_longtail_counts, split_known_novel
from cobranch.estimate import (
    AlignmentMap,
    _assign_with_repair,
    _kmeanspp_init,
    _lloyd,
    _sq_dists,
    align_clusters,
    aligned_distribution,
    estimate_round,
    floor_distribution,
    hungarian,
    kmeans,
)
from oracles import (
    KMEANS_ARGS,
    _reference_kmeanspp,
    broadcast_sq_dists,
    brute_force_assignment,
    class_to_cluster,
    gen_synthetic,
    reference_kmeans,
    resolving_assignment,
)


def km(X, k, seed, **settings):
    """`kmeans` at the CLI's default settings, overridden by `settings`."""
    return kmeans(X, k, seed=seed, **{**KMEANS_ARGS, **settings})


def reference_km(X, k, seed, **settings):
    return reference_kmeans(X, k, seed, **{**KMEANS_ARGS, **settings})


def tied_rows(n, d, distinct, seed):
    """n rows on a 0.25 grid with zero column sums: n - 1 drawn with repeats
    from `distinct` originals, and one more that brings the sums to 0. Every
    squared distance and k-means++ potential among grid points is exact in
    both distance forms, and centring leaves the rows as they are."""
    rng = np.random.default_rng(seed)
    pool = np.round(4.0 * rng.standard_normal((distinct, d))) / 4.0
    rows = pool[rng.integers(distinct, size=n - 1)]
    return np.vstack([rows, -rows.sum(axis=0)])


TIED = {
    "n": st.integers(2, 40),
    "d": st.integers(1, 4),
    "distinct": st.integers(1, 20),
    "k_frac": st.floats(0.0, 1.0),
    "seed": st.integers(0, 10_000),
}


def partition(assign):
    """The partition an assignment makes of the rows, whatever its cluster labels."""
    first = {}
    return tuple(first.setdefault(a, len(first)) for a in assign.tolist())


def assert_matches_reference(X, k, seed, n_init):
    res = km(X, k, seed=seed, n_init=n_init)
    assign, _, inertia, iterations, restart, _ = reference_km(X, k, seed, n_init=n_init)
    assert np.array_equal(res.assignments, assign)
    assert np.array_equal(res.sizes, np.bincount(assign, minlength=k))
    assert (res.iterations, res.restart) == (iterations, restart)
    assert res.inertia == pytest.approx(inertia, rel=1e-9)


class TestKMeans:
    def test_single_cluster_is_mean(self):
        rng = np.random.default_rng(0)
        X = rng.standard_normal((40, 3))
        res = km(X, 1, seed=0)
        assert res.assignments.tolist() == [0] * 40 and res.sizes.tolist() == [40]
        assert res.inertia == pytest.approx(((X - X.mean(axis=0)) ** 2).sum())

    def test_two_separated_clouds_recovered(self):
        rng = np.random.default_rng(1)
        A = rng.standard_normal((30, 2)) * 0.1 + np.array([10.0, 0.0])
        B = rng.standard_normal((20, 2)) * 0.1 + np.array([-10.0, 0.0])
        X = np.vstack([A, B])
        truth = np.array([0] * 30 + [1] * 20)
        res = km(X, 2, seed=3)
        # agreement up to relabeling
        agree = max(
            (res.assignments == truth).mean(),
            (res.assignments == 1 - truth).mean(),
        )
        assert agree == 1.0

    def test_inertia_non_increasing(self):
        rng = np.random.default_rng(2)
        X = rng.standard_normal((100, 4))
        res = km(X, 5, seed=1)
        # per-iteration inertia from the oracle, which the test above pins to `kmeans`
        *_, inertias = reference_km(X, 5, seed=1)
        assert res.inertia == pytest.approx(inertias[-1], rel=1e-9)
        assert len(inertias) > 2 and np.all(np.diff(inertias) <= 1e-9)

    def test_local_optimality_probe(self):
        rng = np.random.default_rng(3)
        X = rng.standard_normal((80, 3))
        res = km(X, 4, seed=2)
        means = np.array([X[res.assignments == c].mean(axis=0) for c in range(4)])
        scale = 0.05 * X.std()
        for t in range(10):
            centers = means + scale * rng.standard_normal(means.shape)
            d2 = ((X[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
            perturbed = float(d2.min(axis=1).sum())
            assert res.inertia <= perturbed + 1e-9

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(4)
        X = rng.standard_normal((60, 3))
        a = km(X, 4, seed=9)
        b = km(X, 4, seed=9)
        assert np.array_equal(a.assignments, b.assignments)
        assert np.array_equal(a.sizes, b.sizes)
        assert (a.inertia, a.iterations, a.restart) == (b.inertia, b.iterations, b.restart)

    def test_empty_cluster_repair_on_duplicates(self):
        X = np.zeros((6, 2))
        res = km(X, 3, seed=0)
        counts = np.bincount(res.assignments, minlength=3)
        assert np.all(counts > 0)

    def test_errors(self):
        with pytest.raises(ValueError):
            km(np.zeros((2, 2)), 3, seed=0)
        with pytest.raises(ValueError):
            km(np.array([[np.nan, 0.0], [0.0, 1.0]]), 1, seed=0)

    def test_sq_dists_matches_broadcast(self):
        rng = np.random.default_rng(5)
        X = rng.standard_normal((70, 9)) * 3.0
        C = rng.standard_normal((11, 9)) * 3.0
        x_sq, c_sq = (X**2).sum(axis=1), (C**2).sum(axis=1)
        err = np.abs(_sq_dists(X, C, x_sq) - broadcast_sq_dists(X, C))
        assert np.all(err <= 1e-9 * (1.0 + x_sq[:, None] + c_sq[None, :]))

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        k=st.integers(1, 8),
        d=st.integers(1, 12),
        per=st.integers(3, 40),
        n_init=st.integers(1, 4),
        seed=st.integers(0, 10_000),
        offset=st.floats(-100.0, 100.0),
    )
    def test_matches_reference_on_separated_blobs(self, k, d, per, n_init, seed, offset):
        rng = np.random.default_rng(seed)
        means = rng.standard_normal((k, d))
        if k > 1:  # unit-variance blobs whose means lie at least 8 apart
            gaps = np.sqrt(broadcast_sq_dists(means, means))[np.triu_indices(k, 1)]
            means *= 8.0 / max(gaps.min(), 1e-3)
        sizes = rng.integers(3, per + 1, size=k)
        X = np.repeat(means, sizes, axis=0) + rng.standard_normal((sizes.sum(), d)) + offset
        assert_matches_reference(X, k, seed, n_init)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(n_init=st.integers(1, 4), **TIED)
    def test_matches_reference_on_tied_rows(self, n, d, distinct, k_frac, n_init, seed):
        """Tie-heavy `tied_rows`, clustered with k anywhere from 1 to n. Tied
        distances and k-means++ potentials, duplicate rows, empty-cluster
        repairs and one-step stops abound. Every distance and potential of
        the start is exact in both distance forms, so its ties are decided by
        the tie rules and not by rounding."""
        X = tied_rows(n, d, distinct, seed)
        assert_matches_reference(X, 1 + int(k_frac * (n - 1)), seed, n_init)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(**TIED)
    def test_equidistant_row_goes_to_lowest_cluster(self, n, d, distinct, k_frac, seed):
        """Centres at k distinct rows, so that no cluster is empty and nothing
        is repaired: each row goes to the first of its nearest centres."""
        X = tied_rows(n, d, distinct, seed)
        uniq = np.unique(X, axis=0)
        k = 1 + int(k_frac * (len(uniq) - 1))
        centers = uniq[np.random.default_rng(seed).permutation(len(uniq))[:k]]
        d2 = broadcast_sq_dists(X, centers)
        x_sq = np.einsum("ij,ij->i", X, X)
        assert np.array_equal(_sq_dists(X, centers, x_sq), d2)  # the GEMM form is exact here
        assign, sizes, inertia = _assign_with_repair(X, x_sq, centers, k)
        first = [np.flatnonzero(row == row.min())[0] for row in d2]
        assert assign.tolist() == first
        assert np.array_equal(sizes, np.bincount(first, minlength=k))
        assert inertia == d2.min(axis=1).sum()

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(**TIED)
    def test_kmeanspp_tied_candidates_go_to_the_first(self, n, d, distinct, k_frac, seed):
        """Candidates of equal potential, duplicate rows among them: the
        library's argmin and the oracle's loop over the candidates keep the
        same rows, and both draw the same random numbers."""
        X = tied_rows(n, d, distinct, seed)
        k = 1 + int(k_frac * (n - 1))
        rng, ref_rng = rng_for(seed, KMEANS, 0), rng_for(seed, KMEANS, 0)
        centers = _kmeanspp_init(X, np.einsum("ij,ij->i", X, X), k, rng)
        assert np.array_equal(centers, _reference_kmeanspp(X, k, ref_rng))
        assert rng.random() == ref_rng.random()

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(n_init=st.integers(2, 4), **TIED)
    def test_restarts_reaching_one_partition_tie_and_the_first_wins(self, n, d, distinct, k_frac, n_init, seed):
        """Each Lloyd run that converges reports the inertia of its final
        partition, bit for bit, whatever its cluster labels; `kmeans` keeps
        the earliest restart at the lowest inertia, so restart 0 wins when
        every restart reaches one partition."""
        X = tied_rows(n, d, distinct, seed)
        k = 1 + int(k_frac * (n - 1))
        max_iter = KMEANS_ARGS["max_iter"]
        x_sq = np.einsum("ij,ij->i", X, X)
        runs = [_lloyd(X, x_sq, k, rng_for(seed, KMEANS, t), max_iter) for t in range(n_init)]
        inertias = {}
        for run in runs:
            if run.iterations < max_iter:  # converged
                inertias.setdefault(partition(run.assignments), set()).add(run.inertia)
        assert all(len(values) == 1 for values in inertias.values())
        res = km(X, k, seed, n_init=n_init)
        lowest = min(run.inertia for run in runs)
        assert res.restart == next(t for t, run in enumerate(runs) if run.inertia == lowest)
        if len({partition(run.assignments) for run in runs}) == 1 and len(inertias) == 1:
            assert res.restart == 0

    def test_translation_invariant_far_from_origin(self):
        rng = np.random.default_rng(11)
        means = 0.7 * rng.standard_normal((8, 16))  # overlapping blobs: many near-ties
        X = np.repeat(means, 60, axis=0) + rng.standard_normal((480, 16))
        base = km(X, 8, seed=3, n_init=2)
        far = km(X + 1e7, 8, seed=3, n_init=2)
        assert np.array_equal(far.assignments, base.assignments)
        assert np.array_equal(far.sizes, base.sizes)
        assert (far.iterations, far.restart) == (base.iterations, base.restart)
        assert far.inertia == pytest.approx(base.inertia, rel=1e-6)

    def test_memory_is_n_by_k(self):
        X = np.random.default_rng(12).standard_normal((6000, 16))
        tracemalloc.start()
        try:
            km(X, 50, seed=0, n_init=1, max_iter=5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8e6  # an (N, K, D) difference array alone is 38.4 MB


class TestHungarian:
    def test_identity_favoring(self):
        cost = np.ones((4, 4)) - np.eye(4)
        perm = hungarian(cost)
        assert perm.tolist() == [0, 1, 2, 3]

    def test_two_by_two_example(self):
        perm = hungarian(np.array([[4.0, 1.0], [2.0, 3.0]]))
        assert perm.tolist() == [1, 0]

    def test_matches_brute_force_random(self):
        rng = np.random.default_rng(5)
        for _ in range(60):
            n = int(rng.integers(2, 8))
            cost = rng.normal(size=(n, n))
            perm = hungarian(cost)
            ref, ref_total = brute_force_assignment(cost)
            assert np.array_equal(perm, ref)

    def test_lexicographic_tie_break(self):
        rng = np.random.default_rng(6)
        for _ in range(60):
            n = int(rng.integers(2, 6))
            cost = rng.integers(0, 3, size=(n, n)).astype(float)
            perm = hungarian(cost)
            ref, _ = brute_force_assignment(cost)
            assert np.array_equal(perm, ref)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(data=st.data(), n=st.integers(1, 7))
    def test_tie_heavy_matches_brute_force(self, data, n):
        entries = data.draw(st.lists(st.integers(0, 2), min_size=n * n, max_size=n * n))
        cost = np.array(entries, dtype=float).reshape(n, n)
        ref, _ = brute_force_assignment(cost)
        assert np.array_equal(hungarian(cost), ref)

    @pytest.mark.parametrize("n", [20, 30, 40])
    def test_tie_heavy_matches_resolving_oracle(self, n):
        # brute force is out of reach here; the re-solving tie-break is not
        rng = np.random.default_rng(n)
        contingency = np.zeros((n, n))  # a random clustering of 20n rows
        np.add.at(contingency, (rng.integers(0, n, 20 * n), rng.integers(0, n, 20 * n)), 1.0)
        agreement = np.zeros((n, n))  # 60% known classes; the other rows stay zero
        np.add.at(agreement, (rng.integers(0, 3 * n // 5, 10 * n), rng.integers(0, n, 10 * n)), 1.0)
        for cost in (-contingency, -agreement):
            assert np.array_equal(hungarian(cost), resolving_assignment(cost))

    def test_all_equal_costs_give_identity(self):
        perm = hungarian(np.ones((5, 5)))
        assert perm.tolist() == [0, 1, 2, 3, 4]

    def test_rejects_bad_matrices(self):
        with pytest.raises(ValueError):
            hungarian(np.ones((2, 3)))
        with pytest.raises(ValueError):
            hungarian(np.array([[np.inf, 1.0], [1.0, 0.0]]))


class _FakeResult:
    def __init__(self, assignments, n_clusters):
        self.assignments = np.asarray(assignments, dtype=int)
        self.sizes = np.bincount(self.assignments, minlength=n_clusters)
        self.inertia = 0.0
        self.iterations = 1


class TestAlignClusters:
    def test_pure_clusters_recover_identity(self):
        counts = np.array([40, 30, 20, 10])
        split = split_known_novel(*gen_synthetic(4, 4, counts, 12.0, 0.5, seed=7), 2, 0.5, seed=7)
        res, amap, pi = estimate_round(split.X, 4, split.y_lab, 2, seed=0, **KMEANS_ARGS)
        true_pi = split.true_counts / split.true_counts.sum()
        assert np.abs(pi - true_pi).sum() < 0.05

    def test_no_labeled_samples_rejected(self):
        res = _FakeResult([0, 1, 1, 0], 2)
        with pytest.raises(ValueError, match="no labeled samples to anchor the alignment"):
            align_clusters(res, np.zeros(0, dtype=int), 1)

    def test_sorted_novel_assignment(self):
        # clusters: 0,1 get the labeled known samples; novel clusters 2 (size 7) and 3 (size 3)
        assignments = np.array([0, 0, 1, 1] + [2] * 7 + [3] * 3)
        res = _FakeResult(assignments, 4)
        labeled_cls = np.array([0, 0, 1, 1])
        amap = align_clusters(res, labeled_cls, 2)
        assert amap.cluster_to_class[0] == 0
        assert amap.cluster_to_class[1] == 1
        assert amap.cluster_to_class[2] == 2  # bigger novel cluster, lower novel id
        assert amap.cluster_to_class[3] == 3

    def test_agreement_optimal_no_improving_transposition(self):
        rng = np.random.default_rng(8)
        for trial in range(10):
            C, known = 5, 3
            n_lab = 40
            labeled_cls = rng.integers(0, known, size=n_lab)
            assignments = rng.integers(0, C, size=n_lab + 20)
            res = _FakeResult(assignments, C)
            amap = align_clusters(res, labeled_cls, known)
            agreement = np.zeros((known, C))
            for cls, clu in zip(labeled_cls, assignments[:n_lab]):
                agreement[cls, clu] += 1
            inv = class_to_cluster(amap)
            base = sum(agreement[k, inv[k]] for k in range(known))
            for a in range(known):
                for b in range(a + 1, known):
                    swapped = base - agreement[a, inv[a]] - agreement[b, inv[b]] \
                        + agreement[a, inv[b]] + agreement[b, inv[a]]
                    assert swapped <= base + 1e-9

    def test_novel_classes_follow_cluster_size(self):
        rng = np.random.default_rng(9)
        for trial in range(20):
            C, known = 8, int(rng.integers(1, 7))
            labeled_cls = rng.integers(0, known, size=15)
            assignments = rng.integers(0, C, size=40)  # small clusters: size ties are common
            amap = align_clusters(_FakeResult(assignments, C), labeled_cls, known)
            sizes = np.bincount(assignments, minlength=C)
            novel = class_to_cluster(amap)[known:]  # each novel class's cluster, in class order
            # descending size, ties to the lower cluster id
            assert all((sizes[a], -a) > (sizes[b], -b) for a, b in zip(novel, novel[1:]))

    def test_fewer_clusters_than_known_rejected(self):
        res = _FakeResult([0, 0], 2)
        with pytest.raises(ValueError):
            align_clusters(res, np.array([2]), 3)


def identity_distribution(assignments, n_clusters):
    return aligned_distribution(_FakeResult(assignments, n_clusters), AlignmentMap(np.arange(n_clusters)))


class TestAlignedDistribution:
    def test_half_half(self):
        assert identity_distribution([0, 0, 1, 1], 2).tolist() == [0.5, 0.5]

    def test_single_cluster_dominates(self):
        assert identity_distribution(np.zeros(10, dtype=int), 2).tolist() == [1.0, 0.0]

    def test_longtail_shape(self):
        freq = identity_distribution(np.repeat(np.arange(5), [16, 8, 4, 2, 1]), 5)
        assert np.allclose(freq, np.array([16, 8, 4, 2, 1]) / 31)

    def test_identity_map_unchanged(self):
        res = _FakeResult([0, 0, 0, 1], 2)
        amap = AlignmentMap(np.array([0, 1]))
        assert aligned_distribution(res, amap).tolist() == [0.75, 0.25]

    def test_swap_map_swaps(self):
        res = _FakeResult([0, 0, 0, 1], 2)
        amap = AlignmentMap(np.array([1, 0]))
        assert aligned_distribution(res, amap).tolist() == [0.25, 0.75]

    def test_mass_conserved(self):
        rng = np.random.default_rng(9)
        assignments = rng.integers(0, 4, size=50)
        res = _FakeResult(assignments, 4)
        perm = rng.permutation(4)
        out = aligned_distribution(res, AlignmentMap(perm))
        assert out.sum() == pytest.approx(1.0)

    def test_alignment_map_validation(self):
        with pytest.raises(ValueError):
            AlignmentMap(np.array([0, 0]))


def test_floor_distribution():
    freq = np.array([0.5, 0.5, 0.0])
    floored = floor_distribution(freq, 100)
    assert floored[2] == pytest.approx(1 / 200)
    assert np.all(floored > 0)


def test_estimate_round_deterministic():
    counts = make_longtail_counts(6, "exponential", 10, 60)
    split = split_known_novel(*gen_synthetic(6, 5, counts, 10.0, 1.0, seed=10), 4, 0.5, seed=10)
    args = (split.X, 6, split.y_lab, 4)
    _, amap_a, pi_a = estimate_round(*args, seed=5, **KMEANS_ARGS)
    _, amap_b, pi_b = estimate_round(*args, seed=5, **KMEANS_ARGS)
    assert np.array_equal(pi_a, pi_b)
    assert np.array_equal(amap_a.cluster_to_class, amap_b.cluster_to_class)
