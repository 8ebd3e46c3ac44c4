import dataclasses
import itertools
import json

import numpy as np
import pytest

from cobranch.cli import dump_json
from cobranch.evaluation import EvalReport, evaluate, group_metrics, score_clustering
from oracles import EVAL_ARGS, KMEANS_ARGS, group_sizes, recount_accuracy


def clustered_features(labels, centers, noise, rng):
    X = centers[labels] + noise * rng.standard_normal((labels.size, centers.shape[1]))
    return X


class TestEvaluate:
    def test_perfectly_clustered_features(self):
        rng = np.random.default_rng(0)
        labels = np.repeat(np.arange(4), 25)
        centers = 20.0 * np.eye(4)
        X = clustered_features(labels, centers, 0.01, rng)
        report = evaluate(X, labels, num_known=2, num_classes=4,
                          train_counts=np.array([40, 30, 20, 10]), seed=0, **EVAL_ARGS)
        assert report.acc_all == 1.0
        assert report.acc_old == 1.0
        assert report.acc_new == 1.0
        assert report.known["std"] == 0.0

    def test_identical_features_degenerate(self):
        labels = np.repeat(np.arange(3), 10)
        X = np.zeros((30, 4))
        report = evaluate(X, labels, num_known=2, num_classes=3,
                          train_counts=np.array([10, 10, 10]), seed=1, **EVAL_ARGS)
        # the dominant surviving cluster matches one class; repair may add a
        # couple of stray singletons on top
        assert report.acc_all >= 10 / 30 - 1e-12
        assert report.acc_all <= 1.0

    def test_accuracy_equals_independent_recount(self):
        rng = np.random.default_rng(2)
        from cobranch.estimate import kmeans

        labels = np.repeat(np.arange(4), 30)
        centers = rng.standard_normal((4, 3)) * 6
        X = clustered_features(labels, centers, 1.0, rng)
        counts = np.array([50, 30, 20, 10])
        report = evaluate(X, labels, 2, 4, counts, seed=3, **EVAL_ARGS)
        km = kmeans(X, 4, seed=3, **KMEANS_ARGS)
        recount = recount_accuracy(km.assignments, labels, report.assignment)
        assert report.acc_all == pytest.approx(recount, abs=1e-12)

    def test_hungarian_assignment_is_optimal(self):
        rng = np.random.default_rng(3)
        labels = np.repeat(np.arange(4), 20)
        centers = rng.standard_normal((4, 3)) * 4
        X = clustered_features(labels, centers, 1.5, rng)
        counts = np.array([40, 30, 20, 10])
        report = evaluate(X, labels, 2, 4, counts, seed=4, **EVAL_ARGS)
        from cobranch.estimate import kmeans

        km = kmeans(X, 4, seed=4, **KMEANS_ARGS)
        best = max(
            recount_accuracy(km.assignments, labels, perm)
            for perm in itertools.permutations(range(4))
        )
        assert report.acc_all == pytest.approx(best, abs=1e-12)

    def test_invariant_to_cluster_relabeling(self):
        # generic clustering (no tied matchings): mostly-correct with corruption
        rng = np.random.default_rng(4)
        labels = np.repeat(np.arange(5), [14, 13, 12, 11, 10])
        assignments = labels.copy()
        corrupt = rng.random(labels.size) < 0.2
        assignments[corrupt] = rng.integers(0, 5, size=int(corrupt.sum()))
        counts = np.array([30, 25, 20, 15, 10])
        base = score_clustering(assignments, labels, 3, 5, counts)
        for _ in range(5):
            perm = rng.permutation(5)
            permuted = perm[assignments]
            other = score_clustering(permuted, labels, 3, 5, counts)
            assert other.acc_all == base.acc_all
            assert other.acc_old == base.acc_old
            assert other.acc_new == base.acc_new
            assert other.per_class_acc == base.per_class_acc
            assert other.known["std"] == base.known["std"]
            assert other.novel["std"] == base.novel["std"]

        # tie-heavy C=50 (random clustering of 2,000 rows): many bijections
        # tie, and only acc_all is independent of which one is chosen
        labels = np.repeat(np.arange(50), 40)
        assignments = rng.integers(0, 50, size=labels.size)
        counts = np.arange(100, 50, -1)
        base = score_clustering(assignments, labels, 30, 50, counts)
        for _ in range(3):
            perm = rng.permutation(50)
            assert score_clustering(perm[assignments], labels, 30, 50, counts).acc_all == base.acc_all

    def test_missing_class_rejected(self):
        X = np.zeros((10, 2))
        labels = np.zeros(10, dtype=int)
        with pytest.raises(ValueError, match="missing classes"):
            evaluate(X, labels, 1, 2, np.array([5, 5]), seed=0, **EVAL_ARGS)

    def test_json_dict_clean(self):
        rng = np.random.default_rng(5)
        labels = np.repeat(np.arange(3), 8)
        X = clustered_features(labels, 10 * np.eye(3), 0.1, rng)
        report = evaluate(X, labels, 3, 3, np.array([8, 8, 8]), seed=0, **EVAL_ARGS)
        d = json.loads(dump_json(dataclasses.asdict(report)), parse_constant=pytest.fail)  # strict: no NaN
        assert d["novel"]["many"] is None  # no novel classes


class TestGroupMetrics:
    def test_equal_accuracies_zero_std(self):
        acc = np.full(6, 0.7)
        counts = np.array([60, 50, 40, 30, 20, 10])
        groups = group_metrics(acc, counts, np.arange(6))
        assert groups["std"] == pytest.approx(0.0, abs=1e-12)
        assert groups == {"many": pytest.approx(0.7), "median": pytest.approx(0.7),
                          "few": pytest.approx(0.7), "std": groups["std"]}

    def test_hand_computed_std(self):
        acc = np.array([0.8, 0.6, 0.4])
        counts = np.array([30, 20, 10])
        groups = group_metrics(acc, counts, np.arange(3))
        assert groups["many"] == pytest.approx(0.8)
        assert groups["median"] == pytest.approx(0.6)
        assert groups["few"] == pytest.approx(0.4)
        assert groups["std"] == pytest.approx(0.16329931618554522, abs=1e-12)

    def test_six_classes_split_evenly(self):
        acc = np.array([1.0, 1.0, 0.5, 0.5, 0.0, 0.0])
        counts = np.array([60, 50, 40, 30, 20, 10])
        groups = group_metrics(acc, counts, np.arange(6))
        assert groups["many"] == pytest.approx(1.0)
        assert groups["median"] == pytest.approx(0.5)
        assert groups["few"] == pytest.approx(0.0)

    def test_four_classes_split_2_1_1(self):
        acc = np.array([1.0, 0.8, 0.6, 0.4])
        counts = np.array([40, 30, 20, 10])
        groups = group_metrics(acc, counts, np.arange(4))
        assert groups["many"] == pytest.approx(0.9)
        assert groups["median"] == pytest.approx(0.6)
        assert groups["few"] == pytest.approx(0.4)

    def test_sorting_by_training_count(self):
        # class 2 is the biggest in the training set despite its id
        acc = np.array([0.1, 0.2, 0.9])
        counts = np.array([10, 20, 100])
        groups = group_metrics(acc, counts, np.arange(3))
        assert groups["many"] == pytest.approx(0.9)
        assert groups["few"] == pytest.approx(0.1)

    def test_degenerate_partition_warns(self):
        acc = np.array([0.5, 0.6])
        counts = np.array([10, 5])
        groups = group_metrics(acc, counts, np.arange(2))
        labels = np.repeat(np.arange(5), 2)
        report = score_clustering(labels, labels, 2, 5, np.arange(5, 0, -1))
        assert report.warnings == ["partition of 2 classes: Many/Median/Few degenerate to singletons"]
        assert groups["many"] == pytest.approx(0.5)
        assert groups["median"] == pytest.approx(0.6)
        assert np.isnan(groups["few"])

    def test_empty_partition_rejected(self):
        with pytest.raises(ValueError):
            group_metrics(np.zeros(0), np.zeros(0, dtype=int), np.zeros(0, dtype=int))

    def test_partition_matches_group_size_oracle(self):
        # class c has the c-th largest count and accuracy c, so each group's
        # mean accuracy pins down which classes it holds
        for m in range(1, 61):
            groups = group_metrics(np.arange(m, dtype=float), np.arange(m, 0, -1), np.arange(m))
            want, start = {}, 0
            for name, size in zip(("many", "median", "few"), group_sizes(m)):
                want[name] = float(np.arange(start, start + size).mean()) if size else float("nan")
                start += size
            assert {name: groups[name] for name in want} == pytest.approx(want, nan_ok=True), m


def test_csv_row_matches_columns():
    rng = np.random.default_rng(6)
    labels = np.repeat(np.arange(4), 10)
    X = clustered_features(labels, 10 * np.eye(4), 0.1, rng)
    report = evaluate(X, labels, 2, 4, np.array([4, 3, 2, 1]), seed=0, **EVAL_ARGS)
    assert len(report.csv_row()) == len(EvalReport.CSV_COLUMNS)
