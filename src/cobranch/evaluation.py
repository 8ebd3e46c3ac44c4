"""Test-time protocol and metric suite.

Cluster the test features into C groups, find the cluster-to-class bijection
maximizing label agreement, and with that assignment fixed report accuracy
over known classes (Old), novel classes (New) and everything (All), plus
Many/Median/Few group accuracies (classes grouped by training-set count) and
the standard deviation across the three groups as a balancedness measure.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .estimate import hungarian, kmeans


# each partition's metrics: Many/Median/Few accuracy and their Std, in CSV order
GROUP_KEYS = ("many", "median", "few", "std")


@dataclass
class EvalReport:
    acc_all: float
    acc_old: float
    acc_new: float
    known: dict  # GROUP_KEYS over the known classes
    novel: dict  # GROUP_KEYS over the novel classes; all NaN when there are none
    per_class_acc: list
    assignment: list
    n_test: int
    warnings: list = field(default_factory=list)

    # a partition's Std column is std_<part>, its groups' <part>_<group>
    CSV_COLUMNS = ("acc_all", "acc_old", "acc_new", *(
        f"std_{part}" if key == "std" else f"{part}_{key}" for part in ("known", "novel") for key in GROUP_KEYS))

    def csv_row(self) -> list:
        return [self.acc_all, self.acc_old, self.acc_new,
                *(groups[key] for groups in (self.known, self.novel) for key in GROUP_KEYS)]


def aggregate(reports: list[EvalReport]) -> dict:
    """Mean and population std over `reports` of each CSV column, by name."""
    rows = np.array([report.csv_row() for report in reports], dtype=float)
    return {name: {"mean": float(np.mean(col)), "std": float(np.std(col))}
            for name, col in zip(EvalReport.CSV_COLUMNS, rows.T)}


def group_metrics(per_class_acc: np.ndarray, counts: np.ndarray, class_ids: np.ndarray) -> dict:
    """Many/Median/Few accuracies over one class partition plus their Std.

    Classes are sorted by training-set count descending (ties: lower id) and
    split into three contiguous groups as evenly as possible, larger groups
    first. Group accuracy is the unweighted mean of member-class accuracies
    (NaN for an empty group); Std is the population standard deviation of
    the nonempty group accuracies.
    """
    class_ids = np.asarray(class_ids, dtype=int)
    if class_ids.size == 0:
        raise ValueError("empty class partition")
    order = class_ids[np.lexsort((class_ids, -counts[class_ids]))]
    accs = [float(per_class_acc[members].mean()) if members.size else float("nan")
            for members in np.array_split(order, 3)]
    values = np.array(accs[:order.size])  # the nonempty groups come first
    std = float(np.sqrt(((values - values.mean()) ** 2).mean()))
    return {**dict(zip(GROUP_KEYS, accs)), "std": std}


def evaluate(
    features: np.ndarray,
    labels: np.ndarray,
    num_known: int,
    num_classes: int,
    train_counts: np.ndarray,
    seed: int,
    kmeans_max_iter: int,
    kmeans_n_init: int,
) -> EvalReport:
    """Cluster-and-match evaluation of a labeled test set.

    Every class in [0, num_classes) must appear. k-means produces the
    clusters; score_clustering does the matching and scoring.
    """
    X = np.asarray(features, dtype=float)
    y = np.asarray(labels, dtype=int)
    if X.shape[0] != y.size:
        raise ValueError("features and labels disagree in length")
    km = kmeans(X, num_classes, seed=seed, max_iter=kmeans_max_iter, n_init=kmeans_n_init)
    return score_clustering(km.assignments, y, num_known, num_classes, train_counts)


def score_clustering(
    cluster_assignments: np.ndarray,
    labels: np.ndarray,
    num_known: int,
    num_classes: int,
    train_counts: np.ndarray,
) -> EvalReport:
    """Metrics for a fixed clustering: find the agreement-maximizing
    cluster-to-class bijection (minimum-cost assignment on negated
    contingency counts) and score with that map fixed.

    acc_all is invariant to any permutation of the cluster ids. The other
    metrics are too when one bijection is the unique maximum. When several
    tie, the lexicographically smallest is used; which one that is depends
    on the cluster ids, so a relabeling can move acc_old, acc_new and the
    per-class accuracies."""
    y = np.asarray(labels, dtype=int)
    present = np.unique(y)
    if present.size != num_classes or present.min() != 0 or present.max() != num_classes - 1:
        missing = sorted(set(range(num_classes)) - set(present.tolist()))
        raise ValueError(f"test set is missing classes {missing}")
    if not 0 < num_known <= num_classes:
        raise ValueError("need 0 < num_known <= num_classes")
    train_counts = np.asarray(train_counts)
    if train_counts.size != num_classes:
        raise ValueError("train_counts must have one entry per class")

    clusters = np.asarray(cluster_assignments, dtype=int)
    contingency = np.zeros((num_classes, num_classes))
    np.add.at(contingency, (clusters, y), 1.0)
    assignment = hungarian(-contingency)

    pred = assignment[clusters]
    correct = pred == y
    acc_all = float(correct.mean())
    known_mask = y < num_known
    acc_old = float(correct[known_mask].mean()) if known_mask.any() else float("nan")
    acc_new = float(correct[~known_mask].mean()) if (~known_mask).any() else float("nan")

    class_sizes = np.bincount(y, minlength=num_classes)
    per_class = np.bincount(y, weights=correct, minlength=num_classes) / class_sizes

    num_novel = num_classes - num_known
    known = group_metrics(per_class, train_counts, np.arange(num_known))
    if num_novel:
        novel = group_metrics(per_class, train_counts, np.arange(num_known, num_classes))
    else:
        novel = dict.fromkeys(GROUP_KEYS, float("nan"))
    warnings = [f"partition of {m} classes: Many/Median/Few degenerate to singletons"
                for m in (num_known, num_novel) if 0 < m < 3]
    if not num_novel:
        warnings.append("no novel classes")

    return EvalReport(
        acc_all=acc_all,
        acc_old=acc_old,
        acc_new=acc_new,
        known=known,
        novel=novel,
        per_class_acc=per_class.tolist(),
        assignment=assignment.tolist(),
        n_test=int(y.size),
        warnings=warnings,
    )
