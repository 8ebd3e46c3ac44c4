"""Long-tailed labeled/unlabeled dataset construction.

Builds the training pools for category discovery experiments: a long-tailed
class-count profile, a labeled subset drawn from the known classes only, and
an unlabeled subset holding the rest of the known-class samples plus every
sample of the novel classes. Ground-truth labels of unlabeled samples are
retained for evaluation but must never be read by training code.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._rng import DATA, MEANS, SPLIT, rng_for

PROFILE_KINDS = ("exponential", "pareto")

# Embedding file format: UTF-8 CSV, header `id,label,f0,...,f{d-1}`.
# `label` is an integer class index, or -1 for a sample whose label is
# withheld from training. Features are decimal floats.
UNLABELED_MARKER = -1


class EmbeddingFormatError(ValueError):
    """Raised when an embedding file does not conform to the format."""


@dataclass(frozen=True)
class Sample:
    """One training instance: an id, a feature vector, an optional label."""

    id: int
    features: np.ndarray
    label: int | None


@dataclass(frozen=True)
class ImbalanceProfile:
    """Shape of a long-tailed class-count curve.

    rho is the imbalance ratio (largest count / smallest count), n_max the
    size of the largest class.
    """

    kind: str
    rho: float
    n_max: int

    def __post_init__(self):
        if self.kind not in PROFILE_KINDS:
            raise ValueError(f"unknown profile kind {self.kind!r}")
        if self.rho < 1:
            raise ValueError(f"imbalance ratio must be >= 1, got {self.rho}")
        if self.n_max < self.rho:
            raise ValueError(
                f"n_max={self.n_max} < rho={self.rho}: smallest class would round to 0"
            )


@dataclass
class DatasetSplit:
    """Labeled + unlabeled pools with known/novel bookkeeping.

    `unlabeled_true_labels` and `true_counts` are evaluation-only ground
    truth; training code paths must not read them.
    """

    labeled: list[Sample]
    unlabeled: list[Sample]
    num_known: int
    num_classes: int
    true_counts: np.ndarray | None = None
    unlabeled_true_labels: np.ndarray | None = None
    class_remap: dict[int, int] = field(default_factory=dict)

    def validate(self) -> None:
        if not 0 < self.num_known <= self.num_classes:
            raise ValueError("need 0 < num_known <= num_classes")
        for s in self.labeled:
            if s.label is None or not 0 <= s.label < self.num_known:
                raise ValueError(f"labeled sample {s.id} has label {s.label} outside known set")
        if self.true_counts is not None:
            total = int(np.sum(self.true_counts))
            if total != len(self.labeled) + len(self.unlabeled):
                raise ValueError("true_counts do not sum to the pool size")

    def feature_matrix(self) -> np.ndarray:
        """All features, labeled rows first then unlabeled rows."""
        return np.stack([s.features for s in self.labeled + self.unlabeled])

    def labeled_classes(self) -> np.ndarray:
        return np.array([s.label for s in self.labeled], dtype=int)


def _round_half_away(x: float) -> int:
    return int(math.floor(x + 0.5)) if x >= 0 else -int(math.floor(-x + 0.5))


def make_longtail_counts(num_classes: int, profile: ImbalanceProfile) -> np.ndarray:
    """Per-class instance counts, largest class first.

    Exponential: counts[c] = round(n_max * rho^(-c/(C-1))).
    Pareto: power-law in rank, counts[c] = round(n_max * (c+1)^(-a)) with the
    exponent chosen so counts[C-1] = n_max / rho. Both floor at 1 sample.
    """
    if num_classes < 2:
        raise ValueError(f"need at least 2 classes, got {num_classes}")
    c = np.arange(num_classes, dtype=float)
    if profile.kind == "exponential":
        raw = profile.n_max * profile.rho ** (-c / (num_classes - 1))
    else:
        a = math.log(profile.rho) / math.log(num_classes) if profile.rho > 1 else 0.0
        raw = profile.n_max * (c + 1.0) ** (-a)
    counts = np.array([max(1, _round_half_away(v)) for v in raw], dtype=int)
    return counts


def make_class_means(num_classes: int, d_in: int, class_separation: float, seed: int) -> np.ndarray:
    """Random class means rescaled so the closest pair sits exactly
    `class_separation` apart."""
    if d_in < 2:
        raise ValueError(f"need d_in >= 2, got {d_in}")
    if class_separation <= 0:
        raise ValueError("class_separation must be positive")
    rng = rng_for(seed, MEANS)
    means = rng.standard_normal((num_classes, d_in))
    diffs = means[:, None, :] - means[None, :, :]
    dist = np.sqrt((diffs**2).sum(-1))
    np.fill_diagonal(dist, np.inf)
    closest = dist.min()
    if closest <= 0:
        raise ValueError("degenerate class means")
    return means * (class_separation / closest)


def sample_from_means(
    means: np.ndarray,
    counts: np.ndarray,
    noise_scale: float,
    seed: int,
    stream: int = DATA,
    id_offset: int = 0,
) -> list[Sample]:
    """Isotropic Gaussian samples around fixed class means."""
    counts = np.asarray(counts, dtype=int)
    if len(counts) != means.shape[0]:
        raise ValueError("counts length must equal the number of class means")
    if np.any(counts < 0):
        raise ValueError("counts must be nonnegative")
    rng = rng_for(seed, stream)
    samples = []
    next_id = id_offset
    for c in range(means.shape[0]):
        block = np.repeat(means[c][None, :], counts[c], axis=0)
        if noise_scale > 0:
            block = block + noise_scale * rng.standard_normal((counts[c], means.shape[1]))
        for row in block:
            samples.append(Sample(id=next_id, features=row.astype(float), label=c))
            next_id += 1
    return samples


def gen_synthetic(
    num_classes: int,
    d_in: int,
    counts: np.ndarray,
    class_separation: float,
    noise_scale: float,
    seed: int,
) -> list[Sample]:
    """Gaussian-blob pool: one mean per class, isotropic noise around it.

    Deterministic in `seed`; see make_class_means/sample_from_means to build
    several pools (e.g. a disjoint test set) over the same means.
    """
    counts = np.asarray(counts, dtype=int)
    if len(counts) != num_classes:
        raise ValueError("counts length must equal num_classes")
    if np.any(counts < 1):
        raise ValueError("every class needs at least one sample")
    means = make_class_means(num_classes, d_in, class_separation, seed)
    return sample_from_means(means, counts, noise_scale, seed)


def split_known_novel(
    samples: list[Sample],
    num_known: int,
    labeled_ratio: float,
    seed: int,
) -> DatasetSplit:
    """Split a fully labeled pool into labeled/unlabeled with hidden novels.

    A seeded permutation decides which original classes are known, so known
    classes are not systematically the head of the long tail. Class ids are
    remapped: known classes become [0, num_known), novel [num_known, C).
    Novel ids are ordered by descending class size: novel identities are
    unobservable during training, and this canonical order is the one a
    size-sorted cluster assignment reproduces. Per known class,
    floor(labeled_ratio * n_c) seeded-shuffled samples go to the labeled
    pool; everything else (and all novel samples) is unlabeled.
    """
    if not 0 < labeled_ratio <= 1:
        raise ValueError(f"labeled_ratio must be in (0, 1], got {labeled_ratio}")
    if any(s.label is None for s in samples):
        raise ValueError("split_known_novel needs a fully labeled pool")
    orig_classes = sorted({s.label for s in samples})
    num_classes = len(orig_classes)
    if num_known > num_classes:
        raise ValueError(f"num_known={num_known} > {num_classes} classes")
    if orig_classes != list(range(num_classes)):
        raise ValueError("class labels must be contiguous from 0")

    class_sizes = np.zeros(num_classes, dtype=int)
    for s in samples:
        class_sizes[s.label] += 1

    rng = rng_for(seed, SPLIT)
    perm = rng.permutation(num_classes)
    # perm[k] is the original id that becomes split id k; first num_known are
    # known, the rest reordered novel-largest-first
    novel = sorted(perm[num_known:].tolist(), key=lambda orig: (-class_sizes[orig], orig))
    perm = np.concatenate([perm[:num_known], np.array(novel, dtype=int)])
    remap = {int(orig): new for new, orig in enumerate(perm)}

    by_class: dict[int, list[Sample]] = {c: [] for c in range(num_classes)}
    for s in samples:
        by_class[s.label].append(s)
    for c, group in by_class.items():
        if not group:
            raise ValueError(f"class {c} is empty")

    labeled: list[Sample] = []
    unlabeled: list[Sample] = []
    hidden: list[int] = []
    true_counts = np.zeros(num_classes, dtype=int)
    for orig in range(num_classes):
        new = remap[orig]
        group = sorted(by_class[orig], key=lambda s: s.id)
        true_counts[new] = len(group)
        order = rng.permutation(len(group))
        if new < num_known:
            n_lab = int(labeled_ratio * len(group))
            take = set(order[:n_lab].tolist())
        else:
            take = set()
        for pos, s in enumerate(group):
            if pos in take:
                labeled.append(Sample(id=s.id, features=s.features, label=new))
            else:
                unlabeled.append(Sample(id=s.id, features=s.features, label=None))
                hidden.append(new)

    split = DatasetSplit(
        labeled=labeled,
        unlabeled=unlabeled,
        num_known=num_known,
        num_classes=num_classes,
        true_counts=true_counts,
        unlabeled_true_labels=np.array(hidden, dtype=int),
        class_remap=remap,
    )
    split.validate()
    return split


def feature_std(samples: list[Sample]) -> float:
    """Global scalar std of a pool's features (used to scale view noise)."""
    mat = np.stack([s.features for s in samples])
    return float(mat.std())


def save_embeddings(samples: list[Sample], path: str) -> None:
    """Write the embedding CSV format; floats via repr for exact round-trip."""
    if not samples:
        raise ValueError("refusing to write an empty pool")
    d = len(samples[0].features)
    header = "id,label," + ",".join(f"f{i}" for i in range(d))
    lines = [header]
    for s in samples:
        if len(s.features) != d:
            raise ValueError(f"sample {s.id} has dimension {len(s.features)} != {d}")
        label = UNLABELED_MARKER if s.label is None else s.label
        lines.append(f"{s.id},{label}," + ",".join(repr(float(x)) for x in s.features))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def load_embeddings(path: str) -> list[Sample]:
    """Read the embedding CSV format, label -1 meaning withheld from training."""
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

    samples = []
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
            sid = int(parts[0])
            label_raw = int(parts[1])
            feats = np.array([float(x) for x in parts[2:]], dtype=float)
        except ValueError as exc:
            raise EmbeddingFormatError(f"{path}:{lineno}: {exc}") from exc
        if not np.all(np.isfinite(feats)):
            raise EmbeddingFormatError(f"{path}:{lineno}: non-finite feature value")
        if sid in id_lines:
            raise EmbeddingFormatError(
                f"{path}:{lineno}: sample id {sid} already used on line {id_lines[sid]}"
            )
        id_lines[sid] = lineno
        if label_raw < UNLABELED_MARKER:
            raise EmbeddingFormatError(
                f"{path}:{lineno}: label index {label_raw} is invalid"
            )
        label = None if label_raw == UNLABELED_MARKER else label_raw
        samples.append(Sample(id=sid, features=feats, label=label))
    if not samples:
        raise EmbeddingFormatError(f"{path}: no data rows")
    return samples
