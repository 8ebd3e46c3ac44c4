"""Long-tailed labeled/unlabeled dataset construction.

Builds the training pools for category discovery experiments: a long-tailed
class-count profile, a labeled subset drawn from the known classes only, and
an unlabeled subset holding the rest of the known-class samples plus every
sample of the novel classes. Ground-truth labels of unlabeled samples are
retained for evaluation but must never be read by training code.
"""

from __future__ import annotations

import collections
import contextlib
import hashlib
import itertools
import math
import os
import re
import shutil
import signal
import warnings
import zipfile
from collections.abc import Iterable, Iterator
from dataclasses import dataclass

import numpy as np

from ._rng import DATA, MEANS, SPLIT, rng_for

# Embedding file format: UTF-8 CSV, header `id,label,f0,...,f{d-1}`.
# `label` is an integer class index, or -1 for a sample whose label is
# withheld from training. Features are decimal floats.
UNLABELED_MARKER = -1
# A cache beside each embedding file: the parsed arrays and the sha256 of the
# bytes they were parsed from.
SIDECAR_SUFFIX = ".parsed.npz"
# A load reads the file in blocks of whole lines of about this many bytes,
# and converts this many rows per `np.loadtxt` call, so what it holds besides
# its result arrays is bounded by a block, not by the file.
_BLOCK_BYTES = 1 << 16
_BLOCK_ROWS = 128
# `save_embeddings` gives each CPU at least this many rows: in a 60 MB process, two
# parts of 250 rows lost to one in 38 of 40 runs, and two parts of 512 won 36 of 40.
_MIN_ROWS_PER_WORKER = 512


class EmbeddingFormatError(ValueError):
    """Raised when an embedding file does not conform to the format."""


@dataclass
class DatasetSplit:
    """Labeled + unlabeled pools with known/novel bookkeeping.

    `X` holds one feature row per sample, the labeled rows first; `y_lab`
    gives the classes of those first `y_lab.size` rows, and `ids` the sample
    id of every row. `unlabeled_true_labels` and `true_counts` are
    evaluation-only ground truth; training code paths must not read them.
    `class_remap[c]` is the split class of generated class c (None for a
    pool read from files).
    """

    X: np.ndarray
    y_lab: np.ndarray
    ids: np.ndarray
    num_known: int
    num_classes: int
    true_counts: np.ndarray | None = None
    unlabeled_true_labels: np.ndarray | None = None
    class_remap: np.ndarray | None = None

    def validate(self) -> None:
        if not 0 < self.num_known <= self.num_classes:
            raise ValueError("need 0 < num_known <= num_classes")
        if self.X.ndim != 2 or self.ids.shape != self.X.shape[:1] or self.y_lab.size > len(self.X):
            raise ValueError(
                f"X {self.X.shape}, ids {self.ids.shape} and y_lab {self.y_lab.shape} disagree"
            )
        bad = np.flatnonzero((self.y_lab < 0) | (self.y_lab >= self.num_known))
        if bad.size:
            i = bad[0]
            raise ValueError(f"labeled sample {self.ids[i]} has label {self.y_lab[i]} outside known set")
        if self.true_counts is not None and int(np.sum(self.true_counts)) != len(self.X):
            raise ValueError("true_counts do not sum to the pool size")


def make_longtail_counts(num_classes: int, kind: str, rho: float, n_max: int) -> np.ndarray:
    """Per-class instance counts, largest class first, on a long-tailed
    curve of imbalance ratio `rho` (largest count / smallest count).

    Exponential: counts[c] = round(n_max * rho^(-c/(C-1))).
    Pareto: power-law in rank, counts[c] = round(n_max * (c+1)^(-a)) with the
    exponent chosen so counts[C-1] = n_max / rho. Both floor at 1 sample.
    """
    c = np.arange(num_classes, dtype=float)
    if kind == "exponential":
        raw = n_max * rho ** (-c / (num_classes - 1))
    else:
        a = math.log(rho) / math.log(num_classes) if rho > 1 else 0.0
        raw = n_max * (c + 1.0) ** (-a)
    return np.maximum(1, np.floor(raw + 0.5)).astype(int)  # raw >= 0: round half away from zero


def make_class_means(num_classes: int, d_in: int, class_separation: float, seed: int) -> np.ndarray:
    """Random class means rescaled so the closest pair sits exactly
    `class_separation` apart."""
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
) -> tuple[np.ndarray, np.ndarray]:
    """Isotropic Gaussian samples around fixed class means.

    Returns `(X, y)`: counts[c] rows of class c, class by class.
    """
    counts = np.asarray(counts, dtype=int)
    if len(counts) != means.shape[0]:
        raise ValueError("counts length must equal the number of class means")
    if np.any(counts < 0):
        raise ValueError("counts must be nonnegative")
    y = np.repeat(np.arange(len(counts)), counts)
    X = means[y].astype(float)
    if noise_scale > 0:
        X = X + noise_scale * rng_for(seed, stream).standard_normal(X.shape)
    return X, y


def remap_known_novel(class_sizes: np.ndarray, num_known: int, rng: np.random.Generator) -> np.ndarray:
    """Original class id -> split class id.

    One seeded permutation decides which original classes are known, so
    known classes are not systematically the head of the long tail; they
    become [0, num_known) in permutation order. Novel ids [num_known, C) are
    ordered by descending class size (ties by original id): novel identities
    are unobservable during training, and this canonical order is the one a
    size-sorted cluster assignment reproduces.
    """
    class_sizes = np.asarray(class_sizes)
    perm = rng.permutation(class_sizes.size)
    novel = perm[num_known:]
    novel = novel[np.lexsort((novel, -class_sizes[novel]))]
    remap = np.empty(class_sizes.size, dtype=int)
    remap[np.concatenate([perm[:num_known], novel])] = np.arange(class_sizes.size)
    return remap


def split_from_mask(
    X: np.ndarray,
    y: np.ndarray,
    ids: np.ndarray,
    labeled: np.ndarray,
    num_known: int,
    num_classes: int,
    true_counts: np.ndarray | None,
    class_remap: np.ndarray | None,
) -> DatasetSplit:
    """The split with the `labeled` rows first, each part in input order.

    `y` holds every row's split-space class, UNLABELED_MARKER where it is
    unknown. When every unlabeled row's class is known (a synthetic pool),
    those classes are kept as evaluation-only ground truth.
    """
    order = np.concatenate([np.flatnonzero(labeled), np.flatnonzero(~labeled)])
    hidden = y[~labeled]
    split = DatasetSplit(
        X=X[order],
        y_lab=y[labeled],
        ids=ids[order],
        num_known=num_known,
        num_classes=num_classes,
        true_counts=true_counts,
        unlabeled_true_labels=None if np.any(hidden == UNLABELED_MARKER) else hidden,
        class_remap=class_remap,
    )
    split.validate()
    return split


def _synthetic_split(X, y, labeled, num_known, remap) -> DatasetSplit:
    """Split a generated pool whose row i has id i and original class y[i]."""
    y_split = remap[y]
    return split_from_mask(
        X,
        y_split,
        np.arange(y.size),
        labeled,
        num_known,
        remap.size,
        np.bincount(y_split, minlength=remap.size),
        remap,
    )


def split_known_novel(
    X: np.ndarray,
    y: np.ndarray,
    num_known: int,
    labeled_ratio: float,
    seed: int,
) -> DatasetSplit:
    """Split a fully labeled pool into labeled/unlabeled with hidden novels.

    Row i of `X` is sample id i, of original class y[i]. Classes are
    remapped by `remap_known_novel`: known classes become [0, num_known),
    novel [num_known, C). Per known class, floor(labeled_ratio * n_c)
    seeded-shuffled samples go to the labeled pool; everything else (and all
    novel samples) is unlabeled.
    """
    y = np.asarray(y, dtype=int)
    if np.any(y == UNLABELED_MARKER):
        raise ValueError("split_known_novel needs a fully labeled pool")
    classes = np.unique(y)
    if num_known > classes.size:
        raise ValueError(f"num_known={num_known} > {classes.size} classes")
    if not np.array_equal(classes, np.arange(classes.size)):
        raise ValueError("class labels must be contiguous from 0")

    rng = rng_for(seed, SPLIT)
    remap = remap_known_novel(np.bincount(y), num_known, rng)
    labeled = np.zeros(y.size, dtype=bool)
    for orig in range(classes.size):
        rows = np.flatnonzero(y == orig)
        order = rng.permutation(rows.size)
        if remap[orig] < num_known:
            labeled[rows[order[: int(labeled_ratio * rows.size)]]] = True
    return _synthetic_split(X, y, labeled, num_known, remap)


def split_independent_pools(
    means: np.ndarray,
    counts_u: np.ndarray,
    counts_l_ranked: np.ndarray,
    num_known: int,
    noise_scale: float,
    seed: int,
) -> DatasetSplit:
    """Labeled and unlabeled pools with their own long-tail profiles.

    The unlabeled pool has counts_u[c] samples of original class c; the
    known classes, ranked by that count (ties by original id), get
    counts_l_ranked labeled samples in rank order. Both pools share `means`:
    each class draws one block of both counts, and its first counts_l rows
    are the labeled ones.
    """
    counts_u = np.asarray(counts_u, dtype=int)
    remap = remap_known_novel(counts_u, num_known, rng_for(seed, SPLIT))
    known = np.flatnonzero(remap < num_known)
    known = known[np.lexsort((known, -counts_u[known]))]
    counts_l = np.zeros_like(counts_u)
    counts_l[known] = counts_l_ranked
    totals = counts_u + counts_l
    X, y = sample_from_means(means, totals, noise_scale, seed)
    rank_in_class = np.arange(y.size) - np.repeat(np.cumsum(totals) - totals, totals)
    return _synthetic_split(X, y, rank_in_class < counts_l[y], num_known, remap)


def _header(d: int) -> str:
    return "id,label," + ",".join(f"f{i}" for i in range(d))


def _csv_rows(ids: np.ndarray, labels: np.ndarray, X: np.ndarray) -> Iterator[bytes]:
    """The embedding CSV lines of these rows; floats via repr for exact round-trip."""
    for sid, label, row in zip(ids.tolist(), labels.tolist(), X):
        yield (f"{sid},{label}," + ",".join(map(repr, row.tolist())) + "\n").encode()


def save_embeddings(ids: np.ndarray, labels: np.ndarray, X: np.ndarray, path: str) -> None:
    """Write the embedding CSV format through `atomic_file`. `labels` holds
    UNLABELED_MARKER for a sample whose label is withheld.

    `repr` is nearly all the cost, so the rows are cut into one contiguous part
    per usable CPU, of at least `_MIN_ROWS_PER_WORKER` rows. This process writes
    the first part; a child forked before the file is opened formats each other
    part into a pipe copied in after it. All go through `_csv_rows`, so the
    bytes do not depend on the CPU count. Python 3.12+ warns when a
    multi-threaded process forks; the CLI forks from its single thread.
    """
    if len(X) == 0:
        raise ValueError("refusing to write an empty pool")
    if X.ndim != 2 or len(ids) != len(X) or len(labels) != len(X):
        raise ValueError(f"ids {len(ids)}, labels {len(labels)} and X {X.shape} disagree")
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") and hasattr(os, "fork") else 1
    parts = max(1, min(cpus, len(X) // _MIN_ROWS_PER_WORKER))
    cuts = [len(X) * k // parts for k in range(parts + 1)]
    pipes, pids = [], []  # the read end and the child not yet reaped, of each part after the first
    try:
        for start, stop in zip(cuts[1:], cuts[2:]):
            read, write = os.pipe()
            pipes.append(open(read, "rb"))
            with open(write, "wb") as pipe:
                pids.append(os.fork())
                if pids[-1] == 0:  # the child: its whole part into memory, then into the pipe
                    try:
                        pipes[-1].close()  # so a write fails, not blocks, once the parent is gone
                        pipe.write(b"".join(_csv_rows(ids[start:stop], labels[start:stop], X[start:stop])))
                        pipe.close()
                        os._exit(0)
                    finally:
                        os._exit(1)
        with atomic_file(path) as fh:
            fh.write((_header(X.shape[1]) + "\n").encode())
            fh.writelines(_csv_rows(ids[: cuts[1]], labels[: cuts[1]], X[: cuts[1]]))
            for pipe in pipes:
                shutil.copyfileobj(pipe, fh)
                status = os.waitpid(pids[0], 0)[1]
                del pids[0]
                if status:
                    raise OSError(f"{path}: a process formatting rows exited with {os.waitstatus_to_exitcode(status)}")
    finally:
        for pipe in pipes:
            pipe.close()
        for pid in pids:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _first(mask: np.ndarray) -> int:
    """Index of the first True in `mask`, or its length when there is none."""
    return int(mask.argmax()) if mask.any() else mask.size


def _parse_rows(rows: tuple[str, ...], dtype: np.dtype) -> np.ndarray:
    """`rows` as one structured array. An integer field spelled as a float is
    a ValueError on every NumPy: older ones only warn and truncate it."""
    if not rows:
        return np.zeros(0, dtype)
    with warnings.catch_warnings():
        warnings.filterwarnings("error", ".*integer via a float", DeprecationWarning)
        return np.loadtxt(rows, dtype=dtype, delimiter=",", comments=None, ndmin=1)


def _first_fault(ids: np.ndarray, labels: np.ndarray, X: np.ndarray, num_classes: int | None):
    """The first row that fails an array check (`ids.size` when none does),
    and a function of (that row, each row's file line) that says why. On one
    row the first failing check is the one named."""
    order = np.argsort(ids, kind="stable")
    repeat = np.zeros(ids.size, dtype=bool)
    repeat[order[1:]] = ids[order[1:]] == ids[order[:-1]]
    if num_classes is None:
        bad_label, want = labels < UNLABELED_MARKER, ""
    else:
        bad_label, want = (labels < 0) | (labels >= num_classes), f": test rows need a class in [0, {num_classes})"
    checks = (
        (~np.isfinite(X).all(axis=1), lambda i, lineno: "non-finite feature value"),
        (repeat, lambda i, lineno: f"sample id {ids[i]} already used on line {lineno[_first(ids == ids[i])]}"),
        (bad_label, lambda i, lineno: f"label index {labels[i]} is invalid{want}"),
    )
    return min(((_first(mask), say) for mask, say in checks), key=lambda c: c[0])


def _parse(path: str, lines: Iterable[str], num_classes: int | None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """`load_embeddings` on the file's lines, with no cache, converted
    `_BLOCK_ROWS` rows at a time straight into the result arrays."""
    lines = iter(lines)
    first = next(lines, None)
    if first is None:
        raise EmbeddingFormatError(f"{path}: empty file")
    header = first.split(",")
    if len(header) < 3 or header[0] != "id" or header[1] != "label":
        raise EmbeddingFormatError(f"{path}:1: bad header {first!r}")
    d = len(header) - 2
    for i, name in enumerate(header[2:]):
        if name != f"f{i}":
            raise EmbeddingFormatError(f"{path}:1: expected column f{i}, got {name!r}")

    dtype = np.dtype([("id", np.int64), ("label", np.int64), ("x", np.float64, (d,))])
    ids, labels, lineno, X = np.empty(0, np.int64), np.empty(0, np.int64), np.empty(0, np.int64), np.empty((0, d))
    numbered = ((i, line) for i, line in enumerate(lines, start=2) if line.strip())
    # Rows [0, n) parse; row n, if `fault` says why, is the first with a wrong
    # field count or an unparsable value, and a fault above it is reported first.
    n, fault = 0, ""
    while not fault and (block := list(itertools.islice(numbered, _BLOCK_ROWS))):
        at, rows = zip(*block)
        fields = np.array([row.count(",") for row in rows]) + 1
        end = _first(fields != d + 2)
        fault = f"expected {d + 2} fields, got {fields[end]}" if end < len(rows) else ""
        try:
            table = _parse_rows(rows[:end], dtype)
        except ValueError as exc:
            # NumPy names the row as a 0-based index into the rows passed.
            where = re.search(r" at row (\d+)", str(exc))
            if where is None:
                raise EmbeddingFormatError(f"{path}: {exc}") from exc
            end, fault = int(where.group(1)), str(exc).replace(where.group(0), "")
            table = _parse_rows(rows[:end], dtype)
        for array in (ids, labels, lineno, X):  # in place: no view of them outlives a statement
            array.resize((n + len(rows), *array.shape[1:]), refcheck=False)
        lineno[n:], ids[n : n + end], labels[n : n + end], X[n : n + end] = at, table["id"], table["label"], table["x"]
        n += end
    if not n and not fault:
        raise EmbeddingFormatError(f"{path}: no data rows")

    row, message = _first_fault(ids[:n], labels[:n], X[:n], num_classes)
    if row < n:
        raise EmbeddingFormatError(f"{path}:{lineno[row]}: {message(row, lineno)}")
    if fault:
        raise EmbeddingFormatError(f"{path}:{lineno[n]}: {fault}")
    return ids, labels, X


def _blocks(fh) -> Iterator[bytes]:
    """The rest of `fh` in blocks of whole lines of about `_BLOCK_BYTES`
    each; only the last block may end without b"\\n"."""
    while block := fh.read(_BLOCK_BYTES):
        yield block if block.endswith(b"\n") else block + fh.readline()


def _lines(path: str, fh, digest) -> Iterator[str]:
    """The text lines of `fh` from its start, decoded block by block after
    each block's bytes go into `digest`. A block ends after a b"\\n", so its
    lines are those the whole text splits into there."""
    offset = newlines = 0
    for block in _blocks(fh):
        digest.update(block)
        try:
            text = block.decode("utf-8")
        except UnicodeDecodeError as exc:  # worded as a decode of the whole file would word it
            start, last = offset + exc.start, offset + exc.end - 1
            what = f"byte 0x{block[exc.start]:02x} in position {start}" if start == last else \
                f"bytes in position {start}-{last}"
            line = newlines + block.count(b"\n", 0, exc.start) + 1
            raise EmbeddingFormatError(
                f"{path}:{line}: not UTF-8 ('utf-8' codec can't decode {what}: {exc.reason})") from exc
        offset, newlines = offset + len(block), newlines + block.count(b"\n")
        yield from text.splitlines()


def _read_sidecar(side: str, digest: str, raw: bytes, num_classes: int | None):
    """The arrays cached in `side`, if they were parsed from bytes with this
    digest and pass again every check the parser makes on the header width
    (in `raw`, the file's leading bytes) and on arrays; else None."""
    try:
        with open(side, "rb") as fh, np.load(fh, allow_pickle=False) as z:
            if str(z["sha256"]) != digest:
                return None
            ids, labels, X = z["ids"], z["labels"], z["X"]
    except (OSError, EOFError, KeyError, TypeError, ValueError, RuntimeError, zipfile.BadZipFile):
        return None  # no file, a damaged one, or one that holds something else
    if not (
        X.ndim == 2 and len(X) and ids.shape == labels.shape == X.shape[:1]
        and ids.dtype == labels.dtype == np.int64 and X.dtype == np.float64
    ):
        return None
    head = _header(X.shape[1]).encode()
    if raw[: len(head) + 1] not in (head + b"\n", head + b"\r"):
        return None
    if _first_fault(ids, labels, X, num_classes)[0] < len(X):
        return None
    return ids, labels, X


@contextlib.contextmanager
def atomic_file(path: str):
    """A new binary file under a unique temporary name beside `path`, moved
    onto `path` when the block ends. If the block, the write or the move
    fails, the temporary file is removed and the error propagates."""
    tmp = f"{path}.{os.urandom(8).hex()}.tmp"
    try:
        with open(tmp, "xb") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


def load_embeddings(path: str, num_classes: int | None = None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read the embedding CSV format as `(ids, labels, X)` in file order,
    label -1 meaning withheld from training. Blank lines are skipped.

    With `num_classes` every row must carry a class in [0, num_classes) (a
    test pool). The first bad row raises EmbeddingFormatError naming
    `path:line`.

    A clean parse is cached in `<path>.parsed.npz` with the sha256 of the
    bytes parsed. A later load of the same bytes takes the arrays from there
    if they pass the array checks again; otherwise the file is parsed, so
    every error comes from the parser. Both read the file block by block.
    """
    side = f"{path}{SIDECAR_SUFFIX}"
    with open(path, "rb") as fh:
        digest, head = hashlib.sha256(), b""
        for block in _blocks(fh):
            digest.update(block)
            head = head or block
        cached = _read_sidecar(side, digest.hexdigest(), head, num_classes)
        if cached is not None:
            return cached
        fh.seek(0)
        parsed = hashlib.sha256()  # the file may have changed since it was hashed
        lines = _lines(path, fh, parsed)
        try:
            ids, labels, X = _parse(path, lines, num_classes)
        finally:  # decode the rest: a byte that is not UTF-8 outranks a parse fault
            collections.deque(lines, maxlen=0)
    with contextlib.suppress(OSError), atomic_file(side) as fh:  # no cache where the write is refused
        np.savez(fh, sha256=np.array(parsed.hexdigest()), ids=ids, labels=labels, X=X)
    return ids, labels, X
