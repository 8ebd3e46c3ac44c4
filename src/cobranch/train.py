"""End-to-end training loop for the two-branch framework.

Per epoch: (re-)estimate the training-set class distribution from the
contrastive branch's features every `reestimate_interval` epochs, then for
each mixed batch step the pseudo-labeling branch on its composite objective
and the contrastive branch on its composite objective. After the warm-up
epochs the contrastive step additionally receives debiased, sampled
pseudo-labels through the positiveness-weighted soft loss.

The shared encoder receives gradients from both branches; the classifier is
touched only by the pseudo-labeling step and the projector only by the
contrastive step.
"""

from __future__ import annotations

import contextlib
from dataclasses import asdict, dataclass, field, replace
from typing import Callable

import numpy as np

from . import losses, nn, transfer
from ._rng import BATCH, VIEWS, rng_for
from .config import ModelConfig, TrainConfig
from .data import DatasetSplit
from .estimate import AlignmentMap, estimate_round, floor_distribution


@dataclass
class TrainResult:
    """A run's state: what `run` returns and resumes from; a checkpoint stores all but telemetry."""

    params: nn.ModelParams
    opt_cls: nn.SgdState
    opt_con: nn.SgdState
    telemetry: list = field(default_factory=list)
    pi_e: np.ndarray | None = None  # None until the first estimation round
    alignment: AlignmentMap | None = None
    epochs_done: int = 0


class TrainingAborted(RuntimeError):
    """A numerical failure inside a named phase (see `_named_abort`): a
    non-finite value or loss, or a ValueError from the phase's computation."""


def make_batches(split: DatasetSplit, batch_size: int, seed: int, epoch: int):
    """Seeded per-epoch shuffle of the union pool, chunked into batches.

    Yields (labeled_indices, unlabeled_indices) pairs; the final short batch
    is kept. Labeled/unlabeled mixing follows pool proportions in expectation.
    """
    n_l, n = split.y_lab.size, len(split.X)
    rng = rng_for(seed, BATCH, epoch)
    order = rng.permutation(n)
    batches = []
    for start in range(0, n, batch_size):
        chunk = order[start : start + batch_size]
        lab = chunk[chunk < n_l]
        unl = chunk[chunk >= n_l] - n_l
        batches.append((lab, unl))
    return batches


def make_views(X: np.ndarray, rng: np.random.Generator, noise_std: float, dropout: float):
    """Two stochastic views of vector inputs: additive Gaussian noise plus
    random coordinate dropout."""
    views = []
    for _ in range(2):
        V = X + noise_std * rng.standard_normal(X.shape)
        if dropout > 0:
            keep = rng.random(X.shape) >= dropout
            V = V * keep
        views.append(V)
    return views[0], views[1]


def _estimate(split: DatasetSplit, params: nn.ModelParams, cfg: TrainConfig, epoch: int):
    return estimate_round(
        nn.encode(params, split.X),
        split.num_classes,
        split.y_lab,
        split.num_known,
        seed=cfg.seed * 1000003 + epoch,
        max_iter=cfg.kmeans_max_iter,
        n_init=cfg.kmeans_n_init,
    )


@contextlib.contextmanager
def _named_abort(where: str):
    """Re-raises a numerical failure inside the block (an overflow, an invalid
    operation, a division by zero or a ValueError) as a TrainingAborted that
    names `where`: the phase, and its epoch, batch or eval seed. This is the
    only place such a failure becomes a TrainingAborted, so a block must hold
    no file I/O: a ConfigError or an EmbeddingFormatError is a ValueError."""
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            yield
    except (ValueError, FloatingPointError) as exc:
        raise TrainingAborted(f"{where}: {exc}") from exc


def _other_view(*group_sizes: int) -> np.ndarray:
    """Each row's other view when every group of samples lists its first
    views, then its second views, group after group."""
    other, start = [], 0
    for b in group_sizes:
        other.append(start + (np.arange(2 * b) + b) % (2 * b))
        start += 2 * b
    return np.concatenate(other)


def _soft_probs(
    params: nn.ModelParams,
    cfg: TrainConfig,
    X_unl: np.ndarray,
    unl_ids: np.ndarray,
    batch_labels: np.ndarray,
    pi_e: np.ndarray,
    n_total: int,
):
    """Debias and sample the batch's pseudo-labels.

    Returns (selected unlabeled positions, their probability rows). In hard
    mode each row is the one-hot of its argmax.
    """
    pi_floor = floor_distribution(pi_e, n_total)
    logits = nn.classify(params, nn.encode(params, X_unl))
    batch = transfer.PseudoLabelBatch.from_probs(transfer.debias(logits, pi_floor, cfg.k), unl_ids)
    rates = transfer.sampling_rates(pi_floor, batch_labels, cfg.alpha, cfg.beta)
    sel = np.flatnonzero(transfer.sample_pseudolabels(batch, rates).mask)
    P = batch.probs[sel]
    if cfg.soft_mode == "hard":
        P = transfer.one_hot(P.argmax(axis=1), pi_e.size)
    return sel, P


def run(
    split: DatasetSplit,
    model_cfg: ModelConfig,
    cfg: TrainConfig,
    resume: TrainResult | None = None,
    on_epoch: Callable[[TrainResult], None] | None = None,
) -> TrainResult:
    """Train both branches over the split up to `cfg.total_epochs`;
    deterministic given cfg.seed.

    `resume` is a result to continue (its parameters and optimizer states train
    in place); streams are derived per (seed, epoch), so a resumed run replays
    the original exactly. The returned telemetry covers the epochs this call
    trained. `on_epoch(result)` is called after each epoch, once its record is
    appended and `pi_e`, `alignment` and `epochs_done` are current.
    """
    split.validate()
    n_total, d_in = split.X.shape
    if n_total == 0:
        raise ValueError("empty split")
    n_lab = split.y_lab.size
    # view noise scales with the global scalar std of the pool's features
    with _named_abort("view-noise scale (train.view_noise times the feature std)"):
        noise_std = cfg.view_noise * float(split.X.std())

    if resume is None:
        params = nn.init_params(d_in, num_classes=split.num_classes, seed=cfg.seed, **asdict(model_cfg))
        result = TrainResult(params, opt_cls=nn.SgdState(cfg.momentum), opt_con=nn.SgdState(cfg.momentum))
    else:
        result = replace(resume, telemetry=[])
    if result.epochs_done >= cfg.total_epochs:
        raise ValueError(f"start epoch {result.epochs_done} is not below total_epochs={cfg.total_epochs}")
    params, opt_cls, opt_con = result.params, result.opt_cls, result.opt_con
    scratch = losses.Scratch()  # the contrastive kernel's n x n buffers, reused by every batch

    for epoch in range(result.epochs_done, cfg.total_epochs):
        km = None
        if epoch % cfg.reestimate_interval == 0 or result.pi_e is None:
            with _named_abort(f"estimation round, epoch {epoch}"):
                km, result.alignment, result.pi_e = _estimate(split, params, cfg, epoch)
        lr = nn.cosine_lr(epoch, cfg.base_lr, cfg.total_epochs)
        soft_on = epoch >= cfg.warmup_epochs and cfg.soft_mode != "off"
        sums = {k: 0.0 for k in (
            "l_s", "l_u", "l_reg", "l_cls", "l_cl_u", "l_cl_s", "l_cl_soft", "l_con",
        )}
        counts = {k: 0 for k in ("n_gated", "soft_anchors", "soft_anchors_excluded")}

        batches = make_batches(split, cfg.batch_size, cfg.seed, epoch)
        for batch_id, (lab_idx, unl_idx) in enumerate(batches):
            rng_views = rng_for(cfg.seed, VIEWS, epoch, batch_id)
            X_lab, y = split.X[lab_idx], split.y_lab[lab_idx]
            X_unl = split.X[n_lab + unl_idx]
            n_l, n_u = lab_idx.size, unl_idx.size
            lab_v1, lab_v2 = make_views(X_lab, rng_views, noise_std, cfg.view_dropout)
            unl_v1, unl_v2 = make_views(X_unl, rng_views, noise_std, cfg.view_dropout)

            at = f"epoch {epoch} batch {batch_id}"
            with _named_abort(f"classification step, {at}"):
                stacked = np.concatenate([lab_v1, unl_v1, unl_v2], axis=0)
                logits, cache = nn.classifier_branch_forward(params, stacked)
                cls = losses.classification_objective(
                    logits[:n_l],
                    y,
                    logits[n_l : n_l + n_u],
                    logits[n_l + n_u :],
                    result.pi_e,
                    cfg.eta1,
                    cfg.eta2,
                    cfg.smoothing_p,
                    cfg.conf_gate,
                )
                if not np.isfinite(cls.total):
                    raise FloatingPointError("non-finite loss")
                nn.sgd_step(params, nn.classifier_branch_backward(params, cache, cls.grad), lr, opt_cls)

            with _named_abort(f"contrastive step, {at}"):
                sel, P_sel = np.zeros(0, dtype=int), np.zeros((0, split.num_classes))
                if soft_on:
                    sel, P_sel = _soft_probs(params, cfg, X_unl, unl_idx, y, result.pi_e, n_total)
                # views in nested order, [labeled v1, labeled v2, selected v1, selected v2, the
                # rest v1, the rest v2]; one positiveness matrix scores the first four groups, the
                # labeled views as their one-hot labels: its labeled block is the supervised term's
                # same-class indicator, and the whole matrix weighs the soft term (off: gamma2 = 0).
                # With one-hot rows alone every metric gives that indicator, so dot builds it.
                P_lab = transfer.one_hot(y, split.num_classes)
                rows = np.concatenate([P_lab, P_lab, P_sel, P_sel])
                W = transfer.build_positiveness_matrix(rows, cfg.metric if soft_on else "dot")
                picked = np.zeros(n_u, dtype=bool)
                picked[sel] = True
                order = np.argsort(~picked, kind="stable")  # the selected, then the rest
                u1, u2, n_s = unl_v1[order], unl_v2[order], sel.size
                views = np.concatenate([lab_v1, lab_v2, u1[:n_s], u2[:n_s], u1[n_s:], u2[n_s:]], axis=0)
                other = _other_view(n_l, n_s, n_u - n_s)
                U, cache = nn.contrastive_branch_forward(params, views)
                con = losses.contrastive_objective(
                    U, other, W, 2 * n_l, cfg.temperature, cfg.gamma1, cfg.gamma2 if soft_on else 0.0, scratch
                )
                if not np.isfinite(con.total):
                    raise FloatingPointError("non-finite loss")
                nn.sgd_step(params, nn.contrastive_branch_backward(params, cache, con.grad), lr, opt_con)
                params.check_finite()

            sums["l_s"] += cls.l_s
            sums["l_u"] += cls.l_u
            sums["l_reg"] += cls.l_reg
            sums["l_cls"] += cls.total
            sums["l_cl_u"] += con.l_unsup
            sums["l_cl_s"] += con.l_sup
            sums["l_cl_soft"] += con.l_soft
            sums["l_con"] += con.total
            counts["n_gated"] += cls.n_gated
            counts["soft_anchors"] += con.n_soft_anchors
            counts["soft_anchors_excluded"] += con.n_soft_excluded

        n_batches = len(batches)
        record = {"epoch": epoch, "lr": lr}
        record.update({k: float(v) / n_batches for k, v in sums.items()})
        record.update(counts)
        record["pi_e"] = result.pi_e.tolist()
        if km is not None:
            record["kmeans"] = {"iterations": km.iterations, "inertia": km.inertia, "restart": km.restart}
        result.telemetry.append(record)
        result.epochs_done = epoch + 1
        if on_epoch is not None:
            on_epoch(result)

    return result
