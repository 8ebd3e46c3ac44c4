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

from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from . import losses, nn, transfer
from ._rng import BATCH, VIEWS, rng_for
from .data import DatasetSplit
from .estimate import AlignmentMap, EstimationError, estimate_round, floor_distribution

SOFT_MODES = ("soft", "hard", "off")


@dataclass(frozen=True)
class ModelConfig:
    d_hidden: int = 32
    d_feat: int = 16
    d_proj_hidden: int = 32
    d_proj: int = 32
    scale: float = 10.0


@dataclass(frozen=True)
class TrainConfig:
    schedule: nn.TrainSchedule
    weights: losses.LossWeights = field(default_factory=losses.LossWeights)
    sampling: transfer.SamplingConfig = field(default_factory=transfer.SamplingConfig)
    seed: int = 0
    temperature: float = 1.0
    smoothing_p: float = 0.5
    reestimate_interval: int = 10
    metric: str = "dot"
    conf_gate: float = 0.5
    momentum: float = 0.9
    soft_mode: str = "soft"
    view_noise: float = 0.1
    view_dropout: float = 0.1
    kmeans_max_iter: int = 100
    kmeans_tol: float = 1e-6
    kmeans_n_init: int = 10
    # How strongly the pseudo-labeling branch may reshape the shared encoder
    # (its own classifier always trains at full strength). 1.0 gives both
    # branches equal say; small values emulate a mostly-frozen backbone whose
    # evaluated representation is owned by the contrastive branch.
    aux_encoder_weight: float = 1.0

    def __post_init__(self):
        if self.temperature <= 0:
            raise ValueError("temperature must be positive")
        if not 0 <= self.smoothing_p <= 1:
            raise ValueError("smoothing_p must lie in [0, 1]")
        if self.reestimate_interval < 1:
            raise ValueError("reestimate_interval must be >= 1")
        if self.metric not in transfer.SIMILARITY_METRICS:
            raise ValueError(f"unknown metric {self.metric!r}")
        if self.soft_mode not in SOFT_MODES:
            raise ValueError(f"soft_mode must be one of {SOFT_MODES}")
        if not 0 <= self.aux_encoder_weight <= 1:
            raise ValueError("aux_encoder_weight must lie in [0, 1]")


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
    """Raised when a batch produces a non-finite loss or gradient."""


def make_batches(split: DatasetSplit, batch_size: int, seed: int, epoch: int):
    """Seeded per-epoch shuffle of the union pool, chunked into batches.

    Yields (labeled_indices, unlabeled_indices) pairs; the final short batch
    is kept. Labeled/unlabeled mixing follows pool proportions in expectation.
    """
    if batch_size < 2:
        raise ValueError("batch_size must be >= 2")
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
        np.arange(split.y_lab.size),
        split.y_lab,
        split.num_known,
        seed=cfg.seed * 1000003 + epoch,
        max_iter=cfg.kmeans_max_iter,
        tol=cfg.kmeans_tol,
        n_init=cfg.kmeans_n_init,
    )


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

    Returns (selected unlabeled positions, probability rows for [labeled;
    selected unlabeled]). In hard mode each row is the one-hot of its argmax.
    """
    pi_floor = floor_distribution(pi_e, n_total)
    logits = nn.classify(params, nn.encode(params, X_unl))
    batch = transfer.PseudoLabelBatch.from_probs(transfer.debias(logits, pi_floor, cfg.sampling.k), ids=unl_ids)
    rates = transfer.sampling_rates(pi_floor, batch_labels, cfg.sampling.alpha, cfg.sampling.beta)
    sel = np.flatnonzero(transfer.sample_pseudolabels(batch, rates).mask)
    P = np.concatenate([transfer.one_hot(batch_labels, pi_e.size), batch.probs[sel]], axis=0)
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
    """Train both branches over the split up to `cfg.schedule.total_epochs`;
    deterministic given cfg.seed.

    `resume` is a result to continue (its parameters and optimizer states train
    in place); streams are derived per (seed, epoch), so a resumed run replays
    the original exactly. The returned telemetry covers the epochs this call
    trained. `on_epoch(result)` is called after each epoch, once its record is
    appended and `pi_e`, `alignment` and `epochs_done` are current.
    """
    split.validate()
    sched = cfg.schedule
    n_total, d_in = split.X.shape
    if n_total == 0:
        raise ValueError("empty split")
    n_lab = split.y_lab.size
    # view noise scales with the global scalar std of the pool's features
    noise_std = cfg.view_noise * float(split.X.std())

    if resume is None:
        params = nn.init_params(
            d_in,
            model_cfg.d_hidden,
            model_cfg.d_feat,
            model_cfg.d_proj_hidden,
            model_cfg.d_proj,
            split.num_classes,
            seed=cfg.seed,
            scale=model_cfg.scale,
        )
        result = TrainResult(params, opt_cls=nn.SgdState(cfg.momentum), opt_con=nn.SgdState(cfg.momentum))
    else:
        result = replace(resume, telemetry=[])
    if result.epochs_done >= sched.total_epochs:
        raise ValueError(f"start epoch {result.epochs_done} is not below total_epochs={sched.total_epochs}")
    params, opt_cls, opt_con = result.params, result.opt_cls, result.opt_con
    scratch = losses.Scratch()  # the contrastive kernel's n x n buffers, reused by every batch

    for epoch in range(result.epochs_done, sched.total_epochs):
        km = None
        if epoch % cfg.reestimate_interval == 0 or result.pi_e is None:
            try:
                km, result.alignment, result.pi_e = _estimate(split, params, cfg, epoch)
            except EstimationError as exc:
                raise TrainingAborted(f"estimation failed at epoch {epoch}: {exc}") from exc
        lr = nn.cosine_lr(epoch, sched)
        soft_on = epoch >= sched.warmup_epochs and cfg.soft_mode != "off"
        sums = {k: 0.0 for k in (
            "l_s", "l_u", "l_reg", "l_cls", "l_cl_u", "l_cl_s", "l_cl_soft", "l_con",
        )}
        n_soft_excluded = 0

        batches = make_batches(split, sched.batch_size, cfg.seed, epoch)
        for batch_id, (lab_idx, unl_idx) in enumerate(batches):
            rng_views = rng_for(cfg.seed, VIEWS, epoch, batch_id)
            X_lab, y = split.X[lab_idx], split.y_lab[lab_idx]
            X_unl = split.X[n_lab + unl_idx]
            n_l, n_u = lab_idx.size, unl_idx.size
            lab_v1, lab_v2 = make_views(X_lab, rng_views, noise_std, cfg.view_dropout)
            unl_v1, unl_v2 = make_views(X_unl, rng_views, noise_std, cfg.view_dropout)

            # pseudo-labeling branch step
            stacked = np.concatenate([lab_v1, unl_v1, unl_v2], axis=0)
            logits, cache = nn.classifier_branch_forward(params, stacked)
            cls = losses.classification_objective(
                logits[:n_l],
                y,
                logits[n_l : n_l + n_u],
                logits[n_l + n_u :],
                result.pi_e,
                cfg.weights,
                cfg.smoothing_p,
                cfg.conf_gate,
            )
            if not np.isfinite(cls.total):
                raise TrainingAborted(f"non-finite classification loss in epoch {epoch} batch {batch_id}")
            dlogits = np.concatenate([cls.grad_labeled, cls.grad_unl_v1, cls.grad_unl_v2], axis=0)
            cls_grads = nn.classifier_branch_backward(params, cache, dlogits)
            if cfg.aux_encoder_weight != 1.0:
                for name in params.ENCODER_FIELDS:
                    cls_grads[name] = cfg.aux_encoder_weight * cls_grads[name]
            try:
                nn.sgd_step(params, cls_grads, lr, opt_cls)
            except nn.NonFiniteGradientError as exc:
                raise TrainingAborted(f"epoch {epoch} batch {batch_id}: {exc}") from exc

            # contrastive branch step
            all_views = np.concatenate([lab_v1, unl_v1, lab_v2, unl_v2], axis=0)
            n_b = n_l + n_u
            other = np.concatenate([np.arange(n_b) + n_b, np.arange(n_b)])
            U, cache = nn.contrastive_branch_forward(params, all_views)
            labeled_view_idx = np.concatenate([np.arange(n_l), n_b + np.arange(n_l)])
            labeled_view_cls = np.concatenate([y, y])

            soft_view_idx = np.zeros(0, dtype=int)
            W_views = None
            if soft_on:
                sel, P = _soft_probs(params, cfg, X_unl, unl_idx, y, result.pi_e, n_total)
                v1_idx = np.concatenate([np.arange(n_l), n_l + sel])
                soft_view_idx = np.concatenate([v1_idx, n_b + v1_idx])
                W_views = transfer.build_positiveness_matrix(np.concatenate([P, P], axis=0), cfg.metric)
            con = losses.contrastive_objective(
                U,
                other,
                labeled_view_idx,
                labeled_view_cls,
                soft_view_idx,
                W_views,
                cfg.temperature,
                cfg.weights,
                scratch,
            )
            if not np.isfinite(con.total):
                raise TrainingAborted(f"non-finite contrastive loss in epoch {epoch} batch {batch_id}")
            try:
                nn.sgd_step(params, nn.contrastive_branch_backward(params, cache, con.grad), lr, opt_con)
            except nn.NonFiniteGradientError as exc:
                raise TrainingAborted(f"epoch {epoch} batch {batch_id}: {exc}") from exc
            params.check_finite()

            sums["l_s"] += cls.l_s
            sums["l_u"] += cls.l_u
            sums["l_reg"] += cls.l_reg
            sums["l_cls"] += cls.total
            sums["l_cl_u"] += con.l_unsup
            sums["l_cl_s"] += con.l_sup
            sums["l_cl_soft"] += con.l_soft
            sums["l_con"] += con.total
            n_soft_excluded += con.n_soft_excluded

        n_batches = len(batches)
        record = {"epoch": epoch, "lr": lr}
        record.update({k: float(v) / n_batches for k, v in sums.items()})
        record["soft_anchors_excluded"] = n_soft_excluded
        record["pi_e"] = result.pi_e.tolist()
        if km is not None:
            record["kmeans"] = {"iterations": km.iterations, "inertia": km.inertia, "restart": km.restart}
        result.telemetry.append(record)
        result.epochs_done = epoch + 1
        if on_epoch is not None:
            on_epoch(result)

    return result
