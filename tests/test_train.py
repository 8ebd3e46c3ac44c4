import copy
from dataclasses import replace

import numpy as np
import pytest

from cobranch import losses, nn, train as train_mod
from cobranch.data import split_known_novel
from cobranch.estimate import kmeans
from cobranch.train import TrainingAborted, make_batches, make_views, run
from cobranch.transfer import one_hot
from oracles import (
    MODEL,
    TRAIN,
    contrastive_loss,
    gen_synthetic,
    indicator_weights,
    params_to_vector,
    positive_set_contrastive_loss,
)


def toy_split(seed=0, C=5, counts=(30, 20, 12, 8, 5), num_known=3, d=6):
    X, y = gen_synthetic(C, d, np.array(counts), 7.0, 1.0, seed=seed)
    return split_known_novel(X, y, num_known, 0.5, seed=seed)


def toy_config(total_epochs=6, warmup=2, r=3, seed=0, **kw):
    return replace(TRAIN, base_lr=0.05, total_epochs=total_epochs, batch_size=32, warmup_epochs=warmup,
                   seed=seed, reestimate_interval=r, **kw)


def toy_model():
    return replace(MODEL, d_hidden=16, d_feat=8, d_proj_hidden=16, d_proj=8)


class TestMakeBatches:
    def test_chunk_sizes(self):
        split = toy_split()
        n_lab = split.y_lab.size
        keep = np.r_[0:4, n_lab : n_lab + 6]
        split.X, split.ids, split.y_lab = split.X[keep], split.ids[keep], split.y_lab[:4]
        batches = make_batches(split, 4, seed=0, epoch=0)
        sizes = [lab.size + unl.size for lab, unl in batches]
        assert sizes == [4, 4, 2]

    def test_epoch_changes_order_not_multiset(self):
        split = toy_split()
        a = make_batches(split, 16, seed=0, epoch=0)
        b = make_batches(split, 16, seed=0, epoch=1)
        flat_a = np.concatenate([np.concatenate([lab, unl + 10000]) for lab, unl in a])
        flat_b = np.concatenate([np.concatenate([lab, unl + 10000]) for lab, unl in b])
        assert not np.array_equal(flat_a, flat_b)
        assert np.array_equal(np.sort(flat_a), np.sort(flat_b))

    def test_labeled_fraction_matches_pool_proportion(self):
        split = toy_split()
        frac = split.y_lab.size / len(split.X)
        counts = []
        for epoch in range(100):
            for lab, unl in make_batches(split, 16, seed=1, epoch=epoch):
                if lab.size + unl.size == 16:
                    counts.append(lab.size)
        counts = np.array(counts)
        expected = 16 * frac
        sigma = np.sqrt(16 * frac * (1 - frac))
        assert abs(counts.mean() - expected) < 3 * sigma / np.sqrt(len(counts))


def test_make_views_shapes_and_noise():
    rng = np.random.default_rng(0)
    X = rng.standard_normal((10, 4))
    v1, v2 = make_views(X, np.random.default_rng(1), noise_std=0.1, dropout=0.1)
    assert v1.shape == X.shape and v2.shape == X.shape
    assert not np.array_equal(v1, v2)


class TestRun:
    def test_all_warmup_has_zero_soft_loss(self):
        split = toy_split()
        cfg = toy_config(total_epochs=3, warmup=3, r=3)
        result = run(split, toy_model(), cfg)
        assert all(rec["l_cl_soft"] == 0.0 for rec in result.telemetry)

    def test_single_estimation_round_when_r_equals_t(self):
        split = toy_split()
        cfg = toy_config(total_epochs=4, warmup=1, r=4)
        result = run(split, toy_model(), cfg)
        first = result.telemetry[0]["pi_e"]
        assert all(rec["pi_e"] == first for rec in result.telemetry)

    def test_pi_e_constant_between_rounds(self):
        split = toy_split()
        cfg = toy_config(total_epochs=6, warmup=1, r=3)
        result = run(split, toy_model(), cfg)
        pi = [rec["pi_e"] for rec in result.telemetry]
        assert pi[0] == pi[1] == pi[2]
        assert pi[3] == pi[4] == pi[5]

    def test_kmeans_telemetry_on_estimation_epochs(self):
        split = toy_split()
        cfg = toy_config(total_epochs=6, warmup=1, r=3)
        result = run(split, toy_model(), cfg)
        assert ["kmeans" in rec for rec in result.telemetry] == [True, False, False, True, False, False]
        m = toy_model()
        params = nn.init_params(split.X.shape[1], m.d_hidden, m.d_feat, m.d_proj_hidden, m.d_proj,
                                split.num_classes, seed=cfg.seed, scale=m.scale)
        km = kmeans(nn.encode(params, split.X), split.num_classes, seed=cfg.seed * 1000003,
                    max_iter=cfg.kmeans_max_iter, n_init=cfg.kmeans_n_init)
        assert result.telemetry[0]["kmeans"] == {"iterations": km.iterations, "inertia": km.inertia,
                                                 "restart": km.restart}

    def test_deterministic_given_seed(self):
        split = toy_split()
        a = run(toy_split(), toy_model(), toy_config(seed=3))
        b = run(toy_split(), toy_model(), toy_config(seed=3))
        c = run(toy_split(), toy_model(), toy_config(seed=4))
        assert np.array_equal(params_to_vector(a.params), params_to_vector(b.params))
        assert a.telemetry == b.telemetry
        assert not np.array_equal(params_to_vector(a.params), params_to_vector(c.params))

    def test_telemetry_composites_match_parts(self, monkeypatch):
        split = toy_split()
        cfg = toy_config(total_epochs=4, warmup=1, r=2, eta1=0.7, eta2=1.2, gamma1=0.9, gamma2=1.1)
        seen = {"n_gated": 0, "soft_anchors": 0, "soft_anchors_excluded": 0}
        real_cls, real_con = losses.classification_objective, losses.contrastive_objective

        def cls_objective(*args, **kw):
            res = real_cls(*args, **kw)
            seen["n_gated"] += res.n_gated
            return res

        def con_objective(*args, **kw):
            res = real_con(*args, **kw)
            W, gamma2 = args[2], args[6]
            seen["soft_anchors"] += len(W) if gamma2 > 0 and len(W) >= 2 else 0
            seen["soft_anchors_excluded"] += res.n_soft_excluded
            return res

        monkeypatch.setattr(train_mod.losses, "classification_objective", cls_objective)
        monkeypatch.setattr(train_mod.losses, "contrastive_objective", con_objective)
        result = run(split, toy_model(), cfg)
        for rec in result.telemetry:
            assert rec["l_cls"] == pytest.approx(
                rec["l_s"] + 0.7 * rec["l_u"] + 1.2 * rec["l_reg"], abs=1e-9
            )
            assert rec["l_con"] == pytest.approx(
                rec["l_cl_u"] + 0.9 * rec["l_cl_s"] + 1.1 * rec["l_cl_soft"], abs=1e-9
            )
            assert 0 <= rec["soft_anchors_excluded"] <= rec["soft_anchors"]
        # counts are sums over the epoch's batches: none offered in the warm-up epoch
        assert result.telemetry[0]["soft_anchors"] == 0
        assert all(rec["soft_anchors"] > 0 and rec["n_gated"] > 0 for rec in result.telemetry[1:])
        assert {k: sum(rec[k] for rec in result.telemetry) for k in seen} == seen

    def test_soft_modes_diverge_after_warmup(self):
        split = toy_split()
        base = run(toy_split(), toy_model(), toy_config(seed=5, soft_mode="off"))
        soft = run(toy_split(), toy_model(), toy_config(seed=5, soft_mode="soft"))
        assert all(rec["l_cl_soft"] == 0.0 for rec in base.telemetry)
        assert any(rec["l_cl_soft"] != 0.0 for rec in soft.telemetry[2:])
        assert not np.array_equal(
            params_to_vector(base.params), params_to_vector(soft.params)
        )

    def test_no_unlabeled_rows(self):
        # every row labeled: each batch's unlabeled part is a zero-row array, and
        # the soft set holds one-hot labeled rows only, so soft and hard agree
        X, y = gen_synthetic(4, 6, np.array([8, 6, 5, 4]), 7.0, 1.0, seed=1)
        split = split_known_novel(X, y, 4, 1.0, seed=1)
        assert split.y_lab.size == len(split.X)
        soft, hard = (
            run(split, toy_model(), replace(TRAIN, base_lr=0.05, total_epochs=3, batch_size=2, warmup_epochs=1,
                                            seed=2, reestimate_interval=3, soft_mode=mode))
            for mode in ("soft", "hard")
        )
        assert all(rec["l_u"] == 0.0 for rec in soft.telemetry)
        assert all(rec["l_cl_soft"] > 0.0 for rec in soft.telemetry[1:])
        assert soft.telemetry == hard.telemetry
        assert np.array_equal(params_to_vector(soft.params), params_to_vector(hard.params))

    def test_stop_and_resume_matches_uninterrupted(self):
        cfg = toy_config(total_epochs=6, warmup=1, r=3, seed=7)
        snapshots = {}

        def on_epoch(result):
            snapshots[result.epochs_done] = copy.deepcopy(result)

        full = run(toy_split(), toy_model(), cfg, on_epoch=on_epoch)
        assert sorted(snapshots) == [1, 2, 3, 4, 5, 6]
        assert snapshots[6].telemetry == full.telemetry
        rest = run(toy_split(), toy_model(), cfg, resume=snapshots[3])
        assert np.array_equal(params_to_vector(full.params), params_to_vector(rest.params))
        assert full.telemetry[3:] == rest.telemetry

    def test_resume_at_total_epochs_rejected(self):
        cfg = toy_config(total_epochs=2, warmup=1, r=3)
        done = run(toy_split(), toy_model(), cfg)
        with pytest.raises(ValueError, match="is not below total_epochs"):
            run(toy_split(), toy_model(), cfg, resume=done)

    def test_abort_on_nonfinite_loss(self, monkeypatch):
        split = toy_split()

        real = losses.classification_objective

        def poisoned(*args, **kw):
            res = real(*args, **kw)
            res.total = float("nan")
            return res

        monkeypatch.setattr(train_mod.losses, "classification_objective", poisoned)
        with pytest.raises(TrainingAborted, match="classification step, epoch 0 batch 0: non-finite loss"):
            run(split, toy_model(), toy_config())

    def test_views_in_nested_order(self, monkeypatch):
        # noise-free views, so that every view row is its sample's input row
        split = toy_split()
        n_lab = split.y_lab.size
        seen = {"batches": [], "soft": [], "views": [], "objective": []}
        real_batches, real_soft = train_mod.make_batches, train_mod._soft_probs
        real_forward, real_objective = nn.contrastive_branch_forward, losses.contrastive_objective

        def batches(*args):
            out = real_batches(*args)
            seen["batches"] += out
            return out

        def soft_probs(*args):
            sel, P = real_soft(*args)
            seen["soft"].append((len(seen["views"]), sel, P))  # before this batch's forward
            return sel, P

        def forward(params, x):
            seen["views"].append(x.copy())
            return real_forward(params, x)

        def objective(U, other, W, n_labeled, *rest):
            seen["objective"].append((other, W, n_labeled))
            return real_objective(U, other, W, n_labeled, *rest)

        monkeypatch.setattr(train_mod, "make_views", lambda X, rng, noise, dropout: (X.copy(), X.copy()))
        monkeypatch.setattr(train_mod, "make_batches", batches)
        monkeypatch.setattr(train_mod, "_soft_probs", soft_probs)
        monkeypatch.setattr(train_mod.nn, "contrastive_branch_forward", forward)
        monkeypatch.setattr(train_mod.losses, "contrastive_objective", objective)
        run(split, toy_model(), toy_config(total_epochs=2, warmup=1, r=2))
        soft_of = {b: (sel, P) for b, sel, P in seen["soft"]}
        assert len(soft_of) == len(seen["batches"]) // 2  # the second epoch's batches
        for b, ((lab, unl), views, (other, W, n_labeled)) in enumerate(
                zip(seen["batches"], seen["views"], seen["objective"])):
            sel, P = soft_of.get(b, (np.zeros(0, dtype=int), np.zeros((0, split.num_classes))))
            n_l, n_s = lab.size, sel.size
            rest = np.setdiff1d(np.arange(unl.size), sel)
            samples = np.concatenate([lab, n_lab + unl[sel], n_lab + unl[rest]])
            expect = np.concatenate([split.X[g] for g in np.split(samples, [n_l, n_l + n_s]) for _ in (0, 1)])
            assert np.array_equal(views, expect)
            assert np.array_equal(views[other], views) and np.all(other != np.arange(len(other)))
            # W's rows follow the views: the labeled ones' one-hot labels twice, then the selected
            # ones' pseudo-label rows twice (none in the warm-up epoch)
            assert n_labeled == 2 * n_l
            assert np.array_equal(W[:n_labeled, :n_labeled], indicator_weights(np.tile(split.y_lab[lab], 2)))
            lab_P = one_hot(split.y_lab[lab], split.num_classes)
            Q = np.concatenate([lab_P, lab_P, P, P])
            assert np.allclose(W, Q @ Q.T * (1 - np.eye(len(Q))), rtol=0, atol=1e-12)  # the "dot" metric

    def test_objective_value_error_names_phase(self, monkeypatch):
        real = losses.contrastive_objective
        calls = []

        def failing(*args, **kw):
            calls.append(1)
            if len(calls) == 3:
                raise ValueError("contrastive features must be unit norm")
            return real(*args, **kw)

        monkeypatch.setattr(train_mod.losses, "contrastive_objective", failing)
        with pytest.raises(TrainingAborted, match="contrastive step, epoch 0 batch 2: contrastive features must"):
            run(toy_split(), toy_model(), toy_config())


class TestGradientIsolation:
    def test_branch_parameter_separation(self):
        split = toy_split()
        cfg = toy_config(total_epochs=1, warmup=0, r=1)
        model_cfg = toy_model()
        # one classifier-branch step must not move projector params, and vice versa
        d_in = split.X.shape[1]
        params = nn.init_params(d_in, model_cfg.d_hidden, model_cfg.d_feat,
                                model_cfg.d_proj_hidden, model_cfg.d_proj,
                                split.num_classes, seed=0, scale=model_cfg.scale)
        X = split.X[:8]
        y = np.zeros(8, dtype=int)

        before_proj = [getattr(params, n).copy() for n in params.PROJECTOR_FIELDS]
        before_cls = params.cls_w.copy()
        before_enc = [getattr(params, n).copy() for n in params.ENCODER_FIELDS]

        logits, cache = nn.classifier_branch_forward(params, X)
        res = losses.classification_objective(
            logits, y, np.zeros((0, split.num_classes)), np.zeros((0, split.num_classes)),
            np.full(split.num_classes, 1 / split.num_classes), cfg.eta1, cfg.eta2, 0.5, cfg.conf_gate,
        )
        nn.sgd_step(params, nn.classifier_branch_backward(params, cache, res.grad), 0.1, nn.SgdState(0.0))
        for name, before in zip(params.PROJECTOR_FIELDS, before_proj):
            assert np.array_equal(getattr(params, name), before)
        assert not np.array_equal(params.cls_w, before_cls)
        assert any(
            not np.array_equal(getattr(params, n), b)
            for n, b in zip(params.ENCODER_FIELDS, before_enc)
        )

        before_cls = params.cls_w.copy()
        before_enc = [getattr(params, n).copy() for n in params.ENCODER_FIELDS]
        U, cache = nn.contrastive_branch_forward(params, X)
        sets = [[(i + 4) % 8] for i in range(8)]
        W = np.eye(8)[(np.arange(8) + 4) % 8]  # row i has its one positive at (i + 4) % 8
        loss, grad, _ = contrastive_loss(U, W, 1.0)
        assert np.abs(grad - positive_set_contrastive_loss(U, sets, 1.0)[1]).max() < 1e-12
        nn.sgd_step(params, nn.contrastive_branch_backward(params, cache, grad), 0.1, nn.SgdState(0.0))
        assert np.array_equal(params.cls_w, before_cls)
        assert any(
            not np.array_equal(getattr(params, n), b)
            for n, b in zip(params.ENCODER_FIELDS, before_enc)
        )


def test_run_rejects_empty_split():
    split = toy_split()
    split.X, split.ids, split.y_lab = split.X[:0], split.ids[:0], split.y_lab[:0]
    with pytest.raises(ValueError):
        run(split, toy_model(), toy_config())
