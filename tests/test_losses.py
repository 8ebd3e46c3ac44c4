import math
import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import cobranch
from cobranch.losses import (
    MIN_TEMPERATURE,
    Scratch,
    classification_objective,
    contrastive_objective,
    kl_regularizer,
    smooth_target,
    softmax,
)
from cobranch.train import _other_view
from cobranch.transfer import SIMILARITY_METRICS, build_positiveness_matrix, one_hot
from oracles import (
    TRAIN,
    central_fd,
    contrastive_loss,
    indicator_weights,
    max_rel_err,
    optimal_soft_logits,
    per_term_contrastive_objective,
    pgd_anchor_minimizer,
    positive_set_contrastive_loss,
    three_block_classification_objective,
)

# the CLI's default loss weights and confidence gate
ETAS, GAMMAS, GATE = (TRAIN.eta1, TRAIN.eta2), (TRAIN.gamma1, TRAIN.gamma2), TRAIN.conf_gate


def unit_rows(rng, n, d):
    F = rng.standard_normal((n, d))
    return F / np.linalg.norm(F, axis=1, keepdims=True)


def class_positive_sets(classes):
    sets = []
    for i, c in enumerate(classes):
        idx = np.flatnonzero(classes == c)
        sets.append(idx[idx != i])
    return sets


def set_weights(positive_sets, n):
    """The 0/1 weight matrix of a list of positive sets (None: no positives)."""
    W = np.zeros((n, n))
    for i, pos in enumerate(positive_sets):
        if pos is not None:
            W[i, pos] = 1.0
    return W


class TestContrastiveLoss:
    def test_two_identical_vectors_zero_loss(self):
        v = np.array([1.0, 0.0, 0.0])
        loss, _, _ = contrastive_loss(np.stack([v, v]), set_weights([[1], [0]], 2), 1.0)
        assert loss == pytest.approx(0.0, abs=1e-12)

    def test_three_orthogonal_anchor_term(self):
        loss, _, n_excluded = contrastive_loss(np.eye(3), set_weights([[1], None, None], 3), 1.0)
        assert loss == pytest.approx(math.log(2.0), abs=1e-12)
        assert n_excluded == 2

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(0)
        for trial in range(6):
            n, d = int(rng.integers(4, 8)), int(rng.integers(2, 6))
            F = unit_rows(rng, n, d)
            classes = rng.integers(0, 2, size=n)
            while np.any(np.bincount(classes, minlength=2) < 2):
                classes = rng.integers(0, 2, size=n)
            W = indicator_weights(classes)
            tau = float(rng.uniform(0.3, 2.0))

            def f(flat):
                return contrastive_loss(flat.reshape(n, d), W, tau)[0]

            _, grad, _ = contrastive_loss(F, W, tau)
            assert max_rel_err(grad.ravel(), central_fd(f, F.ravel())) < 1e-4

    def test_nonpositive_temperature_rejected(self):
        with pytest.raises(ValueError):
            contrastive_loss(np.eye(2), set_weights([[1], [0]], 2), 0.0)

    def test_single_row_rejected(self):
        with pytest.raises(ValueError):
            contrastive_loss(np.eye(1), np.ones((1, 1)), 1.0)

    def test_all_excluded_rejected(self):
        with pytest.raises(ValueError):
            contrastive_loss(np.eye(3), np.eye(3), 1.0)  # only diagonal mass

    def test_non_unit_rows_rejected(self):
        with pytest.raises(ValueError):
            contrastive_loss(2.0 * np.eye(3), np.ones((3, 3)), 1.0)

    def test_weight_shape_rejected(self):
        with pytest.raises(ValueError):
            contrastive_loss(np.eye(3), np.ones((3, 2)), 1.0)

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(4)
        n, d = 6, 4
        F = unit_rows(rng, n, d)
        classes = np.array([0, 0, 1, 1, 2, 2])
        loss, grad, _ = contrastive_loss(F, indicator_weights(classes), 0.7)
        perm = rng.permutation(n)
        inv = np.empty(n, dtype=int)
        inv[perm] = np.arange(n)
        loss_p, grad_p, _ = contrastive_loss(F[perm], indicator_weights(classes[perm]), 0.7)
        assert abs(loss - loss_p) < 1e-10
        assert np.abs(grad_p[inv] - grad).max() < 1e-10


class TestSoftContrastiveLoss:
    def test_binary_weights_reduce_to_supervised(self):
        rng = np.random.default_rng(1)
        for trial in range(8):
            n, d = int(rng.integers(6, 9)), 3
            F = unit_rows(rng, n, d)
            classes = rng.integers(0, 3, size=n)
            while np.any(np.bincount(classes, minlength=3) < 2):
                classes = rng.integers(0, 3, size=n)
            W = (classes[:, None] == classes[None, :]).astype(float)
            np.fill_diagonal(W, 0.0)
            tau = float(rng.uniform(0.4, 1.5))
            loss, grad, _ = contrastive_loss(F, W, tau)
            ref, ref_grad = positive_set_contrastive_loss(F, class_positive_sets(classes), tau)
            assert abs(loss - ref) < 1e-10
            assert np.abs(grad - ref_grad).max() < 1e-10

    def test_constant_weights_reduce_to_full_positive_set(self):
        rng = np.random.default_rng(2)
        n, d = 5, 4
        F = unit_rows(rng, n, d)
        full_sets = [np.delete(np.arange(n), i) for i in range(n)]
        ref, ref_grad = positive_set_contrastive_loss(F, full_sets, 1.0)
        for const in (0.2, 1.0, 7.5):
            loss, grad, _ = contrastive_loss(F, np.full((n, n), const), 1.0)
            assert abs(loss - ref) < 1e-10
            assert np.abs(grad - ref_grad).max() < 1e-10

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(3)
        for trial in range(6):
            n, d = int(rng.integers(3, 7)), int(rng.integers(2, 5))
            F = unit_rows(rng, n, d)
            W = rng.uniform(0.05, 1.0, size=(n, n))
            tau = float(rng.uniform(0.4, 1.5))

            def f(flat):
                return contrastive_loss(flat.reshape(n, d), W, tau)[0]

            _, grad, _ = contrastive_loss(F, W, tau)
            assert max_rel_err(grad.ravel(), central_fd(f, F.ravel())) < 1e-4

    def test_zero_mass_anchor_excluded(self):
        rng = np.random.default_rng(5)
        F = unit_rows(rng, 4, 3)
        W = np.ones((4, 4))
        W[2, :] = 0.0
        loss, _, n_excluded = contrastive_loss(F, W, 1.0)
        assert n_excluded == 1
        assert np.isfinite(loss)

    def test_all_zero_weights_rejected(self):
        with pytest.raises(ValueError):
            contrastive_loss(np.eye(3), np.zeros((3, 3)), 1.0)

    @staticmethod
    def assert_each_rejected(values):
        for value in values:
            for at in ((0, 1), (1, 1)):  # off the diagonal and on it
                W = np.ones((3, 3))
                W[at] = value
                with pytest.raises(ValueError, match="contrastive weights must be finite and nonnegative"):
                    contrastive_loss(np.eye(3), W, 1.0)

    def test_negative_weights_rejected(self):
        self.assert_each_rejected([-0.1])

    def test_nonfinite_weights_rejected(self):
        self.assert_each_rejected([np.nan, np.inf, -np.inf])

    def test_negative_zero_weights_accepted(self):
        F = unit_rows(np.random.default_rng(6), 3, 3)
        W = np.ones((3, 3))
        W[0, 1] = W[1, 1] = -0.0
        Z = np.where(W == 0, 0.0, W)
        loss, grad, _ = contrastive_loss(F, W, 1.0)
        loss_z, grad_z, _ = contrastive_loss(F, Z, 1.0)
        assert loss == loss_z
        assert np.array_equal(grad, grad_z)


class TestScratch:
    """One scratch serves every call of a run; results match a fresh scratch
    exactly and never alias its buffers."""

    @staticmethod
    def batch(rng, n, d=16):
        classes = rng.integers(0, 5, size=n)
        return unit_rows(rng, n, d), indicator_weights(classes), classes

    def test_reuse_across_sizes_matches_fresh_and_oracle(self):
        rng = np.random.default_rng(21)
        scratch = Scratch()
        for n in (256, 48, 232, 256):
            F, W, classes = self.batch(rng, n)
            loss, grad, n_exc = contrastive_loss(F, W, 0.5, scratch)
            loss_f, grad_f, n_exc_f = contrastive_loss(F, W, 0.5, Scratch())
            assert loss == loss_f and n_exc == n_exc_f
            assert np.array_equal(grad, grad_f)
            sets = [s if s.size else None for s in class_positive_sets(classes)]
            ref, ref_grad = positive_set_contrastive_loss(F, sets, 0.5)
            assert abs(loss - ref) < 1e-10
            assert np.abs(grad - ref_grad).max() < 1e-10

    def test_objective_reuse_across_sizes_matches_fresh(self):
        rng = np.random.default_rng(24)
        scratch = Scratch()
        for n_l, n_u in ((3, 5), (24, 104), (24, 92)):  # the scratch grows, then is reused
            F, other, lab_cls = build_views_batch(rng, n_l, n_u, 16)
            W = positiveness_weights(rng, lab_cls, F.shape[0] - 2)
            args = (F, other, W, lab_cls.size, 0.5, *GAMMAS)
            a, b = contrastive_objective(*args, scratch), contrastive_objective(*args)
            assert (a.l_unsup, a.l_sup, a.l_soft) == (b.l_unsup, b.l_sup, b.l_soft)
            assert np.array_equal(a.grad, b.grad)

    def test_results_do_not_alias_scratch(self):
        rng = np.random.default_rng(22)
        scratch = Scratch()
        F, W, _ = self.batch(rng, 40)
        _, grad, _ = contrastive_loss(F, W, 1.0, scratch)
        kept = grad.copy()
        F2, W2, _ = self.batch(rng, 40)
        contrastive_loss(F2, W2, 1.0, scratch)
        assert np.array_equal(grad, kept)

    def test_weights_unchanged(self):
        rng = np.random.default_rng(23)
        F = unit_rows(rng, 6, 4)
        W = rng.uniform(0.0, 2.0, size=(6, 6))  # nonzero diagonal
        kept = W.copy()
        contrastive_loss(F, W, 1.0, Scratch())
        assert np.array_equal(W, kept)

    def test_objective_call_on_reused_scratch_faults_no_pages(self):
        # Fresh n x n temporaries are returned to the OS when freed, so a
        # kernel that allocates them faults ~1,900 pages per call at this
        # shape (256 views, 48 labeled, 232 soft). Measured in a new process,
        # whose heap is not shaped by the rest of the test session.
        pytest.importorskip("resource")
        code = textwrap.dedent("""
            import resource
            import numpy as np
            from cobranch.config import effective_config, to_train_objects
            from cobranch.losses import Scratch, contrastive_objective
            from cobranch.train import _other_view
            from cobranch.transfer import one_hot
            rng = np.random.default_rng(0)
            F = rng.standard_normal((256, 16))
            F /= np.linalg.norm(F, axis=1, keepdims=True)
            other = _other_view(24, 92, 12)  # 24 labeled, 92 more soft and 12 other samples
            lab = one_hot(rng.integers(0, 6, size=24), 10)
            P = np.concatenate([lab, lab, rng.dirichlet(np.ones(10), size=184)])
            W = P @ P.T
            scratch = Scratch()
            train_cfg = to_train_objects(effective_config(None), 0)[1]
            args = (F, other, W, 48, 1.0, train_cfg.gamma1, train_cfg.gamma2, scratch)
            contrastive_objective(*args)
            before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            contrastive_objective(*args)
            print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
        """)
        src = os.path.dirname(os.path.dirname(cobranch.__file__))
        env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
        assert int(out.stdout) < 128


@st.composite
def unit_features(draw, min_rows=2, max_rows=8):
    n = draw(st.integers(min_rows, max_rows))
    d = draw(st.integers(2, 5))
    F = unit_rows(np.random.default_rng(draw(st.integers(0, 2**32 - 1))), n, d)
    return F, draw(st.floats(0.2, 2.0))


class TestKernelProperties:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(data=st.data(), batch=unit_features())
    def test_hard_positive_sets_match_oracle(self, data, batch):
        F, tau = batch
        n = F.shape[0]
        member = data.draw(st.lists(st.lists(st.booleans(), min_size=n, max_size=n),
                                    min_size=n, max_size=n))
        sets = []
        for i, row in enumerate(member):
            pos = [j for j in range(n) if row[j] and j != i]
            sets.append(pos or None)
        assume(any(pos is not None for pos in sets))
        loss, grad, n_excluded = contrastive_loss(F, set_weights(sets, n), tau)
        ref, ref_grad = positive_set_contrastive_loss(F, sets, tau)
        assert n_excluded == sets.count(None)
        assert abs(loss - ref) < 1e-10
        assert np.abs(grad - ref_grad).max() < 1e-10

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(data=st.data(), batch=unit_features())
    def test_soft_weights_permutation_equivariance(self, data, batch):
        F, tau = batch
        n = F.shape[0]
        W = np.array(data.draw(st.lists(st.floats(0.0, 10.0), min_size=n * n, max_size=n * n)))
        W = W.reshape(n, n)
        assume(np.any(W[~np.eye(n, dtype=bool)] > 0))
        perm = np.array(data.draw(st.permutations(range(n))))
        loss, grad, n_excluded = contrastive_loss(F, W, tau)
        loss_p, grad_p, n_excluded_p = contrastive_loss(F[perm], W[np.ix_(perm, perm)], tau)
        assert n_excluded_p == n_excluded
        assert abs(loss_p - loss) < 1e-10
        assert np.abs(grad_p - grad[perm]).max() < 1e-10


class TestOptimalSoftLogits:
    def test_symmetric(self):
        assert optimal_soft_logits(np.ones(4)).tolist() == [0.25] * 4

    def test_already_normalized(self):
        w = np.array([0.2, 0.3, 0.5])
        assert np.allclose(optimal_soft_logits(w), w)

    def test_hand_normalization(self):
        assert optimal_soft_logits(np.array([2.0, 6.0])).tolist() == [0.25, 0.75]

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            optimal_soft_logits(np.zeros(3))

    def test_matches_direct_minimization(self):
        # minimizing one anchor's weighted term over simplex logits lands on w/sum(w)
        w = np.array([0.2, 0.3, 0.5])
        p, _ = pgd_anchor_minimizer(w)
        assert np.abs(p - optimal_soft_logits(w)).max() < 1e-4


class TestKlRegularizer:
    def test_identical_distributions_zero(self):
        t = np.array([0.25, 0.75])
        loss, _ = kl_regularizer(t, t, smoothing_p=1.0)
        assert loss == pytest.approx(0.0, abs=1e-12)

    def test_hand_value(self):
        loss, _ = kl_regularizer(np.array([0.5, 0.5]), np.array([0.25, 0.75]), 1.0)
        assert loss == pytest.approx(0.14384103622589042, abs=1e-12)

    def test_smoothing_zero_gives_uniform(self):
        t = np.array([0.7, 0.2, 0.1, 0.0])
        assert np.allclose(smooth_target(t, 0.0), 0.25)

    def test_smoothing_one_is_identity(self):
        t = np.array([0.7, 0.2, 0.1])
        assert np.allclose(smooth_target(t, 1.0), t)

    def test_support_mismatch_rejected(self):
        with pytest.raises(ValueError):
            kl_regularizer(np.array([0.5, 0.5]), np.array([1.0, 0.0]), 1.0)

    def test_nonnegative_and_zero_iff_equal(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            n = int(rng.integers(2, 8))
            m = rng.dirichlet(np.ones(n))
            t = rng.dirichlet(np.ones(n))
            loss, _ = kl_regularizer(m, t, 1.0)
            assert loss >= -1e-12
            same, _ = kl_regularizer(m, m, 1.0)
            assert abs(same) < 1e-12

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        for _ in range(5):
            n = int(rng.integers(2, 7))
            m = rng.dirichlet(np.ones(n) * 3.0) + 0.01
            m /= m.sum()
            t = rng.dirichlet(np.ones(n) * 3.0) + 0.01
            t /= t.sum()

            def f(x):
                return kl_regularizer(x, t, 0.5)[0]

            _, grad = kl_regularizer(m, t, 0.5)
            assert max_rel_err(grad, central_fd(f, m)) < 1e-4


def random_cls_instance(rng, n_l=2, n_u=3, C=4, gate=0.5):
    """Random logits kept away from argmax/gate discontinuities."""
    while True:
        lab = rng.standard_normal((n_l, C))
        v1 = rng.standard_normal((n_u, C))
        v2 = rng.standard_normal((n_u, C))
        ok = True
        for arr in (v1, v2):
            p = softmax(arr)
            top2 = np.sort(arr, axis=1)
            if np.any(np.abs(p.max(axis=1) - gate) < 1e-3):
                ok = False
            if arr.shape[0] and np.any(top2[:, -1] - top2[:, -2] < 1e-3):
                ok = False
        if ok:
            return lab, rng.integers(0, C, size=n_l), v1, v2


class TestClassificationObjective:
    def test_pure_cross_entropy_when_weights_zero(self):
        rng = np.random.default_rng(8)
        lab, labels, v1, v2 = random_cls_instance(rng)
        target = np.full(4, 0.25)
        res = classification_objective(lab, labels, v1, v2, target, 0.0, 0.0, 0.5, GATE)
        log_p = lab - lab.max(axis=1, keepdims=True)
        log_p = log_p - np.log(np.exp(log_p).sum(axis=1, keepdims=True))
        ce = float(-log_p[np.arange(2), labels].mean())
        assert res.total == pytest.approx(ce, abs=1e-12)

    def test_strong_margin_drives_ls_to_zero(self):
        logits = np.array([[40.0, -40.0, -40.0]])
        res = classification_objective(
            logits, np.array([0]), np.zeros((0, 3)), np.zeros((0, 3)),
            np.full(3, 1 / 3), 0.0, 0.0, 0.5, GATE,
        )
        assert res.l_s == pytest.approx(0.0, abs=1e-12)

    def test_empty_labeled_batch_omits_ls(self, caplog):
        rng = np.random.default_rng(9)
        _, _, v1, v2 = random_cls_instance(rng)
        res = classification_objective(
            np.zeros((0, 4)), np.zeros(0, dtype=int), v1, v2,
            np.full(4, 0.25), *ETAS, 0.5, GATE,
        )
        assert "L_s omitted" in caplog.text
        assert res.l_s == 0.0

    def test_composite_equals_weighted_parts(self):
        rng = np.random.default_rng(10)
        lab, labels, v1, v2 = random_cls_instance(rng)
        w = (0.7, 1.3)
        target = np.array([0.4, 0.3, 0.2, 0.1])
        res = classification_objective(lab, labels, v1, v2, target, *w, 0.5, GATE)
        assert res.total == pytest.approx(res.l_s + 0.7 * res.l_u + 1.3 * res.l_reg, abs=1e-9)

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(11)
        for trial in range(4):
            lab, labels, v1, v2 = random_cls_instance(rng)
            target = rng.dirichlet(np.ones(4)) + 0.02
            target /= target.sum()
            w = (0.8, 1.1)
            n_l, n_u = lab.shape[0], v1.shape[0]

            def f(flat):
                a = flat[: n_l * 4].reshape(n_l, 4)
                b = flat[n_l * 4 : (n_l + n_u) * 4].reshape(n_u, 4)
                c = flat[(n_l + n_u) * 4 :].reshape(n_u, 4)
                return classification_objective(a, labels, b, c, target, *w, 0.5, GATE).total

            res = classification_objective(lab, labels, v1, v2, target, *w, 0.5, GATE)
            flat = np.concatenate([lab.ravel(), v1.ravel(), v2.ravel()])
            assert max_rel_err(res.grad.ravel(), central_fd(f, flat)) < 1e-4

    def test_no_unlabeled_rows(self):
        # zero-row unlabeled views: no pseudo terms, L_reg over the labeled rows alone
        rng = np.random.default_rng(17)
        lab, labels = rng.standard_normal((3, 4)), np.array([0, 2, 1])
        empty = np.zeros((0, 4))
        target = np.array([0.4, 0.3, 0.2, 0.1])
        w = (0.8, 1.1)
        res = classification_objective(lab, labels, empty, empty, target, *w, 0.5, GATE)
        assert res.l_u == 0.0 and res.n_gated == 0
        assert res.grad.shape == (3, 4)
        assert res.l_reg == kl_regularizer(softmax(lab).mean(axis=0), target, 0.5)[0]

        def f(flat):
            return classification_objective(flat.reshape(3, 4), labels, empty, empty, target, *w, 0.5, GATE).total

        assert max_rel_err(res.grad.ravel(), central_fd(f, lab.ravel())) < 1e-4

    def test_confidence_gate_suppresses_low_confidence(self):
        # uniform view probabilities stay under a 0.9 gate: no pseudo terms
        v = np.zeros((2, 4))
        res = classification_objective(
            np.zeros((0, 4)), np.zeros(0, dtype=int), v, v,
            np.full(4, 0.25), *ETAS, 1.0, conf_gate=0.9,
        )
        assert res.n_gated == 0
        assert res.l_u == 0.0

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        n_l=st.integers(0, 5), n_u=st.integers(0, 5), C=st.integers(2, 50),
        gate=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
        scale=st.sampled_from([0.1, 1.0, 10.0, 100.0]), p=st.floats(0.0, 1.0),
        etas=st.tuples(*[st.sampled_from([0.0, 0.6, 1.0, 1.7])] * 2), seed=st.integers(0, 2**32 - 1),
    )
    @example(n_l=0, n_u=3, C=2, gate=1.0, scale=100.0, p=0.5, etas=(1.0, 1.0), seed=0)
    @example(n_l=4, n_u=0, C=50, gate=0.0, scale=1.0, p=1.0, etas=(1.0, 1.0), seed=1)
    @example(n_l=2, n_u=5, C=50, gate=0.0, scale=10.0, p=0.0, etas=(0.6, 1.7), seed=2)
    @example(n_l=3, n_u=4, C=2, gate=1.0, scale=100.0, p=0.3, etas=(1.7, 0.6), seed=3)
    def test_matches_three_block_oracle_exactly(self, n_l, n_u, C, gate, scale, p, etas, seed):
        # one stacked softmax, same per-row formulas and the same order of
        # accumulation as the per-block reference: equal to the last bit
        assume(n_l + n_u >= 1)
        rng = np.random.default_rng(seed)
        lab, v1, v2 = (scale * rng.standard_normal((n, C)) for n in (n_l, n_u, n_u))
        labels = rng.integers(0, C, size=n_l)
        target = rng.dirichlet(np.ones(C)) + 0.01
        target /= target.sum()
        res = classification_objective(lab, labels, v1, v2, target, *etas, p, gate)
        total, l_s, l_u, l_reg, grad, n_gated = three_block_classification_objective(
            lab, labels, v1, v2, target, *etas, p, gate
        )
        assert (res.total, res.l_s, res.l_u, res.l_reg, res.n_gated) == (total, l_s, l_u, l_reg, n_gated)
        assert np.array_equal(res.grad, grad)

    @pytest.mark.parametrize("n_l, n_u1, n_u2, match", [
        (0, 0, 0, "at least one logit row"),
        (2, 3, 2, "must pair up"),
    ])
    def test_rejects_no_rows_and_unpaired_views(self, n_l, n_u1, n_u2, match):
        with pytest.raises(ValueError, match=match):
            classification_objective(
                np.zeros((n_l, 3)), np.zeros(n_l, dtype=int), np.zeros((n_u1, 3)), np.zeros((n_u2, 3)),
                np.full(3, 1 / 3), *ETAS, 0.5, GATE,
            )


def build_views_batch(rng, n_l, n_u, d):
    """Views in nested order, [labeled v1, labeled v2, unlabeled v1, unlabeled
    v2]: the labeled views are the first 2 * n_l rows."""
    F = unit_rows(rng, 2 * (n_l + n_u), d)
    classes = rng.integers(0, 2, size=n_l)
    return F, _other_view(n_l, n_u), np.concatenate([classes, classes])


def positiveness_weights(rng, lab_cls, m, metric="dot", C=3):
    """The positiveness matrix of the first m views, as `train.run` builds
    it: the labeled views as their one-hot labels, then m - len(lab_cls)
    random probability rows."""
    P = np.concatenate([one_hot(lab_cls, C), rng.dirichlet(np.ones(C), size=m - len(lab_cls))])
    return build_positiveness_matrix(P, metric)


class TestContrastiveObjective:
    def test_reduces_to_unsupervised_alone(self):
        rng = np.random.default_rng(12)
        F, other, lab_cls = build_views_batch(rng, 2, 3, 4)
        res = contrastive_objective(F, other, indicator_weights(lab_cls), 4, 1.0, 0.0, 0.0)
        sets = [[other[i]] for i in range(F.shape[0])]
        ref, ref_grad = positive_set_contrastive_loss(F, sets, 1.0)
        assert res.total == pytest.approx(ref, abs=1e-12)
        assert np.abs(res.grad - ref_grad).max() < 1e-12

    def test_warmup_independent_of_weights(self):
        # warm-up passes the labeled views' matrix at gamma2 = 0: the same
        # result as a matrix with soft rows at gamma2 = 0
        rng = np.random.default_rng(13)
        F, other, lab_cls = build_views_batch(rng, 2, 2, 3)
        W = positiveness_weights(rng, lab_cls, 8)
        a = contrastive_objective(F, other, indicator_weights(lab_cls), 4, 1.0, TRAIN.gamma1, 0.0)
        b = contrastive_objective(F, other, W, 4, 1.0, TRAIN.gamma1, 0.0)
        assert a.l_sup > 0.0
        assert a.total == b.total
        assert np.array_equal(a.grad, b.grad)
        assert a.l_soft == 0.0
        assert a.n_soft_anchors == a.n_soft_excluded == 0

    def test_composite_equals_weighted_parts(self):
        rng = np.random.default_rng(14)
        F, other, lab_cls = build_views_batch(rng, 2, 2, 4)
        W = positiveness_weights(rng, lab_cls, 6)
        w = (0.6, 1.4)
        res = contrastive_objective(F, other, W, 4, 0.8, *w)
        assert res.total == pytest.approx(
            res.l_unsup + 0.6 * res.l_sup + 1.4 * res.l_soft, abs=1e-9
        )
        assert res.n_soft_anchors == 6

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(15)
        for trial in range(3):
            n_l, n_u, d = 2, 2, 3
            F, other, lab_cls = build_views_batch(rng, n_l, n_u, d)
            W = positiveness_weights(rng, lab_cls, 6)
            w = (0.9, 1.2)

            def f(flat):
                return contrastive_objective(flat.reshape(F.shape), other, W, 4, 1.0, *w).total

            res = contrastive_objective(F, other, W, 4, 1.0, *w)
            assert max_rel_err(res.grad.ravel(), central_fd(f, F.ravel())) < 1e-4

    def test_soft_weights_beyond_batch_rejected(self):
        rng = np.random.default_rng(16)
        F, other, lab_cls = build_views_batch(rng, 2, 2, 3)
        for W in (np.ones((9, 9)), np.ones((4, 3))):
            with pytest.raises(ValueError, match="weights must be square over 2 to 8 rows"):
                contrastive_objective(F, other, W, 4, 1.0, *GAMMAS)

    @pytest.mark.parametrize("n_labeled", [5, -1])
    def test_labeled_rows_beyond_weights_rejected(self, n_labeled):
        rng = np.random.default_rng(19)
        F, other, lab_cls = build_views_batch(rng, 2, 2, 3)
        with pytest.raises(ValueError, match=f"{n_labeled} labeled rows do not fit the 4-row weight matrix"):
            contrastive_objective(F, other, indicator_weights(lab_cls), n_labeled, 1.0, *GAMMAS)

    def test_self_paired_row_rejected(self):
        rng = np.random.default_rng(17)
        F, other, lab_cls = build_views_batch(rng, 2, 2, 3)
        other[3] = 3
        with pytest.raises(ValueError, match="its own positive"):
            contrastive_objective(F, other, indicator_weights(lab_cls), 4, 1.0, *GAMMAS)


@st.composite
def nested_batches(draw):
    """A batch in nested order: L labeled and m soft rows of n, L <= m <= n;
    the positiveness matrix of the labeled views' one-hot rows and m - L
    probability rows, each on a random support, so that under some metrics
    a row can have no mass; gammas that may be 0."""
    n_l, n_s, n_r = draw(st.integers(0, 3)), draw(st.integers(0, 3)), draw(st.integers(0, 3))
    assume(n_l + n_s + n_r >= 1)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    F = unit_rows(rng, 2 * (n_l + n_s + n_r), draw(st.integers(2, 5)))
    classes = rng.integers(0, 2, size=n_l)
    m, C = 2 * (n_l + n_s), 4
    support = rng.random((m - 2 * n_l, C)) < 0.2  # often one class: hard-mode rows
    support[np.arange(len(support)), rng.integers(0, C, size=len(support))] = True
    probs = rng.dirichlet(np.ones(C), size=len(support)) * support
    probs /= probs.sum(axis=1, keepdims=True)
    lab = one_hot(classes, C)
    W = build_positiveness_matrix(np.concatenate([lab, lab, probs]), draw(st.sampled_from(SIMILARITY_METRICS)))
    assume(m < 2 or np.any(W > 0))
    gammas = tuple(draw(st.sampled_from([0.0, 0.3, 1.0, 2.5])) for _ in range(2))
    tau = draw(st.one_of(st.just(MIN_TEMPERATURE), st.floats(0.2, 2.0)))  # the bound: the widest row range
    return F, _other_view(n_l, n_s, n_r), np.concatenate([classes, classes]), W, tau, gammas


class TestSharedKernelProperties:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(batch=nested_batches())
    def test_objective_matches_per_term_oracle(self, batch):
        F, other, lab_cls, W, tau, w = batch
        res = contrastive_objective(F, other, W, lab_cls.size, tau, *w)
        l_unsup, l_sup, l_soft, grad, n_excluded = per_term_contrastive_objective(F, other, lab_cls, W, tau, *w)
        assert abs(res.l_unsup - l_unsup) < 1e-10
        assert abs(res.l_sup - l_sup) < 1e-10
        assert abs(res.l_soft - l_soft) < 1e-10
        assert np.abs(res.grad - grad).max() < 1e-10
        assert res.n_soft_excluded == n_excluded

    def test_small_temperature_exp_never_underflows(self):
        # At the bound a row spans up to 600, and exp(-600) is a normal double,
        # so every prefix shares its row's shift; below it the kernel refuses.
        rng = np.random.default_rng(18)
        F, other, lab_cls = build_views_batch(rng, 3, 5, 8)
        W = positiveness_weights(rng, lab_cls, 10)
        with np.errstate(under="raise"):
            contrastive_objective(F, other, W, 6, MIN_TEMPERATURE, *GAMMAS)
        with pytest.raises(ValueError, match="temperature must be >="):
            contrastive_objective(F, other, W, 6, np.nextafter(MIN_TEMPERATURE, 0), *GAMMAS)
