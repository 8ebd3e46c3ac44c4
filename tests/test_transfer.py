import math

import numpy as np
import pytest

from cobranch.losses import hard_indicator_weights, softmax
from cobranch.transfer import (
    SIMILARITY_METRICS,
    PseudoLabelBatch,
    SamplingConfig,
    build_positiveness_matrix,
    debias,
    one_hot,
    sample_pseudolabels,
    sampling_rates,
)
from oracles import positiveness


class TestDebias:
    def test_uniform_prior_is_plain_softmax(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            logits = rng.standard_normal(5)
            pi = np.full(5, 0.2)
            k = float(rng.uniform(0, 2))
            assert np.abs(debias(logits, pi, k) - softmax(logits)).max() < 1e-12

    def test_hand_example(self):
        p = debias(np.array([0.0, 0.0]), np.array([0.8, 0.2]), 1.0)
        assert np.allclose(p, [0.2, 0.8])

    def test_exact_cancellation(self):
        pi = np.array([0.7, 0.2, 0.1])
        p = debias(np.log(pi), pi, 1.0)
        assert np.allclose(p, 1 / 3)

    def test_k_zero_keeps_softmax(self):
        logits = np.array([1.0, -2.0, 0.5])
        pi = np.array([0.6, 0.3, 0.1])
        assert np.allclose(debias(logits, pi, 0.0), softmax(logits))

    def test_argmax_invariance_under_uniform_prior(self):
        rng = np.random.default_rng(1)
        logits = rng.standard_normal((50, 6))
        pi = np.full(6, 1 / 6)
        assert np.array_equal(
            debias(logits, pi, 0.5).argmax(axis=1), softmax(logits).argmax(axis=1)
        )

    def test_rejects_nonfinite_logits_and_zero_prior(self):
        with pytest.raises(ValueError):
            debias(np.array([np.nan, 0.0]), np.array([0.5, 0.5]), 1.0)
        with pytest.raises(ValueError):
            debias(np.array([0.0, 0.0]), np.array([1.0, 0.0]), 1.0)


class TestSamplingRates:
    def test_min_class_rate_is_one(self):
        pi = np.array([0.5, 0.3, 0.2])
        sr = sampling_rates(pi, [0], 0.8, 0.5)
        assert sr[2] == pytest.approx(1.0)

    def test_hand_example(self):
        pi = np.array([0.8, 0.2])
        sr = sampling_rates(pi, [0], alpha=0.5, beta=0.3)
        assert sr[0] == pytest.approx(4.0 ** -0.5)

    def test_zero_exponents_sample_everything(self):
        pi = np.array([0.7, 0.2, 0.1])
        assert np.allclose(sampling_rates(pi, [0, 1], 0.0, 0.0), 1.0)

    def test_branch_selection(self):
        pi = np.array([0.4, 0.4, 0.2])
        sr = sampling_rates(pi, [0], alpha=1.0, beta=0.0)
        assert sr[0] == pytest.approx(0.5)   # in-batch known class: alpha branch
        assert sr[1] == pytest.approx(1.0)   # absent class: beta branch
        assert sr[2] == pytest.approx(1.0)

    def test_monotone_in_frequency(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            pi = np.sort(rng.dirichlet(np.ones(6)))[::-1] + 1e-3
            pi /= pi.sum()
            sr = sampling_rates(pi, [], 0.0, 0.7)
            assert np.all(np.diff(sr) >= -1e-12)
            assert np.all(sr > 0) and np.all(sr <= 1.0 + 1e-12)

    def test_rejects_bad_exponents(self):
        pi = np.array([0.5, 0.5])
        with pytest.raises(ValueError):
            sampling_rates(pi, [], 1.5, 0.5)
        with pytest.raises(ValueError):
            sampling_rates(pi, [], 0.5, -0.1)
        with pytest.raises(ValueError):
            SamplingConfig(alpha=2.0)


class TestSamplePseudolabels:
    def probs_for(self, confidences, cls, C=3):
        rows = []
        for conf, c in zip(confidences, cls):
            row = np.full(C, (1 - conf) / (C - 1))
            row[c] = conf
            rows.append(row)
        return np.array(rows)

    def test_rate_one_keeps_all(self):
        probs = self.probs_for([0.9, 0.8, 0.7], [0, 1, 2])
        batch = sample_pseudolabels(PseudoLabelBatch.from_probs(probs), np.ones(3))
        assert batch.mask.all()

    def test_half_rate_takes_top_confidence(self):
        probs = self.probs_for([0.6, 0.9, 0.8, 0.7], [1, 1, 1, 1])
        batch = sample_pseudolabels(PseudoLabelBatch.from_probs(probs), np.array([1, 0.5, 1.0]))
        assert batch.mask.sum() == 2
        assert batch.mask[1] and batch.mask[2]

    def test_empty_batch(self):
        batch = PseudoLabelBatch.from_probs(np.zeros((0, 3)))
        out = sample_pseudolabels(batch, np.ones(3))
        assert out.mask.size == 0

    def test_ceiling_guarantees_presence(self):
        probs = self.probs_for([0.5], [2])
        out = sample_pseudolabels(PseudoLabelBatch.from_probs(probs), np.array([1, 1, 0.01]))
        assert out.mask.sum() == 1

    def test_tie_broken_by_lower_id(self):
        probs = self.probs_for([0.8, 0.8, 0.8], [0, 0, 0])
        out = sample_pseudolabels(PseudoLabelBatch.from_probs(probs), np.array([1 / 3, 1, 1]))
        assert out.mask.tolist() == [True, False, False]

    def test_selected_confidences_dominate(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            n, C = 30, 4
            probs = rng.dirichlet(np.ones(C), size=n)
            batch = PseudoLabelBatch.from_probs(probs)
            rates = rng.uniform(0.1, 1.0, size=C)
            out = sample_pseudolabels(batch, rates)
            for c in range(C):
                members = np.flatnonzero(out.pred_class == c)
                if members.size == 0:
                    continue
                took = out.mask[members]
                assert took.sum() == math.ceil(rates[c] * members.size)
                if took.any() and (~took).any():
                    assert out.confidence[members][took].min() >= out.confidence[members][~took].max() - 1e-12

    def test_rejects_out_of_range_rates(self):
        batch = PseudoLabelBatch.from_probs(np.full((2, 2), 0.5))
        with pytest.raises(ValueError):
            sample_pseudolabels(batch, np.array([1.0, 1.5]))


class TestPositiveness:
    def test_identical_one_hots(self):
        p = np.array([1.0, 0.0, 0.0])
        assert positiveness(p, p, "dot") == pytest.approx(1.0)

    def test_orthogonal_one_hots(self):
        a = np.array([1.0, 0.0])
        b = np.array([0.0, 1.0])
        assert positiveness(a, b, "dot") == pytest.approx(0.0)

    def test_uniform_self_dot_is_inverse_class_count(self):
        for C in (2, 5, 10):
            u = np.full(C, 1.0 / C)
            assert positiveness(u, u, "dot") == pytest.approx(1.0 / C)

    def test_self_dot_bounds(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            C = int(rng.integers(2, 9))
            p = rng.dirichlet(np.ones(C))
            v = positiveness(p, p, "dot")
            assert 1.0 / C - 1e-12 <= v <= 1.0 + 1e-12

    @pytest.mark.parametrize("metric", ["dot", "cosine", "l1", "l2"])
    def test_symmetry_and_range(self, metric):
        rng = np.random.default_rng(5)
        P = rng.dirichlet(np.ones(5), size=8)
        W = build_positiveness_matrix(P, metric)
        assert np.abs(W - W.T).max() < 1e-12
        assert W.min() >= 0.0 and W.max() <= 1.0
        assert np.all(np.diag(W) == 0.0)

    def test_metric_extremes(self):
        a = np.array([1.0, 0.0])
        b = np.array([0.0, 1.0])
        for metric in ("l1", "l2", "cosine", "dot"):
            assert positiveness(a, b, metric) == pytest.approx(0.0, abs=1e-12)
            assert positiveness(a, a, metric) == pytest.approx(1.0, abs=1e-12)

    def test_off_simplex_rejected(self):
        with pytest.raises(ValueError):
            positiveness(np.array([0.7, 0.7]), np.array([0.5, 0.5]), "dot")
        with pytest.raises(ValueError):
            build_positiveness_matrix(np.array([[1.2, -0.2]]), "dot")

    def test_unknown_metric_rejected(self):
        with pytest.raises(ValueError):
            positiveness(np.array([0.5, 0.5]), np.array([0.5, 0.5]), "manhattan")

    def test_dot_is_same_class_probability(self):
        # dot(p, q) = P[two independent draws coincide]; Monte-Carlo check
        rng = np.random.default_rng(6)
        for _ in range(5):
            C = 4
            p = rng.dirichlet(np.ones(C))
            q = rng.dirichlet(np.ones(C))
            w = positiveness(p, q, "dot")
            n = 20000
            draws_p = rng.choice(C, size=n, p=p)
            draws_q = rng.choice(C, size=n, p=q)
            freq = (draws_p == draws_q).mean()
            sigma = math.sqrt(w * (1 - w) / n)
            assert abs(freq - w) < 3 * sigma + 1e-9


class TestBuildMatrix:
    def test_same_class_one_hots(self):
        P = one_hot(np.array([1, 1, 1]), 3)
        W = build_positiveness_matrix(P, "dot")
        off = W[~np.eye(3, dtype=bool)]
        assert np.all(off == 1.0)

    def test_cross_class_zero(self):
        P = one_hot(np.array([0, 1]), 2)
        W = build_positiveness_matrix(P, "dot")
        assert W[0, 1] == 0.0

    def test_hard_indicator(self):
        W = hard_indicator_weights(np.array([0, 1, 0]))
        assert W.tolist() == [[0, 0, 1], [0, 0, 0], [1, 0, 0]]
        # hard soft-mode rests on this: on one-hot rows every metric is the indicator, exactly
        c = np.array([2, 0, 2, 1, 0, 3, 2, 2])
        for metric in SIMILARITY_METRICS:
            assert np.array_equal(build_positiveness_matrix(one_hot(c, 4), metric), hard_indicator_weights(c))


def test_one_hot_shape():
    oh = one_hot(np.array([2, 0]), 4)
    assert oh.shape == (2, 4)
    assert oh[0].tolist() == [0, 0, 1, 0]
