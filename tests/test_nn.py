import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cobranch import checkpoint, cli, nn
from cobranch.config import ConfigError, effective_config
from cobranch.estimate import AlignmentMap
from cobranch.train import TrainResult
from oracles import (
    MODEL,
    central_fd,
    grad_check,
    max_rel_err,
    params_to_vector,
    vector_to_params,
    written_out_classify_backward,
    written_out_encode_backward,
    written_out_project_backward,
)


def small_params(seed=0, d_in=4, d_hidden=5, d_feat=3, d_ph=4, d_proj=3, C=4, scale=MODEL.scale):
    return nn.init_params(d_in, d_hidden, d_feat, d_ph, d_proj, C, seed=seed, scale=scale)


def grads_to_vector(p, grads):
    """`grads` laid out as `params_to_vector(p)`, zero for the parameters it leaves out."""
    return np.concatenate([grads.get(name, np.zeros_like(getattr(p, name))).ravel() for name in p.array_fields()])


class TestEncode:
    def test_zero_network_gives_zero(self):
        p = small_params()
        for name in p.ENCODER_FIELDS:
            getattr(p, name)[...] = 0.0
        z = nn.encode(p, np.ones((1, 4)))[0]
        assert np.all(z == 0.0)

    def test_identity_linear_limit(self):
        # scaled-identity first layer keeps tanh in its linear regime, the
        # second layer undoes the scaling: z -> x up to O(eps^2) curvature
        eps = 1e-4
        p = nn.ModelParams(
            enc_w1=eps * np.eye(4),
            enc_b1=np.zeros(4),
            enc_w2=np.eye(4) / eps,
            enc_b2=np.zeros(4),
            proj_w1=np.eye(4),
            proj_b1=np.zeros(4),
            proj_w2=np.eye(4),
            proj_b2=np.zeros(4),
            cls_w=np.eye(4),
            scale=MODEL.scale,
        )
        x = np.array([0.3, -1.2, 2.0, 0.7])
        assert np.abs(nn.encode(p, x[None])[0] - x).max() < 1e-6

    def test_jacobian_matches_finite_differences(self):
        rng = np.random.default_rng(1)
        p = small_params(seed=2)
        x = rng.standard_normal(4)
        for trial in range(3):
            u = rng.standard_normal(3)

            def probe(xv):
                return float(u @ nn.encode(p, xv[None])[0])

            _, cache = nn.encode_forward(p, x[None])
            _, dx = nn.encode_backward(p, cache, u[None])
            assert max_rel_err(dx.ravel(), central_fd(probe, x)) < 1e-4

    def test_param_gradients_match_finite_differences(self):
        rng = np.random.default_rng(5)
        p = small_params(seed=3)
        X = rng.standard_normal((3, 4))
        u = rng.standard_normal((3, 3))

        def loss_at(vec):
            q = vector_to_params(p, vec)
            return float((u * nn.encode(q, X)).sum())

        z, cache = nn.encode_forward(p, X)
        grads, _ = nn.encode_backward(p, cache, u)
        vec = params_to_vector(p)
        numeric = central_fd(loss_at, vec)
        assert max_rel_err(grads_to_vector(p, grads), numeric) < 1e-4

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension 4"):
            nn.encode(small_params(), np.ones((1, 5)))

    def test_forward_deterministic_bitwise(self):
        p = small_params(seed=9)
        x = np.linspace(-1, 1, 4)[None]
        assert np.array_equal(nn.encode(p, x), nn.encode(p, x))


class TestProject:
    def test_unit_norm_output(self):
        rng = np.random.default_rng(2)
        p = small_params(seed=4)
        Z = rng.standard_normal((6, 3))
        U = nn.project_forward(p, Z)[0]
        assert np.abs(np.linalg.norm(U, axis=1) - 1.0).max() < 1e-9

    def test_positive_scale_invariance_linear_projector(self):
        eps = 1e-5
        p = small_params(d_feat=4, d_ph=4, d_proj=4)
        p.proj_w1 = eps * np.eye(4)
        p.proj_b1 = np.zeros(4)
        p.proj_w2 = np.eye(4) / eps
        p.proj_b2 = np.zeros(4)
        z = np.array([[0.4, -0.2, 0.9, 0.1]])
        u1 = nn.project_forward(p, z)[0][0]
        u2 = nn.project_forward(p, 3.0 * z)[0][0]
        assert np.abs(u1 - u2).max() < 1e-6

    def test_zero_vector_falls_back_to_first_basis(self):
        p = small_params()
        for name in p.PROJECTOR_FIELDS:
            getattr(p, name)[...] = 0.0
        U, cache = nn.project_forward(p, np.ones((2, 3)))
        assert np.array_equal(U, np.tile(np.eye(3)[0], (2, 1)))
        assert cache[-1].all()  # fallback flags set

    def test_jacobian_matches_finite_differences(self):
        rng = np.random.default_rng(3)
        p = small_params(seed=6)
        z = rng.standard_normal(3)
        u = rng.standard_normal(3)

        def probe(zv):
            return float(u @ nn.project_forward(p, zv[None])[0][0])

        _, cache = nn.project_forward(p, z[None])
        _, dz = nn.project_backward(p, cache, u[None])
        assert max_rel_err(dz.ravel(), central_fd(probe, z)) < 1e-4

    def test_fallback_row_gets_no_gradient(self):
        # a zero row meets the zero biases of a fresh projector: its output is
        # the zero vector, so it falls back
        rng = np.random.default_rng(10)
        p = small_params(seed=15)
        Z = rng.standard_normal((4, 3))
        Z[2] = 0.0
        dU = rng.standard_normal((4, 3))
        _, cache = nn.project_forward(p, Z)
        assert cache[-1].tolist() == [False, False, True, False]
        grads, dZ = nn.project_backward(p, cache, dU)
        assert np.all(dZ[2] == 0.0)

        rest = np.array([0, 1, 3])
        rest_grads, rest_dZ = nn.project_backward(p, nn.project_forward(p, Z[rest])[1], dU[rest])
        assert grads.keys() == rest_grads.keys()
        for name in grads:
            np.testing.assert_allclose(grads[name], rest_grads[name], rtol=1e-12, atol=1e-15)
        np.testing.assert_allclose(dZ[rest], rest_dZ, rtol=1e-12, atol=1e-15)

        # a loss that weighs only the other rows: a step that moves the
        # fallback row off zero leaves it unchanged
        w = dU.copy()
        w[2] = 0.0

        def loss_at(vec):
            return float((w * nn.project_forward(vector_to_params(p, vec), Z)[0]).sum())

        assert max_rel_err(grads_to_vector(p, grads), central_fd(loss_at, params_to_vector(p))) < 1e-4

        def probe(rest_flat):
            Zr = Z.copy()
            Zr[rest] = rest_flat.reshape(3, 3)
            return float((w * nn.project_forward(p, Zr)[0]).sum())

        assert max_rel_err(dZ[rest].ravel(), central_fd(probe, Z[rest].ravel())) < 1e-4


class TestClassify:
    def test_aligned_vector_hits_scale(self):
        p = small_params(scale=10.0)
        p.cls_w = np.array([[2.0, 0, 0], [0, 2.0, 0], [0, 0, 2.0], [1.0, 1.0, 0]])
        z = p.cls_w[1:2] * 0.5
        logits = nn.classify(p, z)[0]
        assert logits[1] == pytest.approx(10.0)

    def test_positive_rescale_invariance(self):
        rng = np.random.default_rng(4)
        p = small_params(seed=7)
        z = rng.standard_normal((1, 3))
        a = nn.classify(p, z)[0]
        b = nn.classify(p, 7.3 * z)[0]
        assert np.abs(a - b).max() < 1e-12

    def test_orthogonal_gives_zero(self):
        p = small_params()
        p.cls_w = np.array([[1.0, 0, 0], [0, 1.0, 0], [0, 0, 1.0], [1.0, 1.0, 0]])
        logits = nn.classify(p, np.array([[0.0, 0.0, 2.0]]))[0]
        assert logits[0] == pytest.approx(0.0, abs=1e-12)
        assert logits[1] == pytest.approx(0.0, abs=1e-12)

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError, match="zero feature vector"):
            nn.classify(small_params(), np.zeros((1, 3)))

    def test_logits_bounded_by_scale(self):
        rng = np.random.default_rng(8)
        p = small_params(seed=1, scale=10.0)
        logits = nn.classify(p, rng.standard_normal((20, 3)))
        assert np.all(np.abs(logits) <= 10.0 + 1e-9)

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(6)
        p = small_params(seed=8)
        Z = rng.standard_normal((4, 3))
        u = rng.standard_normal((4, 4))

        def loss_at(vec):
            q = vector_to_params(p, vec)
            return float((u * nn.classify(q, Z)).sum())

        _, cache = nn.classify_forward(p, Z)
        grads, dZ = nn.classify_backward(p, cache, u)

        vec = params_to_vector(p)
        numeric = central_fd(loss_at, vec)
        assert max_rel_err(grads_to_vector(p, grads), numeric) < 1e-4

        def probe(zflat):
            return float((u * nn.classify(p, zflat.reshape(4, 3))).sum())

        assert max_rel_err(dZ.ravel(), central_fd(probe, Z.ravel())) < 1e-4


class TestBackwardMatchesWrittenOut:
    """The shared two-layer block and unit-row step give each backward pass
    bit for bit as its layer-by-layer form in `oracles`."""

    @staticmethod
    def assert_same(got, want):
        (grads, dx), (want_grads, want_dx) = got, want
        assert grads.keys() == want_grads.keys()
        assert all(np.array_equal(grads[name], want_grads[name]) for name in grads)
        assert np.array_equal(dx, want_dx)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 9), n_zero=st.integers(0, 9))
    def test_bitwise(self, seed, n, n_zero):
        rng = np.random.default_rng(seed)
        p = nn.init_params(5, 7, 4, 6, 3, 4, seed=seed, scale=rng.uniform(1.0, 20.0))
        p.enc_b1, p.enc_b2 = rng.standard_normal(7), rng.standard_normal(4)
        Z, enc_cache = nn.encode_forward(p, rng.standard_normal((n, 5)))
        dZ = rng.standard_normal(Z.shape)
        self.assert_same(nn.encode_backward(p, enc_cache, dZ), written_out_encode_backward(p, enc_cache, dZ))

        # zero rows meet the zero biases of a fresh projector: they fall back
        Zp = Z.copy()
        Zp[:n_zero] = 0.0
        U, proj_cache = nn.project_forward(p, Zp)
        assert proj_cache[-1].sum() == min(n, n_zero)
        dU = rng.standard_normal(U.shape)
        self.assert_same(nn.project_backward(p, proj_cache, dU), written_out_project_backward(p, proj_cache, dU))

        L, cls_cache = nn.classify_forward(p, Z)
        dL = rng.standard_normal(L.shape)
        self.assert_same(nn.classify_backward(p, cls_cache, dL), written_out_classify_backward(p, cls_cache, dL))


class TestCosineLr:
    def test_epoch_zero_is_base(self):
        assert nn.cosine_lr(0, 0.1, 200) == pytest.approx(0.1)

    def test_midpoint_is_half(self):
        assert nn.cosine_lr(100, 0.1, 200) == pytest.approx(0.05)

    def test_final_epoch_value(self):
        # direct formula evaluation: 0.1 * 0.5 * (1 + cos(199*pi/200))
        assert nn.cosine_lr(199, 0.1, 200) == pytest.approx(6.168375916970615e-06, rel=1e-12)

    def test_epoch_out_of_range(self):
        with pytest.raises(ValueError):
            nn.cosine_lr(200, 0.1, 200)


class TestSgd:
    def test_zero_lr_keeps_params(self):
        p = small_params(seed=10)
        before = params_to_vector(p).copy()
        grads = {"enc_w1": np.ones_like(p.enc_w1)}
        nn.sgd_step(p, grads, lr=0.0, state=nn.SgdState(0.0))
        assert np.array_equal(params_to_vector(p), before)

    def test_scalar_update_no_momentum(self):
        p = small_params()
        p.enc_b2[...] = 0.0
        p.enc_b2[0] = 1.0
        g = np.zeros_like(p.enc_b2)
        g[0] = 2.0
        nn.sgd_step(p, {"enc_b2": g}, lr=0.1, state=nn.SgdState(0.0))
        assert p.enc_b2[0] == pytest.approx(0.8)

    def test_quadratic_bowl_converges(self):
        p = small_params()
        p.enc_b2[...] = np.array([1.0, -2.0, 0.5])
        state = nn.SgdState(0.9)
        for _ in range(200):
            g = 2.0 * p.enc_b2
            nn.sgd_step(p, {"enc_b2": g}, lr=0.1, state=state)
        assert float(p.enc_b2 @ p.enc_b2) < 1e-6

    def test_nonfinite_gradient_rejected(self):
        p = small_params()
        g = np.full_like(p.enc_b2, np.nan)
        with pytest.raises(FloatingPointError, match="non-finite gradient for enc_b2"):
            nn.sgd_step(p, {"enc_b2": g}, lr=0.1, state=nn.SgdState(0.0))

    def test_shape_mismatch_rejected(self):
        p = small_params()
        with pytest.raises(ValueError):
            nn.sgd_step(p, {"enc_b2": np.zeros(99)}, lr=0.1, state=nn.SgdState(0.0))


class TestGradCheckUtility:
    def test_accepts_correct_gradient(self):
        def f(x):
            return float(x @ x), 2.0 * x

        report = grad_check(f, np.array([0.3, -0.7, 1.1]))
        assert report.passed
        assert report.max_rel_err < 1e-6

    def test_rejects_wrong_gradient(self):
        def f(x):
            return float(x @ x), 3.0 * x

        report = grad_check(f, np.array([0.3, -0.7, 1.1]), tol=1e-4)
        assert not report.passed


class TestCheckpointRoundTrip:
    """`checkpoint.load_checkpoint` restores what `checkpoint.checkpoint_dict`
    stores and checks it against the shapes the embedded config gives."""

    def write(self, tmp_path, params, edit=lambda blob: None):
        cfg = effective_config({"dataset": {"num_classes": 4, "num_known": 2, "d_in": 4},
                                "model": {"d_hidden": 5, "d_feat": 3, "d_proj_hidden": 4, "d_proj": 3}})
        opt_cls = nn.SgdState(cfg["train"]["momentum"])
        opt_cls.velocity["enc_b1"] = np.linspace(-1.0, 1.0, 5)
        result = TrainResult(params, opt_cls, nn.SgdState(cfg["train"]["momentum"]), pi_e=np.full(4, 0.25),
                             alignment=AlignmentMap(np.array([1, 0, 3, 2])), epochs_done=3)
        blob = checkpoint.checkpoint_dict(result, cfg, 5)
        edit(blob)
        path = str(tmp_path / "checkpoint.json")
        cli.write_json_atomic(path, blob)
        return path, cfg, result

    def test_round_trip_exact(self, tmp_path):
        p = small_params(seed=12)
        path, cfg, result = self.write(tmp_path, p)
        cfg_back, seed, q = checkpoint.load_checkpoint(path)
        assert cfg_back == cfg and seed == 5 and q.epochs_done == 3
        assert np.array_equal(params_to_vector(p), params_to_vector(q.params))
        assert q.params.scale == p.scale
        assert np.array_equal(q.opt_cls.velocity["enc_b1"], result.opt_cls.velocity["enc_b1"])
        assert q.opt_con.velocity == {} and q.opt_cls.momentum == 0.9
        assert np.array_equal(q.pi_e, result.pi_e)
        assert np.array_equal(q.alignment.cluster_to_class, [1, 0, 3, 2])

    def test_shape_check_rejects_mismatch(self, tmp_path):
        path, _, _ = self.write(tmp_path, small_params(C=7))
        with pytest.raises(ConfigError, match=r"expected shape \(4, 3\) for cls_w, got \(7, 3\)"):
            checkpoint.load_checkpoint(path)

    def test_corrupt_array_length_rejected(self, tmp_path):
        def shorten(blob):
            blob["params"]["enc_b1"] = [1.0]

        path, _, _ = self.write(tmp_path, small_params(), shorten)
        with pytest.raises(ConfigError, match="expected shape .* for enc_b1"):
            checkpoint.load_checkpoint(path)


class TestBranchComposites:
    def test_full_chain_gradients_classifier_branch(self):
        rng = np.random.default_rng(11)
        p = small_params(seed=13)
        X = rng.standard_normal((3, 4))
        labels = np.array([0, 2, 1])

        def loss_at(vec):
            q = vector_to_params(p, vec)
            logits = nn.classify(q, nn.encode(q, X))
            m = logits.max(axis=1, keepdims=True)
            log_p = (logits - m) - np.log(np.exp(logits - m).sum(axis=1, keepdims=True))
            return float(-log_p[np.arange(3), labels].mean())

        logits, cache = nn.classifier_branch_forward(p, X)
        m = logits.max(axis=1, keepdims=True)
        probs = np.exp(logits - m)
        probs /= probs.sum(axis=1, keepdims=True)
        dlogits = probs.copy()
        dlogits[np.arange(3), labels] -= 1.0
        dlogits /= 3
        grads = nn.classifier_branch_backward(p, cache, dlogits)

        vec = params_to_vector(p)
        numeric = central_fd(loss_at, vec)
        assert max_rel_err(grads_to_vector(p, grads), numeric) < 1e-4
        assert all(name not in grads for name in p.PROJECTOR_FIELDS)

    def test_full_chain_gradients_contrastive_branch(self):
        rng = np.random.default_rng(12)
        p = small_params(seed=14)
        X = rng.standard_normal((3, 4))
        v = rng.standard_normal((3, 3))

        def loss_at(vec):
            q = vector_to_params(p, vec)
            return float((v * nn.project_forward(q, nn.encode(q, X))[0]).sum())

        U, cache = nn.contrastive_branch_forward(p, X)
        grads = nn.contrastive_branch_backward(p, cache, v)

        vec = params_to_vector(p)
        numeric = central_fd(loss_at, vec)
        assert max_rel_err(grads_to_vector(p, grads), numeric) < 1e-4
        assert "cls_w" not in grads
