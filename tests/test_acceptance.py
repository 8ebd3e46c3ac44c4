"""Acceptance suite: one test per criterion, each printing a verdict line.

Ordered by criterion number; tolerances are stated inline next to each
assertion. Run `pytest tests/test_acceptance.py -v` (add -s to stream the
verdict lines; they are also echoed in the terminal summary).
"""

import hashlib
import json
import math
import time

import numpy as np

from cobranch.cli import main, run_experiment
from cobranch.config import effective_config
from cobranch.data import ImbalanceProfile, gen_synthetic, make_longtail_counts, split_known_novel
from cobranch.estimate import AlignmentMap, aligned_distribution, estimate_round, hungarian
from cobranch.evaluation import evaluate
from cobranch.losses import (
    LossWeights,
    classification_objective,
    contrastive_loss,
    contrastive_objective,
    hard_indicator_weights,
    kl_regularizer,
    softmax,
)
from cobranch.transfer import PseudoLabelBatch, debias, sample_pseudolabels, sampling_rates
from conftest import ACCEPTANCE_LINES
from oracles import (
    brute_force_assignment_batch,
    central_fd,
    max_rel_err,
    optimal_soft_logits,
    pgd_anchor_minimizer,
    positive_set_contrastive_loss,
)


def criterion(num, desc, ok, detail=""):
    line = f"ACCEPTANCE {num:2d} [{'PASS' if ok else 'FAIL'}] {desc}"
    if detail:
        line += f" ({detail})"
    print(line)
    ACCEPTANCE_LINES.append(line)
    assert ok, line


def unit_rows(rng, n, d):
    F = rng.standard_normal((n, d))
    return F / np.linalg.norm(F, axis=1, keepdims=True)


def class_positive_sets(classes):
    sets = []
    for i, c in enumerate(classes):
        idx = np.flatnonzero(classes == c)
        sets.append(idx[idx != i])
    return sets


def test_criterion_01_claim1_oracle():
    """Direct simplex minimization of the per-anchor soft term lands on w/sum(w)."""
    rng = np.random.default_rng(101)
    t0 = time.time()
    worst = 0.0
    for trial in range(100):
        n = int(rng.integers(2, 9))
        w = rng.random(n) * float(rng.choice([0.1, 1.0, 10.0]))
        if trial % 9 == 0:
            w[int(rng.integers(n))] = 0.0
        if w.sum() <= 0:
            w[0] = 1.0
        p, steps = pgd_anchor_minimizer(w, steps=10000)
        assert steps <= 10000
        worst = max(worst, float(np.abs(p - optimal_soft_logits(w)).max()))
    elapsed = time.time() - t0
    criterion(
        1, "Claim-1 oracle: PGD over simplex logits converges to w/sum(w)",
        worst < 1e-4 and elapsed < 10.0,
        f"max abs err {worst:.2e}, {elapsed:.1f}s",
    )


def _check_eq1(rng):
    n, d = int(rng.integers(4, 7)), int(rng.integers(2, 9))
    F = unit_rows(rng, n, d)
    classes = rng.integers(0, 2, size=n)
    while np.any(np.bincount(classes, minlength=2) < 2):
        classes = rng.integers(0, 2, size=n)
    sets = class_positive_sets(classes)
    tau = float(rng.uniform(0.4, 1.6))

    # the kernel's gradient against differences of the per-anchor reference
    def f(flat):
        return positive_set_contrastive_loss(flat.reshape(n, d), sets, tau)[0]

    _, grad, _ = contrastive_loss(F, hard_indicator_weights(classes), tau)
    return max_rel_err(grad.ravel(), central_fd(f, F.ravel()))


def _check_eq2(rng):
    C = int(rng.integers(2, 6))
    m = rng.dirichlet(np.ones(C) * 2.0) + 0.02
    m /= m.sum()
    t = rng.dirichlet(np.ones(C) * 2.0) + 0.02
    t /= t.sum()
    p = float(rng.uniform(0, 1))

    def f(x):
        return kl_regularizer(x, t, p)[0]

    _, grad = kl_regularizer(m, t, p)
    return max_rel_err(grad, central_fd(f, m))


def _check_eq3(rng):
    C = int(rng.integers(2, 6))
    n_l, n_u = int(rng.integers(1, 3)), int(rng.integers(1, 3))
    gate = 0.5
    while True:
        lab = rng.standard_normal((n_l, C))
        labels = rng.integers(0, C, size=n_l)
        v1 = rng.standard_normal((n_u, C))
        v2 = rng.standard_normal((n_u, C))
        ok = True
        for arr in (v1, v2):
            pmax = softmax(arr).max(axis=1)
            top2 = np.sort(arr, axis=1)
            if np.any(np.abs(pmax - gate) < 1e-3) or np.any(top2[:, -1] - top2[:, -2] < 1e-3):
                ok = False
        if ok:
            break
    target = rng.dirichlet(np.ones(C)) + 0.02
    target /= target.sum()
    w = LossWeights(eta1=float(rng.uniform(0.2, 1.5)), eta2=float(rng.uniform(0.2, 1.5)))
    p = float(rng.uniform(0, 1))

    def f(flat):
        a = flat[: n_l * C].reshape(n_l, C)
        b = flat[n_l * C : (n_l + n_u) * C].reshape(n_u, C)
        c = flat[(n_l + n_u) * C :].reshape(n_u, C)
        return classification_objective(a, labels, b, c, target, w, p, gate).total

    res = classification_objective(lab, labels, v1, v2, target, w, p, gate)
    flat = np.concatenate([lab.ravel(), v1.ravel(), v2.ravel()])
    analytic = np.concatenate(
        [res.grad_labeled.ravel(), res.grad_unl_v1.ravel(), res.grad_unl_v2.ravel()]
    )
    return max_rel_err(analytic, central_fd(f, flat))


def _check_eq6(rng):
    n, d = int(rng.integers(3, 7)), int(rng.integers(2, 9))
    F = unit_rows(rng, n, d)
    W = rng.uniform(0.05, 1.0, size=(n, n))
    tau = float(rng.uniform(0.4, 1.6))

    def f(flat):
        return contrastive_loss(flat.reshape(n, d), W, tau)[0]

    _, grad, _ = contrastive_loss(F, W, tau)
    return max_rel_err(grad.ravel(), central_fd(f, F.ravel()))


def _check_eq7(rng):
    n_l, n_u, d = 1, 2, int(rng.integers(2, 9))
    n_b = n_l + n_u
    F = unit_rows(rng, 2 * n_b, d)
    other = np.concatenate([np.arange(n_b) + n_b, np.arange(n_b)])
    labeled_idx = np.concatenate([np.arange(n_l), n_b + np.arange(n_l)])
    labeled_cls = np.zeros(2 * n_l, dtype=int)
    soft_idx = np.arange(2 * n_b)
    W = rng.uniform(0.05, 1.0, size=(2 * n_b, 2 * n_b))
    w = LossWeights(gamma1=float(rng.uniform(0.2, 1.5)), gamma2=float(rng.uniform(0.2, 1.5)))
    tau = float(rng.uniform(0.4, 1.6))

    def f(flat):
        return contrastive_objective(
            flat.reshape(F.shape), other, labeled_idx, labeled_cls, soft_idx, W, tau, w
        ).total

    res = contrastive_objective(F, other, labeled_idx, labeled_cls, soft_idx, W, tau, w)
    return max_rel_err(res.grad.ravel(), central_fd(f, F.ravel()))


def test_criterion_02_gradient_suite():
    """Analytic gradients of the five objectives match central differences."""
    rng = np.random.default_rng(202)
    t0 = time.time()
    worst = {}
    for name, check in (
        ("eq1", _check_eq1), ("eq2", _check_eq2), ("eq3", _check_eq3),
        ("eq6", _check_eq6), ("eq7", _check_eq7),
    ):
        worst[name] = max(check(rng) for _ in range(50))
    elapsed = time.time() - t0
    bad = {k: v for k, v in worst.items() if v >= 1e-4}
    criterion(
        2, "Gradient suite: Eq.1/2/3/6/7 vs central finite differences",
        not bad and elapsed < 30.0,
        ", ".join(f"{k} {v:.1e}" for k, v in worst.items()) + f", {elapsed:.1f}s",
    )


def test_criterion_03_assignment_oracle():
    """Assignment solver equals exhaustive search, n = 2..7, 1000 matrices each."""
    rng = np.random.default_rng(303)
    mismatches = 0
    for n in range(2, 8):
        costs = rng.normal(size=(1000, n, n))
        chunk = 200 if n < 7 else 50
        ref_perms = []
        for start in range(0, 1000, chunk):
            perms, _ = brute_force_assignment_batch(costs[start : start + chunk])
            ref_perms.append(perms)
        ref_perms = np.concatenate(ref_perms, axis=0)
        for i in range(1000):
            if not np.array_equal(hungarian(costs[i]), ref_perms[i]):
                mismatches += 1
    criterion(
        3, "Assignment oracle: solver equals brute force on 6000 matrices",
        mismatches == 0,
        f"{mismatches} mismatches",
    )


def test_criterion_04_reduction_identities():
    """Soft loss reduces to its hard/uniform special cases; debias to softmax."""
    rng = np.random.default_rng(404)
    worst_binary = worst_const = worst_debias = 0.0
    for _ in range(100):
        n, d = int(rng.integers(6, 9)), int(rng.integers(2, 6))
        F = unit_rows(rng, n, d)
        classes = rng.integers(0, 3, size=n)
        while np.any(np.bincount(classes, minlength=3) < 2):
            classes = rng.integers(0, 3, size=n)
        tau = float(rng.uniform(0.4, 1.6))

        W = (classes[:, None] == classes[None, :]).astype(float)
        np.fill_diagonal(W, 0.0)
        soft, _, _ = contrastive_loss(F, W, tau)
        hard, _ = positive_set_contrastive_loss(F, class_positive_sets(classes), tau)
        worst_binary = max(worst_binary, abs(soft - hard))

        const = float(rng.uniform(0.1, 5.0))
        soft_c, _, _ = contrastive_loss(F, np.full((n, n), const), tau)
        full_sets = [np.delete(np.arange(n), i) for i in range(n)]
        full, _ = positive_set_contrastive_loss(F, full_sets, tau)
        worst_const = max(worst_const, abs(soft_c - full))

        C = int(rng.integers(2, 7))
        logits = rng.standard_normal(C) * 3
        k = float(rng.uniform(0, 2))
        diff = np.abs(debias(logits, np.full(C, 1.0 / C), k) - softmax(logits)).max()
        worst_debias = max(worst_debias, float(diff))

    criterion(
        4, "Reduction identities: binary/constant soft weights, uniform debias",
        worst_binary < 1e-10 and worst_const < 1e-10 and worst_debias < 1e-12,
        f"binary {worst_binary:.1e}, const {worst_const:.1e}, debias {worst_debias:.1e}",
    )


def test_criterion_05_distribution_estimation_fidelity():
    """Aligned pi_e tracks the true distribution on well-separated data."""
    t0 = time.time()
    counts = make_longtail_counts(10, ImbalanceProfile("exponential", 10, 490))
    assert 1900 <= counts.sum() <= 2100
    hits = 0
    errs = []
    for seed in range(20):
        X, y = gen_synthetic(10, 8, counts, 10.0, 1.0, seed=seed)
        split = split_known_novel(X, y, 6, 0.5, seed=seed)
        _, _, pi_e = estimate_round(
            split.X, 10, np.arange(split.y_lab.size), split.y_lab, 6, seed=seed
        )
        true_pi = split.true_counts / split.true_counts.sum()
        err = float(np.abs(pi_e - true_pi).sum())
        errs.append(err)
        if err < 0.05:
            hits += 1
    elapsed = time.time() - t0
    criterion(
        5, "Distribution estimation: L1(pi_e, pi) < 0.05 on >= 18/20 seeds",
        hits >= 18 and elapsed < 120.0,
        f"{hits}/20 seeds, median L1 {np.median(errs):.3f}, {elapsed:.0f}s",
    )


# Benchmark geometry: high ambient dimension with moderate separation, so
# raw distances are noise-dominated while the class structure stays linearly
# recoverable - the regime where pseudo-label transfer has headroom. Spec'd
# constants: C=10, 6 known classes, rho=20, 100 epochs, 5 shared seeds.
BENCH_RAW = {
    "dataset": {
        "num_classes": 10, "num_known": 6, "rho_l": 20, "rho_u": 20,
        "n_max": 150, "d_in": 64, "class_separation": 5.0,
        "noise_scale": 1.0, "test_per_class": 50,
    },
    "model": {"d_hidden": 32, "d_feat": 16, "d_proj_hidden": 32, "d_proj": 16},
    "train": {
        "total_epochs": 100, "batch_size": 128, "base_lr": 0.1,
        "warmup_epochs": 10, "reestimate_interval": 10,
    },
}


def test_criterion_06_directional_reproduction():
    """Soft loss beats hard beats no-soft baseline on novel classes, and the
    full method improves novel balancedness."""
    t0 = time.time()
    seeds = (0, 1, 2, 3, 4)
    results = {}
    for mode in ("off", "hard", "soft"):
        raw = json.loads(json.dumps(BENCH_RAW))
        raw["train"]["soft_mode"] = mode
        cfg = effective_config(raw)
        news, stds = [], []
        for seed in seeds:
            report, _, _ = run_experiment(cfg, seed)
            news.append(report.acc_new)
            stds.append(report.std_novel)
        results[mode] = (float(np.mean(news)), float(np.mean(stds)))
    elapsed = time.time() - t0
    gap = results["soft"][0] - results["off"][0]
    std_drop = results["soft"][1] < results["off"][1]
    ordering = results["soft"][0] > results["hard"][0]
    criterion(
        6, "Directional reproduction: soft > hard > baseline on novel accuracy",
        gap >= 0.05 and std_drop and ordering and elapsed < 1200.0,
        f"novel soft {results['soft'][0]:.3f} hard {results['hard'][0]:.3f} "
        f"baseline {results['off'][0]:.3f}, std {results['soft'][1]:.3f} vs "
        f"{results['off'][1]:.3f}, {elapsed:.0f}s",
    )


def test_criterion_07_footnote1_invariance():
    """Permuting the novel portion of the alignment cannot change evaluation."""
    counts = make_longtail_counts(8, ImbalanceProfile("exponential", 8, 80))
    split = split_known_novel(*gen_synthetic(8, 6, counts, 8.0, 1.0, seed=77), 5, 0.5, seed=77)
    result, amap, pi_e = estimate_round(
        split.X, 8, np.arange(split.y_lab.size), split.y_lab, 5, seed=0
    )

    from cobranch.data import make_class_means, sample_from_means

    means = make_class_means(8, 6, 8.0, seed=77)
    test_X, test_orig = sample_from_means(means, np.full(8, 25), 1.0, seed=77, stream=7)
    test_y = np.array([split.class_remap[c] for c in test_orig])

    def eval_bytes():
        report = evaluate(test_X, test_y, 5, 8, split.true_counts, seed=0)
        return json.dumps(report.to_dict(), sort_keys=True).encode()

    base = eval_bytes()
    rng = np.random.default_rng(79)
    identical = True
    pi_changed = False
    for _ in range(20):
        c2c = amap.cluster_to_class.copy()
        novel_slots = np.flatnonzero(c2c >= 5)
        perm = rng.permutation(novel_slots.size)
        c2c[novel_slots] = c2c[novel_slots][perm]
        permuted = AlignmentMap(c2c)
        pi_perm = aligned_distribution(result, permuted)
        if not np.array_equal(pi_perm, pi_e):
            pi_changed = True
        if eval_bytes() != base:
            identical = False
    criterion(
        7, "Footnote-1 invariance: novel-portion permutations leave All bit-identical",
        identical and pi_changed,
        "20 permutations, upstream pi_e changed while reports did not",
    )


def _sha(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


DETERMINISM_CONFIGS = [
    [
        "--set", "dataset.num_classes=5", "--set", "dataset.d_in=6",
        "--set", "dataset.n_max=24", "--set", "dataset.rho_l=6",
        "--set", "dataset.rho_u=6", "--set", "dataset.num_known=3",
        "--set", "dataset.test_per_class=8", "--set", "train.total_epochs=4",
        "--set", "train.batch_size=32", "--set", "train.warmup_epochs=1",
        "--set", "train.reestimate_interval=2", "--set", "train.base_lr=0.05",
    ],
    [
        "--set", "dataset.num_classes=6", "--set", "dataset.d_in=8",
        "--set", "dataset.n_max=30", "--set", "dataset.rho_l=5",
        "--set", "dataset.rho_u=5", "--set", "dataset.num_known=4",
        "--set", "dataset.test_per_class=6", "--set", "train.total_epochs=5",
        "--set", "train.batch_size=48", "--set", "train.warmup_epochs=2",
        "--set", "train.reestimate_interval=5", "--set", "train.base_lr=0.1",
        "--set", "train.soft_mode=hard", "--set", "train.metric=cosine",
    ],
    [
        "--set", "dataset.num_classes=4", "--set", "dataset.d_in=5",
        "--set", "dataset.n_max=20", "--set", "dataset.rho_l=4",
        "--set", "dataset.rho_u=4", "--set", "dataset.num_known=2",
        "--set", "dataset.test_per_class=10", "--set", "train.total_epochs=3",
        "--set", "train.batch_size=24", "--set", "train.warmup_epochs=0",
        "--set", "train.reestimate_interval=1", "--set", "train.base_lr=0.05",
        "--set", "train.soft_mode=off", "--set", "dataset.profile=pareto",
    ],
]


def test_criterion_08_determinism(tmp_path):
    """Identical config + seed reproduce byte-identical evaluation reports."""
    all_same = True
    for i, args in enumerate(DETERMINISM_CONFIGS):
        hashes = []
        for rep in ("x", "y"):
            out = tmp_path / f"cfg{i}{rep}"
            rc = main(["train", "--seed", str(20 + i), "--out", str(out / "run"), *args])
            assert rc == 0
            rc = main(["eval", "--checkpoint", str(out / "run" / "checkpoint.json"),
                       "--seeds", "0", "--out", str(out / "eval")])
            assert rc == 0
            hashes.append(_sha(out / "eval" / "report_seed0.json"))
        if hashes[0] != hashes[1]:
            all_same = False
    criterion(
        8, "Determinism: train+eval reruns byte-identical across 3 configs",
        all_same,
    )


def test_criterion_09_sampling_rate_endpoints():
    """alpha = beta = 0 keeps everything; alpha = beta = 1 matches the
    inverse-frequency counting oracle."""
    rng = np.random.default_rng(909)
    ok_all = ok_inverse = True
    for _ in range(100):
        C = int(rng.integers(3, 8))
        m = int(rng.integers(4, 40))
        probs = rng.dirichlet(np.ones(C), size=m)
        batch = PseudoLabelBatch.from_probs(probs)
        pi = rng.dirichlet(np.ones(C)) + 0.01
        pi /= pi.sum()
        batch_labels = rng.integers(0, max(2, C - 1), size=3)

        sr0 = sampling_rates(pi, batch_labels, 0.0, 0.0)
        if not sample_pseudolabels(batch, sr0).mask.all():
            ok_all = False

        sr1 = sampling_rates(pi, batch_labels, 1.0, 1.0)
        out = sample_pseudolabels(batch, sr1)
        for c in range(C):
            members = np.flatnonzero(out.pred_class == c)
            if members.size == 0:
                continue
            expected = math.ceil((pi.min() / pi[c]) * members.size)
            if int(out.mask[members].sum()) != expected:
                ok_inverse = False
    criterion(
        9, "Sampling-rate endpoints: mask-all at 0, inverse-frequency at 1",
        ok_all and ok_inverse,
    )


def _metric_fixture(num_classes, num_known, n_test, k_errors, train_counts, d_scale=100.0):
    """Collapsed-location test set with known per-class accuracy."""
    feats, labels = [], []
    locations = d_scale * np.eye(num_classes)
    for c in range(num_classes):
        wrong = k_errors[c]
        for i in range(n_test):
            target = (c + 1) % num_classes if i < wrong else c
            feats.append(locations[target])
            labels.append(c)
    X = np.array(feats)
    y = np.array(labels)
    report = evaluate(X, y, num_known, num_classes, np.asarray(train_counts), seed=0)
    acc = [(n_test - k_errors[c]) / n_test for c in range(num_classes)]
    return report, acc


def _hand_groups(acc, counts, ids):
    order = sorted(ids, key=lambda c: (-counts[c], c))
    m = len(order)
    g1 = -(-m // 3)
    g2 = -(-(m - g1) // 2)
    chunks = [order[:g1], order[g1 : g1 + g2], order[g1 + g2 :]]
    vals = [float(np.mean([acc[c] for c in chunk])) for chunk in chunks if chunk]
    mean = sum(vals) / len(vals)
    std = math.sqrt(sum((v - mean) ** 2 for v in vals) / len(vals))
    padded = vals + [float("nan")] * (3 - len(vals))
    return padded, std


def test_criterion_10_metric_suite_oracle():
    """Old/New/All and Many/Median/Few + Std match hand computation."""
    fixtures = [
        # (C, known, n_test, per-class errors, training counts)
        (6, 3, 10, [0, 0, 0, 0, 0, 0], [60, 50, 40, 30, 20, 10]),
        (10, 6, 20, [2, 0, 4, 1, 0, 3, 5, 2, 0, 1], [100, 90, 80, 70, 60, 50, 40, 30, 20, 10]),
        (5, 4, 12, [1, 3, 0, 2, 4], [10, 40, 25, 33, 7]),
    ]
    worst = 0.0
    for C, known, n_test, errors, counts in fixtures:
        report, acc = _metric_fixture(C, known, n_test, errors, counts)
        known_ids = list(range(known))
        novel_ids = list(range(known, C))
        exp_old = float(np.mean([acc[c] for c in known_ids]))
        exp_new = float(np.mean([acc[c] for c in novel_ids]))
        exp_all = float(np.mean(acc))
        worst = max(worst, abs(report.acc_old - exp_old), abs(report.acc_new - exp_new),
                    abs(report.acc_all - exp_all))
        kg, kstd = _hand_groups(acc, counts, known_ids)
        worst = max(worst, abs(report.std_known - kstd))
        for name, val in zip(("many", "median", "few"), kg):
            got = report.known_groups[name]
            if math.isnan(val):
                assert math.isnan(got)
            else:
                worst = max(worst, abs(got - val))
        ng, nstd = _hand_groups(acc, counts, novel_ids)
        worst = max(worst, abs(report.std_novel - nstd))
        for name, val in zip(("many", "median", "few"), ng):
            got = report.novel_groups[name]
            if math.isnan(val):
                assert math.isnan(got)
            else:
                worst = max(worst, abs(got - val))
    criterion(
        10, "Metric-suite oracle: three fixtures match hand computation",
        worst < 1e-9,
        f"max abs dev {worst:.1e}",
    )
