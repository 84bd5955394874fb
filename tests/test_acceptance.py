"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Statistical criteria run against frozen seeds chosen once; every expected
value or bound below was computed from the stated independent oracle
(Monte-Carlo conditional means, known phantom generators, hand-computed
window means) rather than from the code under test.
"""

import time

import numpy as np

from mr2ct import (
    RunConfig,
    conditional_expectation,
    default_phantom_spec,
    em_fit,
    generate_phantom,
    init_mislabel,
    loo_patient_eval,
    oracle_predict_ct,
    prf,
    pseudo_loss,
    select_model,
    smoothed_residuals,
    train_rusboost,
    train_tree,
)
from mr2ct.cli import EXIT_OK, main
from mr2ct.evaluation import ClassificationMetrics, confusion_counts

from util import random_mixture, sample_joint, match_components, two_component_truth


def check(criterion: int, description: str, passed: bool, elapsed: float, limit: float):
    status = "PASS" if (passed and elapsed < limit) else "FAIL"
    print(
        f"[acceptance {criterion}] {status}: {description} "
        f"({elapsed:.1f}s, limit {limit:.0f}s)"
    )
    assert passed, f"criterion {criterion} failed: {description}"
    assert elapsed < limit, f"criterion {criterion} exceeded {limit}s ({elapsed:.1f}s)"


def test_criterion_1_em_monotonicity():
    """50 seeded fits with random component count and dimension: every
    log-likelihood sequence is non-decreasing within 1e-9 per step."""
    start = time.time()
    worst = 0.0
    for i in range(50):
        rng = np.random.default_rng([1001, i])
        n_components = int(rng.integers(1, 5))
        dim = int(rng.integers(2, 6))
        truth = random_mixture(n_components, dim, rng, mean_spread=3.0)
        data = sample_joint(truth.weights, truth.means, truth.covariances, 2000, rng)
        _, report = em_fit(data, n_components, RunConfig(em_restarts=1), seed=i)
        diffs = np.diff(report.log_likelihood)
        if diffs.size:
            worst = max(worst, float(-diffs.min()))
    check(1, f"EM log-likelihood non-decreasing (worst backstep {worst:.2e})",
          worst <= 1e-9, time.time() - start, 60.0)


def test_criterion_2_conditional_expectation_oracle():
    """Conditional means match a 1e6-draw rejection Monte-Carlo estimate
    within 3 standard errors at 10 probe points on 20 random mixtures."""
    start = time.time()
    worst_z = 0.0
    n_checked = 0
    for m in range(20):
        rng = np.random.default_rng([424242, m])
        n_components = int(rng.integers(1, 4))
        model = random_mixture(n_components, 2, rng, mean_spread=3.0)
        draws = sample_joint(model.weights, model.means, model.covariances,
                             1_000_000, rng)
        half_width = 0.03 * draws[:, 1].std()
        probes = draws[rng.integers(0, draws.shape[0], size=10), 1]
        for x in probes:
            accepted = draws[np.abs(draws[:, 1] - x) <= half_width, 0]
            assert accepted.size > 100
            mc = accepted.mean()
            se = accepted.std(ddof=1) / np.sqrt(accepted.size)
            y_hat, _ = conditional_expectation(model, np.array([x]))
            worst_z = max(worst_z, abs(y_hat - mc) / se)
            n_checked += 1
    check(2, f"{n_checked} probes within 3 SE of Monte-Carlo (worst {worst_z:.2f} SE)",
          worst_z <= 3.0, time.time() - start, 120.0)


def test_criterion_3_parameter_recovery():
    """em_fit on 5000 draws from a well-separated two-component truth
    recovers weights and means within 10% relative error on >= 4/5 seeds."""
    start = time.time()
    weights, means, covs = two_component_truth()
    hits = 0
    for s in range(5):
        rng = np.random.default_rng([1003, s])
        data = sample_joint(weights, means, covs, 5000, rng)
        model, _ = em_fit(data, 2, seed=s)
        if model.n_components != 2:
            continue
        order = match_components(model.means, means)
        ok = all(
            np.linalg.norm(model.means[e] - means[t]) <= 0.1 * np.linalg.norm(means[t])
            and abs(model.weights[e] - weights[t]) <= 0.1 * weights[t]
            for t, e in enumerate(order)
        )
        hits += ok
    check(3, f"weights/means recovered within 10% on {hits}/5 seeds",
          hits >= 4, time.time() - start, 60.0)


def test_criterion_4_model_order_selection():
    """select_model over {1,2,3} picks the generating order 2 on >= 4/5 seeds."""
    start = time.time()
    weights, means, covs = two_component_truth()
    hits = 0
    for s in range(5):
        rng = np.random.default_rng([2, s])
        train = sample_joint(weights, means, covs, 400, rng)
        val = sample_joint(weights, means, covs, 10_000, rng)
        _, j_star, _ = select_model(train, val,
                                    RunConfig(j_candidates=(1, 2, 3), em_restarts=4), seed=s)
        hits += j_star == 2
    check(4, f"validation selection picked the generating order on {hits}/5 seeds",
          hits >= 4, time.time() - start, 120.0)


def _imbalanced_gaussians(n, fraction, seed, separation=2.2, dim=6):
    rng = np.random.default_rng(seed)
    n_min = int(round(n * fraction))
    n_maj = n - n_min
    shift = separation / np.sqrt(dim) * np.ones(dim)
    x = np.vstack([
        rng.normal(0.0, 1.0, size=(n_maj, dim)),
        rng.normal(shift, 1.0, size=(n_min, dim)),
    ])
    labels = np.concatenate([np.zeros(n_maj, dtype=int), np.ones(n_min, dtype=int)])
    perm = rng.permutation(n)
    return x[perm], labels[perm]


def test_criterion_5_boosting_behavior():
    """On an 18.49%-minority synthetic set, the ensemble's training error at
    M=30 does not exceed its error at M=1, and the ensemble's held-out
    minority F-score is at least that of one unweighted tree trained
    directly on the imbalanced data."""
    start = time.time()
    x_train, t_train = _imbalanced_gaussians(3000, 0.1849, [1005, 1])
    x_test, t_test = _imbalanced_gaussians(6000, 0.1849, [1005, 2])
    tree_cfg = RunConfig(max_splits=8, min_leaf=5, trees=30)
    ensemble = train_rusboost(x_train, t_train, tree_cfg, seed=0)
    err_1 = float(np.mean(ensemble.predict(x_train, n_learners=1) != t_train))
    err_30 = float(np.mean(ensemble.predict(x_train) != t_train))
    single = train_tree(x_train, t_train, config=tree_cfg)
    pred_single = np.argmax(single.confidence_matrix(x_test), axis=1)
    f_single = prf(*confusion_counts(t_test, pred_single, 1)[:3])[2]
    f_ens = prf(*confusion_counts(t_test, ensemble.predict(x_test), 1)[:3])[2]
    check(
        5,
        f"training error M=30 {err_30:.4f} <= M=1 {err_1:.4f}; minority "
        f"F-score ensemble {f_ens:.4f} >= single tree {f_single:.4f}",
        err_30 <= err_1 and f_ens >= f_single,
        time.time() - start,
        180.0,
    )


def test_criterion_6_pseudo_loss_calibration():
    """Perfect, random, and inverted classifiers score exactly 0, 0.5, 1."""
    start = time.time()
    labels = np.array([0, 1, 0, 1, 1, 0])
    w = init_mislabel(labels, 2)
    perfect = np.eye(2)[labels]
    random_guess = np.full((6, 2), 0.5)
    inverted = np.eye(2)[1 - labels]
    eps_perfect = pseudo_loss(perfect, labels, w)[0]
    eps_random = pseudo_loss(random_guess, labels, w)[0]
    eps_inverted = pseudo_loss(inverted, labels, w)[0]
    check(
        6,
        f"pseudo-loss perfect={eps_perfect} random={eps_random} inverted={eps_inverted}",
        eps_perfect == 0.0 and eps_random == 0.5 and eps_inverted == 1.0,
        time.time() - start,
        1.0,
    )


def test_criterion_7_end_to_end_oracle_gap():
    """Leave-one-out mean MAE of the trained pipeline on a 4-patient 32^3
    phantom cohort stays within 15% of the true-parameter oracle's MAE."""
    start = time.time()
    spec = default_phantom_spec(dims=(32, 32, 32))
    cohort = generate_phantom(spec, n_patients=4, seed=2026)
    datasets = [item.dataset for item in cohort]
    config = RunConfig(
        order="first",
        j_candidates=(1, 2, 3),
        em_restarts=2,
        em_max_iter=200,
        max_splits=48,
        min_leaf=20,
        trees=12,
        gmm_max_rows=30_000,
    )
    report = loo_patient_eval(datasets, config)
    assert not any(r.failed for r in report.rows)
    oracle_maes = []
    for item in cohort:
        estimate = oracle_predict_ct(
            spec.class_models, item.true_labels,
            item.dataset.mr_channels, item.dataset.mask,
        )
        idx = item.dataset.masked_indices()
        oracle_maes.append(
            float(np.abs(estimate.data[idx] - item.dataset.ct.data[idx]).mean())
        )
    oracle_mae = float(np.mean(oracle_maes))
    gap = abs(report.mean_mae - oracle_mae)
    check(
        7,
        f"LOO mean MAE {report.mean_mae:.2f} HU vs oracle {oracle_mae:.2f} HU "
        f"(gap {100 * gap / oracle_mae:.2f}%, bound 15%)",
        gap <= 0.15 * oracle_mae,
        time.time() - start,
        600.0,
    )


def test_criterion_8_metrics_identities():
    """Unit confusion example, error/accuracy complement, and the
    hand-computed three-window residual example hold exactly."""
    start = time.time()
    precision, recall, f1 = prf(tp=3, fp=1, fn=2)
    metrics = ClassificationMetrics.from_counts(tp=3, fp=1, fn=2, tn=14)
    mct = np.array([0.0, 5.0, 19.0, 21.0, 30.0, 39.0, 45.0, 50.0, 55.0, 59.0])
    resid = np.array([1.0, 2.0, 3.0, -4.0, 5.0, -6.0, 7.0, 8.0, -9.0, 10.0])
    signed = smoothed_residuals(mct, mct + resid, window=20.0, mode="signed")
    absolute = smoothed_residuals(mct, mct + resid, window=20.0, mode="absolute")
    ok = (
        precision == 0.75
        and recall == 0.6
        and abs(f1 - 2.0 / 3.0) < 1e-15
        and metrics.err + metrics.accuracy == 1.0
        and np.allclose(signed.values, [2.0, -5.0 / 3.0, 4.0], rtol=0, atol=1e-12)
        and np.allclose(absolute.values, [2.0, 5.0, 8.5], rtol=0, atol=1e-12)
        and np.array_equal(signed.counts, [3, 3, 4])
    )
    check(8, "F1 = 2/3 on (3,1,2), err + accuracy = 1, hand residual windows match",
          ok, time.time() - start, 1.0)


def test_criterion_9_training_determinism(tmp_path):
    """CLI train twice with one seed gives byte-identical bundles; a
    different seed gives a different bundle."""
    start = time.time()
    cohort = tmp_path / "cohort"
    fast = [
        "--order", "first", "--trees", "4", "--max-splits", "12",
        "--em-restarts", "2", "--em-max-iter", "100", "--j-candidates", "1,2",
    ]
    assert main(["phantom", "--out", str(cohort), "--patients", "3",
                 "--dims", "12,12,12", "--seed", "5"]) == EXIT_OK
    bundles = []
    for name, seed in (("a", "11"), ("b", "11"), ("c", "12")):
        out = tmp_path / name
        assert main(["train", "--cohort", str(cohort), "--out", str(out),
                     "--seed", seed, *fast]) == EXIT_OK
        bundles.append((out / "model.json").read_bytes())
    check(
        9,
        "same seed reproduces the bundle byte for byte; a new seed changes it",
        bundles[0] == bundles[1] and bundles[0] != bundles[2],
        time.time() - start,
        300.0,
    )
