import itertools
import json

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import mr2ct.boosting as boosting_module
from mr2ct import (
    BoostedEnsemble,
    BoostingError,
    DataError,
    RunConfig,
    init_mislabel,
    pseudo_loss,
    rus_resample,
    train_rusboost,
    update_mislabel,
)
from mr2ct.boosting import _EPS_MIN, Learner
from mr2ct.tree import DecisionTree


def leaf_tree(confidence, n_features=1):
    """Single-leaf tree with a fixed confidence vector."""
    conf = np.asarray([confidence], dtype=np.float64)
    return DecisionTree(
        feature=np.array([-1], dtype=np.int32),
        threshold=np.array([np.nan]),
        left=np.array([-1], dtype=np.int32),
        confidence=conf,
        n_features=n_features,
        n_labels=conf.shape[1],
    )


def imbalanced_gaussians(n, minority_fraction, seed, separation=2.0):
    rng = np.random.default_rng(seed)
    n_min = int(round(n * minority_fraction))
    n_maj = n - n_min
    x = np.vstack([
        rng.normal(0.0, 1.0, size=(n_maj, 2)),
        rng.normal(separation, 1.0, size=(n_min, 2)),
    ])
    labels = np.concatenate([np.zeros(n_maj, dtype=int), np.ones(n_min, dtype=int)])
    perm = rng.permutation(n)
    return x[perm], labels[perm]


class TestInitMislabel:
    def test_binary_uniform(self):
        w = init_mislabel(np.array([0, 1, 0, 1]), 2)
        assert w.shape == (4, 2)
        np.testing.assert_allclose(w[np.arange(4), [0, 1, 0, 1]], 0.0)
        np.testing.assert_allclose(w[np.arange(4), [1, 0, 1, 0]], 0.25)

    def test_three_class_uniform(self):
        w = init_mislabel(np.array([0, 1, 2]), 3)
        assert w.sum() == pytest.approx(1.0, abs=1e-15)
        off = w[w > 0]
        assert off.size == 6
        np.testing.assert_allclose(off, 1 / 6)

    def test_normalized_for_random_shapes(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            n = int(rng.integers(2, 50))
            k = int(rng.integers(2, 5))
            labels = rng.integers(0, k, size=n)
            assert init_mislabel(labels, k).sum() == pytest.approx(1.0, abs=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(BoostingError):
            init_mislabel(np.array([], dtype=int), 2)


class TestPseudoLoss:
    def setup_method(self):
        self.labels = np.array([0, 1, 0, 1])
        self.w = init_mislabel(self.labels, 2)

    def test_perfect_scores_zero(self):
        conf = np.eye(2)[self.labels]
        eps, raw = pseudo_loss(conf, self.labels, self.w)
        assert eps == 0.0
        assert raw == 0.0

    def test_random_guess_scores_half(self):
        conf = np.full((4, 2), 0.5)
        eps, raw = pseudo_loss(conf, self.labels, self.w)
        assert eps == pytest.approx(0.5, abs=1e-15)
        assert raw == pytest.approx(1.0, abs=1e-15)

    def test_inverted_scores_one(self):
        conf = np.eye(2)[1 - self.labels]
        eps, _ = pseudo_loss(conf, self.labels, self.w)
        assert eps == pytest.approx(1.0, abs=1e-15)

    def test_out_of_range_confidence_rejected(self):
        conf = np.full((4, 2), 1.5)
        with pytest.raises(BoostingError):
            pseudo_loss(conf, self.labels, self.w)


class TestUpdateMislabel:
    def test_correct_pair_gets_alpha_factor(self):
        labels = np.array([0, 1])
        w = init_mislabel(labels, 2)
        conf = np.array([[1.0, 0.0], [0.5, 0.5]])
        alpha = 0.25
        # sample 0 fully correct: exponent 1, raw factor alpha
        # sample 1 random: exponent 1/2, raw factor alpha^0.5
        raw0 = w[0, 1] * alpha
        raw1 = w[1, 0] * alpha**0.5
        updated = update_mislabel(w, conf, labels, alpha)
        total = raw0 + raw1
        assert updated[0, 1] == pytest.approx(raw0 / total, abs=1e-15)
        assert updated[1, 0] == pytest.approx(raw1 / total, abs=1e-15)

    def test_wrong_pair_keeps_weight(self):
        labels = np.array([0, 1])
        w = init_mislabel(labels, 2)
        conf = np.array([[0.0, 1.0], [1.0, 1.0]])
        # sample 0 fully wrong: exponent 0, factor 1; sample 1 exponent 1/2
        updated = update_mislabel(w, conf, labels, 0.1)
        assert updated[0, 1] > w[0, 1]  # relative weight grew after normalization

    def test_sums_to_one(self):
        rng = np.random.default_rng(1)
        labels = rng.integers(0, 2, size=30)
        w = init_mislabel(labels, 2)
        for _ in range(5):
            conf = rng.random((30, 2))
            w = update_mislabel(w, conf, labels, float(rng.uniform(0.05, 0.9)))
            assert w.sum() == pytest.approx(1.0, abs=1e-12)
            assert np.all(w >= 0)

    def test_alpha_range_enforced(self):
        labels = np.array([0, 1])
        w = init_mislabel(labels, 2)
        with pytest.raises(BoostingError):
            update_mislabel(w, np.full((2, 2), 0.5), labels, 1.0)

    def test_underflowing_alpha_rejected(self):
        labels = np.arange(10_000) % 2
        w = init_mislabel(labels, 2)  # every weight 1e-4
        conf = np.eye(2)[labels]  # right everywhere: every factor is alpha itself
        # 1e-4 * 1e-320 rounds to zero, below the smallest subnormal.
        with pytest.raises(BoostingError, match="underflows every mislabel weight"):
            update_mislabel(w, conf, labels, 1e-320)


@st.composite
def mislabel_steps(draw):
    """(labels, normalized mislabel W, confidences in [0, 1]) of any shape."""
    n, k = draw(st.integers(1, 30)), draw(st.integers(2, 4))
    labels = draw(hnp.arrays(np.int64, n, elements=st.integers(0, k - 1)))
    unit = st.floats(0.0, 1.0)
    w = draw(hnp.arrays(np.float64, (n, k), elements=unit))
    w[np.arange(n), labels] = 0.0
    assume(w.sum() > 0)
    return labels, w / w.sum(), draw(hnp.arrays(np.float64, (n, k), elements=unit))


@settings(max_examples=200, deadline=None)
@given(
    step=mislabel_steps(),
    alpha=st.floats(_EPS_MIN / (1 - _EPS_MIN), 1.0, exclude_max=True),
)
def test_update_mislabel_total_cannot_underflow(step, alpha):
    """Every alpha that training can reach leaves finite weights summing to 1:
    each factor alpha^e with e in [0, 1] is at least alpha, and so is the total."""
    labels, w, conf = step
    updated = update_mislabel(w, conf, labels, alpha)
    assert np.all(np.isfinite(updated)) and np.all(updated >= 0)
    assert updated.sum() == pytest.approx(1.0, abs=1e-12)


class TestRusResample:
    def test_ratio_reached(self):
        labels = np.concatenate([np.ones(10, dtype=int), np.zeros(90, dtype=int)])
        weights = np.full(100, 0.01)
        idx = rus_resample(labels, weights, target_ratio=1.0, seed=0)
        drawn = labels[idx]
        n_min = int((drawn == 1).sum())
        n_maj = int((drawn == 0).sum())
        assert n_maj == n_min

    def test_balanced_input_stays_balanced_in_expectation(self):
        labels = np.concatenate([np.ones(50, dtype=int), np.zeros(50, dtype=int)])
        weights = np.full(100, 1.0)
        draws = []
        for seed in range(200):
            idx = rus_resample(labels, weights, target_ratio=1.0, seed=seed)
            draws.append((labels[idx] == 1).mean())
        mean_fraction = float(np.mean(draws))
        # minority fraction of the output; 99% bound for 200 averaged draws
        assert abs(mean_fraction - 0.5) < 0.02

    def test_heavy_sample_drawn_more_often(self):
        labels = np.array([0] * 10 + [1] * 10)
        weights = np.ones(20)
        weights[0] = 10.0
        heavy = 0
        baseline = 0
        for seed in range(1000):
            idx = rus_resample(labels, weights, target_ratio=1.0, seed=seed)
            heavy += int(np.sum(idx == 0))
            baseline += int(np.sum(idx == 1))
        assert heavy > 3 * baseline

    def test_single_class_rejected(self):
        with pytest.raises(BoostingError):
            rus_resample(np.zeros(10, dtype=int), np.ones(10), 1.0, seed=0)


class TestTrainRusboost:
    def test_separable_reaches_zero_error(self):
        rng = np.random.default_rng(2)
        x = np.vstack([rng.normal(0, 0.3, (80, 2)), rng.normal(4, 0.3, (20, 2))])
        labels = np.concatenate([np.zeros(80, dtype=int), np.ones(20, dtype=int)])
        ens = train_rusboost(x, labels, RunConfig(max_splits=8, min_leaf=1, trees=10), seed=0)
        assert np.mean(ens.predict(x) != labels) == 0.0

    def test_single_learner_matches_its_tree(self):
        x, labels = imbalanced_gaussians(300, 0.2, seed=3)
        ens = train_rusboost(x, labels, RunConfig(max_splits=10, min_leaf=2, trees=1), seed=1)
        assert ens.n_learners == 1
        tree_pred = np.argmax(ens.learners[0].tree.confidence_matrix(x), axis=1)
        np.testing.assert_array_equal(ens.predict(x), tree_pred)

    def test_more_learners_do_not_hurt_training_error(self):
        x, labels = imbalanced_gaussians(600, 0.1849, seed=4)
        ens = train_rusboost(x, labels, RunConfig(max_splits=6, min_leaf=2, trees=30), seed=2)
        err_1 = np.mean(ens.predict(x, n_learners=1) != labels)
        err_30 = np.mean(ens.predict(x) != labels)
        assert err_30 <= err_1

    def test_round_train_error_is_the_vote_so_far(self, monkeypatch):
        """Each round's training error is that of the learners retained so
        far, bit for bit; a skipped round repeats the previous value."""
        calls = itertools.count()
        real = boosting_module.train_tree

        def flaky(*args, **kwargs):
            tree = real(*args, **kwargs)
            # Round 1's tries all vote 50:50, a pseudo-loss of exactly 0.5.
            if 1 <= next(calls) <= 4:
                return leaf_tree([0.5, 0.5], n_features=tree.n_features)
            return tree

        monkeypatch.setattr(boosting_module, "train_tree", flaky)
        x, labels = imbalanced_gaussians(300, 0.2, seed=12)
        ens = train_rusboost(x, labels, RunConfig(max_splits=4, min_leaf=2, trees=8), seed=6)
        assert [r.skipped for r in ens.rounds] == [False, True] + [False] * 6
        assert ens.rounds[1].train_error == ens.rounds[0].train_error
        skipped = ens.rounds[1]
        assert (skipped.eps, skipped.eps_raw, skipped.alpha) == (None, None, None)
        kept = [r for r in ens.rounds if not r.skipped]
        for k, r in enumerate(kept, start=1):
            assert r.train_error == np.mean(ens.predict(x, n_learners=k) != labels)

    def test_retained_eps_in_open_interval(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(200, 2))
        labels = rng.integers(0, 2, size=200)  # pure noise
        ens = train_rusboost(x, labels, RunConfig(max_splits=3, min_leaf=5, trees=15), seed=3)
        kept = [r for r in ens.rounds if not r.skipped]
        assert len(kept) == ens.n_learners
        for r, lr in zip(kept, ens.learners):
            assert 0.0 < r.eps < 0.5
            assert 0.0 < lr.alpha < 1.0
            assert r.alpha == lr.alpha
        assert len(ens.rounds) == 15

    def test_non_finite_feature_rejected(self):
        """One NaN in a majority row raises, whether or not a round draws it."""
        for seed in range(20):
            rng = np.random.default_rng(seed)
            labels = (rng.random(2000) < 0.2).astype(int)
            x = rng.normal(size=(2000, 3)) + labels[:, None]
            x[np.flatnonzero(labels == 0)[seed], 1] = np.nan
            with pytest.raises(DataError, match="finite"):
                train_rusboost(x, labels, RunConfig(max_splits=8, trees=1), seed=seed)

    def test_both_classes_required(self):
        with pytest.raises(BoostingError):
            train_rusboost(np.zeros((10, 1)), np.zeros(10, dtype=int))

    def test_fixed_seed_reproducible(self):
        x, labels = imbalanced_gaussians(250, 0.2, seed=6)
        cfg = RunConfig(max_splits=5, min_leaf=2, trees=5)
        a = train_rusboost(x, labels, cfg, seed=7)
        b = train_rusboost(x, labels, cfg, seed=7)
        assert json.dumps(a.to_dict(), sort_keys=True) == json.dumps(b.to_dict(), sort_keys=True)

    def test_different_seed_differs(self):
        x, labels = imbalanced_gaussians(250, 0.2, seed=6)
        cfg = RunConfig(max_splits=5, min_leaf=2, trees=5)
        a = train_rusboost(x, labels, cfg, seed=7)
        b = train_rusboost(x, labels, cfg, seed=8)
        assert json.dumps(a.to_dict(), sort_keys=True) != json.dumps(b.to_dict(), sort_keys=True)


class TestPrediction:
    def build(self, confidences, alphas):
        learners = tuple(
            Learner(tree=leaf_tree(c), alpha=a) for c, a in zip(confidences, alphas)
        )
        return BoostedEnsemble(learners=learners, n_labels=2, n_features=1)

    def test_unanimous_vote(self):
        ens = self.build([[0.0, 1.0], [0.0, 1.0]], [0.2, 0.3])
        assert ens.predict(np.array([[0.0]]))[0] == 1

    def test_exact_tie_goes_to_label_zero(self):
        ens = self.build([[1.0, 0.0], [0.0, 1.0]], [0.25, 0.25])
        assert ens.predict(np.array([[0.0]]))[0] == 0

    def test_vote_weight_rescaling_invariance(self):
        rng = np.random.default_rng(8)
        x, labels = imbalanced_gaussians(200, 0.25, seed=9)
        ens = train_rusboost(x, labels, RunConfig(max_splits=6, min_leaf=2, trees=8), seed=4)
        scale = 3.7  # alpha -> alpha**scale multiplies every vote weight by scale
        scaled = BoostedEnsemble(
            learners=tuple(Learner(tree=lr.tree, alpha=lr.alpha**scale) for lr in ens.learners),
            n_labels=2, n_features=2,
        )
        probes = rng.normal(size=(100, 2), scale=2.0)
        np.testing.assert_array_equal(ens.predict(probes), scaled.predict(probes))

    def test_zero_vote_weight_learner_is_inert(self):
        ens = self.build([[0.0, 1.0], [1.0, 0.0]], [0.2, 0.5])
        padded = self.build([[0.0, 1.0], [1.0, 0.0], [1.0, 0.0]], [0.2, 0.5, 1.0])
        probes = np.zeros((5, 1))
        np.testing.assert_array_equal(ens.predict(probes), padded.predict(probes))


class TestSerialization:
    def test_roundtrip(self):
        x, labels = imbalanced_gaussians(220, 0.2, seed=10)
        ens = train_rusboost(x, labels, RunConfig(max_splits=6, min_leaf=2, trees=6), seed=5)
        back = BoostedEnsemble.from_dict(json.loads(json.dumps(ens.to_dict(), sort_keys=True)))
        assert back.n_learners == ens.n_learners
        assert back.rounds == ()  # training diagnostics are not serialized
        for a, b in zip(ens.learners, back.learners):
            assert a.alpha == b.alpha
        probes = np.random.default_rng(11).normal(size=(60, 2))
        np.testing.assert_array_equal(ens.predict(probes), back.predict(probes))
