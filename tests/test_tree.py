import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mr2ct import DataError, TreeConfig, gini, train_tree
from mr2ct.errors import ModelError
from mr2ct.tree import LEAF, DecisionTree

from util import naive_leaf_index, naive_train_tree


class TestGini:
    def test_pure_node(self):
        assert gini([1.0, 0.0]) == 0.0

    def test_maximal_binary_impurity(self):
        assert gini([0.5, 0.5]) == 0.5

    def test_direct_arithmetic(self):
        assert gini([0.25, 0.75]) == pytest.approx(0.375, abs=1e-15)

    def test_unnormalized_rejected(self):
        with pytest.raises(ValueError, match="sum to 1"):
            gini([0.5, 0.6])

    def test_uniform_maximizes(self):
        for k in (2, 3, 5):
            assert gini(np.full(k, 1 / k)) == pytest.approx(1 - 1 / k, abs=1e-12)
            one_hot = np.zeros(k)
            one_hot[0] = 1.0
            assert gini(one_hot) == 0.0


def weighted_error(tree, x, labels, weights):
    pred = np.argmax(tree.confidence_matrix(x), axis=1)
    return float(np.sum(weights[pred != labels]) / weights.sum())


class TestTrainTree:
    def test_separable_pair(self):
        tree = train_tree(np.array([[0.0], [1.0]]), np.array([0, 1]),
                          config=TreeConfig(min_leaf=1))
        assert tree.n_splits == 1
        assert tree.threshold[0] == 0.5
        np.testing.assert_array_equal(tree.confidence_matrix(np.atleast_2d([0.9]))[0], [0.0, 1.0])
        np.testing.assert_array_equal(tree.confidence_matrix(np.atleast_2d([0.1]))[0], [1.0, 0.0])

    def test_pure_input_single_leaf(self):
        tree = train_tree(np.random.default_rng(0).normal(size=(30, 3)),
                          np.ones(30, dtype=int), n_labels=2)
        assert tree.n_splits == 0
        np.testing.assert_array_equal(tree.confidence[0], [0.0, 1.0])

    def test_constant_features_mixed_labels_single_leaf(self):
        x = np.ones((10, 2))
        labels = np.array([0, 1] * 5)
        tree = train_tree(x, labels)
        assert tree.n_splits == 0
        np.testing.assert_allclose(tree.confidence[0], [0.5, 0.5])

    def test_single_leaf_proportions(self):
        x = np.zeros((4, 1))
        labels = np.array([0, 0, 0, 1])
        tree = train_tree(x, labels)
        np.testing.assert_allclose(tree.confidence_matrix(np.atleast_2d([123.0]))[0], [0.75, 0.25])

    def test_min_leaf_respected(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(200, 2))
        labels = (x[:, 0] + 0.3 * rng.normal(size=200) > 0).astype(int)
        tree = train_tree(x, labels, config=TreeConfig(max_splits=100, min_leaf=5))
        leaf_of = tree.leaf_index(x)
        for leaf in np.flatnonzero(tree.feature == LEAF):
            assert np.sum(leaf_of == leaf) >= 5

    def test_max_splits_budget(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(300, 3))
        labels = rng.integers(0, 2, size=300)
        tree = train_tree(x, labels, config=TreeConfig(max_splits=7, min_leaf=1))
        assert tree.n_splits <= 7

    def test_empty_input_rejected(self):
        with pytest.raises(DataError):
            train_tree(np.zeros((0, 2)), np.zeros(0, dtype=int))

    def test_negative_weights_rejected(self):
        with pytest.raises(DataError):
            train_tree(np.zeros((2, 1)), np.array([0, 1]), weights=np.array([1.0, -1.0]))

    def test_feature_tiebreak_lowest_index(self):
        x = np.array([[0.0, 0.0], [1.0, 1.0]])
        tree = train_tree(x, np.array([0, 1]), config=TreeConfig(min_leaf=1))
        assert tree.feature[0] == 0

    def test_threshold_tiebreak_lowest(self):
        # splits at 0.5 and 2.5 give equal impurity decrease
        x = np.array([[0.0], [1.0], [2.0], [3.0]])
        labels = np.array([0, 1, 1, 0])
        tree = train_tree(x, labels, config=TreeConfig(max_splits=1, min_leaf=1))
        assert tree.threshold[0] == 0.5

    def test_doubling_weights_keeps_structure(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(120, 2))
        labels = (x[:, 0] * x[:, 1] > 0).astype(int)
        w = rng.uniform(0.5, 2.0, size=120)
        a = train_tree(x, labels, weights=w, config=TreeConfig(max_splits=20, min_leaf=1))
        b = train_tree(x, labels, weights=2 * w, config=TreeConfig(max_splits=20, min_leaf=1))
        np.testing.assert_array_equal(a.feature, b.feature)
        np.testing.assert_array_equal(a.threshold, b.threshold)
        np.testing.assert_allclose(a.confidence, b.confidence, atol=1e-12)

    def test_duplicating_samples_keeps_structure(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(80, 2))
        labels = (x.sum(axis=1) > 0).astype(int)
        a = train_tree(x, labels, config=TreeConfig(max_splits=15, min_leaf=1))
        b = train_tree(np.vstack([x, x]), np.concatenate([labels, labels]),
                       config=TreeConfig(max_splits=15, min_leaf=1))
        np.testing.assert_array_equal(a.feature, b.feature)
        np.testing.assert_array_equal(a.threshold, b.threshold)
        np.testing.assert_allclose(a.confidence, b.confidence, atol=1e-12)

    def test_confidences_sum_to_one(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(150, 3))
        labels = rng.integers(0, 3, size=150)
        w = rng.uniform(0.1, 3.0, size=150)
        tree = train_tree(x, labels, weights=w, config=TreeConfig(max_splits=30, min_leaf=2))
        np.testing.assert_allclose(tree.confidence.sum(axis=1), 1.0, rtol=0, atol=1e-12)

    def test_error_chain_leaf_stump_tree(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=(250, 2))
        labels = ((x[:, 0] > 0.2) ^ (x[:, 1] < -0.1)).astype(int)
        w = rng.uniform(0.5, 1.5, size=250)
        leaf = train_tree(x, labels, weights=w,
                          config=TreeConfig(max_splits=1, min_leaf=250))
        stump = train_tree(x, labels, weights=w,
                           config=TreeConfig(max_splits=1, min_leaf=1))
        tree = train_tree(x, labels, weights=w,
                          config=TreeConfig(max_splits=60, min_leaf=1))
        e_leaf = weighted_error(leaf, x, labels, w)
        e_stump = weighted_error(stump, x, labels, w)
        e_tree = weighted_error(tree, x, labels, w)
        assert e_tree <= e_stump + 1e-12 <= e_leaf + 1e-12

    def test_non_finite_input_rejected(self):
        x = np.array([[0.0], [1.0], [np.nan], [3.0]])
        labels = np.array([0, 0, 1, 1])
        with pytest.raises(DataError, match="finite"):
            train_tree(x, labels, config=TreeConfig(min_leaf=1))
        with pytest.raises(DataError, match="finite"):
            train_tree(np.arange(4.0)[:, None], labels, weights=np.array([1, np.nan, 1, 1]))


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 60),
    n_features=st.integers(1, 5),
    copies=st.integers(1, 3),
    n_labels=st.sampled_from([2, 3]),
    tied=st.booleans(),
    duplicated=st.booleans(),
    weighted=st.booleans(),
    min_leaf=st.integers(1, 8),
    max_splits=st.integers(1, 40),
)
def test_matches_per_node_sort_oracle(seed, n, n_features, copies, n_labels, tied, duplicated,
                                      weighted, min_leaf, max_splits):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, n_features))
    if tied:
        x = np.round(2 * x) / 2  # many equal values per column
    x[:, 0] = 1.5  # one constant column
    x = np.tile(x, copies)  # equal columns tie, also across feature blocks
    labels = rng.integers(0, n_labels, size=n)
    if duplicated:
        x, labels = np.vstack([x, x[::2]]), np.concatenate([labels, labels[::2]])
    weights = rng.uniform(0.1, 3.0, size=labels.size) if weighted else None
    config = TreeConfig(max_splits=max_splits, min_leaf=min_leaf)
    expected = naive_train_tree(x, labels, weights, config, n_labels=n_labels)
    assert train_tree(x, labels, weights, config, n_labels=n_labels).to_dict() == expected.to_dict()


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 40),
    n_features=st.integers(1, 4),
    duplicated=st.booleans(),
    min_leaf=st.integers(1, 4),
    max_splits=st.integers(1, 20),
)
def test_routing_matches_level_synchronous_oracle(seed, n, n_features, duplicated, min_leaf,
                                                  max_splits):
    rng = np.random.default_rng(seed)
    x = np.round(2 * rng.normal(size=(n, n_features))) / 2  # many tied values
    labels = rng.integers(0, 2, size=n)
    if duplicated:
        x, labels = np.vstack([x, x[::2]]), np.concatenate([labels, labels[::2]])
    tree = train_tree(x, labels, config=TreeConfig(max_splits=max_splits, min_leaf=min_leaf),
                      n_labels=2)
    # Every training row with each split feature set exactly to the split's
    # threshold, to its float neighbors and to NaN, plus scattered NaNs.
    probes = [x, np.where(rng.random(x.shape) < 0.3, np.nan, x)]
    for f, thr in zip(tree.feature, tree.threshold):
        if f != LEAF:
            for value in (np.nextafter(thr, -np.inf), thr, np.nextafter(thr, np.inf), np.nan):
                probe = x.copy()
                probe[:, f] = value
                probes.append(probe)
    probes = np.vstack(probes)
    expected = naive_leaf_index(tree, probes)
    views = [
        probes,
        np.asfortranarray(probes),
        np.repeat(probes, 2, axis=0)[::2],                     # strided rows
        np.repeat(probes, 2, axis=1)[:, 1::2],                 # strided columns
        np.asfortranarray(np.repeat(probes, 2, axis=0))[::2],  # strided column-major
    ]
    for view in views:
        for rows in (view, view[:0], view[:1]):
            got = tree.leaf_index(rows)
            assert got.dtype == np.int64
            np.testing.assert_array_equal(got, expected[:rows.shape[0]])


class TestRouting:
    def test_dimension_mismatch(self):
        tree = train_tree(np.array([[0.0], [1.0]]), np.array([0, 1]),
                          config=TreeConfig(min_leaf=1))
        with pytest.raises(ModelError):
            tree.confidence_matrix(np.atleast_2d([0.0, 1.0]))

    def test_matches_predicate_replay(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=(400, 3))
        labels = ((x[:, 0] + x[:, 1] ** 2 - x[:, 2]) > 0).astype(int)
        tree = train_tree(x, labels, config=TreeConfig(max_splits=50, min_leaf=3))
        probes = rng.normal(size=(1000, 3))

        def walk(row):
            node = 0
            while tree.feature[node] >= 0:
                if row[tree.feature[node]] <= tree.threshold[node]:
                    node = tree.left[node]
                else:
                    node = tree.right[node]
            return node

        expected = np.array([walk(row) for row in probes])
        np.testing.assert_array_equal(tree.leaf_index(probes), expected)


class TestSerialization:
    def test_roundtrip(self):
        rng = np.random.default_rng(9)
        x = rng.normal(size=(100, 2))
        labels = (x[:, 0] > 0).astype(int)
        tree = train_tree(x, labels, config=TreeConfig(max_splits=10, min_leaf=2))
        back = DecisionTree.from_dict(tree.to_dict())
        np.testing.assert_array_equal(back.feature, tree.feature)
        np.testing.assert_array_equal(
            back.threshold[~np.isnan(back.threshold)],
            tree.threshold[~np.isnan(tree.threshold)],
        )
        np.testing.assert_array_equal(back.confidence, tree.confidence)
        probes = rng.normal(size=(50, 2))
        np.testing.assert_array_equal(
            back.confidence_matrix(probes), tree.confidence_matrix(probes)
        )

    @pytest.mark.parametrize("key, node, value", [
        ("left", 0, 0),                # a cycle back to the root
        ("right", 0, 99),              # a child beyond the last node
        ("left", -1, 0),               # a leaf with a child
        ("feature", 0, 2),             # a feature the tree does not have
        ("confidence", 0, [0.7, 0.7]), # proportions that do not sum to 1
    ])
    def test_malformed_tree_rejected(self, key, node, value):
        rng = np.random.default_rng(10)
        x = rng.normal(size=(60, 2))
        d = train_tree(x, (x[:, 0] > 0).astype(int), config=TreeConfig(max_splits=3)).to_dict()
        d[key][node] = value
        with pytest.raises(ModelError):
            DecisionTree.from_dict(d)
