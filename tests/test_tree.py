import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mr2ct import DataError, RunConfig, train_tree
from mr2ct.errors import ModelError
from mr2ct.tree import LEAF, N_BINS, DecisionTree, bin_features

from util import naive_leaf_index, naive_train_tree


def training_error(tree, x, labels):
    return float(np.mean(np.argmax(tree.confidence_matrix(x), axis=1) != labels))


class TestTrainTree:
    def test_separable_pair(self):
        tree = train_tree(np.array([[0.0], [1.0]]), np.array([0, 1]),
                          config=RunConfig(min_leaf=1))
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
        tree = train_tree(x, labels, config=RunConfig(max_splits=100, min_leaf=5))
        leaf_of = tree.leaf_index(x)
        for leaf in np.flatnonzero(tree.feature == LEAF):
            assert np.sum(leaf_of == leaf) >= 5

    def test_max_splits_budget(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(300, 3))
        labels = rng.integers(0, 2, size=300)
        tree = train_tree(x, labels, config=RunConfig(max_splits=7, min_leaf=1))
        assert tree.n_splits <= 7

    def test_empty_input_rejected(self):
        with pytest.raises(DataError):
            train_tree(np.zeros((0, 2)), np.zeros(0, dtype=int))

    def test_feature_tiebreak_lowest_index(self):
        x = np.array([[0.0, 0.0], [1.0, 1.0]])
        tree = train_tree(x, np.array([0, 1]), config=RunConfig(min_leaf=1))
        assert tree.feature[0] == 0

    def test_threshold_tiebreak_lowest(self):
        # splits at 0.5 and 2.5 give equal impurity decrease
        x = np.array([[0.0], [1.0], [2.0], [3.0]])
        labels = np.array([0, 1, 1, 0])
        tree = train_tree(x, labels, config=RunConfig(max_splits=1, min_leaf=1))
        assert tree.threshold[0] == 0.5

    def test_duplicating_samples_keeps_structure(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(80, 2))
        labels = (x.sum(axis=1) > 0).astype(int)
        a = train_tree(x, labels, config=RunConfig(max_splits=15, min_leaf=1))
        b = train_tree(np.vstack([x, x]), np.concatenate([labels, labels]),
                       config=RunConfig(max_splits=15, min_leaf=1))
        np.testing.assert_array_equal(a.feature, b.feature)
        np.testing.assert_array_equal(a.threshold, b.threshold)
        np.testing.assert_allclose(a.confidence, b.confidence, atol=1e-12)

    def test_confidences_sum_to_one(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(150, 3))
        labels = rng.integers(0, 3, size=150)
        tree = train_tree(x, labels, config=RunConfig(max_splits=30, min_leaf=2))
        is_leaf = tree.feature == LEAF
        np.testing.assert_allclose(tree.confidence[is_leaf].sum(axis=1), 1.0, rtol=0, atol=1e-12)
        assert np.all(np.isnan(tree.confidence[~is_leaf]))  # only leaves vote

    def test_error_chain_leaf_stump_tree(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=(250, 2))
        labels = ((x[:, 0] > 0.2) ^ (x[:, 1] < -0.1)).astype(int)
        leaf = train_tree(x, labels, config=RunConfig(max_splits=1, min_leaf=250))
        stump = train_tree(x, labels, config=RunConfig(max_splits=1, min_leaf=1))
        tree = train_tree(x, labels, config=RunConfig(max_splits=60, min_leaf=1))
        e_leaf = training_error(leaf, x, labels)
        e_stump = training_error(stump, x, labels)
        e_tree = training_error(tree, x, labels)
        assert e_tree <= e_stump + 1e-12 <= e_leaf + 1e-12

    def test_non_finite_input_rejected(self):
        x = np.array([[0.0], [1.0], [np.nan], [3.0]])
        labels = np.array([0, 0, 1, 1])
        with pytest.raises(DataError, match="finite"):
            train_tree(x, labels, config=RunConfig(min_leaf=1))

    def test_codes_must_match_x(self):
        x = np.arange(8.0).reshape(4, 2)
        labels = np.array([0, 0, 1, 1])
        with pytest.raises(DataError, match="codes"):
            train_tree(x, labels, codes=bin_features(x).T.copy())
        with pytest.raises(DataError, match="codes"):
            train_tree(x, labels, codes=bin_features(x).astype(np.int64))


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 60),
    n_features=st.integers(1, 5),
    copies=st.integers(1, 3),
    n_labels=st.sampled_from([2, 3]),
    tied=st.booleans(),
    duplicated=st.booleans(),
    repeated=st.booleans(),
    min_leaf=st.integers(1, 8),
    max_splits=st.integers(1, 40),
)
def test_matches_per_node_sort_oracle(seed, n, n_features, copies, n_labels, tied, duplicated,
                                      repeated, min_leaf, max_splits):
    """Under N_BINS distinct values per feature every class count is exact,
    so the histogram search grows the exhaustive search's tree bit for bit,
    also when rows repeat as a resample repeats them."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, n_features))
    if tied:
        x = np.round(2 * x) / 2  # many equal values per column
    x[:, 0] = 1.5  # one constant column
    x = np.tile(x, copies)  # equal columns tie, also across feature blocks
    labels = rng.integers(0, n_labels, size=n)
    if duplicated:
        x, labels = np.vstack([x, x[::2]]), np.concatenate([labels, labels[::2]])
    if repeated:
        multiplicity = rng.integers(0, 4, size=labels.size)
        multiplicity[0] = max(multiplicity[0], 1)  # at least one row
        x, labels = np.repeat(x, multiplicity, axis=0), np.repeat(labels, multiplicity)
    config = RunConfig(max_splits=max_splits, min_leaf=min_leaf)
    expected = naive_train_tree(x, labels, config, n_labels=n_labels)
    got = train_tree(x, labels, config, n_labels=n_labels)
    assert got.to_dict() == expected.to_dict()
    np.testing.assert_array_equal(got.confidence, expected.confidence)  # NaN at split nodes


def node_rows(tree, x):
    """Training rows reaching each node, by replaying the float thresholds."""
    rows = {0: np.arange(x.shape[0])}
    for node in range(tree.n_nodes):  # children follow their parent
        f = tree.feature[node]
        if f != LEAF:
            go_left = x[rows[node], f] <= tree.threshold[node]
            rows[tree.left[node]] = rows[node][go_left]
            rows[tree.left[node] + 1] = rows[node][~go_left]
    return rows


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 700),
    n_features=st.integers(1, 3),
    distinct=st.integers(1, 400),
    continuous=st.booleans(),
)
def test_binning_codes(seed, n, n_features, distinct, continuous):
    """At most N_BINS codes per feature, used without gaps and monotone in x;
    a feature with at most N_BINS distinct values gives each its own code.
    Above N_BINS values, rank quantiles that share their nearest gap merge, so
    a small sample can get fewer codes."""
    rng = np.random.default_rng(seed)
    if continuous:
        x = rng.normal(size=(n, n_features))
    else:
        x = rng.integers(0, distinct, size=(n, n_features)) * 0.1 - 3.0
    codes = bin_features(x)
    assert codes.dtype == np.uint8 and codes.shape == (n_features, n)
    for f in range(n_features):
        order = np.argsort(x[:, f], kind="stable")
        xs, cs = x[order, f], codes[f, order].astype(np.int64)
        steps = np.diff(cs)
        assert np.all(steps >= 0)                      # monotone in x
        assert np.all(steps[xs[1:] == xs[:-1]] == 0)   # equal values, equal codes
        n_values = np.unique(xs).size
        assert np.array_equal(np.unique(cs), np.arange(cs[-1] + 1))
        if n_values <= N_BINS:
            assert cs[-1] + 1 == n_values
        else:
            assert cs[-1] + 1 <= N_BINS


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 700),
    n_features=st.integers(1, 3),
    tied=st.booleans(),
    subset=st.booleans(),
    min_leaf=st.integers(1, 6),
    max_splits=st.integers(1, 30),
)
def test_code_and_threshold_routing_agree(seed, n, n_features, tied, subset, min_leaf,
                                          max_splits):
    """At every split, code <= b and x <= threshold partition the node's
    training rows alike, also for codes binned on a larger set and gathered,
    as boosting passes them."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, n_features))
    if tied:
        x = np.round(4 * x) / 4
    labels = (x[:, 0] + rng.normal(size=n) > 0).astype(int)
    codes = bin_features(x)
    if subset:
        idx = np.sort(rng.choice(n, size=max(2, n // 2)))
        x, labels, codes = x[idx], labels[idx], codes[:, idx]
    tree = train_tree(x, labels, config=RunConfig(max_splits=max_splits, min_leaf=min_leaf),
                      n_labels=2, codes=codes)
    rows = node_rows(tree, x)
    for node in np.flatnonzero(tree.feature != LEAF):
        f, r = tree.feature[node], rows[node]
        go_left = x[r, f] <= tree.threshold[node]
        assert codes[f, r][go_left].max() < codes[f, r][~go_left].min()


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
    tree = train_tree(x, labels, config=RunConfig(max_splits=max_splits, min_leaf=min_leaf),
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
                          config=RunConfig(min_leaf=1))
        with pytest.raises(ModelError):
            tree.confidence_matrix(np.atleast_2d([0.0, 1.0]))

    def test_matches_predicate_replay(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=(400, 3))
        labels = ((x[:, 0] + x[:, 1] ** 2 - x[:, 2]) > 0).astype(int)
        tree = train_tree(x, labels, config=RunConfig(max_splits=50, min_leaf=3))
        probes = rng.normal(size=(1000, 3))

        def walk(row):
            node = 0
            while tree.feature[node] >= 0:
                if row[tree.feature[node]] <= tree.threshold[node]:
                    node = tree.left[node]
                else:
                    node = tree.left[node] + 1
            return node

        expected = np.array([walk(row) for row in probes])
        np.testing.assert_array_equal(tree.leaf_index(probes), expected)


class TestSerialization:
    def test_roundtrip(self):
        rng = np.random.default_rng(9)
        x = rng.normal(size=(100, 2))
        labels = (x[:, 0] > 0).astype(int)
        tree = train_tree(x, labels, config=RunConfig(max_splits=10, min_leaf=2))
        back = DecisionTree.from_dict(tree.to_dict(), tree.n_features, tree.n_labels)
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
        ("left", 0, 0),                 # a cycle back to the root
        ("left", 0, "last"),            # a right child beyond the last node
        ("left", -1, 0),                # a leaf with a child
        ("feature", 0, 2),              # a feature the tree does not have
        ("confidence", -1, [0.7, 0.7]), # leaf proportions that do not sum to 1
        ("confidence", -1, None),       # a leaf without proportions
    ])
    def test_malformed_tree_rejected(self, key, node, value):
        rng = np.random.default_rng(10)
        x = rng.normal(size=(60, 2))
        d = train_tree(x, (x[:, 0] > 0).astype(int), config=RunConfig(max_splits=3)).to_dict()
        assert d["feature"][0] != LEAF and d["feature"][-1] == LEAF
        d[key][node] = len(d["feature"]) - 1 if value == "last" else value
        with pytest.raises(ModelError):
            DecisionTree.from_dict(d, 2, 2)

    def test_split_node_confidences_are_null(self):
        rng = np.random.default_rng(11)
        x = rng.normal(size=(60, 2))
        tree = train_tree(x, (x[:, 0] > 0).astype(int), config=RunConfig(max_splits=3))
        d = tree.to_dict()
        assert sorted(d) == ["confidence", "feature", "left", "threshold"]
        for f, row in zip(d["feature"], d["confidence"]):
            assert (row is None) == (f != LEAF)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 80),
    n_features=st.integers(1, 3),
    n_labels=st.sampled_from([2, 3]),
    repeated=st.booleans(),
    min_leaf=st.integers(1, 5),
    max_splits=st.integers(1, 20),
)
def test_dict_roundtrip_property(seed, n, n_features, n_labels, repeated, min_leaf, max_splits):
    """A trained tree survives to_dict and from_dict bit for bit, NaN in the
    same places, and routes every probe alike."""
    rng = np.random.default_rng(seed)
    x = np.round(2 * rng.normal(size=(n, n_features))) / 2
    labels = rng.integers(0, n_labels, size=n)
    if repeated:
        multiplicity = rng.integers(1, 4, size=n)
        x, labels = np.repeat(x, multiplicity, axis=0), np.repeat(labels, multiplicity)
    tree = train_tree(x, labels, RunConfig(max_splits=max_splits, min_leaf=min_leaf),
                      n_labels=n_labels)
    back = DecisionTree.from_dict(json.loads(json.dumps(tree.to_dict())),
                                  tree.n_features, tree.n_labels)
    for name in ("feature", "threshold", "left", "confidence"):
        a, b = getattr(tree, name), getattr(back, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
    probes = np.vstack([x, rng.normal(size=(50, n_features)),
                        np.where(rng.random(x.shape) < 0.3, np.nan, x)])
    np.testing.assert_array_equal(back.leaf_index(probes), tree.leaf_index(probes))
