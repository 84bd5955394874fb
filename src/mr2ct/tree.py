"""Confidence-rated binary decision trees.

A tree routes a feature vector to a leaf whose confidence vector holds the
class proportions of the training rows that reached it.  A split node's
children are adjacent: train_tree appends them together, the left one first,
so a tree stores only the left child's id.

Split search uses histograms, the `hist` method of XGBoost (Chen & Guestrin,
KDD 2016) and LightGBM (Ke et al., NeurIPS 2017).  bin_features codes each
feature into at most N_BINS ordered bins.  The bin edges lie between
consecutive distinct values: every such gap when a feature has at most N_BINS
distinct values, otherwise the gaps nearest the rank quantiles.  A row's
code is the number of edges below its value, so codes are uint8 and monotone
in the value.  At a node, one bincount over (feature, label, code) gives
every feature's class-count histogram, and one cumulative sum over the bins
gives the left class counts of every cut.  The cut minimizing the row-weighted
child impurity (1 - sum p^2) wins, with ties broken to the lowest feature,
then the lowest cut.  Its threshold is the midpoint of the node's own values
on either side of the cut, so the float test x <= threshold sends every
training row of the node where its code does.

When every feature has at most N_BINS distinct values, the candidates,
decreases, tie-breaks and thresholds are those of an exhaustive search over
the midpoints of each node's sorted values, and so is the tree: every class
count is an exact integer.  A row repeated k times counts k times, which is
how boosting by resampling weighs it.

The split budget max_splits is global and spent best-first: the pending
split with the largest impurity decrease is applied next, so a small budget
still buys the most useful structure.

Routing walks the tree node by node with a stack of (node, rows): a split
compares one contiguous column of a column-major copy of x, gathered at the
node's rows, against its threshold and hands each child its share of the
rows, so every node reads its feature once for exactly the rows that reach it.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from .config import RunConfig
from .errors import DataError, ModelError

LEAF = -1
N_BINS = 256  # bins per feature, so that codes fit uint8
_DICT_KEYS = {"feature", "threshold", "left", "confidence"}


@dataclass(frozen=True)
class DecisionTree:
    """Flat-array binary tree; node 0 is the root.

    feature[i] is the split feature of node i, or -1 for a leaf.  Routing
    goes to node left[i] when x[feature] <= threshold, else to left[i] + 1.
    Only leaves hold confidences, the class proportions of their training
    rows; a split node's row, like a leaf's threshold, is NaN, and a leaf's
    left is -1.  A bundle stores n_features and n_labels once per ensemble.
    """

    feature: np.ndarray    # (nodes,) int32
    threshold: np.ndarray  # (nodes,) float64, nan at leaves
    left: np.ndarray       # (nodes,) int32; the right child is left + 1
    confidence: np.ndarray # (nodes, n_labels) float64, nan at split nodes
    n_features: int
    n_labels: int

    def __post_init__(self):
        """Reject a malformed tree, which could otherwise route in a cycle.

        Child ids above the parent's make every path end within n_nodes
        steps; a tree read from a bundle is checked here like a trained one.
        """
        n = self.feature.size
        if (
            n == 0
            or self.feature.shape != (n,)
            or any(a.shape != (n,) for a in (self.threshold, self.left))
            or self.confidence.shape != (n, self.n_labels)
        ):
            raise ModelError("tree arrays must hold one entry per node")
        internal = self.feature != LEAF
        ids = np.flatnonzero(internal)
        if np.any(self.feature[internal] < 0) or np.any(self.feature >= self.n_features):
            raise ModelError(f"split features must lie in [0, {self.n_features})")
        if np.any(np.isnan(self.threshold[internal])):
            raise ModelError("split nodes must have a threshold")
        if np.any(self.left[~internal] != LEAF):
            raise ModelError(f"leaf children must be {LEAF}")
        if np.any(self.left[internal] <= ids) or np.any(self.left[internal] >= n - 1):
            raise ModelError("child ids must exceed their parent's and lie below n_nodes")
        conf = self.confidence[~internal]
        if not (np.all((conf >= 0) & (conf <= 1)) and np.all(np.abs(conf.sum(axis=1) - 1) <= 1e-9)):
            raise ModelError("leaf confidences must lie in [0, 1] and sum to 1")

    @property
    def n_nodes(self) -> int:
        return self.feature.shape[0]

    @property
    def n_splits(self) -> int:
        return int(np.sum(self.feature >= 0))

    def leaf_index(self, x: np.ndarray) -> np.ndarray:
        """Leaf node id for every row of x, shape (n,).

        Routing reads one column per split, so a row-major x is copied to
        column-major once per call.  Route many trees through
        BoostedEnsemble.scores, which converts once, or pass a column-major
        x: 24 trees over a row-major 110592x108 matrix took 2.67 s, against
        0.12 s column-major.
        """
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        if x.shape[1] != self.n_features:
            raise ModelError(
                f"feature vector length {x.shape[1]} does not match tree ({self.n_features})"
            )
        cols = np.asfortranarray(x)
        out = np.empty(x.shape[0], dtype=np.int64)
        stack = [(0, np.arange(x.shape[0]))]
        while stack:
            node, rows = stack.pop()
            f = self.feature[node]
            if f == LEAF:
                out[rows] = node
            elif rows.size:
                # NaN compares False, so it goes right.
                go_left = cols[:, f].take(rows) <= self.threshold[node]
                stack.append((self.left[node], rows[go_left]))
                stack.append((self.left[node] + 1, rows[~go_left]))
        return out

    def confidence_matrix(self, x: np.ndarray) -> np.ndarray:
        """(n, n_labels) leaf confidence vectors for the rows of x."""
        return self.confidence[self.leaf_index(x)]

    def to_dict(self) -> dict:
        """Tree arrays as lists; a leaf's threshold and a split node's
        confidence row, both NaN, are null."""
        split = (self.feature != LEAF).tolist()
        return {
            "feature": self.feature.tolist(),
            "threshold": [t if s else None for s, t in zip(split, self.threshold.tolist())],
            "left": self.left.tolist(),
            "confidence": [None if s else c for s, c in zip(split, self.confidence.tolist())],
        }

    @classmethod
    def from_dict(cls, d: dict, n_features: int, n_labels: int) -> "DecisionTree":
        """The tree of to_dict's d; n_features and n_labels are the ensemble's.

        Other keys, such as a format-4 tree's right array, raise ModelError."""
        if d.keys() != _DICT_KEYS:
            raise ModelError(f"tree keys must be {sorted(_DICT_KEYS)}, got {sorted(d)}")
        return cls(
            feature=np.asarray(d["feature"], dtype=np.int32),
            threshold=np.array([np.nan if t is None else t for t in d["threshold"]], dtype=float),
            left=np.asarray(d["left"], dtype=np.int32),
            confidence=np.array([[np.nan] * n_labels if c is None else c
                                 for c in d["confidence"]], dtype=float),
            n_features=n_features,
            n_labels=n_labels,
        )


def take_rows(x: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """x[rows] as a column-major array, whatever the layout of x.

    Gathered along x.T's contiguous rows; x[rows] would be row-major, and on
    a column-major x several times slower.
    """
    return np.take(x.T, rows, axis=1).T


def bin_features(x: np.ndarray) -> np.ndarray:
    """(features, rows) uint8 bin codes of the columns of x, from one argsort each.

    See the module docstring for the edges.  A non-finite x raises DataError:
    NaN sorts last and would silently share the top bin.  A column-major x
    reads each column contiguously.
    """
    if not np.all(np.isfinite(x)):
        raise DataError("features must be finite")
    n, n_features = x.shape
    codes = np.empty((n_features, n), dtype=np.uint8)
    step = np.empty(n, dtype=np.uint8)
    for f in range(n_features):
        order = np.argsort(x[:, f])
        ordered = x[order, f]
        gaps = np.flatnonzero(ordered[:-1] < ordered[1:])  # last position below each gap
        if gaps.size >= N_BINS:
            # The N_BINS - 1 gaps whose row counts below lie nearest the rank
            # quantiles k n / N_BINS; near ties go to the lower gap.
            below = gaps + 1
            target = np.arange(1, N_BINS) * (n / N_BINS)
            k = np.searchsorted(below, target).clip(1, below.size - 1)
            k -= target - below[k - 1] <= below[k] - target
            gaps = np.unique(gaps[k])
        # In sorted order a row's code counts the edges it has passed.
        step[:] = 0
        step[gaps + 1] = 1
        codes[f, order] = np.cumsum(step, dtype=np.uint8)
    return codes


def _best_cut(
    keys: np.ndarray, totals: np.ndarray, shape: tuple[int, int, int], min_leaf: int
) -> tuple[float, int, int] | None:
    """Best (impurity decrease, feature, bin) of one node, or None.

    keys (features, m) index the node's flattened (features, labels, bins)
    histogram, one per row and feature, and totals are the node's class
    counts.  Cut b sends codes <= b left.  The decrease is the unnormalized
    form N*G(node) - N_L*G(L) - N_R*G(R), which equals
    sum_t cL_t^2/N_L + sum_t cR_t^2/N_R - sum_t c_t^2/N for class counts c
    and row counts N.
    """
    n_features = shape[0]
    counts = np.bincount(keys.ravel(), minlength=np.prod(shape)).reshape(shape)
    c_left = np.cumsum(counts, axis=2, dtype=np.float64)
    c_right = totals[:, None] - c_left
    n_total = totals.sum()
    parent_term = float(np.sum(totals**2) / n_total)
    n_left = c_left.sum(axis=1)
    n_right = n_total - n_left
    with np.errstate(divide="ignore", invalid="ignore"):  # empty sides are masked next
        term = (c_left**2).sum(axis=1) / n_left + (c_right**2).sum(axis=1) / n_right
    term[(n_left < min_leaf) | (n_right < min_leaf)] = -np.inf
    k = np.argmax(term, axis=1)  # first max: lowest cut
    decrease = term[np.arange(n_features), k] - parent_term
    decrease[decrease <= 1e-12 * n_total] = -np.inf
    f = int(np.argmax(decrease))  # first max: lowest feature
    if decrease[f] == -np.inf:
        return None
    return float(decrease[f]), f, int(k[f])


def train_tree(
    x: np.ndarray,
    labels: np.ndarray,
    config: RunConfig = RunConfig(),
    n_labels: int | None = None,
    *,
    codes: np.ndarray | None = None,
) -> DecisionTree:
    """Grow a tree greedily under the global best-first split budget.

    codes are x's (features, rows) uint8 bin codes: bin_features(x), or the
    codes of a larger set binned once and gathered at x's rows, as boosting
    passes them.  Without codes, x is binned here.  Branch growth stops on
    purity, on min_leaf (children must keep at least min_leaf rows), or when
    the budget is exhausted.
    """
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    labels = np.asarray(labels, dtype=np.int64).reshape(-1)
    n, n_features = x.shape
    if n == 0:
        raise DataError("cannot train a tree on zero samples")
    if labels.shape[0] != n:
        raise DataError("labels length does not match sample count")
    if not np.all(np.isfinite(x)):
        raise DataError("features must be finite")
    if n_labels is None:
        n_labels = int(labels.max()) + 1
    if labels.min() < 0 or labels.max() >= n_labels:
        raise DataError(f"labels must lie in [0, {n_labels})")
    if codes is None:
        codes = bin_features(x)
    elif codes.shape != (n_features, n) or codes.dtype != np.uint8:
        raise DataError(f"codes must be uint8 of shape ({n_features}, {n})")

    shape = (n_features, n_labels, int(codes.max(initial=0)) + 1)
    # keys = feature*L*B + label*B + code indexes the flattened histogram.
    key_base = np.arange(n_features)[:, None] * (n_labels * shape[2])
    label_key = labels * shape[2]

    feature: list[int] = []
    threshold: list[float] = []
    left: list[int] = []
    confidence: list[np.ndarray] = []
    heap: list[tuple[float, int, int, int]] = []
    pending: dict[int, np.ndarray] = {}  # heap node -> its rows

    def new_node(rows: np.ndarray) -> int:
        """Append a leaf for rows (ascending) and queue its best split."""
        node_id = len(feature)
        feature.append(LEAF)
        threshold.append(np.nan)
        left.append(LEAF)
        totals = np.bincount(labels[rows], minlength=n_labels)
        confidence.append(totals / rows.size)
        if rows.size < 2 * config.min_leaf or np.count_nonzero(totals > 0) <= 1:
            return node_id  # too small to split, or pure
        keys = key_base + label_key[rows]
        keys += codes[:, rows]
        found = _best_cut(keys, totals, shape, config.min_leaf)
        if found is not None:
            decrease, f, b = found
            # Equal decreases split the older node first: ids grow with time.
            heapq.heappush(heap, (-decrease, node_id, f, b))
            pending[node_id] = rows
        return node_id

    new_node(np.arange(n))

    splits_done = 0
    while heap and splits_done < config.max_splits:
        _, node_id, f, b = heapq.heappop(heap)
        rows = pending.pop(node_id)
        go_left = codes[f].take(rows) <= b
        values = x[:, f].take(rows)
        below, above = values[go_left].max(), values[~go_left].min()
        thr = 0.5 * (below + above)
        if not (below < thr < above):
            thr = below  # adjacent floats: keep the partition exact
        feature[node_id] = f
        threshold[node_id] = float(thr)
        confidence[node_id] = np.full(n_labels, np.nan)  # only leaves vote
        left[node_id] = new_node(rows[go_left])
        new_node(rows[~go_left])  # the right child, left + 1
        splits_done += 1

    return DecisionTree(
        feature=np.asarray(feature, dtype=np.int32),
        threshold=np.asarray(threshold, dtype=np.float64),
        left=np.asarray(left, dtype=np.int32),
        confidence=np.vstack(confidence),
        n_features=n_features,
        n_labels=n_labels,
    )
