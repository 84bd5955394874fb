"""Weighted, confidence-rated binary decision trees.

A tree routes a feature vector to a leaf whose confidence vector holds the
normalized class-weight proportions of the training rows that reached it.
Split search is exhaustive: at every node, every feature is scanned and the
candidate thresholds are the midpoints of consecutive distinct sorted values.
The split minimizing the weighted child impurity (1 - sum p^2) wins, with
ties broken to the lowest feature index, then the lowest threshold.

The split budget max_splits is global and spent best-first: the pending
split with the largest weighted impurity decrease is applied next, so a
small budget still buys the most useful structure.

Each feature is sorted once per tree (SLIQ; the exact-greedy column blocks
of XGBoost): a stable argsort per feature fills a (features, rows) int32
array, and a node owns one column segment of it.  A split partitions that
segment stably, so every node's per-feature lists stay in sorted order with
ties in ascending row order, as a stable sort of the node's own rows would
give.  The scan then scores all thresholds of _BLOCK features at once with
one cumulative sum per label.  Cumulative sums, node totals and thresholds
are therefore bitwise equal to those of a per-node sort, and so is the
tree: the same data, weights and config give the same model bytes.

Routing walks the tree node by node with a stack of (node, rows): a split
compares one contiguous column of a column-major copy of x, gathered at the
node's rows, against its threshold and hands each child its share of the
rows, so every node reads its feature once for exactly the rows that reach it.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DataError, ModelError

LEAF = -1
# Features scored together: bounds split-search scratch to a few
# (_BLOCK, rows) arrays rather than one (labels, features, rows) tensor.
_BLOCK = 8


def gini(proportions: Sequence[float]) -> float:
    """Node impurity 1 - sum_t p_t^2 for class proportions p."""
    p = np.asarray(proportions, dtype=np.float64)
    if np.any(p < 0):
        raise ValueError("proportions must be non-negative")
    total = p.sum()
    if abs(total - 1.0) > 1e-9:
        raise ValueError(f"proportions must sum to 1 within 1e-9, got {total!r}")
    return float(1.0 - np.sum(p * p))


@dataclass(frozen=True)
class TreeConfig:
    max_splits: int = 400
    min_leaf: int = 5

    def __post_init__(self):
        if self.max_splits < 1:
            raise ValueError("max_splits must be >= 1")
        if self.min_leaf < 1:
            raise ValueError("min_leaf must be >= 1")


@dataclass(frozen=True)
class DecisionTree:
    """Flat-array binary tree; node 0 is the root.

    feature[i] is the split feature of node i, or -1 for a leaf.  Routing
    goes left when x[feature] <= threshold.  confidence[i] holds the
    class-weight proportions of the training rows at node i (leaves carry
    the prediction; internal values are diagnostics).
    """

    feature: np.ndarray    # (nodes,) int32
    threshold: np.ndarray  # (nodes,) float64, nan at leaves
    left: np.ndarray       # (nodes,) int32
    right: np.ndarray      # (nodes,) int32
    confidence: np.ndarray # (nodes, n_labels) float64
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
            or any(a.shape != (n,) for a in (self.threshold, self.left, self.right))
            or self.confidence.shape != (n, self.n_labels)
        ):
            raise ModelError("tree arrays must hold one entry per node")
        internal = self.feature != LEAF
        ids = np.flatnonzero(internal)
        if np.any(self.feature[internal] < 0) or np.any(self.feature >= self.n_features):
            raise ModelError(f"split features must lie in [0, {self.n_features})")
        if np.any(np.isnan(self.threshold[internal])):
            raise ModelError("split nodes must have a threshold")
        for child in (self.left, self.right):
            if np.any(child[~internal] != LEAF):
                raise ModelError(f"leaf children must be {LEAF}")
            if np.any(child[internal] <= ids) or np.any(child[internal] >= n):
                raise ModelError("child ids must exceed their parent's and lie below n_nodes")
        conf = self.confidence
        if not (np.all((conf >= 0) & (conf <= 1)) and np.all(np.abs(conf.sum(axis=1) - 1) <= 1e-9)):
            raise ModelError("node confidences must lie in [0, 1] and sum to 1")

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
                stack.append((self.right[node], rows[~go_left]))
        return out

    def confidence_matrix(self, x: np.ndarray) -> np.ndarray:
        """(n, n_labels) leaf confidence vectors for the rows of x."""
        return self.confidence[self.leaf_index(x)]

    def to_dict(self) -> dict:
        return {
            "n_features": self.n_features,
            "n_labels": self.n_labels,
            "feature": self.feature.tolist(),
            "threshold": [None if np.isnan(t) else t for t in self.threshold.tolist()],
            "left": self.left.tolist(),
            "right": self.right.tolist(),
            "confidence": self.confidence.tolist(),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "DecisionTree":
        threshold = np.array(
            [np.nan if t is None else float(t) for t in d["threshold"]], dtype=np.float64
        )
        return cls(
            feature=np.asarray(d["feature"], dtype=np.int32),
            threshold=threshold,
            left=np.asarray(d["left"], dtype=np.int32),
            right=np.asarray(d["right"], dtype=np.int32),
            confidence=np.asarray(d["confidence"], dtype=np.float64),
            n_features=int(d["n_features"]),
            n_labels=int(d["n_labels"]),
        )


def _class_weight_matrix(labels: np.ndarray, weights: np.ndarray, n_labels: int) -> np.ndarray:
    cw = np.zeros((labels.shape[0], n_labels), dtype=np.float64)
    cw[np.arange(labels.shape[0]), labels] = weights
    return cw


def _node_confidence(class_weights: np.ndarray) -> np.ndarray:
    total = class_weights.sum()
    if total <= 0:
        return np.full(class_weights.shape, 1.0 / class_weights.shape[0])
    return class_weights / total


def _label_sum(parts: list[np.ndarray]) -> np.ndarray:
    """parts[0] + parts[1] + ..., added in the order a row sum over labels uses."""
    return sum(parts[1:], parts[0])


def _best_split(
    x_t: np.ndarray,
    cw_t: np.ndarray,
    sorted_rows: np.ndarray,
    totals: np.ndarray,
    config: TreeConfig,
) -> tuple[float, int, float] | None:
    """Best (impurity decrease, feature, threshold) over all features, or None.

    x_t is (features, n) and cw_t (labels, n); sorted_rows (features, m)
    holds the node's rows per feature in stable sorted order and totals the
    node's class weights.  The decrease is the unnormalized weighted form
    W*G(node) - W_L*G(L) - W_R*G(R), which equals
    sum_t cwL_t^2/W_L + sum_t cwR_t^2/W_R - sum_t cw_t^2/W.
    """
    n_features, m = sorted_rows.shape
    w_total = totals.sum()
    parent_term = float(np.sum(totals**2) / w_total)
    # Position p cuts between sorted rows p and p+1; min_leaf bounds it.
    lo, hi = config.min_leaf - 1, m - config.min_leaf
    # np.take gathers faster than fancy indexing; offsets index a block of x_t.
    offsets = np.arange(0, _BLOCK * x_t.shape[1], x_t.shape[1])[:, None]
    best: tuple[float, int, float] | None = None
    for f0 in range(0, n_features, _BLOCK):
        block = sorted_rows[f0:f0 + _BLOCK]
        xv = np.take(x_t[f0:f0 + _BLOCK], block + offsets[:block.shape[0]])
        cand = xv[:, lo:hi] < xv[:, lo + 1:hi + 1]
        if not cand.any():
            continue
        # One (block, positions) array per label, added label by label, so
        # every sum matches a row sum over the label axis bit for bit.
        cw_left = [np.cumsum(np.take(c, block[:, :hi]), axis=1)[:, lo:] for c in cw_t]
        cw_right = [t - c for t, c in zip(totals, cw_left)]
        w_left, w_right = _label_sum(cw_left), _label_sum(cw_right)
        sq_left = _label_sum([c**2 for c in cw_left])
        sq_right = _label_sum([c**2 for c in cw_right])
        with np.errstate(divide="ignore", invalid="ignore"):
            term = np.where(w_left > 0, sq_left / w_left, 0.0)
            term += np.where(w_right > 0, sq_right / w_right, 0.0)
        term[~cand] = -np.inf
        k = np.argmax(term, axis=1)  # first max: lowest threshold
        decrease = term[np.arange(k.size), k] - parent_term
        # Ties across features go to the lowest index, here and across blocks.
        decrease[decrease <= 1e-12 * w_total] = -np.inf
        j = int(np.argmax(decrease))
        if decrease[j] == -np.inf or (best is not None and not decrease[j] > best[0]):
            continue
        p = lo + int(k[j])
        below, above = xv[j, p], xv[j, p + 1]
        thr = 0.5 * (below + above)
        if not (below < thr < above):
            thr = below  # adjacent floats: keep the partition exact
        best = (float(decrease[j]), f0 + j, float(thr))
    return best


def train_tree(
    x: np.ndarray,
    labels: np.ndarray,
    weights: np.ndarray | None = None,
    config: TreeConfig = TreeConfig(),
    n_labels: int | None = None,
) -> DecisionTree:
    """Grow a tree greedily under the global best-first split budget.

    Branch growth stops on purity, on min_leaf (children must keep at least
    min_leaf rows), or when the budget is exhausted.
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
    if weights is None:
        weights = np.ones(n, dtype=np.float64)
    else:
        weights = np.asarray(weights, dtype=np.float64).reshape(-1)
        if weights.shape[0] != n or not np.all(np.isfinite(weights) & (weights >= 0)):
            raise DataError("weights must be finite and non-negative, one per sample")
    if weights.sum() <= 0:
        raise DataError("total sample weight must be positive")
    if n_labels is None:
        n_labels = int(labels.max()) + 1
    if labels.min() < 0 or labels.max() >= n_labels:
        raise DataError(f"labels must lie in [0, {n_labels})")

    cw_all = _class_weight_matrix(labels, weights, n_labels)
    cw_t = np.ascontiguousarray(cw_all.T)
    x_t = np.ascontiguousarray(x.T)
    # Every node owns one column segment [start, start + rows) of order, in
    # which each feature's row lists are stably sorted by that feature.
    order = np.empty((n_features, n), dtype=np.int32)
    for f in range(n_features):
        order[f] = np.argsort(x_t[f], kind="stable")
    goes_left = np.zeros(n, dtype=bool)

    feature: list[int] = []
    threshold: list[float] = []
    left: list[int] = []
    right: list[int] = []
    confidence: list[np.ndarray] = []
    heap: list[tuple[float, int, int, float]] = []
    pending: dict[int, tuple[np.ndarray, int]] = {}  # heap node -> (rows, start)

    def new_node(rows: np.ndarray, start: int) -> int:
        """Append a leaf for rows (ascending) and queue its best split."""
        node_id = len(feature)
        feature.append(LEAF)
        threshold.append(np.nan)
        left.append(LEAF)
        right.append(LEAF)
        # Summed in row order: a sum in sorted order can differ in the last bit.
        totals = cw_all[rows].sum(axis=0)
        confidence.append(_node_confidence(totals))
        if rows.size < 2 * config.min_leaf or np.count_nonzero(totals > 0) <= 1:
            return node_id  # too small to split, or pure
        found = _best_split(x_t, cw_t, order[:, start:start + rows.size], totals, config)
        if found is not None:
            decrease, f, thr = found
            # Equal decreases split the older node first: ids grow with time.
            heapq.heappush(heap, (-decrease, node_id, f, thr))
            pending[node_id] = (rows, start)
        return node_id

    new_node(np.arange(n, dtype=np.int64), 0)

    splits_done = 0
    while heap and splits_done < config.max_splits:
        _, node_id, f, thr = heapq.heappop(heap)
        rows, start = pending.pop(node_id)
        go_left = x_t[f, rows] <= thr
        rows_left = rows[go_left]
        n_left = rows_left.size
        # Stable partition of every feature's list: left rows first.
        segment = order[:, start:start + rows.size]
        goes_left[rows_left] = True
        sel = goes_left[segment]
        goes_left[rows_left] = False
        segment[...] = np.concatenate(
            (segment[sel].reshape(n_features, n_left),
             segment[~sel].reshape(n_features, rows.size - n_left)),
            axis=1,
        )
        feature[node_id] = f
        threshold[node_id] = thr
        left[node_id] = new_node(rows_left, start)
        right[node_id] = new_node(rows[~go_left], start + n_left)
        splits_done += 1

    return DecisionTree(
        feature=np.asarray(feature, dtype=np.int32),
        threshold=np.asarray(threshold, dtype=np.float64),
        left=np.asarray(left, dtype=np.int32),
        right=np.asarray(right, dtype=np.int32),
        confidence=np.vstack(confidence),
        n_features=n_features,
        n_labels=n_labels,
    )
