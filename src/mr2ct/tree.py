"""Confidence-rated binary decision trees.

A tree routes a feature vector to a leaf whose confidence vector holds the
class proportions of the training rows that reached it.  A split node's
children are adjacent: train_tree appends them together, the left one first,
so a tree stores only the left child's id.

Split search uses histograms, the `hist` method of XGBoost (Chen & Guestrin,
KDD 2016) and LightGBM (Ke et al., NeurIPS 2017).  bin_features codes each
feature into at most N_BINS ordered bins.  The bin edges lie between
consecutive distinct values: every such gap when a feature has at most N_BINS
distinct values, otherwise the gaps nearest the rank quantiles.  A row's code
is the number of edges below its value, so codes are uint8 and monotone in the
value.  A node's search reads its cumulative class counts: per feature, label
and bin, its rows of that label with codes up to the bin, which are the left
class counts of every cut.  They are built by bincount over (feature, label,
code) keys, a block of features at a time, so the keys take at most about
_MAX_KEYS int64 whatever the rows.  Counts add, so a split counts only its
smaller child, even one too small to split, and takes the larger child's
counts as the parent's minus the smaller's, as LightGBM does.  A pending node
keeps its counts only if it has more rows than they have cells per feature
(labels x bins); pending nodes hold disjoint rows, so the kept counts stay
under 4 bytes per row and feature.  The children of a node kept without counts
count their own rows, and the children of the split that spends the last of
the budget, never popped, are not searched.  The cut minimizing the
row-weighted child impurity (1 - sum p^2) wins, with ties broken to the lowest
feature, then the lowest cut.  Every count, and every sum of products of
counts that the search forms, is an integer of at most 2 n^2 for n rows, exact
in float64 while n <= 2^26 = _MAX_ROWS, so train_tree rejects more rows:
subtraction and the search's algebra then change no value.  A cut's threshold
is the midpoint of the node's own values on either side of it, so the float
test x <= threshold sends every training row of the node where its code does.

When every feature has at most N_BINS distinct values, the candidates,
decreases, tie-breaks and thresholds are those of an exhaustive search over
the midpoints of each node's sorted values, and so is the tree: every class
count is an exact integer.  A row repeated k times counts k times, which is
how boosting by resampling weighs it.

The split budget max_splits is global and spent best-first: the pending
split with the largest impurity decrease is applied next, so a small budget
still buys the most useful structure.

Trees read their features from a features.PaddedSource, which stands for
the feature matrix without being one: it has the matrix's shape, each row's
base, an int in [0, extent), column(f, bases), which gathers column f at the
rows with those bases, and rows(idx), the source of its rows idx, which
copies no feature.  Extraction's source reads every column from edge-padded
channels; as_source reads an ndarray as one with a channel per column, whose
bases are its row ids.  bin_features gathers one column at a time, and a
split gathers its feature at its node's rows.  Routing walks the tree with a
stack of (node, bases): a split partitions the bases between its children with
two compress calls, a leaf records its id at its bases, and one take reads the
leaves back in row order.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from .config import RunConfig
from .errors import DataError, ModelError
from .features import PaddedSource

LEAF = -1
N_BINS = 256  # bins per feature, so that codes fit uint8
_MAX_KEYS = 1 << 18  # histogram keys built at once: 2 MB of int64
_MAX_ROWS = 1 << 26  # 2 n^2 <= 2^53 keeps _best_cut's count algebra exact
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

    def leaf_index(self, x) -> np.ndarray:
        """Leaf node id for every row of x, a PaddedSource or an ndarray read
        as one by as_source, shape (n,).

        A split compares the gathered values against its float64 threshold,
        so float32 pad values compare exactly as their float64 copies do.
        """
        source = as_source(x)
        n_features = source.shape[1]
        if n_features != self.n_features:
            raise ModelError(
                f"feature vector length {n_features} does not match tree ({self.n_features})"
            )
        leaf_at = np.empty(source.extent, dtype=np.int64)  # indexed by base
        stack = [(0, source.base)]
        while stack:
            node, bases = stack.pop()
            f = self.feature[node]
            if f == LEAF:
                leaf_at[bases] = node
            elif bases.size:
                # NaN compares False, so it goes right.
                go_left = source.column(f, bases) <= self.threshold[node]
                stack.append((self.left[node], bases.compress(go_left)))
                stack.append((self.left[node] + 1, bases.compress(~go_left)))
        return leaf_at.take(source.base)

    def confidence_matrix(self, x) -> np.ndarray:
        """(n, n_labels) leaf confidence vectors for the rows of x, a
        PaddedSource or an ndarray read as one by as_source."""
        return self.confidence.take(self.leaf_index(x), axis=0)

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


def as_source(x):
    """x itself if it is a source, else the PaddedSource of the float64
    matrix x: one channel per column, each a view of one column-major copy,
    at delta 0, with row i at base i.  The copy is made once, and only if x
    is not already column-major float64: 24 trees, each routed on its own
    over a 110592x108 matrix, took 1.18 s row-major, against 0.052 s
    column-major.  A matrix with no columns raises DataError."""
    if hasattr(x, "column"):
        return x
    x = np.asfortranarray(np.atleast_2d(np.asarray(x, dtype=np.float64)))
    n, d = x.shape
    if d == 0:
        raise DataError("features need at least one column")
    return PaddedSource(pads=tuple(x.T), base=np.arange(n), channel=np.arange(d),
                        delta=np.zeros(d, dtype=np.int64))


def bin_features(x) -> np.ndarray:
    """(features, rows) uint8 bin codes of the columns of x, from one argsort each.

    x is a PaddedSource or an ndarray read as one by as_source; see the
    module docstring for the edges.  A non-finite x raises DataError: NaN
    sorts last and would silently share the top bin."""
    source = as_source(x)
    n, n_features = source.shape
    codes = np.empty((n_features, n), dtype=np.uint8)
    step = np.empty(n, dtype=np.uint8)
    for f in range(n_features):
        values = source.column(f, source.base)
        if not np.all(np.isfinite(values)):
            raise DataError("features must be finite")
        order = np.argsort(values)
        ordered = values[order]
        gaps = np.flatnonzero(ordered[:-1] < ordered[1:])  # last position below each gap
        if gaps.size >= N_BINS:
            # The N_BINS - 1 gaps whose row counts below lie nearest the rank
            # quantiles k n / N_BINS; near ties go to the lower gap.
            below = gaps + 1
            target = np.arange(1, N_BINS) * (n / N_BINS)
            k = np.searchsorted(below, target).clip(1, below.size - 1)
            k -= target - below[k - 1] <= below[k] - target
            # gaps ascend, so the marked ones are the sorted unique gaps[k].
            mark = np.zeros(gaps.size, dtype=bool)
            mark[k] = True
            gaps = gaps.compress(mark)
        # In sorted order a row's code counts the edges it has passed.
        step[:] = 0
        step[gaps + 1] = 1
        codes[f, order] = np.cumsum(step, dtype=np.uint8)
    return codes


def _cum_counts(
    codes: np.ndarray, label_key: np.ndarray, rows: np.ndarray, shape: tuple[int, int, int]
) -> np.ndarray:
    """(features, labels, bins) int32 class counts of rows at codes <= each bin,
    from keys feature*L*B + label*B + code, label_key holding label*B per row."""
    n_features, n_labels, n_bins = shape
    cells = n_labels * n_bins
    step = min(n_features, max(1, _MAX_KEYS // rows.size))
    offsets = np.arange(step)[:, None] * cells
    row_key = label_key[rows]
    keys = np.empty((step, rows.size), dtype=np.int64)
    out = np.empty(shape, dtype=np.int32)
    for f0 in range(0, n_features, step):
        block = np.take(codes[f0:f0 + step], rows, axis=1)
        k = np.add(block, row_key, out=keys[:block.shape[0]])
        k += offsets[:block.shape[0]]
        counts = np.bincount(k.ravel(), minlength=k.shape[0] * cells)
        np.cumsum(counts.reshape(-1, n_labels, n_bins), axis=2, dtype=np.int32,
                  out=out[f0:f0 + step])
    return out


def _best_cut(
    cum: np.ndarray, totals: np.ndarray, min_leaf: int
) -> tuple[float, int, int] | None:
    """Best (impurity decrease, feature, bin) of one node, or None.

    cum is the node's _cum_counts and totals its class counts.  Cut b sends
    codes <= b left.  The decrease is the unnormalized form
    N*G(node) - N_L*G(L) - N_R*G(R), which equals
    sum_t cL_t^2/N_L + sum_t cR_t^2/N_R - sum_t c_t^2/N for class counts c
    and row counts N.  sum_t cR_t^2 is taken as
    sum_t c_t^2 - 2 sum_t c_t cL_t + sum_t cL_t^2, without forming cR: every
    term and partial sum is an integer of at most 2 N^2 <= 2^53, so exact in
    float64, and the divisions see the values that cR would give.
    """
    n_features = cum.shape[0]
    c_left = cum.astype(np.float64)
    n_total = totals.sum()
    sum_sq = np.sum(totals**2)
    parent_term = float(sum_sq / n_total)
    n_left = c_left.sum(axis=1)
    n_right = n_total - n_left
    sq_left = np.einsum("flb,flb->fb", c_left, c_left)
    term = np.einsum("flb,l->fb", c_left, -2.0 * totals)
    term += sum_sq
    term += sq_left  # sum_t cR_t^2
    with np.errstate(divide="ignore", invalid="ignore"):  # empty sides are masked next
        term /= n_right
        sq_left /= n_left
    term += sq_left
    term[(n_left < min_leaf) | (n_right < min_leaf)] = -np.inf
    k = np.argmax(term, axis=1)  # first max: lowest cut
    decrease = term[np.arange(n_features), k] - parent_term
    decrease[decrease <= 1e-12 * n_total] = -np.inf
    f = int(np.argmax(decrease))  # first max: lowest feature
    if decrease[f] == -np.inf:
        return None
    return float(decrease[f]), f, int(k[f])


def train_tree(
    x,
    labels: np.ndarray,
    config: RunConfig = RunConfig(),
    n_labels: int | None = None,
    *,
    codes: np.ndarray | None = None,
) -> DecisionTree:
    """Grow a tree greedily under the global best-first split budget.

    x is a PaddedSource, or an ndarray read as one by as_source, of at most
    _MAX_ROWS rows.  codes are x's (features, rows) uint8 bin codes:
    bin_features(x), or the codes of a larger set binned once and gathered
    at x's rows, as boosting passes them.  Without codes, x is binned here.
    Branch growth stops on purity, on min_leaf (children must keep at least
    min_leaf rows), or when the budget is exhausted.
    """
    source = as_source(x)
    n, n_features = source.shape
    if n > _MAX_ROWS:
        raise DataError(f"cannot train a tree on more than {_MAX_ROWS} samples, got {n}")
    labels = np.asarray(labels, dtype=np.int64).reshape(-1)
    if n == 0:
        raise DataError("cannot train a tree on zero samples")
    if labels.shape[0] != n:
        raise DataError("labels length does not match sample count")
    if not hasattr(x, "column") and not np.all(np.isfinite(x)):  # pads come from finite Volumes
        raise DataError("features must be finite")
    if n_labels is None:
        n_labels = int(labels.max()) + 1
    if labels.min() < 0 or labels.max() >= n_labels:
        raise DataError(f"labels must lie in [0, {n_labels})")
    if codes is None:
        codes = bin_features(source)
    elif codes.shape != (n_features, n) or codes.dtype != np.uint8:
        raise DataError(f"codes must be uint8 of shape ({n_features}, {n})")

    shape = (n_features, n_labels, int(codes.max(initial=0)) + 1)
    label_key = labels * shape[2]

    feature: list[int] = []
    threshold: list[float] = []
    left: list[int] = []
    confidence: list[np.ndarray] = []
    # (-decrease, node_id, f, b, rows, kept cum or None); (-decrease, node_id)
    # is unique, so heapq never compares the arrays.
    heap: list[tuple] = []

    def add_leaf(rows: np.ndarray) -> np.ndarray | None:
        """Append a leaf for rows (ascending); its class counts if it may split."""
        feature.append(LEAF)
        threshold.append(np.nan)
        left.append(LEAF)
        totals = np.bincount(labels[rows], minlength=n_labels)
        confidence.append(totals / rows.size)
        if rows.size < 2 * config.min_leaf or np.count_nonzero(totals > 0) <= 1:
            return None  # too small to split, or pure
        return totals

    def queue(
        node_id: int, rows: np.ndarray, totals: np.ndarray, cum: np.ndarray | None = None
    ) -> None:
        """Queue the best split of node_id from its cumulative counts cum,
        counted here if None, and keep cum if it has fewer cells than rows."""
        if cum is None:
            cum = _cum_counts(codes, label_key, rows, shape)
        found = _best_cut(cum, totals, config.min_leaf)
        if found is not None:
            decrease, f, b = found
            # Equal decreases split the older node first: ids grow with time.
            kept = cum if rows.size > shape[1] * shape[2] else None
            heapq.heappush(heap, (-decrease, node_id, f, b, rows, kept))

    rows = np.arange(n)
    totals = add_leaf(rows)
    if totals is not None:
        queue(0, rows, totals)

    splits_done = 0
    while heap and splits_done < config.max_splits:
        _, node_id, f, b, rows, cum = heapq.heappop(heap)
        go_left = codes[f].take(rows) <= b
        go_right = ~go_left
        values = source.column(f, source.base.take(rows))
        if not np.all(np.isfinite(values)):  # sources skip the scan above
            raise DataError("features must be finite")
        # float64 midpoint of the values around the cut, float32 from volumes
        below, above = float(values.compress(go_left).max()), float(values.compress(go_right).min())
        thr = 0.5 * (below + above)
        if not (below < thr < above):
            thr = below  # adjacent floats: keep the partition exact
        feature[node_id] = f
        threshold[node_id] = float(thr)
        confidence[node_id] = np.full(n_labels, np.nan)  # only leaves vote
        left[node_id] = len(feature)
        kids = rows.compress(go_left), rows.compress(go_right)  # the right child is left + 1
        kid_totals = [add_leaf(r) for r in kids]
        splits_done += 1
        if splits_done == config.max_splits:
            break  # no child of the last split is ever popped, so none is searched
        small = int(kids[1].size < kids[0].size)
        cums = [None, None]
        if cum is not None and kid_totals[1 - small] is not None:
            cums[small] = _cum_counts(codes, label_key, kids[small], shape)
            cums[1 - small] = np.subtract(cum, cums[small], out=cum)  # the larger child's
        for side in (0, 1):
            if kid_totals[side] is not None:
                queue(left[node_id] + side, kids[side], kid_totals[side], cums[side])

    return DecisionTree(
        feature=np.asarray(feature, dtype=np.int32),
        threshold=np.asarray(threshold, dtype=np.float64),
        left=np.asarray(left, dtype=np.int32),
        confidence=np.vstack(confidence),
        n_features=n_features,
        n_labels=n_labels,
    )
