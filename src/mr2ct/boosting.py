"""Boosting with random undersampling over a mislabel distribution.

Rounds run sequentially: resample the training set (weight-proportional
draws with replacement, then random undersampling of the majority class
until the classes balance), train a confidence-rated tree on the
resampled set, score it by the pseudo-loss over (sample, wrong label) pairs,
and reweight the mislabel distribution.  Training needs both classes
present; it finds the minority label once and hands it to every resample.
A resample comes back as ascending row indices: at unit weights a tree's
counts, extremes and confidences do not depend on row order, so its gathers
can read memory forward.

The pseudo-loss here carries a 1/2 normalization so that a random guesser
scores exactly 0.5: eps = 1/2 * sum W(i,t) * [1 - h(x_i, t_i) + h(x_i, t)].
Both the raw and the halved values are recorded per round.  Learners with
eps >= 0.5 are retried with a fresh resample and skipped after
_RETRY_BUDGET retries; eps == 0 is clamped to _EPS_MIN so the vote weight
log(1/alpha) stays finite.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import RunConfig
from .errors import BoostingError, DataError, ModelError
from .labeling import minority_label
from .seeding import derive_seed
from .tree import DecisionTree, as_source, bin_features, train_tree

_RETRY_BUDGET = 3
_EPS_MIN = 1e-10


def init_mislabel(labels: np.ndarray, n_labels: int) -> np.ndarray:
    """Uniform mislabel distribution over S = {(i, t): t != t_i}.

    Returned as an (n, n_labels) matrix whose (i, t_i) entries are zero and
    whose remaining entries each carry 1/|S|.
    """
    labels = np.asarray(labels, dtype=np.int64).reshape(-1)
    n = labels.shape[0]
    if n == 0:
        raise BoostingError("cannot initialise a mislabel distribution on zero samples")
    if n_labels < 2:
        raise BoostingError("need at least two labels")
    w = np.full((n, n_labels), 1.0 / (n * (n_labels - 1)), dtype=np.float64)
    w[np.arange(n), labels] = 0.0
    return w


def pseudo_loss(
    conf: np.ndarray, labels: np.ndarray, mislabel: np.ndarray
) -> tuple[float, float]:
    """(halved, raw) pseudo-loss of a confidence matrix under the mislabel weights.

    conf[i, v] is the learner's confidence h(x_i, v); rows of conf need not
    normalize but every entry must lie in [0, 1].
    """
    conf = np.asarray(conf, dtype=np.float64)
    if np.any(conf < 0) or np.any(conf > 1):
        raise BoostingError("learner confidences must lie in [0, 1]")
    labels = np.asarray(labels, dtype=np.int64).reshape(-1)
    total = float(mislabel.sum())
    if total <= 0:
        raise BoostingError("mislabel weights must have positive sum")
    own = conf[np.arange(labels.shape[0]), labels]
    term = 1.0 - own[:, None] + conf
    # dividing by the realized weight sum keeps the calibration points exact
    # (random guess scores 1 before halving) even when 1/|S| is inexact
    raw = float(np.sum(mislabel * term)) / total
    return 0.5 * raw, raw


def update_mislabel(
    mislabel: np.ndarray, conf: np.ndarray, labels: np.ndarray, alpha: float
) -> np.ndarray:
    """One multiplicative reweighting step; returns W'.

    W'(i,t) is proportional to W(i,t) * alpha^(0.5*[1 + h(x_i,t_i) - h(x_i,t)])
    and normalized to sum 1.  Every factor is at least alpha, so a mislabel
    distribution keeps a total of at least alpha, which training holds at or
    above _EPS_MIN / (1 - _EPS_MIN).  An alpha that underflows every weight
    raises BoostingError.
    """
    if not (0.0 < alpha < 1.0):
        raise BoostingError(f"alpha must lie in (0, 1), got {alpha!r}")
    labels = np.asarray(labels, dtype=np.int64).reshape(-1)
    own = conf[np.arange(labels.shape[0]), labels]
    exponent = 0.5 * (1.0 + own[:, None] - conf)
    updated = mislabel * np.power(alpha, exponent)
    updated[np.arange(labels.shape[0]), labels] = 0.0
    total = updated.sum()
    if total <= 0.0:
        raise BoostingError(f"alpha {alpha!r} underflows every mislabel weight")
    return updated / total


def _weighted_draw(p: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """rng.choice(p.size, size=p.size, p=p), from the same cdf and uniforms.

    Generator.choice searches its cdf for each uniform in drawn order; the
    uniforms are searched here in ascending order, which reads the cdf
    forward, and the results go back to drawn order.  The generator consumes
    exactly what choice consumes, so its later draws are unchanged.
    """
    cdf = p.cumsum()
    cdf /= cdf[-1]
    u = rng.random(p.size)
    order = u.argsort()
    draw = np.empty(p.size, dtype=np.int64)
    draw[order] = cdf.searchsorted(u.take(order), side="right")
    return draw


def rus_resample(
    labels: np.ndarray, selection_weights: np.ndarray, seed: int, minority: int
) -> np.ndarray:
    """Weight-proportional draw of n rows from n with replacement, then
    majority undersampling until the classes balance.

    minority is the minority label of labels, which the caller computes once
    with labeling.minority_label; labels must hold at least two classes.
    Returns ascending row indices into the input, repeats included; the
    drawn rows carry equal weight.  Majority draws, in drawn order, are
    removed uniformly at random until they number no more than the minority
    draws.
    """
    labels = np.asarray(labels, dtype=np.int64).reshape(-1)
    weights = np.asarray(selection_weights, dtype=np.float64).reshape(-1)
    total = weights.sum()
    if weights.shape != labels.shape or np.any(weights < 0) or total <= 0:
        raise BoostingError("selection weights must be non-negative with positive sum")
    p = weights / total
    rng = np.random.default_rng(seed)
    for _ in range(10):
        draw = _weighted_draw(p, rng)
        is_minority = labels.take(draw) == minority
        if is_minority.any():
            break
    else:
        raise BoostingError("drew no minority samples in 10 attempts")
    n_min = int(np.count_nonzero(is_minority))
    majority_pos = np.flatnonzero(~is_minority)
    if majority_pos.size > n_min:
        drop = rng.permutation(majority_pos)[: majority_pos.size - n_min]
        keep = np.ones(draw.size, dtype=bool)
        keep[drop] = False
        draw = draw.compress(keep)
    draw.sort()
    return draw


@dataclass(frozen=True)
class Learner:
    tree: DecisionTree
    alpha: float


@dataclass
class BoostRound:
    index: int
    eps: float | None
    eps_raw: float | None
    alpha: float | None
    retries: int
    skipped: bool
    resample_size: int
    train_error: float | None  # of the learners retained so far; None before the first


@dataclass(frozen=True)
class BoostedEnsemble:
    """Confidence-rated trees with vote weights log(1/alpha)."""

    learners: tuple[Learner, ...]
    n_labels: int
    n_features: int
    rounds: tuple[BoostRound, ...] = ()  # training diagnostics; bundles omit them

    def __post_init__(self):
        if not self.learners:
            raise BoostingError("an ensemble needs at least one retained learner")
        # alpha > 1 would invert a learner's vote, and NaN erases every vote.
        if not all(0.0 < lr.alpha <= 1.0 for lr in self.learners):
            raise ModelError("learner alphas must lie in (0, 1]")
        if any(lr.tree.n_labels != self.n_labels for lr in self.learners):
            raise ModelError(f"every tree must vote over the ensemble's {self.n_labels} labels")

    @property
    def n_learners(self) -> int:
        return len(self.learners)

    def scores(self, x, n_learners: int | None = None) -> np.ndarray:
        """(n, n_labels) weighted vote scores sum_j h_j(x, v) log(1/alpha_j).

        x is a PaddedSource, or an ndarray that tree.as_source reads once as
        one with a channel per column; every tree reads that same source.
        n_learners restricts the vote to the first learners, which is how
        training curves over ensemble size are evaluated.
        """
        source = as_source(x)
        n, n_features = source.shape
        if n_features != self.n_features:
            raise ModelError(
                f"feature vector length {n_features} does not match ensemble "
                f"({self.n_features})"
            )
        use = self.learners if n_learners is None else self.learners[:n_learners]
        total = np.zeros((n, self.n_labels))
        for lr in use:
            # Per-leaf products, gathered: the values of confidence_matrix * log(1/alpha).
            vote = lr.tree.confidence * np.log(1.0 / lr.alpha)
            total += vote.take(lr.tree.leaf_index(source), axis=0)
        return total

    def predict(self, x, n_learners: int | None = None) -> np.ndarray:
        """Argmax vote labels; exact ties resolve to the lowest label."""
        return np.argmax(self.scores(x, n_learners), axis=1)

    def to_dict(self) -> dict:
        return {
            "n_labels": self.n_labels,
            "n_features": self.n_features,
            "learners": [
                {"alpha": lr.alpha, "tree": lr.tree.to_dict()} for lr in self.learners
            ],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "BoostedEnsemble":
        n_labels, n_features = int(d["n_labels"]), int(d["n_features"])
        learners = tuple(
            Learner(tree=DecisionTree.from_dict(entry["tree"], n_features, n_labels),
                    alpha=float(entry["alpha"]))
            for entry in d["learners"]
        )
        return cls(learners=learners, n_labels=n_labels, n_features=n_features)


def train_rusboost(
    x,
    labels: np.ndarray,
    config: RunConfig = RunConfig(),
    seed: int = 0,
    n_labels: int | None = None,
) -> BoostedEnsemble:
    """Run config.trees boosting rounds and return the retained learners.

    x is a PaddedSource, or an ndarray read as one with a channel per
    column.  It is binned once here, and every round's tree trains on its
    resample's rows and codes, in ascending row order, at unit weights.
    Each round records the training error of the learners retained so far,
    from the running vote over the full set that the pseudo-losses already
    route.
    """
    source = as_source(x)
    labels = np.asarray(labels, dtype=np.int64).reshape(-1)
    if source.shape[0] != labels.shape[0]:
        raise DataError(f"{source.shape[0]} feature rows for {labels.shape[0]} labels")
    if n_labels is None:
        n_labels = int(labels.max()) + 1
    if labels.min(initial=0) < 0 or labels.max(initial=0) >= n_labels:  # empty: the class check
        raise DataError(f"labels must lie in [0, {n_labels})")
    if np.count_nonzero(np.bincount(labels)) < 2:
        raise BoostingError("boosting needs both classes present in the training set")
    minority = minority_label(labels)
    codes = bin_features(source)
    mislabel = init_mislabel(labels, n_labels)
    learners: list[Learner] = []
    rounds: list[BoostRound] = []
    votes = np.zeros((labels.shape[0], n_labels))
    train_error = None
    for j in range(config.trees):
        selection = mislabel.sum(axis=1)
        for attempt in range(_RETRY_BUDGET + 1):
            idx = rus_resample(labels, selection, derive_seed(seed, j, attempt), minority)
            tree = train_tree(
                source.rows(idx),
                labels.take(idx),
                config=config,
                n_labels=n_labels,
                codes=np.take(codes, idx, axis=1),
            )
            conf = tree.confidence_matrix(source)
            eps, eps_raw = pseudo_loss(conf, labels, mislabel)
            if eps < 0.5:
                eps = max(eps, _EPS_MIN)
                alpha = eps / (1.0 - eps)
                mislabel = update_mislabel(mislabel, conf, labels, alpha)
                learners.append(Learner(tree=tree, alpha=alpha))
                # The same sum, in the same order, as BoostedEnsemble.scores.
                votes += conf * np.log(1.0 / alpha)
                train_error = float(np.mean(np.argmax(votes, axis=1) != labels))
                break
        else:  # every attempt failed: the round is skipped and records no loss
            attempt, eps, eps_raw, alpha = _RETRY_BUDGET + 1, None, None, None
        rounds.append(
            BoostRound(
                index=j, eps=eps, eps_raw=eps_raw, alpha=alpha,
                retries=attempt, skipped=alpha is None,
                resample_size=idx.shape[0], train_error=train_error,
            )
        )
    if not learners:
        raise BoostingError("no learner reached pseudo-loss < 0.5 in any round")
    return BoostedEnsemble(
        learners=tuple(learners),
        n_labels=n_labels,
        n_features=source.shape[1],
        rounds=tuple(rounds),
    )
