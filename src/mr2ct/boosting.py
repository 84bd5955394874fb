"""Boosting with random undersampling over a mislabel distribution.

Rounds run sequentially: resample the training set (weight-proportional
draws with replacement, then random undersampling of the majority class to
the target minority:majority ratio), train a confidence-rated tree on the
resampled set, score it by the pseudo-loss over (sample, wrong label) pairs,
and reweight the mislabel distribution.

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
from .errors import BoostingError, ModelError
from .labeling import minority_label
from .seeding import derive_seed
from .tree import DecisionTree, bin_features, take_rows, train_tree

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


def rus_resample(
    labels: np.ndarray,
    selection_weights: np.ndarray,
    target_ratio: float,
    seed: int,
) -> np.ndarray:
    """Weight-proportional draw of n rows from n with replacement, then
    majority undersampling.

    Returns row indices into the input; the drawn rows carry equal weight.
    target_ratio is the minority:majority count ratio after undersampling;
    1.0 balances the classes.  Majority draws are removed uniformly at
    random until the ratio is met (never below it).
    """
    labels = np.asarray(labels, dtype=np.int64).reshape(-1)
    if not target_ratio > 0:
        raise BoostingError(f"target_ratio must be > 0, got {target_ratio!r}")
    if np.unique(labels).size < 2:
        raise BoostingError("undersampling needs at least two classes present")
    minority = minority_label(labels)
    weights = np.asarray(selection_weights, dtype=np.float64).reshape(-1)
    if weights.shape != labels.shape or np.any(weights < 0) or weights.sum() <= 0:
        raise BoostingError("selection weights must be non-negative with positive sum")
    p = weights / weights.sum()
    rng = np.random.default_rng(seed)
    size = labels.shape[0]
    for _ in range(10):
        draw = rng.choice(size, size=size, replace=True, p=p)
        if np.any(labels[draw] == minority):
            break
    else:
        raise BoostingError("drew no minority samples in 10 attempts")
    is_minority = labels[draw] == minority
    n_min = int(is_minority.sum())
    majority_target = max(1, int(round(n_min / target_ratio)))
    majority_pos = np.flatnonzero(~is_minority)
    if majority_pos.size > majority_target:
        drop = rng.permutation(majority_pos)[: majority_pos.size - majority_target]
        keep = np.ones(size, dtype=bool)
        keep[drop] = False
        draw = draw[keep]
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

    def scores(self, x: np.ndarray, n_learners: int | None = None) -> np.ndarray:
        """(n, n_labels) weighted vote scores sum_j h_j(x, v) log(1/alpha_j).

        n_learners restricts the vote to the first learners, which is how
        training curves over ensemble size are evaluated.
        """
        # Column-major once here, not once per tree in leaf_index.
        x = np.asfortranarray(np.atleast_2d(np.asarray(x, dtype=np.float64)))
        if x.shape[1] != self.n_features:
            raise ModelError(
                f"feature vector length {x.shape[1]} does not match ensemble "
                f"({self.n_features})"
            )
        use = self.learners if n_learners is None else self.learners[:n_learners]
        total = np.zeros((x.shape[0], self.n_labels))
        for lr in use:
            total += lr.tree.confidence_matrix(x) * np.log(1.0 / lr.alpha)
        return total

    def predict(self, x: np.ndarray, n_learners: int | None = None) -> np.ndarray:
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
    x: np.ndarray,
    labels: np.ndarray,
    config: RunConfig = RunConfig(),
    seed: int = 0,
    n_labels: int | None = None,
) -> BoostedEnsemble:
    """Run config.trees boosting rounds and return the retained learners.

    The features are binned once here, and every round's tree trains on its
    resample's codes at unit weights.  Each round records the training error
    of the learners retained so far, from the running vote over the full set
    that the pseudo-losses already route.
    """
    # Column-major once, so scoring each round's tree on x copies nothing.
    x = np.asfortranarray(np.atleast_2d(np.asarray(x, dtype=np.float64)))
    labels = np.asarray(labels, dtype=np.int64).reshape(-1)
    if n_labels is None:
        n_labels = int(labels.max()) + 1
    present = np.unique(labels)
    if present.size < 2:
        raise BoostingError("boosting needs both classes present in the training set")
    codes = bin_features(x)
    mislabel = init_mislabel(labels, n_labels)
    learners: list[Learner] = []
    rounds: list[BoostRound] = []
    votes = np.zeros((x.shape[0], n_labels))
    train_error = None
    for j in range(config.trees):
        selection = mislabel.sum(axis=1)
        chosen: tuple[DecisionTree, np.ndarray, float, float] | None = None
        retries = 0
        resample_size = 0
        for attempt in range(_RETRY_BUDGET + 1):
            idx = rus_resample(
                labels, selection, config.rus_ratio, seed=derive_seed(seed, j, attempt)
            )
            resample_size = idx.shape[0]
            tree = train_tree(
                take_rows(x, idx),
                labels[idx],
                config=config,
                n_labels=n_labels,
                codes=np.take(codes, idx, axis=1),
            )
            conf = tree.confidence_matrix(x)
            eps, eps_raw = pseudo_loss(conf, labels, mislabel)
            if eps < 0.5:
                chosen = (tree, conf, eps, eps_raw)
                break
            retries += 1
        eps = eps_raw = alpha = None  # a skipped round records none of them
        if chosen is not None:
            tree, conf, eps, eps_raw = chosen
            eps = max(eps, _EPS_MIN)
            alpha = eps / (1.0 - eps)
            mislabel = update_mislabel(mislabel, conf, labels, alpha)
            learners.append(Learner(tree=tree, alpha=alpha))
            # The same sum, in the same order, as BoostedEnsemble.scores.
            votes += conf * np.log(1.0 / alpha)
            train_error = float(np.mean(np.argmax(votes, axis=1) != labels))
        rounds.append(
            BoostRound(
                index=j, eps=eps, eps_raw=eps_raw, alpha=alpha,
                retries=retries, skipped=chosen is None,
                resample_size=resample_size, train_error=train_error,
            )
        )
    if not learners:
        raise BoostingError("no learner reached pseudo-loss < 0.5 in any round")
    return BoostedEnsemble(
        learners=tuple(learners),
        n_labels=n_labels,
        n_features=x.shape[1],
        rounds=tuple(rounds),
    )
