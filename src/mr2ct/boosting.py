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

from dataclasses import asdict, dataclass

import numpy as np

from .errors import BoostingError, ModelError
from .labeling import minority_label
from .seeding import derive_seed
from .tree import DecisionTree, TreeConfig, train_tree

FORMAT_VERSION = 2
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
) -> tuple[np.ndarray, bool]:
    """One multiplicative reweighting step; returns (W', underflow_flag).

    W'(i,t) is proportional to W(i,t) * alpha^(0.5*[1 + h(x_i,t_i) - h(x_i,t)])
    and normalized to sum 1.  If every weight underflows to zero the
    distribution is rebalanced to uniform and flagged.
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
        n, k = mislabel.shape
        return init_mislabel(labels, k), True
    return updated / total, False


def rus_resample(
    labels: np.ndarray,
    selection_weights: np.ndarray,
    target_ratio: float,
    seed: int,
    n_draw: int | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Weight-proportional draw with replacement, then majority undersampling.

    Returns (row indices into the input, uniform weights over the draw).
    target_ratio is the minority:majority count ratio after undersampling;
    1.0 balances the classes.  Majority draws are removed uniformly at
    random until the ratio is met (never below it).
    """
    labels = np.asarray(labels, dtype=np.int64).reshape(-1)
    if target_ratio <= 0:
        raise BoostingError(f"target_ratio must be > 0, got {target_ratio!r}")
    if np.unique(labels).size < 2:
        raise BoostingError("undersampling needs at least two classes present")
    minority = minority_label(labels)
    weights = np.asarray(selection_weights, dtype=np.float64).reshape(-1)
    if weights.shape != labels.shape or np.any(weights < 0) or weights.sum() <= 0:
        raise BoostingError("selection weights must be non-negative with positive sum")
    p = weights / weights.sum()
    rng = np.random.default_rng(seed)
    size = labels.shape[0] if n_draw is None else int(n_draw)
    for _ in range(10):
        draw = rng.choice(labels.shape[0], size=size, replace=True, p=p)
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
    return draw, np.full(draw.shape[0], 1.0 / draw.shape[0])


@dataclass(frozen=True)
class BoostConfig:
    n_learners: int = 150
    target_ratio: float = 1.0

    def __post_init__(self):
        if self.n_learners < 1:
            raise ValueError("n_learners must be >= 1")
        if self.target_ratio <= 0:
            raise ValueError("target_ratio must be > 0")


@dataclass(frozen=True)
class Learner:
    tree: DecisionTree
    eps: float
    eps_raw: float
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
    underflow: bool


@dataclass(frozen=True)
class BoostedEnsemble:
    """Confidence-rated trees with vote weights log(1/alpha)."""

    learners: tuple[Learner, ...]
    n_labels: int
    n_features: int
    boost_config: BoostConfig
    tree_config: TreeConfig
    rounds: tuple[BoostRound, ...] = ()
    layout: dict | None = None

    def __post_init__(self):
        if not self.learners:
            raise BoostingError("an ensemble needs at least one retained learner")

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
            "format_version": FORMAT_VERSION,
            "n_labels": self.n_labels,
            "n_features": self.n_features,
            "boost_config": asdict(self.boost_config),
            "tree_config": asdict(self.tree_config),
            "layout": self.layout,
            "rounds": [asdict(r) for r in self.rounds],
            "learners": [
                {
                    "eps": lr.eps,
                    "eps_raw": lr.eps_raw,
                    "alpha": lr.alpha,
                    "tree": lr.tree.to_dict(),
                }
                for lr in self.learners
            ],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "BoostedEnsemble":
        if int(d.get("format_version", -1)) != FORMAT_VERSION:
            raise ModelError(
                f"unsupported ensemble format version {d.get('format_version')!r}"
            )
        learners = tuple(
            Learner(
                tree=DecisionTree.from_dict(entry["tree"]),
                eps=float(entry["eps"]),
                eps_raw=float(entry["eps_raw"]),
                alpha=float(entry["alpha"]),
            )
            for entry in d["learners"]
        )
        rounds = tuple(BoostRound(**r) for r in d.get("rounds", []))
        return cls(
            learners=learners,
            n_labels=int(d["n_labels"]),
            n_features=int(d["n_features"]),
            boost_config=BoostConfig(**d["boost_config"]),
            tree_config=TreeConfig(**d["tree_config"]),
            rounds=rounds,
            layout=d.get("layout"),
        )


def train_rusboost(
    x: np.ndarray,
    labels: np.ndarray,
    tree_config: TreeConfig = TreeConfig(),
    boost_config: BoostConfig = BoostConfig(),
    seed: int = 0,
    n_labels: int | None = None,
    layout: dict | None = None,
) -> BoostedEnsemble:
    """Run the full boosting loop and return the retained learners."""
    # Column-major once, so scoring each round's tree on x copies nothing.
    x = np.asfortranarray(np.atleast_2d(np.asarray(x, dtype=np.float64)))
    labels = np.asarray(labels, dtype=np.int64).reshape(-1)
    if n_labels is None:
        n_labels = int(labels.max()) + 1
    present = np.unique(labels)
    if present.size < 2:
        raise BoostingError("boosting needs both classes present in the training set")
    mislabel = init_mislabel(labels, n_labels)
    learners: list[Learner] = []
    rounds: list[BoostRound] = []
    for j in range(boost_config.n_learners):
        selection = mislabel.sum(axis=1)
        chosen: tuple[DecisionTree, np.ndarray, float, float] | None = None
        retries = 0
        resample_size = 0
        for attempt in range(_RETRY_BUDGET + 1):
            idx, w = rus_resample(
                labels,
                selection,
                boost_config.target_ratio,
                seed=derive_seed(seed, j, attempt),
            )
            resample_size = idx.shape[0]
            # Gathered along x.T's contiguous rows, the resample comes out
            # column-major, which is what train_tree transposes to anyway;
            # x[idx] on a column-major x is several times slower.
            tree = train_tree(
                np.take(x.T, idx, axis=1).T,
                labels[idx],
                weights=w,
                config=tree_config,
                n_labels=n_labels,
            )
            conf = tree.confidence_matrix(x)
            eps, eps_raw = pseudo_loss(conf, labels, mislabel)
            if eps < 0.5:
                chosen = (tree, conf, eps, eps_raw)
                break
            retries += 1
        if chosen is None:
            rounds.append(
                BoostRound(
                    index=j, eps=None, eps_raw=None, alpha=None,
                    retries=retries, skipped=True,
                    resample_size=resample_size, underflow=False,
                )
            )
            continue
        tree, conf, eps, eps_raw = chosen
        eps = max(eps, _EPS_MIN)
        alpha = eps / (1.0 - eps)
        mislabel, underflow = update_mislabel(mislabel, conf, labels, alpha)
        learners.append(Learner(tree=tree, eps=eps, eps_raw=eps_raw, alpha=alpha))
        rounds.append(
            BoostRound(
                index=j, eps=eps, eps_raw=eps_raw, alpha=alpha,
                retries=retries, skipped=False,
                resample_size=resample_size, underflow=underflow,
            )
        )
    if not learners:
        raise BoostingError("no learner reached pseudo-loss < 0.5 in any round")
    return BoostedEnsemble(
        learners=tuple(learners),
        n_labels=n_labels,
        n_features=x.shape[1],
        boost_config=boost_config,
        tree_config=tree_config,
        rounds=tuple(rounds),
        layout=layout,
    )
