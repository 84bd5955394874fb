"""Gaussian mixtures over joint (target, feature) vectors.

Each tissue class gets its own mixture over vectors v = (y, x_1 .. x_d) with
the target in position 0.  The module provides stable log-density evaluation,
EM fitting with seeded restarts, two-stage model-order selection, and the
conditional regression E[y | x] used for prediction:

    beta_j(x) = pi_j N(x; mu_j_x, S_j_xx) / sum_l pi_l N(x; mu_l_x, S_l_xx)
    E[y | x]  = sum_j beta_j(x) * (mu_j_y + S_j_yx S_j_xx^-1 (x - mu_j_x))

All component posteriors are computed with log-sum-exp, and every Gaussian
log-density comes from one kernel, _log_gaussians, over Cholesky factors.
EM regularizes covariances by adding ridge eps = _RIDGE_SCALE * trace(S) / dim
to the diagonal whenever the smallest eigenvalue falls below eps, and drops
components whose weight falls below _DROP_WEIGHT.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Sequence

import numpy as np
from scipy.linalg import solve_triangular

from .errors import FitError, ModelError, SelectionError
from .seeding import derive_seed

_LOG_2PI = float(np.log(2.0 * np.pi))
_RIDGE_SCALE = 1e-6
_DROP_WEIGHT = 1e-8


@dataclass(frozen=True)
class MixtureModel:
    """One tissue class's mixture: weights (J,), means (J, dim), covariances (J, dim, dim).

    Weights are non-negative and sum to one; covariances are symmetric and
    positive definite (checked at construction, which keeps their lower
    Cholesky factors in chols).
    """

    weights: np.ndarray
    means: np.ndarray
    covariances: np.ndarray
    chols: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=np.float64).reshape(-1)
        mu = np.atleast_2d(np.asarray(self.means, dtype=np.float64))
        cov = np.asarray(self.covariances, dtype=np.float64)
        if cov.ndim == 2:
            cov = cov[None, :, :]
        j, dim = mu.shape
        if j < 1:
            raise ModelError("mixture needs at least one component")
        if w.shape != (j,) or cov.shape != (j, dim, dim):
            raise ModelError(
                f"inconsistent mixture shapes: weights {w.shape}, means {mu.shape}, "
                f"covariances {cov.shape}"
            )
        if np.any(w < 0):
            raise ModelError("mixture weights must be non-negative")
        total = w.sum()
        if not np.isclose(total, 1.0, rtol=0, atol=1e-9):
            raise ModelError(f"mixture weights must sum to 1, got {total!r}")
        w = w / total
        if not np.allclose(cov, np.swapaxes(cov, 1, 2), rtol=0, atol=1e-8):
            raise ModelError("covariances must be symmetric")
        cov = 0.5 * (cov + np.swapaxes(cov, 1, 2))
        try:
            chols = np.linalg.cholesky(cov)
        except np.linalg.LinAlgError as exc:
            raise ModelError("covariances must be positive definite") from exc
        for arr in (w, mu, cov, chols):
            arr.flags.writeable = False
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "means", mu)
        object.__setattr__(self, "covariances", cov)
        object.__setattr__(self, "chols", chols)

    @property
    def n_components(self) -> int:
        return self.weights.shape[0]

    @property
    def dim(self) -> int:
        return self.means.shape[1]

    def mean(self) -> np.ndarray:
        """Mixture mean sum_j pi_j mu_j."""
        return self.weights @ self.means

    def covariance(self) -> np.ndarray:
        """Mixture covariance sum_j pi_j (S_j + mu_j mu_j^T) - m m^T."""
        m = self.mean()
        second = np.einsum("j,jab->ab", self.weights, self.covariances)
        second += np.einsum("j,ja,jb->ab", self.weights, self.means, self.means)
        return second - np.outer(m, m)

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """n joint draws; component per draw chosen by the weights."""
        comp = rng.choice(self.n_components, size=n, p=self.weights)
        z = rng.standard_normal((n, self.dim))
        return self.means[comp] + np.einsum("nab,nb->na", self.chols[comp], z)


def _log_gaussians(v: np.ndarray, means: np.ndarray, chols: np.ndarray) -> np.ndarray:
    """(n, J) matrix of log N(v_i; mu_j, L_j L_j^T) for rows v (n, dim),
    means (J, dim) and lower Cholesky factors chols (J, dim, dim)."""
    n, dim = v.shape
    out = np.empty((n, means.shape[0]), dtype=np.float64)
    for j, chol in enumerate(chols):
        sol = solve_triangular(chol, (v - means[j]).T, lower=True)
        logdet = 2.0 * np.log(np.diag(chol)).sum()
        out[:, j] = -0.5 * (dim * _LOG_2PI + logdet + np.einsum("dn,dn->n", sol, sol))
    return out


def _logsumexp(a: np.ndarray, axis: int = -1) -> np.ndarray:
    amax = np.max(a, axis=axis, keepdims=True)
    amax = np.where(np.isfinite(amax), amax, 0.0)
    out = np.log(np.sum(np.exp(a - amax), axis=axis)) + np.squeeze(amax, axis=axis)
    return out


def log_density(model: MixtureModel, v: np.ndarray) -> float | np.ndarray:
    """log sum_j pi_j N(v; mu_j, S_j), stable via log-sum-exp.

    Accepts a single vector of length dim or a matrix (n, dim).
    """
    v = np.asarray(v, dtype=np.float64)
    single = v.ndim == 1
    v = np.atleast_2d(v)
    if v.shape[1] != model.dim:
        raise ModelError(f"vector length {v.shape[1]} does not match model dim {model.dim}")
    logp = _log_gaussians(v, model.means, model.chols) + np.log(model.weights)
    out = _logsumexp(logp, axis=1)
    return float(out[0]) if single else out


def conditional_expectation_many(
    model: MixtureModel, x: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """(y_hat, betas) for a matrix of feature vectors x with shape (n, d)."""
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    if model.dim < 2:
        raise ModelError("conditional regression needs dim >= 2 (a target and features)")
    j, d = model.n_components, model.dim - 1
    if x.shape[1] != d:
        raise ModelError(f"feature length {x.shape[1]} does not match model ({d})")
    if not np.all(np.isfinite(x)):
        raise ModelError("feature vectors must be finite")
    try:
        chol_xx = np.linalg.cholesky(model.covariances[:, 1:, 1:])
    except np.linalg.LinAlgError as exc:
        raise ModelError("feature covariance S_xx singular") from exc
    slope = np.empty((j, d))     # rows of S_yx S_xx^-1
    intercept = np.empty(j)      # mu_y - slope . mu_x
    for i in range(j):
        half = solve_triangular(chol_xx[i], model.covariances[i, 0, 1:], lower=True)
        slope[i] = solve_triangular(chol_xx[i].T, half, lower=False)
        intercept[i] = model.means[i, 0] - slope[i] @ model.means[i, 1:]
    logw = _log_gaussians(x, model.means[:, 1:], chol_xx) + np.log(model.weights)
    logw -= _logsumexp(logw, axis=1)[:, None]
    betas = np.exp(logw)
    comp_means = x @ slope.T + intercept
    y_hat = np.einsum("nj,nj->n", betas, comp_means)
    return y_hat, betas


def conditional_expectation(model: MixtureModel, x: np.ndarray) -> tuple[float, np.ndarray]:
    """Point estimate E[y | x] and the component posteriors beta for one x."""
    y, betas = conditional_expectation_many(model, np.atleast_2d(x))
    return float(y[0]), betas[0]


@dataclass(frozen=True)
class EmConfig:
    """EM fitting knobs.

    Convergence stops when the log-likelihood improves by less than rel_tol
    relative to its magnitude, or after max_iter iterations; both are
    recorded in the fit report.
    """

    max_iter: int = 500
    rel_tol: float = 1e-6
    n_restarts: int = 5

    def __post_init__(self):
        if self.max_iter < 1 or self.n_restarts < 1:
            raise ValueError("max_iter and n_restarts must be >= 1")
        if self.rel_tol <= 0:
            raise ValueError("rel_tol must be > 0")


@dataclass
class EmFitReport:
    n_requested: int
    n_components: int
    log_likelihood: list[float]
    restart_scores: list[float]
    best_restart: int
    n_iter: int
    converged: bool
    degenerate: bool

    def to_dict(self) -> dict:
        return {
            "n_requested": self.n_requested,
            "n_components": self.n_components,
            "final_log_likelihood": self.log_likelihood[-1] if self.log_likelihood else None,
            "restart_scores": self.restart_scores,
            "best_restart": self.best_restart,
            "n_iter": self.n_iter,
            "converged": self.converged,
            "degenerate": self.degenerate,
        }


def _kmeanspp_means(v: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    n = v.shape[0]
    chosen = [int(rng.integers(n))]
    d2 = np.sum((v - v[chosen[0]]) ** 2, axis=1)
    for _ in range(1, k):
        total = d2.sum()
        if total <= 0:
            chosen.append(int(rng.integers(n)))
        else:
            chosen.append(int(rng.choice(n, p=d2 / total)))
        d2 = np.minimum(d2, np.sum((v - v[chosen[-1]]) ** 2, axis=1))
    return v[chosen].copy()


def _regularize(cov: np.ndarray) -> np.ndarray | None:
    """Symmetrize and ridge a covariance; None if it stays singular."""
    cov = 0.5 * (cov + cov.T)
    dim = cov.shape[0]
    eps = _RIDGE_SCALE * np.trace(cov) / dim
    if eps > 0:
        smallest = np.linalg.eigvalsh(cov)[0]
        if smallest < eps:
            cov = cov + eps * np.eye(dim)
    try:
        np.linalg.cholesky(cov)
    except np.linalg.LinAlgError:
        return None
    return cov


def _em_once(
    v: np.ndarray, n_components: int, config: EmConfig, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray, np.ndarray, list[float], bool, bool]:
    n, dim = v.shape
    means = _kmeanspp_means(v, n_components, rng)
    pooled = np.cov(v, rowvar=False, bias=True).reshape(dim, dim)
    pooled = _regularize(pooled)
    if pooled is None:
        raise FitError("samples are degenerate: pooled covariance is singular")
    covs = np.repeat(pooled[None, :, :], n_components, axis=0)
    weights = np.full(n_components, 1.0 / n_components)

    history: list[float] = []
    degenerate = False
    converged = False
    prev_ll = -np.inf
    for _ in range(config.max_iter):
        logp = _log_gaussians(v, means, np.linalg.cholesky(covs)) + np.log(weights)
        lse = _logsumexp(logp, axis=1)
        ll = float(lse.sum())
        history.append(ll)
        if ll - prev_ll < config.rel_tol * max(1.0, abs(prev_ll)) and len(history) > 1:
            converged = True
            break
        prev_ll = ll

        resp = np.exp(logp - lse[:, None])
        bulk = resp.sum(axis=0)
        new_weights = bulk / n
        new_means = (resp.T @ v) / bulk[:, None]
        keep: list[int] = []
        new_covs = np.empty_like(covs[: len(bulk)])
        for j in range(len(bulk)):
            if new_weights[j] < _DROP_WEIGHT:
                degenerate = True
                continue
            diff = v - new_means[j]
            cov = (resp[:, j][:, None] * diff).T @ diff / bulk[j]
            cov = _regularize(cov)
            if cov is None:
                degenerate = True
                continue
            new_covs[j] = cov
            keep.append(j)
        if not keep:
            raise FitError("all mixture components collapsed during EM")
        weights = new_weights[keep] / new_weights[keep].sum()
        means = new_means[keep]
        covs = new_covs[keep]
    return weights, means, covs, history, converged, degenerate


def _training_mse(weights, means, covs, v) -> float:
    model = MixtureModel(weights=weights, means=means, covariances=covs)
    try:
        y_hat, _ = conditional_expectation_many(model, v[:, 1:])
    except ModelError:
        return float("inf")
    return float(np.mean((v[:, 0] - y_hat) ** 2))


def em_fit(
    samples: np.ndarray,
    n_components: int,
    config: EmConfig = EmConfig(),
    seed: int = 0,
) -> tuple[MixtureModel, EmFitReport]:
    """Fit a mixture to joint (y, x) rows by EM with seeded restarts.

    Runs config.n_restarts independent EM runs and keeps the restart whose
    conditional prediction of y from x has the smallest training mean squared
    error.  The kept run's log-likelihood history is monotone up to the
    convergence tolerance.  Components whose weight collapses or whose
    covariance stays singular after ridging are dropped and the fit is
    flagged degenerate rather than aborted.
    """
    v = np.atleast_2d(np.asarray(samples, dtype=np.float64))
    n, dim = v.shape
    if n_components < 1:
        raise FitError(f"component count must be >= 1, got {n_components}")
    if dim < 2:
        raise FitError("joint samples need a target and at least one feature column")
    if n < n_components * dim:
        raise FitError(
            f"too few samples: {n} rows for {n_components} components of dim {dim} "
            f"(need >= {n_components * dim})"
        )
    runs: list[tuple | None] = []
    scores: list[float] = []
    failures: list[str] = []
    for r in range(config.n_restarts):
        rng = np.random.default_rng(derive_seed(seed, r))
        try:
            run = _em_once(v, n_components, config, rng)
        except FitError as exc:
            runs.append(None)
            scores.append(float("inf"))
            failures.append(f"restart {r}: {exc}")
            continue
        runs.append(run)
        scores.append(_training_mse(run[0], run[1], run[2], v))
    if all(run is None for run in runs):
        raise FitError("every EM restart failed: " + "; ".join(failures))
    best = int(np.argmin(scores))
    weights, means, covs, history, converged, degenerate = runs[best]
    model = MixtureModel(weights=weights, means=means, covariances=covs)
    report = EmFitReport(
        n_requested=n_components,
        n_components=model.n_components,
        log_likelihood=history,
        restart_scores=[float(s) for s in scores],
        best_restart=best,
        n_iter=len(history),
        converged=converged,
        degenerate=degenerate or model.n_components < n_components,
    )
    return model, report


@dataclass
class SelectionReport:
    candidates: list[int]
    scores: list[float]
    criterion: str
    chosen: int
    fit_reports: list[EmFitReport | None]
    errors: list[str | None]

    def to_dict(self) -> dict:
        fits = [r.to_dict() if r else None for r in self.fit_reports]
        return {**asdict(self), "fit_reports": fits}


def select_model(
    samples_train: np.ndarray,
    samples_val: np.ndarray,
    j_candidates: Sequence[int],
    config: EmConfig = EmConfig(),
    seed: int = 0,
    criterion: str = "mse",
) -> tuple[MixtureModel, int, SelectionReport]:
    """Fit every candidate component count and keep the best validation score.

    Candidates are fitted on the training split with em_fit (restarts decided
    by training MSE) and scored on the validation split by the conditional
    prediction error of y given x, mean squared or mean absolute per
    ``criterion``.  Returns the winning model, its component count, and the
    per-candidate score report.
    """
    if criterion not in ("mse", "mae"):
        raise ValueError(f"criterion must be 'mse' or 'mae', got {criterion!r}")
    candidates = [int(j) for j in j_candidates]
    if not candidates:
        raise SelectionError("candidate list is empty")
    val = np.atleast_2d(np.asarray(samples_val, dtype=np.float64))
    if val.shape[0] == 0:
        raise SelectionError("validation set is empty")
    models: list[MixtureModel | None] = []
    reports: list[EmFitReport | None] = []
    errors: list[str | None] = []
    scores: list[float] = []
    for i, j in enumerate(candidates):
        try:
            model, rep = em_fit(samples_train, j, config=config, seed=derive_seed(seed, i))
            y_hat, _ = conditional_expectation_many(model, val[:, 1:])
            resid = val[:, 0] - y_hat
            score = float(np.mean(resid**2) if criterion == "mse" else np.mean(np.abs(resid)))
            models.append(model)
            reports.append(rep)
            errors.append(None)
            scores.append(score)
        except (FitError, ModelError) as exc:
            models.append(None)
            reports.append(None)
            errors.append(str(exc))
            scores.append(float("nan"))
    if all(m is None for m in models):
        raise SelectionError(
            "every candidate failed to fit: " + "; ".join(e or "" for e in errors)
        )
    finite = [s if m is not None else float("inf") for s, m in zip(scores, models)]
    best = int(np.argmin(finite))
    report = SelectionReport(
        candidates=candidates,
        scores=scores,
        criterion=criterion,
        chosen=candidates[best],
        fit_reports=reports,
        errors=errors,
    )
    return models[best], candidates[best], report


@dataclass(frozen=True)
class TissueGMM:
    """Per-class mixtures, indexed by tissue label."""

    models: tuple[MixtureModel, ...]

    def __post_init__(self):
        models = tuple(self.models)
        if not models:
            raise ModelError("need at least one class model")
        dim = models[0].dim
        if any(m.dim != dim for m in models):
            raise ModelError("all class models must share the same dimension")
        object.__setattr__(self, "models", models)

    @property
    def n_classes(self) -> int:
        return len(self.models)

    @property
    def dim(self) -> int:
        return self.models[0].dim

    def __getitem__(self, label: int) -> MixtureModel:
        return self.models[label]

    def to_dict(self) -> dict:
        return {
            "dim": self.dim,
            "n_classes": self.n_classes,
            "classes": [
                {
                    "n_components": m.n_components,
                    "weights": m.weights.tolist(),
                    "means": m.means.tolist(),
                    "covariances_row_major": m.covariances.reshape(
                        m.n_components, -1
                    ).tolist(),
                }
                for m in self.models
            ],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "TissueGMM":
        dim = int(d["dim"])
        models = []
        for entry in d["classes"]:
            j = int(entry["n_components"])
            cov = np.asarray(entry["covariances_row_major"], dtype=np.float64)
            models.append(
                MixtureModel(
                    weights=np.asarray(entry["weights"], dtype=np.float64),
                    means=np.asarray(entry["means"], dtype=np.float64),
                    covariances=cov.reshape(j, dim, dim),
                )
            )
        return cls(models=tuple(models))
