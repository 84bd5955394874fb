"""Gaussian mixtures over joint (target, feature) vectors.

Each tissue class gets its own mixture over vectors v = (y, x_1 .. x_d) with
the target in position 0.  The module provides EM fitting with seeded
restarts, two-stage model-order selection, and the conditional regression
E[y | x] used for prediction:

    beta_j(x) = pi_j N(x; mu_j_x, S_j_xx) / sum_l pi_l N(x; mu_l_x, S_l_xx)
    E[y | x]  = sum_j beta_j(x) * (mu_j_y + S_j_yx S_j_xx^-1 (x - mu_j_x))

All component posteriors are computed with log-sum-exp, and every Gaussian
log-density comes from one kernel, _log_gaussians, over Cholesky factors.
_normalize turns log-weights into posteriors with one exp: it subtracts each
column's max, exponentiates in place and divides by the column sum, and
returns the log-sum-exp that EM sums into its log-likelihood.
It keeps EM off two floating-point slow paths, each 2-3x per iteration:
exp of an input that underflows or gives a subnormal (below about -708),
and M-step products (resp @ v, resp @ vv.T) with subnormal operands.
_normalize floors the shifted log-weights at _LOG_FLOOR = -700 before the
exp and zeroes the floored entries after it, so a posterior is 0 or at
least exp(-700) / J, which is normal for J below 4,000.  No sum changes:
each column's total holds its max's exp(0) = 1, and a flushed value, below
1e-304, is below half an ulp of any total of at least 1.
EM regularizes covariances by adding ridge eps = _RIDGE_SCALE * trace(S) / dim
to the diagonal whenever the smallest eigenvalue falls below eps, and drops
components whose weight falls below _DROP_WEIGHT or whose ridged covariance
has no Cholesky factor.

Arrays keep the rows on their last, contiguous axis: the kernel reads rows as
vt (dim, n) and returns (J, n) log-densities, EM's responsibilities are
(J, n), and k-means++ sums its squared distances down vt's columns, so
centering and every reduction over components run along long rows.
Both kernels, and prediction's conditional regression (pipeline's
regress_by_label), work through the rows in column blocks of _BLOCK rows
from _row_blocks, so their (dim, n) and (J, n) temporaries stay in cache
instead of spanning every row.  Every operation in them is per column, so
the values equal the whole-array ones bit for bit, with two traps from
BLAS.  numpy multiplies a (dim, dim) matrix by a one-column block on the
matrix-vector path, which rounds about an ulp differently from the
matrix-matrix one, so a one-row tail joins the block before it.  And a
one-component regression's (1, d) @ (d, n) product runs on that
matrix-vector path whatever the block, which treats columns in groups of
four and the columns left over differently, so _BLOCK is a power of two
and every block starts where the whole array's groups do.  The M-step's
sums over rows (resp @ v, resp @ vv.T) stay whole, since splitting a sum
changes its rounding.
EM factors each iteration's covariances once, in _regularize, and the next
E-step reuses those factors.  The kernel centers the rows before multiplying
by the inverse factor: L^-1 v - L^-1 mu cancels catastrophically once a
component has collapsed and L^-1 has entries near 1e45.

The M-step works from moments.  _em_once centers the rows once by their mean
c and keeps their products, (dim * dim, n), so each iteration's covariances
are E_r[(v - c)(v - c)^T] - (mu - c)(mu - c)^T from two matrix products.
That difference loses a few 1e-15 of the second moment to cancellation, so a
tight component, one whose covariance trace is at most _TIGHT of its second
moment's, gets the centered sum E_r[(v - mu)(v - mu)^T] instead.  That keeps
every covariance within a relative 1e-8 or so of the centered sum, far below
the ridge, and a component that collapses onto copies of one row ends at
exactly zero covariance and is dropped.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from .config import RunConfig
from .errors import FitError, ModelError, SelectionError
from .seeding import derive_seed

_LOG_2PI = float(np.log(2.0 * np.pi))
_RIDGE_SCALE = 1e-6
_DROP_WEIGHT = 1e-8
_TIGHT = 1e-6  # trace(cov) / trace(second moment) at or below which EM centers exactly
_BLOCK = 8192  # rows per block of the Gaussian kernels and of sample; a power of two
_LOG_FLOOR = -700.0  # shifted log-weights below this get posterior 0; exp(-700) is normal


@dataclass(frozen=True)
class MixtureModel:
    """One tissue class's mixture: weights (J,), means (J, dim), covariances (J, dim, dim).

    Weights are non-negative and sum to one within 1e-9; they are kept as
    given, so MixtureModel(**m.to_dict()) holds m's exact bits.  Covariances
    are symmetric and positive definite (checked at construction, which keeps
    their lower Cholesky factors in chols).
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

    def to_dict(self) -> dict:
        """Nested lists; MixtureModel(**d) rebuilds the same arrays."""
        return {
            "weights": self.weights.tolist(),
            "means": self.means.tolist(),
            "covariances": self.covariances.tolist(),
        }

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
        out = self.means[comp]
        # Per block, so the gathered (rows, dim, dim) factors stay small.
        for rows in _row_blocks(n):
            out[rows] += np.einsum("nab,nb->na", self.chols[comp[rows]], z[rows])
        return out


def _row_blocks(n: int) -> list[slice]:
    """Slices that split range(n) in order into blocks of _BLOCK rows, the
    last holding the rest; a one-row rest joins the block before it, which
    then holds _BLOCK + 1, so no block of a longer range has one row."""
    starts = list(range(0, n, _BLOCK))
    if len(starts) > 1 and n - starts[-1] == 1:
        starts.pop()
    return [slice(lo, hi) for lo, hi in zip(starts, starts[1:] + [n])]


def _log_gaussians(vt: np.ndarray, means: np.ndarray, chols: np.ndarray) -> np.ndarray:
    """(J, n) matrix of log N(v_i; mu_j, L_j L_j^T) for rows vt (dim, n),
    means (J, dim) and lower Cholesky factors chols (J, dim, dim).

    Precision-Cholesky form, the idiom of scikit-learn's
    _estimate_log_gaussian_prob (Pedregosa et al., JMLR 2011): the squared
    Mahalanobis term is |L_j^-1 (v - mu_j)|^2, centered first.
    """
    dim, n = vt.shape
    inv = np.linalg.inv(chols)
    logdet = 2.0 * np.log(np.diagonal(chols, axis1=1, axis2=2)).sum(axis=1)
    const = (dim * _LOG_2PI + logdet)[:, None]
    out = np.empty((means.shape[0], n), dtype=np.float64)
    for cols in _row_blocks(n):
        block, dst = vt[:, cols], out[:, cols]
        for j in range(means.shape[0]):
            z = inv[j] @ (block - means[j][:, None])
            # A collapsed component's Mahalanobis term overflows to inf: zero density.
            with np.errstate(over="ignore"):
                np.square(z, out=z)
                np.sum(z, axis=0, out=dst[j])
        dst += const
        dst *= -0.5
    return out


def _normalize(a: np.ndarray) -> np.ndarray:
    """Turn the (J, n) log-weights a into column posteriors in place, with one
    exp, and return log sum_j exp(a[j]), the column log-sum-exp.  A log-weight
    more than -_LOG_FLOOR below its column's max gets a posterior of exactly 0."""
    lse = np.empty(a.shape[1], dtype=np.float64)
    for cols in _row_blocks(a.shape[1]):
        block = a[:, cols]
        amax = np.max(block, axis=0)
        amax = np.where(np.isfinite(amax), amax, 0.0)
        block -= amax
        keep = block >= _LOG_FLOOR
        np.maximum(block, _LOG_FLOOR, out=block)
        np.exp(block, out=block)
        block *= keep
        total = np.sum(block, axis=0)
        block /= total
        np.log(total, out=lse[cols])
        lse[cols] += amax
    return lse


def conditional_expectation_many(
    model: MixtureModel, x: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """(y_hat, betas) for a matrix of feature vectors x with shape (n, d).
    A beta whose log-weight lies more than -_LOG_FLOOR below its row's largest
    is exactly 0, as in EM."""
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    if model.dim < 2:
        raise ModelError("conditional regression needs dim >= 2 (a target and features)")
    d = model.dim - 1
    if x.shape[1] != d:
        raise ModelError(f"feature length {x.shape[1]} does not match model ({d})")
    if not np.all(np.isfinite(x)):
        raise ModelError("feature vectors must be finite")
    try:
        chol_xx = np.linalg.cholesky(model.covariances[:, 1:, 1:])
    except np.linalg.LinAlgError as exc:
        raise ModelError("feature covariance S_xx singular") from exc
    # Rows of S_yx S_xx^-1, and the intercepts mu_y - slope . mu_x.
    slope = np.linalg.solve(model.covariances[:, 1:, 1:], model.covariances[:, 1:, :1])[:, :, 0]
    intercept = model.means[:, 0] - np.einsum("jd,jd->j", slope, model.means[:, 1:])
    xt = np.ascontiguousarray(x.T)
    betas = _log_gaussians(xt, model.means[:, 1:], chol_xx)
    betas += np.log(model.weights)[:, None]
    _normalize(betas)
    comp_means = slope @ xt
    comp_means += intercept[:, None]
    y_hat = np.einsum("jn,jn->n", betas, comp_means)
    return y_hat, betas.T


def conditional_expectation(model: MixtureModel, x: np.ndarray) -> tuple[float, np.ndarray]:
    """Point estimate E[y | x] and the component posteriors beta for one x."""
    y, betas = conditional_expectation_many(model, np.atleast_2d(x))
    return float(y[0]), betas[0]


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


def _kmeanspp_means(vt: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """k-means++ seeds, (k, dim), from the rows vt (dim, n).  Squared
    distances sum down axis 0, in coordinate order, along the contiguous rows."""
    n = vt.shape[1]
    chosen = [int(rng.integers(n))]
    d2 = np.sum((vt - vt[:, chosen]) ** 2, axis=0)
    for _ in range(1, k):
        total = d2.sum()
        if total <= 0:
            chosen.append(int(rng.integers(n)))
        else:
            chosen.append(int(rng.choice(n, p=d2 / total)))
        np.minimum(d2, np.sum((vt - vt[:, chosen[-1:]]) ** 2, axis=0), out=d2)
    return np.ascontiguousarray(vt[:, chosen].T)


def _regularize(covs: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Symmetrize and ridge a (J, dim, dim) stack of covariances.

    Returns (covs, chols, ok): ok marks the components whose ridged covariance
    has a Cholesky factor (its smallest ridged eigenvalue is positive), and
    covs and chols hold only those components.
    """
    covs = 0.5 * (covs + np.swapaxes(covs, 1, 2))
    dim = covs.shape[-1]
    eps = _RIDGE_SCALE * np.trace(covs, axis1=1, axis2=2) / dim
    smallest = np.linalg.eigvalsh(covs)[:, 0]
    ridge = np.where((eps > 0) & (smallest < eps), eps, 0.0)
    ok = smallest + ridge > 0
    covs = covs[ok] + ridge[ok, None, None] * np.eye(dim)
    return covs, np.linalg.cholesky(covs), ok


def _em_once(
    v: np.ndarray, n_components: int, config: RunConfig, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray, np.ndarray, list[float], bool, bool]:
    n, dim = v.shape
    vt = np.ascontiguousarray(v.T)
    # Products of the centered rows, (dim * dim, n), for the moments M-step.
    center = vt.mean(axis=1)
    c = vt - center[:, None]
    vv = (c[:, None, :] * c[None, :, :]).reshape(dim * dim, n)
    means = _kmeanspp_means(vt, n_components, rng)
    _, pooled_chol, ok = _regularize(np.cov(vt, bias=True).reshape(1, dim, dim))
    if not ok[0]:
        raise FitError("samples are degenerate: pooled covariance is singular")
    chols = np.repeat(pooled_chol, n_components, axis=0)
    weights = np.full(n_components, 1.0 / n_components)

    history: list[float] = []
    degenerate = False
    converged = False
    prev_ll = -np.inf
    for _ in range(config.em_max_iter):
        resp = _log_gaussians(vt, means, chols)
        resp += np.log(weights)[:, None]
        ll = float(_normalize(resp).sum())
        history.append(ll)
        if ll - prev_ll < config.em_tol * max(1.0, abs(prev_ll)) and len(history) > 1:
            converged = True
            break
        prev_ll = ll

        bulk = resp.sum(axis=1)
        keep = np.flatnonzero(bulk / n >= _DROP_WEIGHT)
        resp, bulk = resp[keep], bulk[keep]
        means = (resp @ v) / bulk[:, None]
        second = ((resp @ vv.T) / bulk[:, None]).reshape(-1, dim, dim)
        m = means - center
        covs = second - m[:, :, None] * m[:, None, :]
        # second - m m^T cancels on a tight component far from the center.
        tight = np.trace(covs, axis1=1, axis2=2) <= _TIGHT * np.trace(second, axis1=1, axis2=2)
        for j in np.flatnonzero(tight):
            diff = vt - means[j][:, None]
            covs[j] = (diff * resp[j]) @ diff.T / bulk[j]
        covs, chols, ok = _regularize(covs)
        if not ok.any():
            raise FitError("all mixture components collapsed during EM")
        degenerate = degenerate or np.count_nonzero(ok) < len(weights)
        weights = bulk[ok] / bulk[ok].sum()
        means = means[ok]
    return weights, means, covs, history, converged, degenerate


def _conditional_mse(model: MixtureModel, v: np.ndarray) -> float:
    """mean((y - E[y | x])^2) over joint rows v = (y, x), the score of EM
    restarts on training rows and of component counts on validation rows."""
    y_hat, _ = conditional_expectation_many(model, v[:, 1:])
    return float(np.mean((v[:, 0] - y_hat) ** 2))


def em_fit(
    samples: np.ndarray,
    n_components: int,
    config: RunConfig = RunConfig(),
    seed: int = 0,
) -> tuple[MixtureModel, EmFitReport]:
    """Fit a mixture to joint (y, x) rows by EM with seeded restarts.

    Runs config.em_restarts independent EM runs and keeps the restart whose
    conditional prediction of y from x has the smallest training mean squared
    error.  A run stops when the log-likelihood improves by less than
    config.em_tol relative to its magnitude, or after config.em_max_iter
    iterations; its history is monotone up to that tolerance.  Components
    whose weight collapses or whose covariance stays singular after ridging
    are dropped and the fit is flagged degenerate rather than aborted.
    """
    v = np.atleast_2d(np.asarray(samples, dtype=np.float64))
    n, dim = v.shape
    if n_components < 1:
        raise FitError(f"component count must be >= 1, got {n_components}")
    if dim < 2:
        raise FitError("joint samples need a target and at least one feature column")
    if not np.all(np.isfinite(v)):
        raise FitError("joint samples must be finite")
    if n < n_components * dim:
        raise FitError(
            f"too few samples: {n} rows for {n_components} components of dim {dim} "
            f"(need >= {n_components * dim})"
        )
    runs: list[tuple | None] = []
    scores: list[float] = []
    failures: list[str] = []
    for r in range(config.em_restarts):
        rng = np.random.default_rng(derive_seed(seed, r))
        try:
            weights, means, covs, *rest = _em_once(v, n_components, config, rng)
        except FitError as exc:
            runs.append(None)
            scores.append(float("inf"))
            failures.append(f"restart {r}: {exc}")
            continue
        model = MixtureModel(weights=weights, means=means, covariances=covs)
        runs.append((model, *rest))
        try:
            scores.append(_conditional_mse(model, v))
        except ModelError:
            scores.append(float("inf"))
    if all(run is None for run in runs):
        raise FitError("every EM restart failed: " + "; ".join(failures))
    best = int(np.argmin(scores))
    model, history, converged, degenerate = runs[best]
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
    chosen: int
    fit_reports: list[EmFitReport | None]
    errors: list[str | None]

    def to_dict(self) -> dict:
        fits = [r.to_dict() if r else None for r in self.fit_reports]
        return {**asdict(self), "fit_reports": fits}


def select_model(
    samples_train: np.ndarray,
    samples_val: np.ndarray,
    config: RunConfig = RunConfig(),
    seed: int = 0,
) -> tuple[MixtureModel, int, SelectionReport]:
    """Fit every component count in config.j_candidates and keep the best
    validation score.

    Candidates are fitted on the training split with em_fit (restarts decided
    by training MSE) and scored on the validation split by the mean squared
    error of the conditional prediction of y given x; the lowest score wins,
    the first candidate on a tie.  Returns the winning model, its component
    count, and the per-candidate score report.
    """
    candidates = [int(j) for j in config.j_candidates]
    val = np.atleast_2d(np.asarray(samples_val, dtype=np.float64))
    if val.shape[0] == 0:
        raise SelectionError("validation set is empty")
    if not np.all(np.isfinite(val)):
        raise SelectionError("validation samples must be finite")
    models: list[MixtureModel | None] = []
    reports: list[EmFitReport | None] = []
    errors: list[str | None] = []
    scores: list[float] = []
    for i, j in enumerate(candidates):
        try:
            model, rep = em_fit(samples_train, j, config=config, seed=derive_seed(seed, i))
            score, error = _conditional_mse(model, val), None
        except (FitError, ModelError) as exc:
            model, rep, score, error = None, None, float("nan"), str(exc)
        models.append(model)
        reports.append(rep)
        errors.append(error)
        scores.append(score)
    if all(m is None for m in models):
        raise SelectionError(
            "every candidate failed to fit: " + "; ".join(e or "" for e in errors)
        )
    finite = [s if m is not None else float("inf") for s, m in zip(scores, models)]
    best = int(np.argmin(finite))
    report = SelectionReport(
        candidates=candidates,
        scores=scores,
        chosen=candidates[best],
        fit_reports=reports,
        errors=errors,
    )
    return models[best], candidates[best], report
