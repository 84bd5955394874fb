"""Shared generators and independent oracles for the test suite.

The samplers and density evaluations here deliberately avoid the package's
own mixture code paths, naive_em_once its component-major EM iteration,
naive_kmeanspp_means its k-means++ seeding on row-major rows,
naive_train_tree its histogram split search, naive_hist_train_tree its
histogram subtraction and count algebra, naive_leaf_index its per-node
routing and naive_neighbor_matrix its edge-padded extraction, so they can
serve as independent checks.
whole_log_gaussians, whole_normalize and whole_regress_by_label are the
package's Gaussian kernels and conditional regression as they were before
they ran over row blocks, each on all of its rows at once; the blocked code
must match them bit for bit.  whole_normalize flushes log-weights below
_LOG_FLOOR to posterior 0, as _normalize does.
draw_order_rus_resample is boosting's resample as it was before it searched
its uniforms in sorted order and sorted its result: Generator.choice, then
undersampling, returned in drawn order.
materialize copies a column source into the matrix it stands for.
"""

import heapq
import itertools

import numpy as np
from scipy.linalg import solve_triangular

from mr2ct import BoostingError, FitError, MixtureModel, RunConfig
from mr2ct.mixture import _DROP_WEIGHT, _LOG_2PI, _LOG_FLOOR, _RIDGE_SCALE
from mr2ct.features import neighbor_offsets
from mr2ct.labeling import minority_label
from mr2ct.tree import DecisionTree


def random_spd(dim, rng, scale=1.0):
    a = rng.normal(size=(dim, dim))
    return scale * (a @ a.T + dim * np.eye(dim))


def random_mixture(n_components, dim, rng, mean_spread=4.0, cov_scale=1.0):
    weights = rng.dirichlet(np.full(n_components, 5.0))
    means = rng.normal(scale=mean_spread, size=(n_components, dim))
    covs = np.stack([random_spd(dim, rng, cov_scale) for _ in range(n_components)])
    return MixtureModel(weights=weights, means=means, covariances=covs)


def sample_joint(weights, means, covs, n, rng):
    """Independent mixture sampler used as a generation oracle."""
    weights = np.asarray(weights, dtype=float)
    comp = rng.choice(len(weights), size=n, p=weights / weights.sum())
    chol = np.linalg.cholesky(np.asarray(covs, dtype=float))
    z = rng.standard_normal((n, np.asarray(means).shape[1]))
    return np.asarray(means)[comp] + np.einsum("nab,nb->na", chol[comp], z)


def naive_mixture_density(weights, means, covs, v):
    """Direct per-component normal pdf summation, no log-sum-exp.

    v is one vector (dim,) or a matrix of rows (n, dim).
    """
    v = np.asarray(v, dtype=float)
    dim = v.shape[-1]
    total = 0.0
    for w, mu, cov in zip(weights, means, covs):
        diff = v - mu
        inv = np.linalg.inv(cov)
        det = np.linalg.det(cov)
        quad = np.einsum("...a,ab,...b->...", diff, inv, diff)
        total += w * np.exp(-0.5 * quad) / np.sqrt((2 * np.pi) ** dim * det)
    return total


def _naive_regularize(cov):
    """Symmetrize and ridge one covariance; None if it has no Cholesky factor."""
    cov = 0.5 * (cov + cov.T)
    dim = cov.shape[0]
    eps = _RIDGE_SCALE * np.trace(cov) / dim
    if eps > 0 and np.linalg.eigvalsh(cov)[0] < eps:
        cov = cov + eps * np.eye(dim)
    try:
        np.linalg.cholesky(cov)
    except np.linalg.LinAlgError:
        return None
    return cov


def naive_kmeanspp_means(v, k, rng):
    """mixture._kmeanspp_means on rows v (n, dim), summing each row's squared
    distance over its coordinates."""
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


def naive_em_once(v, n_components, config, rng):
    """mixture._em_once one component at a time, rows first.

    Each E-step factors every covariance again and solves a triangular system
    per component; each M-step ridges and tries to factor one covariance at a
    time.  Returns the same (weights, means, covs, history, converged,
    degenerate) tuple and raises the same FitErrors.
    """
    n, dim = v.shape
    means = naive_kmeanspp_means(v, n_components, rng)
    pooled = _naive_regularize(np.cov(v, rowvar=False, bias=True).reshape(dim, dim))
    if pooled is None:
        raise FitError("samples are degenerate: pooled covariance is singular")
    covs = np.repeat(pooled[None, :, :], n_components, axis=0)
    weights = np.full(n_components, 1.0 / n_components)
    history, converged, degenerate, prev_ll = [], False, False, -np.inf
    for _ in range(config.em_max_iter):
        logp = np.empty((n, len(weights)))
        for j, cov in enumerate(covs):
            chol = np.linalg.cholesky(cov)
            sol = solve_triangular(chol, (v - means[j]).T, lower=True)
            logdet = 2.0 * np.log(np.diag(chol)).sum()
            quad = np.sum(sol**2, axis=0)
            logp[:, j] = np.log(weights[j]) - 0.5 * (dim * np.log(2 * np.pi) + logdet + quad)
        amax = logp.max(axis=1, keepdims=True)
        amax = np.where(np.isfinite(amax), amax, 0.0)
        lse = np.log(np.exp(logp - amax).sum(axis=1)) + amax[:, 0]
        ll = float(lse.sum())
        history.append(ll)
        if ll - prev_ll < config.em_tol * max(1.0, abs(prev_ll)) and len(history) > 1:
            converged = True
            break
        prev_ll = ll

        resp = np.exp(logp - lse[:, None])
        bulk = resp.sum(axis=0)
        new_weights = bulk / n
        new_means = (resp.T @ v) / bulk[:, None]
        keep, new_covs = [], []
        for j in range(len(bulk)):
            if new_weights[j] < _DROP_WEIGHT:
                degenerate = True
                continue
            diff = v - new_means[j]
            cov = _naive_regularize((resp[:, j][:, None] * diff).T @ diff / bulk[j])
            if cov is None:
                degenerate = True
                continue
            new_covs.append(cov)
            keep.append(j)
        if not keep:
            raise FitError("all mixture components collapsed during EM")
        weights = new_weights[keep] / new_weights[keep].sum()
        means = new_means[keep]
        covs = np.stack(new_covs)
    return weights, means, covs, history, converged, degenerate


def naive_conditional_expectation(weights, means, covs, x):
    """E[y | x] by explicit inverses, determinants and normal pdfs.

    Returns (y_hat (n,), betas (n, J), component conditional means (n, J)).
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    d = x.shape[1]
    dens, comp = [], []
    for w, mu, cov in zip(weights, means, covs):
        inv_xx = np.linalg.inv(cov[1:, 1:])
        diff = x - mu[1:]
        quad = np.einsum("na,ab,nb->n", diff, inv_xx, diff)
        norm = np.sqrt((2 * np.pi) ** d * np.linalg.det(cov[1:, 1:]))
        dens.append(w * np.exp(-0.5 * quad) / norm)
        comp.append(mu[0] + diff @ inv_xx @ cov[1:, 0])
    dens, comp = np.column_stack(dens), np.column_stack(comp)
    betas = dens / dens.sum(axis=1, keepdims=True)
    return np.sum(betas * comp, axis=1), betas, comp


ROW_EDGES = ("1", "2", "B-1", "B", "B+1", "2B+1", "random")


def edge_rows(edge, block, random_n):
    """A row count named by ROW_EDGES for blocks of `block` rows."""
    counts = {"1": 1, "2": 2, "B-1": block - 1, "B": block, "B+1": block + 1,
              "2B+1": 2 * block + 1, "random": random_n}
    return counts[edge]


def whole_log_gaussians(vt, means, chols):
    """mixture._log_gaussians on every column of vt (dim, n) at once."""
    dim, n = vt.shape
    inv = np.linalg.inv(chols)
    out = np.empty((means.shape[0], n), dtype=np.float64)
    for j in range(means.shape[0]):
        z = inv[j] @ (vt - means[j][:, None])
        with np.errstate(over="ignore"):
            np.square(z, out=z)
            np.sum(z, axis=0, out=out[j])
    logdet = 2.0 * np.log(np.diagonal(chols, axis1=1, axis2=2)).sum(axis=1)
    out += (dim * _LOG_2PI + logdet)[:, None]
    out *= -0.5
    return out


def whole_normalize(a):
    """mixture._normalize on every column of a (J, n) at once, in place."""
    amax = np.max(a, axis=0)
    amax = np.where(np.isfinite(amax), amax, 0.0)
    a -= amax
    keep = a >= _LOG_FLOOR
    np.maximum(a, _LOG_FLOOR, out=a)
    np.exp(a, out=a)
    a *= keep
    total = np.sum(a, axis=0)
    a /= total
    return np.log(total) + amax


def whole_regress_by_label(regressors, labels, x_raw, flat_idx, n_voxels, fill):
    """pipeline.regress_by_label with one conditional regression over each
    class's rows, through the whole-array kernels; returns the float64 CT
    values before they become a float32 volume."""
    ct = np.full(n_voxels, fill, dtype=np.float64)
    for k, model in enumerate(regressors):
        rows = np.flatnonzero(labels == k)
        if not rows.size:
            continue
        chol_xx = np.linalg.cholesky(model.covariances[:, 1:, 1:])
        slope = np.linalg.solve(model.covariances[:, 1:, 1:],
                                model.covariances[:, 1:, :1])[:, :, 0]
        intercept = model.means[:, 0] - np.einsum("jd,jd->j", slope, model.means[:, 1:])
        xt = np.ascontiguousarray(x_raw[rows].T)
        betas = whole_log_gaussians(xt, model.means[:, 1:], chol_xx)
        betas += np.log(model.weights)[:, None]
        whole_normalize(betas)
        comp_means = slope @ xt
        comp_means += intercept[:, None]
        ct[flat_idx[rows]] = np.einsum("jn,jn->n", betas, comp_means)
    return ct


def mc_conditional_mean(weights, means, covs, x_probe, n_draws, rng, half_width):
    """Rejection estimate of E[y | x ~= x_probe] from joint draws.

    Only for 2-dim joints (one target, one feature).  Returns
    (estimate, standard_error, n_accepted).
    """
    draws = sample_joint(weights, means, covs, n_draws, rng)
    accepted = draws[np.abs(draws[:, 1] - x_probe) <= half_width, 0]
    if accepted.size < 2:
        return np.nan, np.inf, int(accepted.size)
    return (
        float(accepted.mean()),
        float(accepted.std(ddof=1) / np.sqrt(accepted.size)),
        int(accepted.size),
    )


def two_component_truth():
    """Well-separated 2-dim, 2-component ground truth for recovery tests."""
    weights = np.array([0.35, 0.65])
    means = np.array([[-4.0, -3.0], [4.0, 3.5]])
    covs = np.stack([
        np.array([[1.0, 0.45], [0.45, 0.8]]),
        np.array([[1.3, -0.5], [-0.5, 1.1]]),
    ])
    return weights, means, covs


def match_components(est_means, true_means):
    """Greedy assignment of estimated components to truth by mean distance."""
    est = list(range(est_means.shape[0]))
    order = []
    for t in range(true_means.shape[0]):
        dists = [np.linalg.norm(est_means[e] - true_means[t]) for e in est]
        pick = est.pop(int(np.argmin(dists)))
        order.append(pick)
    return order


def naive_best_split(x, cw, config):
    """Best (decrease, feature, threshold) by sorting every feature afresh."""
    m = x.shape[0]
    totals = cw.sum(axis=0)
    w_total = totals.sum()
    parent_term = float(np.sum(totals**2) / w_total)
    best = None
    for f in range(x.shape[1]):
        col = x[:, f]
        order = np.argsort(col, kind="stable")
        xv = col[order]
        boundary = np.flatnonzero(xv[:-1] < xv[1:])
        if boundary.size == 0:
            continue
        counts_left = boundary + 1
        counts_right = m - counts_left
        valid = (counts_left >= config.min_leaf) & (counts_right >= config.min_leaf)
        if not valid.any():
            continue
        boundary = boundary[valid]
        cum = np.cumsum(cw[order], axis=0)
        cw_left = cum[boundary]
        cw_right = totals - cw_left
        w_left = cw_left.sum(axis=1)
        w_right = cw_right.sum(axis=1)
        with np.errstate(divide="ignore", invalid="ignore"):
            term = np.where(w_left > 0, np.sum(cw_left**2, axis=1) / w_left, 0.0)
            term += np.where(w_right > 0, np.sum(cw_right**2, axis=1) / w_right, 0.0)
        k = int(np.argmax(term))
        decrease = float(term[k]) - parent_term
        if decrease <= 1e-12 * w_total:
            continue
        lo, hi = xv[boundary[k]], xv[boundary[k] + 1]
        thr = 0.5 * (lo + hi)
        if not (lo < thr < hi):
            thr = float(lo)
        if best is None or decrease > best[0]:
            best = (decrease, f, float(thr))
    return best


def naive_train_tree(x, labels, config=RunConfig(), n_labels=None):
    """Best-first tree growth that argsorts every feature at every node.

    The reference for train_tree: same splits, same tie-breaks, same floats.
    """
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    labels = np.asarray(labels, dtype=np.int64).reshape(-1)
    n = x.shape[0]
    if n_labels is None:
        n_labels = int(labels.max()) + 1
    cw_all = np.zeros((n, n_labels))
    cw_all[np.arange(n), labels] = 1.0

    feature, threshold, left, confidence, node_rows = [], [], [], [], {}

    def new_node(rows):
        node_id = len(feature)
        feature.append(-1)
        threshold.append(np.nan)
        left.append(-1)
        totals = cw_all[rows].sum(axis=0)
        confidence.append(totals / totals.sum())
        node_rows[node_id] = rows
        return node_id

    heap = []
    push_seq = itertools.count()

    def consider(node_id):
        rows = node_rows[node_id]
        if rows.size < 2 * config.min_leaf or rows.size < 2:
            return
        if (cw_all[rows].sum(axis=0) > 0).sum() <= 1:
            return
        found = naive_best_split(x[rows], cw_all[rows], config)
        if found is not None:
            decrease, f, thr = found
            heapq.heappush(heap, (-decrease, next(push_seq), node_id, f, thr))

    consider(new_node(np.arange(n)))
    splits_done = 0
    while heap and splits_done < config.max_splits:
        _, _, node_id, f, thr = heapq.heappop(heap)
        rows = node_rows[node_id]
        go_left = x[rows, f] <= thr
        left_id = new_node(rows[go_left])
        right_id = new_node(rows[~go_left])
        feature[node_id], threshold[node_id], left[node_id] = f, thr, left_id
        confidence[node_id] = np.full(n_labels, np.nan)
        splits_done += 1
        consider(left_id)
        consider(right_id)

    return DecisionTree(
        feature=np.asarray(feature, dtype=np.int32),
        threshold=np.asarray(threshold, dtype=np.float64),
        left=np.asarray(left, dtype=np.int32),
        confidence=np.vstack(confidence),
        n_features=x.shape[1],
        n_labels=n_labels,
    )


def naive_hist_best_cut(counts, totals, min_leaf):
    """Best (decrease, feature, bin) of one node from its (features, labels,
    bins) class counts, forming the right counts explicitly."""
    c_left = np.cumsum(counts, axis=2, dtype=np.float64)
    c_right = totals[:, None] - c_left
    n_total = totals.sum()
    parent_term = float(np.sum(totals**2) / n_total)
    n_left = c_left.sum(axis=1)
    n_right = n_total - n_left
    with np.errstate(divide="ignore", invalid="ignore"):
        term = (c_left**2).sum(axis=1) / n_left + (c_right**2).sum(axis=1) / n_right
    term[(n_left < min_leaf) | (n_right < min_leaf)] = -np.inf
    k = np.argmax(term, axis=1)
    decrease = term[np.arange(counts.shape[0]), k] - parent_term
    decrease[decrease <= 1e-12 * n_total] = -np.inf
    f = int(np.argmax(decrease))
    if decrease[f] == -np.inf:
        return None
    return float(decrease[f]), f, int(k[f])


def naive_hist_train_tree(x, labels, codes, config=RunConfig(), n_labels=None):
    """Best-first growth that builds every node's histogram from scratch.

    Each node keys all its (feature, label, code) triples at once, bincounts
    them and sums over the bins: no subtraction and no kept histograms.  The
    reference for train_tree on any codes, also above N_BINS distinct values.
    """
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    labels = np.asarray(labels, dtype=np.int64).reshape(-1)
    n, n_features = x.shape
    if n_labels is None:
        n_labels = int(labels.max()) + 1
    shape = (n_features, n_labels, int(codes.max(initial=0)) + 1)
    key_base = np.arange(n_features)[:, None] * (n_labels * shape[2])
    feature, threshold, left, confidence, heap, pending = [], [], [], [], [], {}

    def new_node(rows):
        node_id = len(feature)
        feature.append(-1)
        threshold.append(np.nan)
        left.append(-1)
        totals = np.bincount(labels[rows], minlength=n_labels)
        confidence.append(totals / rows.size)
        if rows.size < 2 * config.min_leaf or np.count_nonzero(totals) <= 1:
            return node_id
        keys = key_base + labels[rows] * shape[2] + codes[:, rows]
        counts = np.bincount(keys.ravel(), minlength=np.prod(shape)).reshape(shape)
        found = naive_hist_best_cut(counts, totals, config.min_leaf)
        if found is not None:
            decrease, f, b = found
            heapq.heappush(heap, (-decrease, node_id, f, b))
            pending[node_id] = rows
        return node_id

    new_node(np.arange(n))
    splits_done = 0
    while heap and splits_done < config.max_splits:
        _, node_id, f, b = heapq.heappop(heap)
        rows = pending.pop(node_id)
        go_left = codes[f, rows] <= b
        below, above = x[rows[go_left], f].max(), x[rows[~go_left], f].min()
        thr = 0.5 * (below + above)
        if not (below < thr < above):
            thr = below
        feature[node_id], threshold[node_id] = f, float(thr)
        confidence[node_id] = np.full(n_labels, np.nan)
        left[node_id] = new_node(rows[go_left])
        new_node(rows[~go_left])
        splits_done += 1

    return DecisionTree(
        feature=np.asarray(feature, dtype=np.int32),
        threshold=np.asarray(threshold, dtype=np.float64),
        left=np.asarray(left, dtype=np.int32),
        confidence=np.vstack(confidence),
        n_features=n_features,
        n_labels=n_labels,
    )


def naive_leaf_index(tree, x):
    """Level-synchronous routing: every pending row descends one level per pass."""
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    node = np.zeros(x.shape[0], dtype=np.int64)
    while True:
        feat = tree.feature[node]
        pending = np.flatnonzero(feat >= 0)
        if pending.size == 0:
            return node
        cur = node[pending]
        go_left = x[pending, feat[pending]] <= tree.threshold[cur]
        node[pending] = np.where(go_left, tree.left[cur], tree.left[cur] + 1)


def naive_neighbor_matrix(channels, flat_idx, dims, order):
    """Neighbor features by clamping each neighbor's coordinates per axis."""
    nx, ny, nz = dims
    ix = flat_idx % nx
    iy = (flat_idx // nx) % ny
    iz = flat_idx // (nx * ny)
    offsets = neighbor_offsets(order)
    n, d = flat_idx.size, len(channels)
    out = np.empty((n, d * len(offsets)), dtype=np.float64)
    for k, (dz, dy, dx) in enumerate(offsets):
        jx = np.clip(ix + dx, 0, nx - 1)
        jy = np.clip(iy + dy, 0, ny - 1)
        jz = np.clip(iz + dz, 0, nz - 1)
        jflat = jx + nx * (jy + ny * jz)
        for c, vol in enumerate(channels):
            out[:, c * len(offsets) + k] = vol.data[jflat]
    return out


def materialize(source):
    """The (n, n_features) float64 matrix of a column source's rows."""
    n, n_features = source.shape
    out = np.empty((n, n_features), dtype=np.float64)
    for f in range(n_features):
        out[:, f] = source.column(f, source.base)
    return out


def draw_order_rus_resample(labels, selection_weights, seed):
    """Weight-proportional draw by Generator.choice, then majority
    undersampling to balance, in drawn order."""
    labels = np.asarray(labels, dtype=np.int64).reshape(-1)
    if np.count_nonzero(np.bincount(labels)) < 2:
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
    majority_pos = np.flatnonzero(~is_minority)
    if majority_pos.size > n_min:
        drop = rng.permutation(majority_pos)[: majority_pos.size - n_min]
        keep = np.ones(size, dtype=bool)
        keep[drop] = False
        draw = draw[keep]
    return draw
