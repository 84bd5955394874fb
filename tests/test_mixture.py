import json
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import logsumexp, softmax

from mr2ct import (
    FitError,
    MixtureModel,
    ModelError,
    RunConfig,
    SelectionError,
    conditional_expectation,
    conditional_expectation_many,
    default_phantom_spec,
    em_fit,
    generate_phantom,
    select_model,
    train_pipeline,
)
import mr2ct.mixture as mixture_module
from mr2ct.mixture import _em_once, _log_gaussians, _normalize, _row_blocks
from util import (
    ROW_EDGES,
    edge_rows,
    match_components,
    mc_conditional_mean,
    naive_conditional_expectation,
    naive_em_once,
    naive_mixture_density,
    random_mixture,
    sample_joint,
    two_component_truth,
    whole_log_gaussians,
    whole_normalize,
)


def mixture_log_density(model, v):
    """log sum_j pi_j N(v; mu_j, S_j) for one vector (dim,) or rows (n, dim),
    from the package's kernel _log_gaussians and its _normalize."""
    v = np.asarray(v, dtype=np.float64)
    logp = _log_gaussians(np.ascontiguousarray(np.atleast_2d(v).T), model.means, model.chols)
    out = _normalize(logp + np.log(model.weights)[:, None])
    return float(out[0]) if v.ndim == 1 else out


class TestModelValidation:
    def test_weights_must_normalize(self):
        with pytest.raises(ModelError, match="sum to 1"):
            MixtureModel(weights=[0.5, 0.6], means=np.zeros((2, 2)),
                         covariances=np.stack([np.eye(2)] * 2))

    def test_covariance_must_be_symmetric(self):
        cov = np.array([[1.0, 0.9], [0.1, 1.0]])
        with pytest.raises(ModelError, match="symmetric"):
            MixtureModel(weights=[1.0], means=np.zeros((1, 2)), covariances=cov[None])

    def test_covariance_must_be_positive_definite(self):
        cov = np.array([[1.0, 2.0], [2.0, 1.0]])
        with pytest.raises(ModelError, match="positive definite"):
            MixtureModel(weights=[1.0], means=np.zeros((1, 2)), covariances=cov[None])


class TestLogDensity:
    def test_standard_normal_at_mode(self):
        model = MixtureModel(weights=[1.0], means=np.zeros((1, 2)),
                             covariances=np.eye(2)[None])
        assert mixture_log_density(model, np.zeros(2)) == pytest.approx(
            np.log(1 / (2 * np.pi)), abs=1e-14)

    def test_mixture_collapse(self):
        cov = np.array([[2.0, 0.3], [0.3, 1.0]])
        single = MixtureModel(weights=[1.0], means=[[0.5, -1.0]], covariances=cov[None])
        double = MixtureModel(weights=[0.5, 0.5], means=[[0.5, -1.0]] * 2,
                              covariances=np.stack([cov, cov]))
        v = np.array([0.2, 0.7])
        assert mixture_log_density(double, v) == pytest.approx(
            mixture_log_density(single, v), abs=1e-12)

    def test_matches_naive_summation(self):
        rng = np.random.default_rng(42)
        model = random_mixture(3, 3, rng)
        for _ in range(10):
            v = rng.normal(scale=3.0, size=3)
            naive = naive_mixture_density(model.weights, model.means,
                                          model.covariances, v)
            assert mixture_log_density(model, v) == pytest.approx(np.log(naive), abs=1e-10)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    dim=st.integers(1, 5),
    n_components=st.integers(1, 4),
    n=st.one_of(st.none(), st.integers(1, 20)),
    reach=st.floats(0.0, 10.0),
)
def test_log_density_matches_naive_oracle(seed, dim, n_components, n, reach):
    """Single vectors (n None) and matrices, up to `reach` mixture standard
    deviations from the mixture mean in every coordinate."""
    rng = np.random.default_rng(seed)
    model = random_mixture(n_components, dim, rng)
    sd = np.sqrt(np.diag(model.covariance()))
    v = model.mean() + reach * sd * rng.uniform(-1.0, 1.0, (dim,) if n is None else (n, dim))
    got = np.atleast_1d(mixture_log_density(model, v))
    naive = np.atleast_1d(naive_mixture_density(model.weights, model.means,
                                                model.covariances, v))
    assert got.shape == naive.shape
    seen = naive > 1e-300
    np.testing.assert_allclose(got[seen], np.log(naive[seen]), rtol=1e-9, atol=0)


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_components=st.integers(1, 6),
    n=st.integers(1, 30),
    scale=st.sampled_from([1.0, 30.0, 1e3]),
    holes=st.floats(0.0, 0.9),
)
def test_normalize_matches_scipy(seed, n_components, n, scale, holes):
    """Posteriors equal softmax and the returned log-sum-exp equals scipy's,
    for columns with -inf entries (zero-density components) but never only
    -inf.  The log-sum-exp has the bits of log(sum(exp(a - max))) + max, so
    normalizing in place leaves EM's log-likelihood of given parameters as
    it was."""
    rng = np.random.default_rng(seed)
    a = rng.normal(scale=scale, size=(n_components, n))
    a[rng.random(a.shape) < holes] = -np.inf
    cols = np.flatnonzero(np.isneginf(a).all(axis=0))
    a[rng.integers(n_components, size=cols.size), cols] = 0.0
    amax = np.max(a, axis=0)
    two_exp = np.log(np.sum(np.exp(a - amax), axis=0)) + amax
    post = a.copy()
    lse = _normalize(post)
    assert np.array_equal(lse, two_exp)
    np.testing.assert_allclose(lse, logsumexp(a, axis=0), rtol=1e-13, atol=1e-13)
    np.testing.assert_allclose(post, softmax(a, axis=0), rtol=1e-12, atol=1e-300)
    assert np.all(post[np.isneginf(a)] == 0.0)


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    block=st.sampled_from([2, 3, 7]),
    edge=st.sampled_from(ROW_EDGES),
    random_n=st.integers(1, 60),
    dim=st.integers(2, 6),
    n_components=st.integers(1, 6),
)
def test_row_blocked_kernels_match_whole_arrays(seed, block, edge, random_n, dim,
                                                n_components):
    """_log_gaussians and _normalize over blocks of a few rows give the bits of
    the whole-array kernels, at every row count around a block edge; a
    one-row block would round on BLAS's matrix-vector path."""
    n = edge_rows(edge, block, random_n)
    rng = np.random.default_rng(seed)
    model = random_mixture(n_components, dim, rng)
    vt = np.ascontiguousarray(model.sample(n, rng).T)
    with mock.patch.object(mixture_module, "_BLOCK", block):
        slices = _row_blocks(n)
        logp = _log_gaussians(vt, model.means, model.chols)
        a = logp + np.log(model.weights)[:, None]
        post = a.copy()
        lse = _normalize(post)
    assert np.concatenate([np.arange(n)[s] for s in slices]).tolist() == list(range(n))
    assert all(s.stop - s.start != 1 for s in slices) or n == 1
    assert np.array_equal(logp, whole_log_gaussians(vt, model.means, model.chols))
    whole_post = a.copy()
    assert np.array_equal(lse, whole_normalize(whole_post))
    assert np.array_equal(post, whole_post)


class TestConditionalExpectation:
    def test_zero_cross_covariance_ignores_x(self):
        cov = np.diag([2.0, 1.0, 3.0])
        model = MixtureModel(weights=[1.0], means=[[5.0, 0.0, 0.0]],
                             covariances=cov[None])
        for x in ([0.0, 0.0], [10.0, -3.0]):
            y, betas = conditional_expectation(model, np.array(x))
            assert y == pytest.approx(5.0, abs=1e-12)
            assert betas == pytest.approx([1.0])

    def test_feature_length_mismatch(self):
        model = random_mixture(2, 3, np.random.default_rng(0))
        with pytest.raises(ModelError, match="feature length 3 does not match model"):
            conditional_expectation_many(model, np.zeros((1, 3)))

    def test_single_component_closed_form(self):
        cov = np.array([[1.0, 0.5], [0.5, 1.0]])
        model = MixtureModel(weights=[1.0], means=np.zeros((1, 2)),
                             covariances=cov[None])
        y, _ = conditional_expectation(model, np.array([2.0]))
        assert y == pytest.approx(1.0, abs=1e-14)

    def test_affine_in_x_for_single_component(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            model = random_mixture(1, 4, rng)
            mu, cov = model.means[0], model.covariances[0]
            slope = np.linalg.solve(cov[1:, 1:], cov[1:, 0])
            x = rng.normal(size=3)
            y, _ = conditional_expectation(model, x)
            expected = mu[0] + slope @ (x - mu[1:])
            assert y == pytest.approx(expected, rel=1e-10, abs=1e-10)

    def test_betas_form_a_distribution(self):
        rng = np.random.default_rng(8)
        model = random_mixture(4, 3, rng)
        x = rng.normal(size=(50, 2), scale=4.0)
        _, betas = conditional_expectation_many(model, x)
        assert np.all(betas >= 0) and np.all(betas <= 1)
        np.testing.assert_allclose(betas.sum(axis=1), 1.0, rtol=0, atol=1e-12)

    def test_component_permutation_invariance(self):
        rng = np.random.default_rng(9)
        model = random_mixture(3, 3, rng)
        order = [2, 0, 1]
        permuted = MixtureModel(
            weights=model.weights[order],
            means=model.means[order],
            covariances=model.covariances[order],
        )
        x = rng.normal(size=(20, 2))
        y_a, _ = conditional_expectation_many(model, x)
        y_b, _ = conditional_expectation_many(permuted, x)
        np.testing.assert_allclose(y_a, y_b, rtol=0, atol=1e-10)

    def test_matches_monte_carlo(self):
        rng = np.random.default_rng(21)
        for trial in range(3):
            model = random_mixture(3, 2, rng, mean_spread=3.0)
            probes = sample_joint(model.weights, model.means, model.covariances,
                                  5, rng)[:, 1]
            for x in probes:
                mc, se, n_acc = mc_conditional_mean(
                    model.weights, model.means, model.covariances,
                    x, 200_000, rng, half_width=0.05,
                )
                assert n_acc > 100
                y, _ = conditional_expectation(model, np.array([x]))
                assert abs(y - mc) <= 3.5 * se

    def test_singular_feature_covariance_rejected(self):
        cov = np.array([
            [1.0, 0.0, 0.0],
            [0.0, 1.0, 1.0],
            [0.0, 1.0, 1.0],
        ]) + np.diag([0.0, 1e-300, 1e-300])
        with pytest.raises(ModelError):
            model = MixtureModel(weights=[1.0], means=np.zeros((1, 3)),
                                 covariances=cov[None])
            conditional_expectation(model, np.zeros(2))


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    dim=st.integers(2, 5),
    n_components=st.integers(1, 4),
    n=st.integers(1, 20),
)
def test_conditional_matches_naive_oracle(seed, dim, n_components, n):
    rng = np.random.default_rng(seed)
    model = random_mixture(n_components, dim, rng)
    x = model.sample(n, rng)[:, 1:]
    y_hat, betas = conditional_expectation_many(model, x)
    y_ref, betas_ref, comp = naive_conditional_expectation(
        model.weights, model.means, model.covariances, x)
    np.testing.assert_allclose(y_hat, y_ref, rtol=1e-9, atol=1e-9)
    np.testing.assert_allclose(betas, betas_ref, rtol=1e-9, atol=1e-12)
    # A convex combination stays within the component conditional means.
    slack = 1e-9 * (1.0 + np.abs(comp).max(axis=1))
    assert np.all(y_hat >= comp.min(axis=1) - slack)
    assert np.all(y_hat <= comp.max(axis=1) + slack)


@pytest.mark.parametrize("n", [8191, 8192, 8193, 20000])
def test_sample_matches_unchunked_formula(n):
    """sample applies the Cholesky factors block by block; every draw is
    bit-identical to the one-einsum formula over all rows."""
    model = random_mixture(3, 5, np.random.default_rng(n))
    got = model.sample(n, np.random.default_rng(7))
    rng = np.random.default_rng(7)
    comp = rng.choice(model.n_components, size=n, p=model.weights)
    z = rng.standard_normal((n, model.dim))
    expected = model.means[comp] + np.einsum("nab,nb->na", model.chols[comp], z)
    assert got.tobytes() == expected.tobytes()


class TestEmFit:
    def test_single_component_is_mle(self):
        rng = np.random.default_rng(3)
        data = rng.multivariate_normal([1.0, -2.0], [[2.0, 0.3], [0.3, 0.5]], size=500)
        model, report = em_fit(data, 1, RunConfig(em_restarts=2), seed=0)
        np.testing.assert_allclose(model.means[0], data.mean(axis=0), atol=1e-9)
        np.testing.assert_allclose(model.covariances[0],
                                   np.cov(data, rowvar=False, bias=True), atol=1e-9)
        assert report.converged

    def test_loglik_monotone(self):
        rng = np.random.default_rng(4)
        weights, means, covs = two_component_truth()
        data = sample_joint(weights, means, covs, 1500, rng)
        _, report = em_fit(data, 2, RunConfig(em_restarts=3), seed=5)
        diffs = np.diff(report.log_likelihood)
        assert np.all(diffs >= -1e-9)

    def test_two_component_recovery(self):
        rng = np.random.default_rng(6)
        weights, means, covs = two_component_truth()
        data = sample_joint(weights, means, covs, 5000, rng)
        model, _ = em_fit(data, 2, seed=1)
        order = match_components(model.means, means)
        for t, e in enumerate(order):
            assert np.linalg.norm(model.means[e] - means[t]) <= 0.1 * np.linalg.norm(means[t])
            assert abs(model.weights[e] - weights[t]) <= 0.1 * weights[t]

    def test_weights_normalized(self):
        rng = np.random.default_rng(10)
        data = sample_joint(*two_component_truth(), 800, rng)
        model, _ = em_fit(data, 3, seed=2)
        assert model.weights.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(model.weights >= 0)

    def test_too_few_samples(self):
        with pytest.raises(FitError, match="too few"):
            em_fit(np.zeros((5, 2)), 3, seed=0)

    def test_non_finite_samples_rejected(self):
        data = np.random.default_rng(12).normal(size=(100, 2))
        data[37, 1] = np.nan
        with pytest.raises(FitError, match="finite"):
            em_fit(data, 2, seed=0)

    def test_degenerate_point_mass_collapses(self):
        rng = np.random.default_rng(11)
        spread = rng.normal(size=(30, 2))
        point = np.tile([50.0, 50.0], (300, 1))
        data = np.vstack([spread, point])
        model, report = em_fit(data, 2, RunConfig(em_restarts=2), seed=3)
        assert report.degenerate
        assert model.n_components < 2

    def test_fixed_seed_reproducible(self):
        rng = np.random.default_rng(12)
        data = sample_joint(*two_component_truth(), 600, rng)
        a, _ = em_fit(data, 2, seed=9)
        b, _ = em_fit(data, 2, seed=9)
        assert np.array_equal(a.weights, b.weights)
        assert np.array_equal(a.means, b.means)
        assert np.array_equal(a.covariances, b.covariances)

    def test_restart_scores_reported(self):
        rng = np.random.default_rng(13)
        data = sample_joint(*two_component_truth(), 400, rng)
        _, report = em_fit(data, 2, RunConfig(em_restarts=4), seed=0)
        assert len(report.restart_scores) == 4
        assert report.best_restart == int(np.argmin(report.restart_scores))


def _assert_rows_close(got, want, floor=0.0):
    """rtol 1e-8 against each row's largest entry (each component's, for a
    stack of covariances), so entries that are zero up to rounding compare;
    differences below floor pass."""
    assert np.shape(got) == np.shape(want)
    for g, w in zip(np.reshape(got, (len(got), -1)), np.reshape(want, (len(want), -1))):
        np.testing.assert_allclose(g, w, rtol=1e-8, atol=max(1e-8 * np.abs(w).max(), floor))


def _mixture_rows(seed, dim, n_components, point_mass):
    """30*dim rows of a random mixture and, with point_mass, 20*dim copies of
    one point on integers 40 to 60 from the origin in every coordinate."""
    rng = np.random.default_rng(seed)
    v = random_mixture(n_components, dim, rng).sample(30 * dim, rng)
    if point_mass:
        point = rng.choice([-1.0, 1.0], dim) * rng.integers(40, 61, dim)
        v = np.vstack([v, np.tile(point, (20 * dim, 1))])
    return v


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    dim=st.integers(2, 5),
    n_components=st.integers(1, 4),
    max_iter=st.integers(1, 20),
    point_mass=st.booleans(),
)
def test_em_once_matches_naive_oracle(seed, dim, n_components, max_iter, point_mass):
    """Component-major EM against the one-component-at-a-time oracle.

    The point-mass cluster sits on integers 40 to 60 from the origin in every
    coordinate.  Its copies sum exactly in any order, so a component that
    collapses onto it ends with a covariance of exactly zero and both drop
    it; off the origin, L^-1 v - L^-1 mu would cancel on it.  On the way, one
    iteration can see the cluster's mean off by a rounding error that depends
    on the summation order.  The next covariance is then about that error
    squared (near 1e-28), and the log-likelihood computed from it differs
    between the two (seen: 5794 against 5412, with equal parameters one
    iteration later).  So covariances compare down to the squared rounding
    of the data, and a run with a point mass may differ in one
    log-likelihood.  In about 1 of 3000 point-mass runs that rounding also
    delays the drop by one iteration in one of the two, so the examples are
    fixed (derandomize) rather than drawn afresh on every run.
    """
    v = _mixture_rows(seed, dim, n_components, point_mass)
    config = RunConfig(em_max_iter=max_iter)
    runs = []
    for em in (_em_once, naive_em_once):
        # A collapsing component passes through subnormal covariances, whose
        # Mahalanobis terms overflow to inf, a density of zero, in both.
        with np.errstate(over="ignore"):
            try:
                runs.append(em(v, n_components, config, np.random.default_rng(seed)))
            except FitError as exc:
                runs.append(str(exc))
    got, want = runs
    if isinstance(want, str) or isinstance(got, str):
        assert got == want
        return
    weights, means, covs, history, converged, degenerate = got
    assert (len(weights), converged, degenerate) == (len(want[0]), want[4], want[5])
    _assert_rows_close(weights[None], want[0][None])
    _assert_rows_close(means, want[1])
    _assert_rows_close(covs, want[2], floor=(1e-13 * np.abs(v).max()) ** 2)
    assert len(history) == len(want[3])
    off = ~np.isclose(history, want[3], rtol=1e-8, atol=0)
    assert off.sum() <= int(point_mass)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("seed, dim", [(45, 2), (200, 5)])
def test_em_once_collapse_does_not_warn(seed, dim):
    """A component collapsing onto the point mass has an inverse factor above
    1e150, so its squared Mahalanobis terms (and, at seed 200, their sums)
    overflow to inf, a density of zero, without a RuntimeWarning."""
    weights, _, _, _, _, degenerate = _em_once(
        _mixture_rows(seed, dim, 2, point_mass=True), 2, RunConfig(em_max_iter=20),
        np.random.default_rng(seed),
    )
    assert degenerate and len(weights) == 1


@pytest.mark.parametrize("seed", range(20))
def test_em_once_drops_point_mass_far_from_center(seed):
    """A component that collapses onto 40 copies of one point, 50 to 70 from
    the origin in each coordinate and far from the rows' center, has a
    covariance of exactly zero from the centered formula and is dropped.
    second - m m^T would leave it at about the rounding of the second moment
    (seeds 2 and 13 then keep two components), so EM centers such tight
    components exactly."""
    rng = np.random.default_rng(seed)
    v = rng.normal(0.0, 5.0, (60, 2))
    point = rng.choice([-1.0, 1.0], 2) * rng.integers(50, 71, 2)
    v = np.vstack([v, np.tile(point, (40, 1))])
    with np.errstate(over="ignore"):
        weights, _, _, _, _, degenerate = _em_once(
            v, 2, RunConfig(em_max_iter=30), np.random.default_rng(seed))
    assert degenerate and len(weights) == 1


@pytest.mark.parametrize("sd", [5.0, 1.0, 0.1])
@pytest.mark.parametrize("seed", range(4))
def test_em_once_matches_naive_oracle_at_hu_scale(seed, sd):
    """A narrow component 1200 from the center of 5-dim rows at HU scale.

    Its covariance trace is 3e-6 (sd 1) or 4e-8 (sd 0.1) of its second
    moment about the center.  The moments form's relative error is a few
    1e-15 over that ratio, so the first stays within rtol 1e-8 of the
    centered oracle, and the second passes only through the exact path."""
    rng = np.random.default_rng(seed)
    dim = 5
    far = 1500.0 / np.sqrt(dim) * rng.choice([-1.0, 1.0], dim)
    v = np.vstack([rng.normal(0.0, 300.0, (400, dim)), far + rng.normal(0.0, sd, (100, dim))])
    config = RunConfig(em_max_iter=30)
    got = _em_once(v, 2, config, np.random.default_rng(seed))
    want = naive_em_once(v, 2, config, np.random.default_rng(seed))
    assert (len(got[0]), got[4], got[5]) == (len(want[0]), want[4], want[5])
    _assert_rows_close(got[0][None], want[0][None])
    _assert_rows_close(got[1], want[1])
    _assert_rows_close(got[2], want[2])
    np.testing.assert_allclose(got[3], want[3], rtol=1e-8, atol=0)


def test_selection_pinned_on_phantom_cohort():
    """Default EM settings on a 3x16^3 phantom cohort (seed 7), 1 tree: per
    class the chosen component count and each candidate's best restart and
    iteration count.  Every candidate converges before the iteration cap, so
    a round-off change in EM that moves model selection shows here."""
    cohort = generate_phantom(default_phantom_spec((16, 16, 16)), n_patients=3, seed=7)
    _, report = train_pipeline([item.dataset for item in cohort], RunConfig(trees=1))
    facts = [
        (s.chosen, [(r.best_restart, r.n_iter, r.converged) for r in s.fit_reports])
        for s in report.selection
    ]
    assert facts == [
        (5, [(2, 103, True), (4, 111, True)]),
        (5, [(1, 79, True), (0, 91, True)]),
    ]


class TestSelectModel:
    def test_picks_generating_order(self):
        rng = np.random.default_rng(14)
        weights, means, covs = two_component_truth()
        train = sample_joint(weights, means, covs, 600, rng)
        val = sample_joint(weights, means, covs, 3000, rng)
        _, j_star, report = select_model(train, val, RunConfig(j_candidates=(1, 2, 3)), seed=2)
        assert j_star == 2
        assert report.scores[1] < report.scores[0]

    def test_single_candidate(self):
        rng = np.random.default_rng(15)
        data = sample_joint(*two_component_truth(), 500, rng)
        model, j_star, _ = select_model(data[:400], data[400:], RunConfig(j_candidates=(2,)),
                                        seed=0)
        assert j_star == 2
        assert model.n_components == 2

    def test_scores_reported_per_candidate(self):
        rng = np.random.default_rng(16)
        data = sample_joint(*two_component_truth(), 700, rng)
        _, _, report = select_model(data[:500], data[500:], RunConfig(j_candidates=(1, 2)), seed=0)
        assert len(report.scores) == 2
        assert all(np.isfinite(s) for s in report.scores)

    def test_all_candidates_fail(self):
        rng = np.random.default_rng(17)
        data = rng.normal(size=(30, 2))
        with pytest.raises(SelectionError):
            select_model(data[:20], data[20:], RunConfig(j_candidates=(50, 60)), seed=0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_validation_rejected(self, bad):
        """A non-finite validation row would score every candidate alike."""
        data = sample_joint(*two_component_truth(), 500, np.random.default_rng(18))
        data[450, 0] = bad
        with pytest.raises(SelectionError, match="finite"):
            select_model(data[:400], data[400:], RunConfig(j_candidates=(1, 2)), seed=0)


class TestSerialization:
    def test_roundtrip_lossless(self):
        # Many mixtures, because re-normalizing weights on load would change
        # the last bit of some of them.
        rng = np.random.default_rng(19)
        for _ in range(50):
            model = random_mixture(int(rng.integers(1, 5)), 3, rng)
            back = MixtureModel(**json.loads(json.dumps(model.to_dict())))
            assert np.array_equal(model.weights, back.weights)
            assert np.array_equal(model.means, back.means)
            assert np.array_equal(model.covariances, back.covariances)
