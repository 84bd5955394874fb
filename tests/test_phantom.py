import numpy as np
import pytest

from mr2ct import (
    DataError,
    default_class_models,
    default_phantom_spec,
    generate_phantom,
    oracle_predict_ct,
)
from mr2ct.mixture import conditional_expectation_many
from mr2ct.phantom import PhantomSpec


class TestSpecValidation:
    def test_minority_fraction_range(self):
        with pytest.raises(DataError):
            default_phantom_spec(minority_fraction=0.0)
        with pytest.raises(DataError):
            default_phantom_spec(minority_fraction=1.2)

    def test_model_dimension_checked(self):
        models = default_class_models(4)
        with pytest.raises(DataError, match="dim"):
            PhantomSpec(dims=(8, 8, 8), n_channels=3, class_models=models)


class TestGeneration:
    def test_minority_fraction_realized(self):
        spec = default_phantom_spec(dims=(24, 24, 24))
        cohort = generate_phantom(spec, n_patients=2, seed=0)
        for item in cohort:
            fraction = float(item.true_labels.data.mean())
            assert abs(fraction - spec.minority_fraction) <= 0.02

    def test_same_seed_identical(self):
        spec = default_phantom_spec(dims=(12, 12, 12))
        a = generate_phantom(spec, n_patients=2, seed=5)
        b = generate_phantom(spec, n_patients=2, seed=5)
        for pa, pb in zip(a, b):
            np.testing.assert_array_equal(pa.dataset.ct.data, pb.dataset.ct.data)
            np.testing.assert_array_equal(pa.true_labels.data, pb.true_labels.data)

    def test_different_seed_differs(self):
        spec = default_phantom_spec(dims=(12, 12, 12))
        a = generate_phantom(spec, n_patients=1, seed=5)
        b = generate_phantom(spec, n_patients=1, seed=6)
        assert not np.array_equal(a[0].dataset.ct.data, b[0].dataset.ct.data)

    def test_full_mask(self):
        spec = default_phantom_spec(dims=(10, 10, 10))
        item = generate_phantom(spec, 1, seed=1)[0]
        assert item.dataset.mask.data.sum() == 1000

    def test_moments_match_truth(self):
        # enough voxels per class that sample moments pin the generator
        spec = default_phantom_spec(dims=(48, 48, 48), minority_fraction=0.3)
        item = generate_phantom(spec, 1, seed=2)[0]
        joint = np.column_stack(
            [item.dataset.ct.data.astype(np.float64)]
            + [c.data.astype(np.float64) for c in item.dataset.mr_channels]
        )
        labels = item.true_labels.data
        for k, model in enumerate(spec.class_models):
            rows = joint[labels == k]
            assert rows.shape[0] > 30_000
            true_mean = model.mean()
            true_sd = np.sqrt(np.diag(model.covariance()))
            se = true_sd / np.sqrt(rows.shape[0])
            np.testing.assert_allclose(rows.mean(axis=0), true_mean, atol=5 * se.max())
            sample_sd = rows.std(axis=0)
            np.testing.assert_allclose(sample_sd, true_sd, rtol=0.05)

    def test_labels_mostly_consistent_with_threshold(self):
        # the default truth keeps CT draws on the right side of 100 HU
        spec = default_phantom_spec(dims=(24, 24, 24))
        item = generate_phantom(spec, 1, seed=3)[0]
        thresholded = item.dataset.ct.data > 100.0
        disagreement = np.mean(thresholded != (item.true_labels.data == 1))
        assert disagreement < 0.02


class TestOracle:
    def test_matches_direct_conditional(self):
        spec = default_phantom_spec(dims=(8, 8, 8))
        item = generate_phantom(spec, 1, seed=4)[0]
        estimate = oracle_predict_ct(
            spec.class_models, item.true_labels,
            item.dataset.mr_channels, item.dataset.mask,
        )
        x = np.column_stack([c.data.astype(np.float64) for c in item.dataset.mr_channels])
        for k, model in enumerate(spec.class_models):
            rows = np.flatnonzero(item.true_labels.data == k)
            expected, _ = conditional_expectation_many(model, x[rows])
            np.testing.assert_allclose(estimate.data[rows], expected, rtol=1e-6)

    def test_unmasked_gets_fill(self):
        spec = default_phantom_spec(dims=(6, 6, 6))
        item = generate_phantom(spec, 1, seed=5)[0]
        from mr2ct.volume import Volume

        mask = Volume(dims=(6, 6, 6), spacing=(1, 1, 1), data=np.zeros(216))
        estimate = oracle_predict_ct(
            spec.class_models, item.true_labels, item.dataset.mr_channels, mask,
            fill_value=-1000.0,
        )
        assert np.all(estimate.data == -1000.0)

    def test_fractional_mask_rejected(self):
        spec = default_phantom_spec(dims=(6, 6, 6))
        item = generate_phantom(spec, 1, seed=5)[0]
        from mr2ct.volume import Volume

        mask = Volume(dims=(6, 6, 6), spacing=(1, 1, 1), data=np.full(216, 0.5))
        with pytest.raises(DataError, match=r"mask must contain exactly 0 or 1, found \[0.5\]"):
            oracle_predict_ct(spec.class_models, item.true_labels, item.dataset.mr_channels, mask)

    def test_oracle_beats_noise(self):
        spec = default_phantom_spec(dims=(16, 16, 16))
        item = generate_phantom(spec, 1, seed=6)[0]
        estimate = oracle_predict_ct(
            spec.class_models, item.true_labels,
            item.dataset.mr_channels, item.dataset.mask,
        )
        residual = estimate.data - item.dataset.ct.data
        marginal_sd = float(item.dataset.ct.data.std())
        assert np.abs(residual).mean() < 0.5 * marginal_sd
