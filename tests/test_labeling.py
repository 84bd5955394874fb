import numpy as np
import pytest

from mr2ct import label_tissue_many


def label_one(y, **kwargs):
    return int(label_tissue_many(np.array([y]), **kwargs)[0])


def test_threshold_value_is_non_bone():
    assert label_one(100.0) == 0


def test_far_below_threshold():
    assert label_one(-1000.0) == 0


def test_above_threshold_is_bone():
    assert label_one(350.0) == 1


def test_custom_threshold():
    assert label_one(150.0, threshold=200.0) == 0
    assert label_one(250.0, threshold=200.0) == 1


def test_non_finite_rejected():
    with pytest.raises(ValueError):
        label_one(float("nan"))
    with pytest.raises(ValueError):
        label_tissue_many(np.array([0.0, np.inf]))


def test_monotone():
    rng = np.random.default_rng(11)
    y = np.sort(rng.uniform(-1200, 2000, size=500))
    labels = label_tissue_many(y)
    assert np.all(np.diff(labels.astype(int)) >= 0)


def test_vectorized_matches_scalar():
    rng = np.random.default_rng(12)
    y = rng.uniform(-500, 500, size=100)
    expected = np.array([0 if v <= 100.0 else 1 for v in y])
    np.testing.assert_array_equal(label_tissue_many(y), expected)
