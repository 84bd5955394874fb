import tracemalloc
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mr2ct import (
    ClassificationMetrics,
    DataError,
    FitError,
    assemble,
    default_phantom_spec,
    generate_phantom,
    kfold_cv,
    loo_patient_eval,
    prf,
    smoothed_residuals,
)
from mr2ct.evaluation import (
    confusion_counts,
    masked_mae,
    write_regression_report,
)
from mr2ct.labeling import minority_label
from mr2ct.pipeline import train_classifier_fold
from mr2ct.volume import mask_indices

from conftest import fast_config
from util import materialize


class TestPrf:
    def test_direct_formula(self):
        precision, recall, f1 = prf(tp=3, fp=1, fn=2)
        assert precision == pytest.approx(0.75, abs=1e-15)
        assert recall == pytest.approx(0.6, abs=1e-15)
        assert f1 == pytest.approx(2.0 / 3.0, abs=1e-15)

    def test_zero_over_zero_convention(self):
        assert prf(tp=0, fp=0, fn=5) == (0.0, 0.0, 0.0)
        assert prf(tp=0, fp=0, fn=0) == (0.0, 0.0, 0.0)

    def test_harmonic_identity(self):
        # Pr = Re = p gives F1 = p
        for tp, fp, fn in [(4, 1, 1), (9, 3, 3), (10, 0, 0)]:
            precision, recall, f1 = prf(tp, fp, fn)
            assert precision == recall
            assert f1 == pytest.approx(precision, abs=1e-12)

    def test_symmetric_in_pr_re_for_beta_one(self):
        a = prf(tp=6, fp=2, fn=5)[2]
        b = prf(tp=6, fp=5, fn=2)[2]
        assert a == pytest.approx(b, abs=1e-15)

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError):
            prf(tp=-1, fp=0, fn=0)


class TestMetrics:
    def test_err_complements_accuracy(self):
        m = ClassificationMetrics.from_counts(tp=3, fp=1, fn=2, tn=14)
        assert m.err + m.accuracy == 1.0
        assert m.err == pytest.approx(3 / 20)

    def test_confusion_counts(self):
        true = np.array([1, 1, 0, 0, 1])
        pred = np.array([1, 0, 1, 0, 1])
        assert confusion_counts(true, pred, positive_label=1) == (2, 1, 1, 1)

    def test_minority_label(self):
        assert minority_label(np.array([0, 0, 0, 1])) == 1
        assert minority_label(np.array([0, 1, 1, 1])) == 0
        assert minority_label(np.array([0, 1])) == 1  # tie prefers label 1
        assert minority_label(np.array([2, 0, 2])) == 0  # absent label 1 is no minority


class TestKfold:
    def labels_with_fraction(self, n, fraction, seed=0):
        rng = np.random.default_rng(seed)
        n_min = int(round(n * fraction))
        labels = np.zeros(n, dtype=int)
        labels[rng.choice(n, size=n_min, replace=False)] = 1
        x = rng.normal(size=(n, 2))
        return x, labels

    def test_perfect_classifier(self):
        x, labels = self.labels_with_fraction(200, 0.3)
        lookup = {tuple(row): lab for row, lab in zip(x, labels)}

        def train_fn(_x, _t, _seed):
            return lambda q: np.array([lookup[tuple(row)] for row in materialize(q)])

        metrics, folds = kfold_cv(x, labels, train_fn, k=5, seed=0)
        assert metrics.err == 0.0
        assert len(folds) == 5

    def test_always_wrong_classifier(self):
        x, labels = self.labels_with_fraction(200, 0.3)
        lookup = {tuple(row): lab for row, lab in zip(x, labels)}

        def train_fn(_x, _t, _seed):
            return lambda q: 1 - np.array([lookup[tuple(row)] for row in materialize(q)])

        metrics, _ = kfold_cv(x, labels, train_fn, k=5, seed=0)
        assert metrics.err == 1.0

    def test_constant_majority_matches_minority_fraction(self):
        n = 2000
        x, labels = self.labels_with_fraction(n, 0.1849, seed=2)

        def train_fn(_x, _t, _seed):
            return lambda q: np.zeros(q.shape[0], dtype=int)

        metrics, _ = kfold_cv(x, labels, train_fn, k=10, seed=1)
        realized = labels.mean()
        assert metrics.err == pytest.approx(realized, abs=1e-12)
        assert metrics.recall == 0.0
        assert metrics.f_score == 0.0

    def test_counts_aggregate_over_folds(self):
        x, labels = self.labels_with_fraction(300, 0.25, seed=3)

        def train_fn(_x, _t, _seed):
            return lambda q: np.ones(q.shape[0], dtype=int)

        metrics, folds = kfold_cv(x, labels, train_fn, k=6, seed=2)
        assert metrics.tp + metrics.fp + metrics.fn + metrics.tn == 300
        assert metrics.tp == int(labels.sum())
        assert sum(f.n for f in folds) == 300

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_folds_are_column_major_rows(self, order):
        """The trainer and the predictor get rows of one PaddedSource whose
        pads are the columns of one column-major copy of a matrix x,
        whatever its layout: the classifier reads columns."""
        x, labels = self.labels_with_fraction(90, 0.3, seed=5)
        x = np.asarray(np.column_stack([x, x[:, ::-1]]), order=order)
        seen = []

        def train_fn(x_train, _t, _seed):
            seen.append(x_train)

            def predict(q):
                seen.append(q)
                return np.zeros(q.shape[0], dtype=int)
            return predict

        kfold_cv(x, labels, train_fn, k=3, seed=0)
        assert len(seen) == 6
        pads = seen[0].pads
        copy = pads[0].base
        assert all(s.pads is pads for s in seen)
        assert copy.flags.f_contiguous and copy.shape == x.shape
        assert all(p.base is copy and p.flags.c_contiguous for p in pads)
        np.testing.assert_array_equal(np.column_stack(pads), x)
        trained, held = seen[::2], seen[1::2]
        assert all(s.shape == (60, 4) for s in trained)
        rows = np.vstack([materialize(s) for s in held])
        assert sorted(map(tuple, rows)) == sorted(map(tuple, x))

    def test_folds_read_x_without_a_copy(self):
        """The trainer and the predictor get row sources of the table's
        source: its own pads, and between them every row once per fold."""
        cohort = generate_phantom(default_phantom_spec(dims=(6, 5, 4)), n_patients=2, seed=5)
        table = assemble([item.dataset for item in cohort], order="first")
        seen = []

        def train_fn(x_train, _t, _seed):
            seen.append(x_train)

            def predict(q):
                seen.append(q)
                return np.zeros(q.shape[0], dtype=int)
            return predict

        kfold_cv(table.source, table.t, train_fn, k=3, seed=0)
        assert len(seen) == 6
        assert all(s.pads is table.source.pads and s.delta is table.source.delta for s in seen)
        for trained, held in zip(seen[::2], seen[1::2]):
            bases = np.concatenate([trained.base, held.base])
            np.testing.assert_array_equal(np.sort(bases), np.sort(table.source.base))

    @pytest.mark.parametrize("n_rows", [140, 100])
    def test_row_count_must_match_labels(self, n_rows):
        x = np.random.default_rng(7).normal(size=(n_rows, 2))
        labels = np.arange(120) % 2
        with pytest.raises(DataError, match=f"{n_rows} feature rows for 120 labels"):
            kfold_cv(x, labels, lambda *a: None, k=3, seed=0)

    def test_non_finite_feature_rejected(self):
        x, labels = self.labels_with_fraction(60, 0.3, seed=8)
        x[7, 1] = np.nan
        with pytest.raises(DataError, match="finite"):
            kfold_cv(x, labels, partial(train_classifier_fold, config=fast_config(trees=1)),
                     k=3, seed=0)

    def test_missing_class_raises_after_redraw(self):
        x = np.random.default_rng(4).normal(size=(6, 2))
        labels = np.array([0, 0, 0, 0, 0, 1])

        def train_fn(_x, _t, _seed):
            return lambda q: np.zeros(q.shape[0], dtype=int)

        with pytest.raises(DataError, match="missing a class"):
            kfold_cv(x, labels, train_fn, k=2, seed=0)

    def test_bad_k(self):
        x = np.zeros((10, 1))
        labels = np.zeros(10, dtype=int)
        with pytest.raises(DataError):
            kfold_cv(x, labels, lambda *a: None, k=1, seed=0)
        with pytest.raises(DataError):
            kfold_cv(x, labels, lambda *a: None, k=11, seed=0)


class TestSmoothedResiduals:
    def test_zero_residuals(self):
        mct = np.linspace(-100, 300, 50)
        curve = smoothed_residuals(mct, mct.copy(), window=20.0, mode="signed")
        np.testing.assert_array_equal(curve.values, 0.0)

    def test_constant_shift(self):
        mct = np.linspace(-100, 300, 50)
        signed = smoothed_residuals(mct, mct + 7.0, window=20.0, mode="signed")
        absolute = smoothed_residuals(mct, mct + 7.0, window=20.0, mode="absolute")
        np.testing.assert_allclose(signed.values, 7.0, atol=1e-12)
        np.testing.assert_allclose(absolute.values, 7.0, atol=1e-12)

    def test_hand_computed_three_windows(self):
        mct = np.array([0.0, 5.0, 19.0, 21.0, 30.0, 39.0, 45.0, 50.0, 55.0, 59.0])
        resid = np.array([1.0, 2.0, 3.0, -4.0, 5.0, -6.0, 7.0, 8.0, -9.0, 10.0])
        sct = mct + resid
        signed = smoothed_residuals(mct, sct, window=20.0, mode="signed")
        absolute = smoothed_residuals(mct, sct, window=20.0, mode="absolute")
        np.testing.assert_allclose(signed.centers, [10.0, 30.0, 50.0], atol=1e-12)
        np.testing.assert_allclose(signed.values, [2.0, -5.0 / 3.0, 4.0], atol=1e-12)
        np.testing.assert_allclose(absolute.values, [2.0, 5.0, 8.5], atol=1e-12)
        np.testing.assert_array_equal(signed.counts, [3, 3, 4])

    def test_empty_windows_skipped(self):
        mct = np.array([0.0, 1.0, 100.0])
        sct = mct + 1.0
        curve = smoothed_residuals(mct, sct, window=20.0)
        assert curve.centers.shape == (2,)
        np.testing.assert_allclose(curve.centers, [10.0, 110.0])

    def test_count_weighted_mean_identity(self):
        rng = np.random.default_rng(5)
        mct = rng.uniform(-1000, 2000, size=5000)
        sct = mct + rng.normal(scale=30.0, size=5000)
        curve = smoothed_residuals(mct, sct, window=20.0, mode="signed")
        weighted = float(np.sum(curve.values * curve.counts) / np.sum(curve.counts))
        assert weighted == pytest.approx(float(np.mean(sct - mct)), abs=1e-9)

    def test_validation(self):
        with pytest.raises(ValueError):
            smoothed_residuals(np.array([1.0]), np.array([1.0]), window=0.0)
        with pytest.raises(ValueError):
            smoothed_residuals(np.array([0.0, 50.0, 100.0]), np.array([1.0, 2.0, 3.0]),
                               window=np.inf)
        with pytest.raises(DataError):
            smoothed_residuals(np.array([]), np.array([]))
        with pytest.raises(ValueError):
            smoothed_residuals(np.array([1.0]), np.array([1.0]), mode="both")

    def test_window_index_past_2_53(self):
        """Window indices count exactly in float64 only below 2^53; at
        window 1e-300 over 2500 HU the index would overflow int64."""
        mct = np.array([-1000.0, 0.0, 1500.0])
        with pytest.raises(DataError, match="2\\^53"):
            smoothed_residuals(mct, mct + 1.0, window=1e-300)
        with pytest.raises(DataError, match="2\\^53"):
            smoothed_residuals(mct, mct + 1.0, window=5e-324)  # the quotient overflows
        top = np.array([0.0, 2.0**53 - 1.0])  # the largest index still counted
        np.testing.assert_array_equal(smoothed_residuals(top, top, window=1.0).counts, [1, 1])

    def test_peak_memory_does_not_grow_with_windows(self):
        """1000 voxels over 2500 HU at a 0.002 HU window span 1.25 million
        windows, whose dense counts and sums took about 21 MB."""
        rng = np.random.default_rng(3)
        mct = rng.uniform(-1000.0, 1500.0, size=1000)
        mct[:2] = -1000.0, 1500.0
        sct = mct + rng.normal(scale=30.0, size=1000)
        tracemalloc.start()
        try:
            curve = smoothed_residuals(mct, sct, window=0.002)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert curve.counts.sum() == 1000
        assert peak < 1e6

    @settings(max_examples=100, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 300),
        window=st.sampled_from([0.37, 1.0, 20.0, 250.0]),
        mode=st.sampled_from(["signed", "absolute"]),
        ties=st.booleans(),
    )
    def test_occupied_windows_match_dense_count(self, seed, n, window, mode, ties):
        """Counting only the occupied windows gives the bits of counting
        every window of the range and dropping the empty ones."""
        rng = np.random.default_rng(seed)
        mct = rng.uniform(-1000.0, 2000.0, size=n)
        if ties:
            mct = np.round(mct / 50.0) * 50.0
        sct = mct + rng.normal(scale=40.0, size=n)
        curve = smoothed_residuals(mct, sct, window=window, mode=mode)
        bins = np.floor((mct - mct.min()) / window).astype(np.int64)
        resid = sct - mct if mode == "signed" else np.abs(sct - mct)
        counts = np.bincount(bins)
        sums = np.bincount(bins, weights=resid)
        full = counts > 0
        assert curve.centers.tobytes() == (
            mct.min() + (np.flatnonzero(full) + 0.5) * window
        ).tobytes()
        assert curve.values.tobytes() == (sums[full] / counts[full]).tobytes()
        assert curve.counts.tobytes() == counts[full].tobytes()


class TestLooPatientEval:
    def test_copying_predictor_scores_zero(self, small_datasets):
        ct_by_channel_id = {
            id(p.mr_channels[0]): p.ct for p in small_datasets
        }

        class _Copy:
            def __init__(self, ct):
                self.ct = ct

        def trainer(rest, config):
            return object(), None

        def predictor(_model, channels, mask):
            return _Copy(ct_by_channel_id[id(channels[0])])

        report = loo_patient_eval(
            small_datasets, fast_config(window_hu=35.0),
            trainer=trainer, predictor=predictor,
        )
        assert report.window_hu == report.absolute_curve.window == 35.0
        assert len(report.rows) == len(small_datasets)
        for row in report.rows:
            assert row.mae == 0.0
            assert row.bone_mae == 0.0
        assert report.mean_mae == 0.0
        np.testing.assert_array_equal(report.absolute_curve.values, 0.0)

    def test_real_pipeline_report(self, small_datasets, tmp_path):
        report = loo_patient_eval(small_datasets, fast_config())
        assert len(report.rows) == 3
        assert not any(r.failed for r in report.rows)
        assert report.mean_mae < 80.0
        assert report.mean_bone_mae >= report.mean_mae  # bone is the hard region
        # bone MAE consistency: recompute from the volumes directly
        from mr2ct.pipeline import predict_ct, train_pipeline
        from mr2ct.seeding import derive_seed

        ordered = sorted(small_datasets, key=lambda p: p.patient_id)
        held = ordered[0]
        model, _ = train_pipeline(ordered[1:], fast_config(seed=derive_seed(0, 0)))
        result = predict_ct(model, held.mr_channels, held.mask)
        idx = mask_indices(held.mask)
        true_vals = held.ct.data[idx].astype(np.float64)
        pred_vals = result.ct.data[idx].astype(np.float64)
        bone = true_vals > 100.0
        assert report.rows[0].bone_mae == pytest.approx(
            masked_mae(true_vals[bone], pred_vals[bone]), abs=1e-12
        )
        files = write_regression_report(report, tmp_path)
        assert {f.name for f in files} == {
            "per_patient.csv", "residual_curves.csv", "summary.json"
        }
        per_patient = (tmp_path / "per_patient.csv").read_text().strip().splitlines()
        assert len(per_patient) == 1 + 3

    def test_needs_two_patients(self, small_datasets):
        with pytest.raises(DataError):
            loo_patient_eval(small_datasets[:1], fast_config())

    def test_failed_fold_flagged(self, small_datasets):
        calls = {"n": 0}

        def trainer(rest, config):
            calls["n"] += 1
            if calls["n"] == 1:
                raise FitError("synthetic failure")
            from mr2ct.pipeline import train_pipeline

            return train_pipeline(rest, config=config)

        report = loo_patient_eval(small_datasets, fast_config(), trainer=trainer)
        assert sum(r.failed for r in report.rows) == 1
        assert report.rows[0].error == "synthetic failure"
        assert np.isfinite(report.mean_mae)

    def test_bug_in_trainer_propagates(self, small_datasets):
        def trainer(rest, config):
            raise TypeError("synthetic bug")

        with pytest.raises(TypeError, match="synthetic bug"):
            loo_patient_eval(small_datasets, fast_config(), trainer=trainer)

    def test_every_fold_failing_raises(self, small_datasets):
        def trainer(rest, config):
            raise FitError(f"no fit for {len(rest)}")

        with pytest.raises(FitError, match="every leave-one-out fold failed") as info:
            loo_patient_eval(small_datasets, fast_config(), trainer=trainer)
        for p in small_datasets:
            assert f"{p.patient_id}: no fit for" in str(info.value)
