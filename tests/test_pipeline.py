import json
from dataclasses import asdict

import numpy as np
import pytest

import mr2ct.pipeline as pipeline_module
from mr2ct import (
    DataError,
    FeatureLayoutError,
    MixtureModel,
    PipelineConfig,
    TissueGMM,
    Volume,
    generate_phantom,
    load_model,
    predict_ct,
    save_model,
    train_pipeline,
)
from mr2ct.boosting import BoostedEnsemble
from mr2ct.mixture import conditional_expectation_many
from mr2ct.pipeline import PipelineModel, model_from_dict, model_to_dict

from conftest import fast_config


class TestConfig:
    def test_default_grid_includes_five_and_six(self):
        cfg = PipelineConfig()
        for grid in cfg.j_candidates:
            assert 5 in grid and 6 in grid

    def test_roundtrip(self):
        cfg = fast_config()
        back = PipelineConfig.from_dict(json.loads(json.dumps(asdict(cfg))))
        assert back == cfg

    def test_validation(self):
        with pytest.raises(ValueError):
            PipelineConfig(j_candidates=((), (1,)))
        with pytest.raises(ValueError):
            PipelineConfig(selection_criterion="rmse")

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("fill", [np.nan, np.inf, -np.inf, 1e39])
    def test_fill_must_be_finite_in_float32(self, fill):
        with pytest.raises(ValueError, match="fill_hu"):
            PipelineConfig(fill_hu=fill)

    def test_order_checked_on_construction(self):
        with pytest.raises(ValueError, match="order"):
            PipelineConfig(neighborhood_order="third")


class TestTrain:
    def test_report_contents(self, small_datasets):
        cfg = fast_config(classifier_cv_folds=2)
        model, report = train_pipeline(small_datasets, cfg, seed=0)
        assert len(model.selected_j) == 2
        assert all(j in (1, 2) for j in model.selected_j)
        assert len(report.selection) == 2
        for sel in report.selection:
            assert len(sel.scores) == 2
        assert report.classifier_cv is not None
        assert 0.0 <= report.classifier_cv["err"] <= 1.0
        assert report.classifier_training_error <= 0.05
        assert report.label_counts[1] > 0

    def test_needs_two_patients(self, small_datasets):
        with pytest.raises(DataError, match="two patients"):
            train_pipeline(small_datasets[:1], fast_config(), seed=0)

    def test_duplicate_ids_rejected(self, small_datasets):
        with pytest.raises(DataError, match="duplicate"):
            train_pipeline([small_datasets[0], small_datasets[0]], fast_config(), seed=0)

    def test_seed_determinism_bytes(self, small_datasets, tmp_path):
        cfg = fast_config()
        model_a, _ = train_pipeline(small_datasets, cfg, seed=3)
        model_b, _ = train_pipeline(small_datasets, cfg, seed=3)
        save_model(model_a, tmp_path / "a.json")
        save_model(model_b, tmp_path / "b.json")
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    def test_seed_changes_model(self, small_datasets, tmp_path):
        cfg = fast_config()
        model_a, _ = train_pipeline(small_datasets, cfg, seed=3)
        model_b, _ = train_pipeline(small_datasets, cfg, seed=4)
        save_model(model_a, tmp_path / "a.json")
        save_model(model_b, tmp_path / "b.json")
        assert (tmp_path / "a.json").read_bytes() != (tmp_path / "b.json").read_bytes()

    def test_patient_order_invariance(self, small_datasets):
        cfg = fast_config()
        model_a, _ = train_pipeline(small_datasets, cfg, seed=1)
        model_b, _ = train_pipeline(list(reversed(small_datasets)), cfg, seed=1)
        assert json.dumps(model_to_dict(model_a)) == json.dumps(model_to_dict(model_b))


@pytest.fixture(scope="module")
def trained(small_datasets):
    model, _ = train_pipeline(small_datasets[:2], fast_config(), seed=0)
    return model


class TestPredict:
    def test_geometry_preserved(self, trained, small_datasets):
        held = small_datasets[2]
        result = predict_ct(trained, held.mr_channels, held.mask)
        assert result.ct.dims == held.dims
        assert result.ct.spacing == held.ct.spacing
        assert result.labels.dims == held.dims

    def test_reasonable_error(self, trained, small_cohort, small_spec):
        held = small_cohort[2]
        result = predict_ct(trained, held.dataset.mr_channels, held.dataset.mask)
        mae = np.abs(result.ct.data - held.dataset.ct.data).mean()
        assert mae < 80.0  # far below the ~400 HU marginal spread of the truth

    def test_all_zero_mask_filled(self, trained, small_datasets):
        held = small_datasets[2]
        empty = Volume(dims=held.dims, spacing=held.ct.spacing,
                       data=np.zeros(held.ct.n_voxels))
        result = predict_ct(trained, held.mr_channels, empty)
        assert result.n_predicted == 0
        assert np.all(result.ct.data == trained.config.fill_hu)
        assert np.all(result.labels.data == 0.0)

    def test_classifier_gets_column_major_features(self, trained, small_datasets,
                                                   monkeypatch):
        """Routing speed rests on one contiguous column per split feature,
        and the classifier reads the extracted matrix itself, not a copy."""
        extracted, seen = [], []
        extract = pipeline_module.extract_feature_matrix
        scores = BoostedEnsemble.scores

        def extract_spy(*args):
            result = extract(*args)
            extracted.append(result[2])
            return result

        def scores_spy(self, x, n_learners=None):
            seen.append(x)
            return scores(self, x, n_learners)

        monkeypatch.setattr(pipeline_module, "extract_feature_matrix", extract_spy)
        monkeypatch.setattr(BoostedEnsemble, "scores", scores_spy)
        held = small_datasets[2]
        predict_ct(trained, held.mr_channels, held.mask)
        assert len(extracted) == 1 and len(seen) == 1
        assert seen[0] is extracted[0]
        assert seen[0].flags.f_contiguous and not seen[0].flags.c_contiguous

    def test_channel_count_mismatch(self, trained, small_datasets):
        held = small_datasets[2]
        with pytest.raises(FeatureLayoutError, match="channels"):
            predict_ct(trained, held.mr_channels[:3], held.mask)

    def test_hard_label_gating(self, trained, small_datasets):
        """Swapping the class-0 regressor never moves voxels predicted class 1."""
        held = small_datasets[2]
        result = predict_ct(trained, held.mr_channels, held.mask)
        dim = trained.regressors.dim
        other = MixtureModel(
            weights=[1.0],
            means=np.full((1, dim), 77.0),
            covariances=(100.0 * np.eye(dim))[None],
        )
        patched = PipelineModel(
            classifier=trained.classifier,
            regressors=TissueGMM(models=(other, trained.regressors[1])),
            config=trained.config,
            layout=trained.layout,
            seed=trained.seed,
            selected_j=trained.selected_j,
        )
        patched_result = predict_ct(patched, held.mr_channels, held.mask)
        bone_voxels = result.labels.data == 1.0
        assert bone_voxels.any()
        np.testing.assert_array_equal(
            result.ct.data[bone_voxels], patched_result.ct.data[bone_voxels]
        )
        np.testing.assert_array_equal(result.labels.data, patched_result.labels.data)

    def test_equals_oracle_where_classifier_agrees(self, small_cohort, small_spec,
                                                   small_datasets):
        """A model carrying the generator's true mixtures predicts exactly the
        oracle value at every voxel whose predicted label matches the truth."""
        from mr2ct import TissueGMM, oracle_predict_ct

        base, _ = train_pipeline(small_datasets[:2], fast_config(), seed=0)
        truth_model = PipelineModel(
            classifier=base.classifier,
            regressors=TissueGMM(models=small_spec.class_models),
            config=base.config,
            layout=base.layout,
            seed=base.seed,
            selected_j=(2, 2),
        )
        held = small_cohort[2]
        result = predict_ct(truth_model, held.dataset.mr_channels, held.dataset.mask)
        oracle = oracle_predict_ct(
            small_spec.class_models, held.true_labels,
            held.dataset.mr_channels, held.dataset.mask,
        )
        agree = result.labels.data == held.true_labels.data
        assert agree.mean() > 0.95
        np.testing.assert_allclose(
            result.ct.data[agree], oracle.data[agree], rtol=0, atol=1e-10
        )

    def test_true_label_gating_at_least_as_good(self):
        """With overlapping classes, gating on the true labels beats gating on
        the classifier's labels on average over seeds."""
        from mr2ct.phantom import PhantomSpec, _factor_model

        def overlapping_models():
            corr = (0.6, 0.6)
            m0a, c0a = _factor_model(-300.0, 90.0, (30.0, 40.0), (20.0, 22.0), corr)
            m0b, c0b = _factor_model(20.0, 35.0, (60.0, 66.0), (20.0, 22.0), corr)
            m1a, c1a = _factor_model(500.0, 120.0, (95.0, 100.0), (20.0, 22.0), corr)
            m1b, c1b = _factor_model(800.0, 120.0, (120.0, 128.0), (20.0, 22.0), corr)
            non_bone = MixtureModel(weights=[0.4, 0.6], means=np.vstack([m0a, m0b]),
                                    covariances=np.stack([c0a, c0b]))
            bone = MixtureModel(weights=[0.5, 0.5], means=np.vstack([m1a, m1b]),
                                covariances=np.stack([c1a, c1b]))
            return non_bone, bone

        spec = PhantomSpec(dims=(12, 12, 12), n_channels=2,
                           class_models=overlapping_models(), minority_fraction=0.25)
        gaps = []
        for seed in range(5):
            cohort = generate_phantom(spec, n_patients=3, seed=seed)
            datasets = [c.dataset for c in cohort]
            model, _ = train_pipeline(datasets[:2], fast_config(), seed=seed)
            held = cohort[2]
            result = predict_ct(model, held.dataset.mr_channels, held.dataset.mask)
            truth = held.dataset.ct.data.astype(np.float64)
            mae_pred = np.abs(result.ct.data - truth).mean()
            x = np.column_stack(
                [c.data.astype(np.float64) for c in held.dataset.mr_channels]
            )
            oracle_est = np.empty(truth.shape)
            for k in range(2):
                rows = np.flatnonzero(held.true_labels.data == k)
                oracle_est[rows], _ = conditional_expectation_many(
                    model.regressors[k], x[rows]
                )
            mae_true = np.abs(oracle_est - truth).mean()
            gaps.append(mae_true - mae_pred)
        assert np.mean(gaps) <= 0.0


class TestBundle:
    def test_roundtrip_predictions(self, small_datasets, tmp_path):
        model, _ = train_pipeline(small_datasets[:2], fast_config(), seed=0)
        path = tmp_path / "model.json"
        save_model(model, path)
        back = load_model(path)
        held = small_datasets[2]
        a = predict_ct(model, held.mr_channels, held.mask)
        b = predict_ct(back, held.mr_channels, held.mask)
        np.testing.assert_array_equal(a.ct.data, b.ct.data)
        np.testing.assert_array_equal(a.labels.data, b.labels.data)
        assert back.selected_j == model.selected_j

    def test_kind_checked(self, small_datasets):
        model, _ = train_pipeline(small_datasets[:2], fast_config(), seed=0)
        d = model_to_dict(model)
        d["kind"] = "something-else"
        from mr2ct.errors import ModelError

        with pytest.raises(ModelError):
            model_from_dict(d)
